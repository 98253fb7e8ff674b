import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from skyindex import oracle, pyramid, zones
from skyindex.algebra import RegionStore
from skyindex.geom import (
    Convex,
    HalfSpace,
    Region,
    SkyPoint,
    UnitVec3,
    arc_deg,
    arc_distance_deg,
    convex_boundary_vertices,
    euclidean_miniball,
    inside_region,
    sky_to_vec,
    vec_to_sky,
)
from skyindex.pyramid import (
    PyramidConfig,
    PyramidError,
    PyramidIndex,
    _far_point_on_circle,
    bounding_circle,
    bounding_circle_rows,
    overlap_search,
    scale_of,
)
from skyindex.regionspec import RegionCompileError, compile_region_string
from skyindex.snapshot import AppState, load_state, save_state

from conftest import (
    add_region,
    edge_dec,
    edge_ra,
    generate_corpus_specs,
    membership_with_guard,
    near_max_radius,
    rotate_toward,
    sample_cap,
    sample_sphere,
)


class TestConfig:
    def test_scale_count(self):
        cfg = PyramidConfig(base_zone_height=0.5 / 60.0)
        assert cfg.max_scale == 15
        assert cfg.zone_height(cfg.max_scale) >= 180.0

    def test_scale_of_examples(self):
        cfg = PyramidConfig()
        base = cfg.base_zone_height
        assert scale_of(base, cfg) == 0
        assert scale_of(3 * base, cfg) == 2
        assert scale_of(180.0, cfg) == cfg.max_scale
        assert scale_of(0.5 * base, cfg) == 0

    def test_scale_of_rejects_nonpositive(self):
        cfg = PyramidConfig()
        with pytest.raises(PyramidError):
            scale_of(0.0, cfg)
        with pytest.raises(PyramidError):
            scale_of(-1.0, cfg)

    @pytest.mark.parametrize("height", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_height_not_positive_and_finite(self, height):
        with pytest.raises(PyramidError, match="base_zone_height"):
            PyramidConfig(base_zone_height=height)

    def test_zone_count_ceiling(self):
        assert PyramidConfig(base_zone_height=180.0 / zones.MAX_ZONE_COUNT).max_scale == 20
        with pytest.raises(PyramidError, match="base_zone_height"):
            PyramidConfig(base_zone_height=180.0 / (zones.MAX_ZONE_COUNT + 1))

    @pytest.mark.parametrize("base", [0.5 / 60.0, 0.1, 180.0 / 512.0, 180.0 / zones.MAX_ZONE_COUNT, 7.0])
    def test_array_scale_of_matches_scalar_rule(self, rng, base):
        def scalar_rule(r, cfg):
            m = int(math.ceil(r / cfg.base_zone_height - 1e-12))
            return min((max(m, 1) - 1).bit_length(), cfg.max_scale)

        cfg = PyramidConfig(base_zone_height=base)
        radii = [base / 3, 180.0, math.nextafter(180.0, 0.0), 5e-324]
        for k in range(cfg.max_scale + 1):
            r = base * 2.0**k
            radii += [math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)]
        radii += np.exp(rng.uniform(np.log(1e-6), np.log(180.0), 2000)).tolist()
        radii = [r for r in radii if 0.0 < r <= 180.0]
        want = [scalar_rule(r, cfg) for r in radii]
        got = scale_of(np.array(radii), cfg)
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert [scale_of(r, cfg) for r in radii] == want

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.nextafter(180.0, math.inf), math.inf])
    def test_array_scale_of_rejects_radius_outside_0_180(self, radius):
        with pytest.raises(PyramidError, match="bounding radius outside"):
            scale_of(np.array([1.0, radius, 2.0]), PyramidConfig())

    def test_scale_accommodates_radius(self, rng):
        cfg = PyramidConfig()
        for _ in range(300):
            r = float(np.exp(rng.uniform(np.log(1e-4), np.log(180.0))))
            s = scale_of(r, cfg)
            assert cfg.zone_height(s) >= r or s == cfg.max_scale
            if s > 0:
                assert cfg.zone_height(s - 1) < r


class TestInsert:
    def test_tiny_radius_scale_zero(self):
        idx = PyramidIndex()
        assert idx.insert(1, SkyPoint(10, 10), idx.cfg.base_zone_height / 3) == 0

    def test_hemisphere_scale_top_single_zone(self):
        idx = PyramidIndex()
        s = idx.insert(1, SkyPoint(10, 10), 170.0)
        assert s == idx.cfg.max_scale
        assert idx.scales() == [s]
        assert zones.zone_column(idx.columns()["dec"], idx.cfg.zone_height(s)).tolist() == [0]

    def test_margin_duplicate_near_meridian(self):
        """No margin duplicate: an entry beside ra = 0 keeps one row, and
        queries from either side of ra = 0 find it."""
        idx = PyramidIndex()
        idx.insert(1, SkyPoint(0.001, 0.0), idx.cfg.base_zone_height / 2)
        assert idx.columns()["ra"].tolist() == [0.001]
        for ra in (359.995, 0.0, 0.007):
            assert overlap_search(idx, SkyPoint(ra, 0.0), 0.005) == [1]
        assert overlap_search(idx, SkyPoint(359.99, 0.0), 0.005) == []

    def test_duplicate_objid_rejected(self):
        idx = PyramidIndex()
        idx.insert(1, SkyPoint(10, 10), 1.0)
        with pytest.raises(PyramidError):
            idx.insert(1, SkyPoint(20, 20), 1.0)


    @pytest.mark.parametrize("objid", [2**63, -(2**63) - 1, 2**70])
    def test_objid_outside_int64_rejected(self, objid):
        idx = PyramidIndex()
        centers = [SkyPoint(10.0, 10.0), SkyPoint(11.0, 10.5), SkyPoint(359.5, -3.0)]
        radii = np.array([1.0, 0.2, 2.0])
        for i, (c, r) in enumerate(zip(centers, radii)):
            idx.insert(i, c, r)
        with pytest.raises(PyramidError, match="int64"):
            idx.insert(objid, SkyPoint(1.0, 2.0), 0.5)
        assert len(idx) == 3
        ex, ey, ez = (np.array(c) for c in zip(*(sky_to_vec(c).as_tuple() for c in centers)))
        for q, qr in ((SkyPoint(10.5, 10.0), 1.0), (SkyPoint(0.0, -3.0), 1.0)):
            assert overlap_search(idx, q, qr) == oracle.overlap_scan(ex, ey, ez, radii, q, qr)
        assert idx.insert(2**63 - 1, SkyPoint(1.0, 2.0), 0.5) == 6

    @pytest.mark.parametrize("objid", [1.5, np.float64(2.0), "3"])
    def test_objid_not_an_integer_rejected(self, objid, tmp_path):
        # 1.5 once passed the duplicate check beside objid 1 and was
        # stored as a second objid 1, so the saved index failed to load
        idx = PyramidIndex()
        idx.insert(1, SkyPoint(10.0, 10.0), 1.0)
        with pytest.raises(PyramidError, match="not an integer"):
            idx.insert(objid, SkyPoint(20.0, 20.0), 1.0)
        idx.insert(np.int64(2), SkyPoint(30.0, 30.0), 1.0)
        idx.insert(3, SkyPoint(40.0, 40.0), 1.0)
        assert len(idx) == 3 and idx.columns()["objid"].tolist() == [1, 2, 3]
        save_state(AppState(pyramid=idx), tmp_path / "p.snap")
        assert load_state(tmp_path / "p.snap").pyramid.columns()["objid"].tolist() == [1, 2, 3]


class TestCandidateZones:
    """The (scale, zone) band that overlap_search masks, seen through the
    scale_band calls it makes on a pyramid with an entry in every zone of
    every scale."""

    # 10-scale configuration: base height * 2^9 covers the sphere
    CFG = PyramidConfig(base_zone_height=180.0 / 512.0)

    @pytest.fixture(scope="class")
    def full(self):
        cfg = self.CFG
        idx = PyramidIndex(cfg)
        for s in range(cfg.max_scale + 1):
            h = cfg.zone_height(s)
            for z in range(math.ceil(180.0 / h)):
                dec = min(90.0, -90.0 + (z + 0.5) * h)
                assert idx.insert(len(idx), SkyPoint(90.0, dec), 0.75 * h) == s
        return idx

    def scanned(self, idx, monkeypatch, dec, radius):
        scale = {self.CFG.zone_height(s): s for s in range(self.CFG.max_scale + 1)}
        calls = set()
        band = pyramid.scale_band

        def spy(heights, dec, r):
            lo, hi = band(heights, dec, r)
            for h, z0, z1 in zip(heights.tolist(), lo.tolist(), hi.tolist()):
                calls.update((scale[h], z) for z in range(int(z0), int(z1) + 1))
            return lo, hi

        with monkeypatch.context() as m:
            m.setattr(pyramid, "scale_band", spy)
            overlap_search(idx, SkyPoint(90.0, dec), radius)
        return calls

    def test_degenerate_radius_bands(self, full, monkeypatch):
        by_scale = {}
        for s, z in self.scanned(full, monkeypatch, 0.0, 0.0):
            by_scale.setdefault(s, []).append(z)
        assert set(by_scale) == set(range(self.CFG.max_scale + 1))
        assert all(len(v) <= 4 for v in by_scale.values())

    def test_ten_scale_moderate_radius_count(self, full, monkeypatch):
        assert self.CFG.max_scale == 9
        assert 10 <= len(self.scanned(full, monkeypatch, 10.0, 1.0)) <= 60

    def test_completeness(self, full, monkeypatch, rng):
        cfg = self.CFG
        # random entries; any entry overlapping the query circle must have
        # its (scale, zone) scanned
        for _ in range(40):
            q_dec = float(np.degrees(np.arcsin(rng.uniform(-1, 1))))
            q_r = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
            listed = self.scanned(full, monkeypatch, q_dec, q_r)
            for _ in range(30):
                e_dec = float(np.degrees(np.arcsin(rng.uniform(-1, 1))))
                e_r = float(np.exp(rng.uniform(np.log(1e-3), np.log(5.0))))
                if abs(e_dec - q_dec) >= q_r + e_r:
                    continue  # cannot overlap regardless of ra
                s = scale_of(e_r, cfg)
                h = cfg.zone_height(s)
                z = min(int((e_dec + 90.0) // h), math.ceil(180.0 / h) - 1)
                assert (s, z) in listed


class TestOverlapSearch:
    def _build(self, rng, n):
        idx = PyramidIndex()
        ra = rng.uniform(0, 360, n)
        dec = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        radii = np.exp(rng.uniform(np.log(1e-3), np.log(5.0), n))
        for i in range(n):
            idx.insert(i, SkyPoint(float(ra[i]), float(dec[i])), float(radii[i]))
        rr, dd = np.radians(ra), np.radians(dec)
        ex, ey, ez = np.cos(dd) * np.cos(rr), np.cos(dd) * np.sin(rr), np.sin(dd)
        return idx, (ex, ey, ez, radii)

    def test_loaded_index_same_as_built(self, rng, tmp_path):
        # inserts and a load both derive x, y, z as rows are sorted in, so
        # the two indexes hold the same bits and give the same answers
        idx, _ = self._build(rng, 3000)
        edge = [(0.0, 0.0), (0.0, 90.0), (180.0, -90.0), (359.9999, 89.99), (1e-9, -89.9),
                (math.nextafter(360.0, 0.0), 12.0)]
        for i, (ra, dec) in enumerate(edge):
            idx.insert(3000 + i, SkyPoint(ra, dec), 0.5 + i)
        path = tmp_path / "p.snap"
        save_state(AppState(pyramid=idx), path)
        loaded = load_state(path).pyramid
        assert list(loaded.columns()) == ["objid", "ra", "dec", "radius"]
        for k, col in idx._cols.items():
            assert loaded._cols[k].tobytes() == col.tobytes(), k
        n = 222
        ra = rng.uniform(0, 360, n)
        dec = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        ra[:40] = rng.uniform(-0.5, 0.5, 40) % 360  # beside ra 0
        dec[40:80] = rng.uniform(85, 90, 40) * rng.choice([-1, 1], 40)  # near a pole
        radii = np.exp(rng.uniform(np.log(0.01), np.log(20.0), n))
        queries = [(SkyPoint(*e), r) for e in edge for r in (0.01, 1.0, 30.0)]
        queries += [(SkyPoint(a, d), r) for a, d, r in zip(ra.tolist(), dec.tolist(), radii.tolist())]
        for q, r in queries:
            built_stats, loaded_stats = {}, {}
            assert overlap_search(loaded, q, r, loaded_stats) == overlap_search(idx, q, r, built_stats)
            assert loaded_stats == built_stats

    def test_far_query_empty(self, rng):
        idx = PyramidIndex()
        idx.insert(1, SkyPoint(10, 10), 0.5)
        assert overlap_search(idx, SkyPoint(190, -10), 0.5) == []

    def test_concentric_always_found(self, rng):
        idx = PyramidIndex()
        idx.insert(1, SkyPoint(10, 10), 0.01)
        for r in (0.001, 0.5, 20.0, 170.0):
            assert overlap_search(idx, SkyPoint(10, 10), r) == [1]

    def test_matches_brute_force(self, rng):
        idx, (ex, ey, ez, radii) = self._build(rng, 4000)
        for _ in range(50):
            q = SkyPoint(
                float(rng.uniform(0, 360)),
                float(np.degrees(np.arcsin(rng.uniform(-1, 1)))),
            )
            qr = float(np.exp(rng.uniform(np.log(0.01), np.log(5.0))))
            got = overlap_search(idx, q, qr)
            want = sorted(oracle.overlap_scan(ex, ey, ez, radii, q, qr))
            assert got == want

    def test_inserts_between_queries(self, rng):
        # each query rebuilds the scales that received entries since the
        # last one, keeping the entries already there
        idx = PyramidIndex()
        ra, dec, radii = [], [], []
        for batch in range(6):
            for _ in range(50 if batch else 600):
                ra.append(float(rng.uniform(0, 360)))
                dec.append(float(np.degrees(np.arcsin(rng.uniform(-1, 1)))))
                radii.append(float(np.exp(rng.uniform(np.log(1e-3), np.log(5.0)))))
                idx.insert(len(ra) - 1, SkyPoint(ra[-1], dec[-1]), radii[-1])
            rr, dd = np.radians(ra), np.radians(dec)
            ex, ey, ez = np.cos(dd) * np.cos(rr), np.cos(dd) * np.sin(rr), np.sin(dd)
            for _ in range(10):
                q = SkyPoint(float(rng.uniform(0, 360)), float(np.degrees(np.arcsin(rng.uniform(-1, 1)))))
                qr = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
                want = sorted(oracle.overlap_scan(ex, ey, ez, np.array(radii), q, qr))
                assert overlap_search(idx, q, qr) == want

    def test_pole_and_meridian_queries(self, rng):
        idx, (ex, ey, ez, radii) = self._build(rng, 4000)
        for q in (
            SkyPoint(0.02, 0.0),
            SkyPoint(359.99, 45.0),
            SkyPoint(123.0, 89.9),
            SkyPoint(7.0, -89.8),
        ):
            got = overlap_search(idx, q, 1.0)
            want = sorted(oracle.overlap_scan(ex, ey, ez, radii, q, 1.0))
            assert got == want

    def test_clustered_entries_extreme_radii(self, rng):
        idx = PyramidIndex()
        n = 3000
        ra = np.concatenate([rng.uniform(0, 360, n // 2), rng.uniform(359.5, 360, n // 4), rng.uniform(0, 0.5, n - n // 2 - n // 4)])
        dec = np.concatenate([np.degrees(np.arcsin(rng.uniform(-1, 1, n // 2))), rng.uniform(85, 90, n // 4), rng.uniform(-90, -85, n - n // 2 - n // 4)])
        radii = np.exp(rng.uniform(np.log(1e-4), np.log(30.0), n))
        for i in range(n):
            idx.insert(i, SkyPoint(float(ra[i]), float(dec[i])), float(radii[i]))
        rr, dd = np.radians(ra), np.radians(dec)
        ex, ey, ez = np.cos(dd) * np.cos(rr), np.cos(dd) * np.sin(rr), np.sin(dd)
        for k in range(30):
            if k % 3 == 0:
                q = SkyPoint(float(rng.uniform(0, 360)), float(rng.uniform(88, 90)) * (1 if k % 2 else -1))
            else:
                q = SkyPoint(float(rng.uniform(-0.2, 0.2)) % 360, float(np.degrees(np.arcsin(rng.uniform(-1, 1)))))
            qr = float(rng.choice([1e-4, 0.05, 1.0, 10.0, 60.0, 179.0]))
            got = overlap_search(idx, q, qr)
            want = sorted(oracle.overlap_scan(ex, ey, ez, radii, q, qr))
            assert got == want

    def test_stage_counts_monotone(self, rng):
        idx, _ = self._build(rng, 4000)
        for _ in range(30):
            q = SkyPoint(
                float(rng.uniform(0, 360)),
                float(np.degrees(np.arcsin(rng.uniform(-1, 1)))),
            )
            stats = {}
            overlap_search(idx, q, float(rng.uniform(0.01, 3.0)), stats=stats)
            assert (
                stats["zone_scale"]
                >= stats["ra"]
                >= stats["fine_ra"]
                >= stats["dec"]
                >= stats["geometry"]
                >= stats["matched"]
            )

    @staticmethod
    def _checked_search(entries, center, r):
        """overlap_search on an index of the (ra, dec, radius) entries,
        checked against oracle.overlap_scan and for a monotone stage
        chain; returns the stats."""
        idx = PyramidIndex()
        for i, (ra, dec, er) in enumerate(entries):
            idx.insert(i, SkyPoint(ra, dec), er)
        vecs = [sky_to_vec(SkyPoint(ra, dec)) for ra, dec, _ in entries]
        ex, ey, ez = (np.array([getattr(v, c) for v in vecs]) for c in "xyz")
        radii = np.array([er for _, _, er in entries])
        stats = {}
        assert overlap_search(idx, center, r, stats=stats) == oracle.overlap_scan(ex, ey, ez, radii, center, r)
        chain = [stats[k] for k in ("zone_scale", "ra", "fine_ra", "dec", "geometry", "matched")]
        assert chain == sorted(chain, reverse=True)
        return stats

    def test_no_candidate_on_any_scale(self):
        # an empty index, entries outside every scale's dec band, and
        # entries inside the bands but outside the ra windows
        assert self._checked_search([], SkyPoint(10.0, 0.0), 1.0)["zone_scale"] == 0
        far_dec = [(10.0, 60.0, 0.01), (10.0, -60.0, 2.0)]
        assert self._checked_search(far_dec, SkyPoint(10.0, 0.0), 1.0)["zone_scale"] == 0
        far_ra = [(190.0, 0.0, 0.01), (200.0, 0.5, 2.0), (350.0, -0.5, 0.5)]
        stats = self._checked_search(far_ra, SkyPoint(10.0, 0.0), 1.0)
        assert stats["zone_scale"] == 3
        assert [stats[k] for k in ("ra", "fine_ra", "dec", "geometry", "matched")] == [0] * 5

    def test_one_scale_fails_fine_ra_entirely(self):
        # radius 3 lands on the 512-arcminute-band scale (h = 4.27 deg),
        # whose ra window at dec 0 reaches 1 + h: entries 4.5 deg away
        # are scanned but fail the fine ra stage (4.5 > 1 + 3)
        assert scale_of(3.0, PyramidConfig()) == 9
        entries = [(104.5, 0.0, 3.0), (95.5, 0.2, 3.0), (100.5, 0.0, 0.01), (99.0, 0.3, 0.5)]
        stats = self._checked_search(entries, SkyPoint(100.0, 0.0), 1.0)
        assert (stats["ra"], stats["fine_ra"], stats["matched"]) == (4, 2, 2)

    def test_query_radius_180_finds_every_entry(self, rng):
        ra = rng.uniform(0.0, 360.0, 300)
        dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 300)))
        radii = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 300))
        entries = [(float(a), float(d), float(r)) for a, d, r in zip(ra, dec, radii)]
        for center in (SkyPoint(0.0, 0.0), SkyPoint(200.0, 90.0), SkyPoint(359.9, -45.0)):
            assert self._checked_search(entries, center, 180.0)["matched"] == 300

    def test_query_radius_above_180_refused(self):
        idx = PyramidIndex()
        idx.insert(1, SkyPoint(10.0, 0.0), 1.0)
        assert overlap_search(idx, SkyPoint(190.0, 0.0), 180.0) == [1]
        for r in (math.nextafter(180.0, math.inf), 1e300):
            with pytest.raises(PyramidError, match="radius out of"):
                overlap_search(idx, SkyPoint(190.0, 0.0), r)

    def test_zone_scale_count_brute_force(self, rng):
        # an entry is a zone_scale candidate when its zone lies in the band
        # of its scale, counted here entry by entry with scalar arithmetic
        idx, _ = self._build(rng, 3000)
        cols = idx.columns()
        cfg = idx.cfg
        entries = []  # (zone height, top zone, zone) of each entry
        for dec, er in zip(cols["dec"].tolist(), cols["radius"].tolist()):
            h = cfg.zone_height(scale_of(er, cfg))
            top = math.ceil(180.0 / h) - 1
            entries.append((h, top, min(math.floor((dec + 90.0) / h), top)))
        for k in range(60):
            q = SkyPoint(float(rng.uniform(0, 360)), float(rng.uniform(-90, 90)) if k % 4 else 89.5)
            qr = float(np.exp(rng.uniform(np.log(0.01), np.log(20.0))))
            want = 0
            for h, top, zone in entries:
                lo = max(0, math.floor((q.dec + 90.0 - qr - h) / h))
                hi = min(top, math.floor((q.dec + 90.0 + qr + h) / h))
                want += lo <= zone <= hi
            stats = {}
            overlap_search(idx, q, qr, stats=stats)
            assert stats["zone_scale"] == want

    def test_stage_totals_pinned(self):
        # summed stage counts of a seeded query set, as the pyramid gave
        # them when it binary-searched each zone of a band: masking the
        # band's rows instead must not move any of them
        rng = np.random.default_rng(20261018)
        n = 3000
        ra = rng.uniform(0, 360, n)
        dec = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        ra[:300] = np.mod(rng.uniform(-1, 1, 300), 360.0)
        dec[300:600] = np.sign(rng.uniform(-1, 1, 300)) * rng.uniform(88, 90, 300)
        radii = np.exp(rng.uniform(np.log(1e-3), np.log(5.0), n))
        idx = PyramidIndex()
        for i in range(n):
            idx.insert(i, SkyPoint(float(ra[i]), float(dec[i])), float(radii[i]))
        keys = ("zone_scale", "ra", "fine_ra", "dec", "geometry", "matched")
        total = dict.fromkeys(keys, 0)
        for _ in range(300):
            q = SkyPoint(float(rng.uniform(0, 360)), float(np.degrees(np.arcsin(rng.uniform(-1, 1)))))
            stats = {}
            overlap_search(idx, q, float(np.exp(rng.uniform(np.log(0.01), np.log(20.0)))), stats=stats)
            for key in keys:
                total[key] += stats[key]
        assert [total[k] for k in keys] == [46138, 3358, 2966, 2619, 2081, 2076]


class TestBoundingCircle:
    def test_single_circle_exact(self):
        region = compile_region_string("CIRCLE J2000 30 20 3")
        center, radius = bounding_circle(region)
        assert arc_distance_deg(center, sky_to_vec(SkyPoint(30, 20))) < 1e-9
        assert radius == pytest.approx(0.05, abs=1e-9)

    def test_whole_sphere(self):
        assert bounding_circle(Region((Convex(()),)))[1] == 180.0

    def test_empty_region_errors(self):
        with pytest.raises(PyramidError):
            bounding_circle(Region(()))

    def test_octant_sampled_containment(self, rng):
        region = compile_region_string("POLY J2000 0 0 0 90 180 0")
        center, radius = bounding_circle(region)
        for p in sample_sphere(rng, 10000):
            if inside_region(region, p):
                assert arc_distance_deg(center, p) <= radius + 1e-9

    def test_corpus_containment(self, corpus_regions, rng):
        for text, region in corpus_regions:
            if not region.convexes:
                continue
            center, radius = bounding_circle(region)
            pts = sample_sphere(rng, 400)
            pts += sample_cap(rng, center, min(radius * 1.2 + 0.5, 180.0), 400)
            for p in pts:
                if inside_region(region, p):
                    assert arc_distance_deg(center, p) <= radius + 1e-7, text

    def test_annulus_rim_covered(self, rng):
        # cap minus a smaller co-axial cap: the far rim is the hole's circle
        outer = HalfSpace(UnitVec3(0, 0, 1), math.cos(math.radians(30)))
        hole = HalfSpace(UnitVec3(0, 0, -1), -math.cos(math.radians(10)))
        region = Region((Convex((outer, hole)),))
        center, radius = bounding_circle(region)
        for p in sample_cap(rng, UnitVec3(0, 0, 1), 30.0, 3000):
            if inside_region(region, p):
                assert arc_distance_deg(center, p) <= radius + 1e-9


# -- bounding circles: soundness, pinned bits, the miniball ------------------


def kept(p, rows, skip):
    """Whether p lies in the closure of every row but row skip."""
    return all(p[0] * nx + p[1] * ny + p[2] * nz >= l for k, (nx, ny, nz, l) in enumerate(rows) if k != skip)


def mp_features(c, rows) -> list[list[mpmath.mpf]]:
    """At 80 digits, one convex's boundary vertices and the far point from
    c of each of its circles, each kept when the convex's other rows hold
    it: the points a bounding circle about c must reach. A row is its
    normal's exact direction with its l, as the circle code takes it; two
    normals within 1e-30 of parallel give no vertex."""
    with mpmath.workdps(80):
        def unit(v):
            v = [mpmath.mpf(x) for x in v]
            s = mpmath.sqrt(sum(x * x for x in v))
            return [x / s for x in v]

        def dot(a, b):
            return sum(x * y for x, y in zip(a, b))

        rows = [(unit(h[:3]), mpmath.mpf(h[3])) for h in rows]

        def holds(p, *skip):
            return all(dot(p, n) >= l - mpmath.mpf(1e-40) for k, (n, l) in enumerate(rows) if k not in skip)

        out = []
        for i, (n1, l1) in enumerate(rows):
            for j in range(i + 1, len(rows)):
                n2, l2 = rows[j]
                d = dot(n1, n2)
                if 1 - d * d < 1e-60:
                    continue
                q = [((l1 - l2 * d) * a + (l2 - l1 * d) * b) / (1 - d * d) for a, b in zip(n1, n2)]
                cross = [n1[1] * n2[2] - n1[2] * n2[1], n1[2] * n2[0] - n1[0] * n2[2], n1[0] * n2[1] - n1[1] * n2[0]]
                g2 = (1 - dot(q, q)) / dot(cross, cross)
                if g2 >= 0:
                    g = mpmath.sqrt(g2)
                    out += [p for p in ([a + s * g * b for a, b in zip(q, cross)] for s in (1, -1)) if holds(p, i, j)]
        c = unit(c)
        for i, (n, l) in enumerate(rows):
            if l >= 1:
                continue
            if l <= -1:  # the circle is the one point -n
                f = [-x for x in n]
            else:
                t = [a - dot(c, n) * b for a, b in zip(c, n)]
                if dot(t, t) < 1e-60:  # c on the axis: every circle point is as far
                    t = [n[1], -n[0], 0] if abs(n[2]) < 0.9 else [-n[2], 0, n[0]]
                t, s = unit(t), mpmath.sqrt(1 - l * l)
                f = [l * b - s * a for a, b in zip(t, n)]
            if holds(f, i):
                out.append(f)
        return out


def mp_arc_deg(c, p) -> mpmath.mpf:
    """Arc in degrees from c, taken as its exact direction, to the unit
    vector p, at 40 digits."""
    with mpmath.workdps(40):
        c = [mpmath.mpf(x) for x in c]
        n = mpmath.sqrt(sum(x * x for x in c))
        chord = mpmath.sqrt(sum((x / n - y) ** 2 for x, y in zip(c, p)))
        return mpmath.degrees(2 * mpmath.asin(min(1, chord / 2)))


def rounding_deg(radius):
    """1e-9 degrees, plus the rounding of a radius in the chord form
    2 asin(|c - p| / 2): asin's slope 1 / cos(radius / 2) magnifies a
    chord rounded by a few ulps, to ~1e-8 degrees within 1e-3 of 180."""
    return 1e-9 + math.degrees(1e-15 / max(math.cos(math.radians(radius / 2.0)), 1e-300))


_SKY_RA = st.sampled_from([0.0, 359.9999999, 180.0]) | st.floats(0.0, 360.0, exclude_max=True)
_SKY_DEC = (
    st.sampled_from([90.0, -90.0, 89.9999, -89.9999, 0.0])
    | st.floats(89.0, 90.0)
    | st.floats(-90.0, -89.0)
    | st.floats(-90.0, 90.0)
)
_CIRCLE_ARCMIN = st.floats(-6.0, math.log10(10800.0)).map(lambda e: min(10800.0, 10.0**e)) | st.sampled_from(
    [1e-6, 1.0, 5400.0, 10800.0]
)
_CUT = st.floats(-1.0, 1.0) | st.sampled_from([-1.0, -0.5, -1e-9, 0.0, 0.5, 0.9999999])


@st.composite
def bounded_region(draw):
    """(store, rid): a region from grammar text at the poles and ra 0,
    constraint rows (negative lengths, hemisphere-sized convexes, a single
    cap, nested and co-axial caps), the pole lens, or the whole sky, then
    optionally NOT, OR or AND and a simplify."""
    store = RegionStore()

    def text(t):
        try:
            return add_region(store, compile_region_string(t))
        except RegionCompileError:
            assume(False)

    def center():
        return sky_to_vec(SkyPoint(draw(_SKY_RA), draw(_SKY_DEC)))

    def circle():
        return text(f"CIRCLE J2000 {draw(_SKY_RA)!r} {draw(_SKY_DEC)!r} {draw(_CIRCLE_ARCMIN)!r}")

    def rect():
        ra1, width = draw(st.floats(-10.0, 350.0)), draw(st.floats(1e-3, 179.0))
        dec1 = draw(st.floats(-90.0, 89.9) | st.sampled_from([-90.0, 89.0, 89.9]))
        dec2 = draw(st.floats(dec1 + 1e-3, 90.0) | st.just(90.0))
        return text(f"RECT J2000 {ra1!r} {dec1!r} {ra1 + width!r} {dec2!r}")

    def poly():
        c, spread, k = center(), draw(st.floats(1e-3, 50.0)), draw(st.integers(3, 7))
        azs = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=k, max_size=k)))
        if max(b - a for a, b in zip(azs, azs[1:] + [azs[0] + 2 * math.pi])) >= math.pi - 1e-3:
            azs = [azs[0] + 2 * math.pi * i / k for i in range(k)]
        pts = [vec_to_sky(rotate_toward(c, spread, a)) for a in azs]
        return text("POLY J2000 " + " ".join(f"{p.ra!r} {p.dec!r}" for p in pts))

    def chull():
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cloud = sample_cap(rng, center(), draw(st.floats(1e-3, 55.0)), int(rng.integers(3, 11)))
        return text("CHULL CARTESIAN " + " ".join(f"{p.x!r} {p.y!r} {p.z!r}" for p in cloud))

    def rows(make):
        rid = store.region_new("rows")
        cid = store.region_new_convex(rid)
        for n, l in make():
            store.region_new_convex_constraint(rid, cid, n.x, n.y, n.z, l)
        return rid

    def caps():
        return [(center(), draw(_CUT)) for _ in range(draw(st.integers(1, 3)))]

    def hemisphere_sized():
        return [(center(), draw(st.floats(-1.0, 0.05))) for _ in range(draw(st.integers(1, 3)))]

    def nested():
        n, l1, l2 = center(), draw(_CUT), draw(_CUT)
        lo, hi = min(l1, l2), max(l1, l2)
        if draw(st.booleans()):
            return [(n, lo), (n, hi)]  # one cap inside the other
        return [(n, lo), (n.negated(), -hi)]  # a cap minus a co-axial cap

    def pole_lens():
        rid1 = text("CIRCLE J2000 0.0 90.0 1.0")
        return store.region_and(rid1, text("CIRCLE J2000 0.0 89.998046875 1.0"), "and")

    def whole_sky():
        rid = store.region_new("sky")
        store.region_new_convex(rid)
        return rid

    makers = {
        "circle": circle, "rect": rect, "poly": poly, "chull": chull,
        "caps": lambda: rows(caps), "hemisphere": lambda: rows(hemisphere_sized),
        "nested": lambda: rows(nested), "pole_lens": pole_lens, "sky": whole_sky,
    }
    rid = makers[draw(st.sampled_from(sorted(makers)))]()
    op = draw(st.sampled_from(["none", "none", "not", "or", "and"]))
    if op == "not" and len(store.regions[rid].convexes) <= 2:
        rid = store.region_not(rid, "not")
    elif op in ("or", "and"):
        other = makers[draw(st.sampled_from(sorted(makers)))]()
        rid = (store.region_or if op == "or" else store.region_and)(rid, other, op)
    if draw(st.booleans()):
        store.region_simplify(rid)
    return store, rid


def point_row_case():
    """The OR of a 1-degree cap at the north pole and the southern
    hemisphere written with a row of length -1, (0, 0, 1, -1), whose
    boundary is the one point (0, 0, -1). The circle was centred on the
    north pole with radius 90: that point's row gave no far point, so
    members next to the south pole lay up to 180 degrees out."""
    store = RegionStore()
    rid = add_region(store, compile_region_string("REGION CONVEX 0 0 1 0.9998476951563913 CONVEX 0 0 1 -1 0 0 -1 0"))
    return store, rid


class TestBoundingCircleSound:
    @given(bounded_region())
    @example(point_row_case())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    def test_features_and_members_within_radius(self, case):
        # Every boundary vertex, every far point of a cap circle that the
        # other constraints keep, and sampled member points lie within the
        # radius, plus rounding.
        store, rid = case
        convexes = store._convex_lists(rid)
        assume(convexes)
        center, radius = bounding_circle_rows(convexes)
        assert (UnitVec3(*center), radius) == bounding_circle(store.geometry(rid))
        assert 0.0 <= radius <= 180.0
        bound = radius + rounding_deg(radius)
        for rows in convexes:
            for p in convex_boundary_vertices(rows):
                assert arc_deg(center, p) <= bound, (rows, p)
            for i, h in enumerate(rows):
                f = _far_point_on_circle(center, h)
                if f is not None and kept(f, rows, i):
                    assert arc_deg(center, f) <= bound, (rows, f)
        rng = np.random.default_rng(rid)
        c = UnitVec3(*center)
        region = store.geometry(rid)
        for p in sample_cap(rng, c, min(180.0, 1.5 * radius + 1e-7), 300) + sample_sphere(rng, 100):
            # members by more than rounding: 1e-11 from every boundary
            if membership_with_guard(region, p):
                assert arc_distance_deg(c, p) <= bound, (convexes, p)

    def test_row_of_length_minus_one(self):
        # points-in scans the circle's dec band: with radius 90 about the
        # north pole it dropped every row south of dec -1e-5
        store, rid = point_row_case()
        assert bounding_circle(store.geometry(rid))[1] == 180.0
        ra = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
        dec = np.array([-89.0, -45.0, -1.0, 0.0, 89.5])
        objid = np.arange(5, dtype=np.int64)
        assert store.points_in_region(rid, objid, ra, dec) == [0, 1, 2, 4]


class TestBoundingCirclePrecision:
    # Two precision defects: the circle was short of a vertex or a far
    # point that the region holds, by more than rounding (mp_features).
    def test_near_antiparallel_sliver(self):
        # the sliver between z = 0 and a plane of a normal 1e-5 degrees
        # from the south pole: radius 59.3134 where its vertices lie
        # 60.0000 degrees from the centre
        rows = [(6.1e-17, 0.0, 1.0, 0.0), (1.7453292528463437e-07, 0.0, -0.9999999999999848, 8.726646259971605e-08)]
        center, radius = bounding_circle_rows([rows])
        assert max(mp_arc_deg(center, p) for p in mp_features(center, rows)) <= radius + 1e-12

    def test_far_point_next_to_the_axis(self):
        # a lune of two great circles 1e-4 degrees apart, the centre on
        # the first's axis and 1e-4 degrees from the second's: t's rounding
        # along n tilted the far point off its circle, 5.5e-9 degrees short
        rows = [(6.1e-17, 0.0, -1.0, 0.0), (1.745329252072331e-06, 0.0, 0.999999999998477, 0.0)]
        center, radius = bounding_circle_rows([rows])
        assert center == (0.0, 0.0, 1.0)
        f = _far_point_on_circle(center, rows[1])
        assert abs(sum(a * b for a, b in zip(f, rows[1][:3])) - rows[1][3]) < 1e-15
        assert max(mp_arc_deg(center, p) for p in mp_features(center, rows)) <= radius + 1e-12


def bounding_circle_digest(regions) -> str:
    h = hashlib.sha256()
    for region in regions:
        center, radius = bounding_circle(region)
        h.update(repr((center.as_tuple(), radius)).encode())
    return h.hexdigest()


def seeded_edit_regions(seed: int, edits: int) -> list[Region]:
    """Every nonempty region of a seeded run: grammar shapes and circles
    that meet, then or/and/not/simplify edits with multi-convex results."""
    rng = np.random.default_rng(seed)
    store = RegionStore()
    for text in generate_corpus_specs(seed=seed, count=150):
        add_region(store, compile_region_string(text))
    for _ in range(60):
        ra, dec = float(rng.uniform(0, 360)), float(rng.uniform(-90, 90))
        arcmin = float(10.0 ** rng.uniform(-2, 3))
        a = add_region(store, compile_region_string(f"CIRCLE J2000 {ra!r} {dec!r} {arcmin!r}"))
        shift = min(90.0, max(-90.0, dec + float(rng.uniform(-1.5, 1.5)) * arcmin / 60.0))
        b = add_region(store, compile_region_string(f"CIRCLE J2000 {ra!r} {shift!r} {arcmin!r}"))
        store.region_and(a, b, "lens")
    for _ in range(edits):
        rids = [rid for rid in sorted(store.regions) if len(store.regions[rid].convexes) <= 4]
        a, b = (rids[int(rng.integers(len(rids)))] for _ in range(2))
        op = int(rng.integers(4))
        if op == 0:
            store.region_or(a, b, "or")
        elif op == 1:
            store.region_and(a, b, "and")
        elif op == 2 and len(store.regions[a].convexes) <= 2:
            store.region_not(a, "not")
        elif op == 3:
            store.region_simplify(a)
    regions = [store.geometry(rid) for rid in sorted(store.regions)]
    return [r for r in regions if r.convexes]


class TestBoundingCircleBits:
    # Digests of repr((center.as_tuple(), radius)) for every region. The
    # mends that TestBoundingCirclePrecision checks moved 37 of the 2,752
    # circles (1 corpus shape, 36 of the edit run); at 40 digits none of
    # them is short of its region's vertices and far points by more than
    # 5e-14 degrees.
    def test_corpus_shapes(self):
        regions = [compile_region_string(t) for t in generate_corpus_specs(seed=7, count=2000)]
        want = "832ade54726f549990259ef73426e5be62fe2758cf673e4d1790997a772ffcb6"
        assert bounding_circle_digest(r for r in regions if r.convexes) == want

    def test_seeded_edit_run(self):
        regions = seeded_edit_regions(seed=28, edits=600)
        assert sum(len(r.convexes) > 1 for r in regions) > 200
        assert bounding_circle_digest(regions) == "4e9370ae18336b03cbb9866859461be580c0a0f7232c3c9c0f017d6dc77928b4"


def miniball_sets() -> dict[str, list[tuple[float, float, float]]]:
    """Seeded point sets of more than 400 points, which take the sample and
    violator loop: general, on the sphere, and degenerate."""
    rng = np.random.default_rng(401)
    center = sky_to_vec(SkyPoint(33.0, -12.0))
    cap = [p.as_tuple() for p in sample_cap(rng, center, 20.0, 400)]
    t = np.linspace(0.0, 2.0 * math.pi, 450, endpoint=False)
    tilt = math.radians(23.4)
    return {
        "401": [tuple(p) for p in rng.normal(size=(401, 3)).tolist()],
        "1500": [p.as_tuple() for p in sample_cap(rng, center, 40.0, 1500)],
        "duplicates": [p for p in cap[:60] for _ in range(8)],
        "antipodal": cap + [center.as_tuple(), center.negated().as_tuple()],
        "great_circle": [
            (c, s * math.cos(tilt), s * math.sin(tilt)) for c, s in zip(np.cos(t).tolist(), np.sin(t).tolist())
        ],
    }


class TestMiniballLargeSets:
    def test_sound(self):
        for name, pts in miniball_sets().items():
            assert len(pts) > 400
            c, r = euclidean_miniball(pts)
            for p in pts:
                assert math.dist(c, p) <= r * (1 + 1e-10) + 1e-12, name

    def test_bits(self):
        # taken at commit 6e350b2, with Welzl's algorithm recursive
        h = hashlib.sha256()
        for name, pts in miniball_sets().items():
            h.update(repr((name, euclidean_miniball(pts))).encode())
        assert h.hexdigest() == "c6df8806011b4191874bd631d8362881bb460bbbb7a6e545b01fb8edee167145"


# -- oracle property on small pyramids at the zone-scan edges ----------------

# 12 scales: base height * 2^11 covers the sphere
_EDGE_CFG = PyramidConfig(base_zone_height=0.1)


def _edge_circle(scale: int):
    """A circle of the given scale, its radius biased to the scale's zone
    height (the largest an entry there can have)."""
    h = _EDGE_CFG.zone_height(scale)
    low = _EDGE_CFG.zone_height(scale - 1) if scale else 1e-4
    return st.tuples(
        edge_ra(), edge_dec(h), near_max_radius(min(h, 180.0)).filter(lambda r: r > low)
    )


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(
        st.integers(0, _EDGE_CFG.max_scale).flatmap(_edge_circle), min_size=1, max_size=30
    ),
    query=st.tuples(edge_ra(), edge_dec(0.1), st.floats(0.0, 30.0) | near_max_radius(0.8)),
)
def test_overlap_search_matches_overlap_scan(entries, query):
    idx = PyramidIndex(_EDGE_CFG)
    for i, (ra, dec, r) in enumerate(entries):
        idx.insert(i, SkyPoint(ra, dec), r)
    vecs = [sky_to_vec(SkyPoint(ra, dec)) for ra, dec, _ in entries]
    ex, ey, ez = (np.array([getattr(v, c) for v in vecs]) for c in "xyz")
    radii = np.array([r for _, _, r in entries])
    center = SkyPoint(*query[:2])
    stats = {}
    got = overlap_search(idx, center, query[2], stats=stats)
    assert got == oracle.overlap_scan(ex, ey, ez, radii, center, query[2])
    chain = [stats[k] for k in ("zone_scale", "ra", "fine_ra", "dec", "geometry", "matched")]
    assert chain == sorted(chain, reverse=True)


# -- oracle property on default pyramids near ra 0/360 and the poles --------


def _wrap_or_pole():
    """(ra, dec) biased to ra 0/360 (edge_ra), or within 3 degrees of a
    pole."""
    return st.one_of(
        st.tuples(edge_ra(3.0), st.floats(-90.0, 90.0)),
        st.tuples(edge_ra(), st.floats(87.0, 90.0) | st.floats(-90.0, -87.0)),
    )


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(
        st.tuples(_wrap_or_pole(), st.floats(1e-3, 5.0) | st.floats(5.0, 180.0)),
        min_size=1, max_size=60,
    ),
    query=st.tuples(_wrap_or_pole(), st.floats(0.0, 3.0) | near_max_radius(180.0)),
)
def test_overlap_search_matches_overlap_scan_at_wrap_and_poles(entries, query):
    idx = PyramidIndex()
    for i, ((ra, dec), r) in enumerate(entries):
        idx.insert(i, SkyPoint(ra, dec), r)
    vecs = [sky_to_vec(SkyPoint(ra, dec)) for (ra, dec), _ in entries]
    ex, ey, ez = (np.array([getattr(v, c) for v in vecs]) for c in "xyz")
    radii = np.array([r for _, r in entries])
    center = SkyPoint(*query[0])
    assert overlap_search(idx, center, query[1]) == oracle.overlap_scan(ex, ey, ez, radii, center, query[1])
