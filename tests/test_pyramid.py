import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyindex import oracle
from skyindex.geom import (
    Convex,
    HalfSpace,
    Region,
    SkyPoint,
    UnitVec3,
    arc_distance_deg,
    inside_region,
    sky_to_vec,
)
from skyindex.pyramid import (
    PyramidConfig,
    PyramidError,
    PyramidIndex,
    bounding_circle,
    overlap_search,
    scale_of,
    segment_elongated_region,
)
from skyindex.regionspec import compile_region_string
from skyindex.zones import ZoneTable

from conftest import edge_dec, edge_ra, near_max_radius, sample_cap, sample_sphere


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
        assert set(idx.tables()[s].zone.tolist()) == {0}

    def test_margin_duplicate_near_meridian(self):
        """No margin duplicate: an entry beside ra = 0 keeps one row, and
        queries from either side of ra = 0 find it."""
        idx = PyramidIndex()
        idx.insert(1, SkyPoint(0.001, 0.0), idx.cfg.base_zone_height / 2)
        assert idx.tables()[0].ra.tolist() == [0.001]
        for ra in (359.995, 0.0, 0.007):
            assert overlap_search(idx, SkyPoint(ra, 0.0), 0.005) == [1]
        assert overlap_search(idx, SkyPoint(359.99, 0.0), 0.005) == []

    def test_duplicate_objid_rejected(self):
        idx = PyramidIndex()
        idx.insert(1, SkyPoint(10, 10), 1.0)
        with pytest.raises(PyramidError):
            idx.insert(1, SkyPoint(20, 20), 1.0)


class TestCandidateZones:
    """The (scale, zone) band that overlap_search scans, seen through the
    ZoneTable.scan_ra calls it makes on a pyramid with an entry in every
    zone of every scale."""

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
        scan_ra = ZoneTable.scan_ra

        def spy(table, z0, z1, lo, hi):
            calls.update((scale[table.cfg.zone_height], z) for z in range(z0, z1 + 1))
            return scan_ra(table, z0, z1, lo, hi)

        with monkeypatch.context() as m:
            m.setattr(ZoneTable, "scan_ra", spy)
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


class TestSegmentation:
    def test_compact_region_unsplit(self):
        region = compile_region_string("CIRCLE J2000 30 20 3")
        segments = segment_elongated_region(region, 4.0, base_id=9)
        assert segments == [(region, 9)]

    def test_strip_segmented(self, rng):
        strip = compile_region_string("POLY J2000 0 -0.05 60 -0.05 60 0.05 0 0.05")
        _, orig_radius = bounding_circle(strip)
        segments = segment_elongated_region(strip, 100.0, base_id=3)
        assert len(segments) >= 4
        assert all(bid == 3 for _, bid in segments)
        radii = [bounding_circle(seg)[1] for seg, _ in segments]
        assert max(radii) <= orig_radius / 3

    def test_union_membership_preserved(self, rng):
        strip = compile_region_string("POLY J2000 0 -0.05 60 -0.05 60 0.05 0 0.05")
        segments = segment_elongated_region(strip, 100.0)
        hit_any = 0
        for _ in range(4000):
            az = float(rng.uniform(0, math.radians(61)))
            z = float(rng.uniform(-0.002, 0.002))
            p = UnitVec3.normalized(
                math.sqrt(1 - z * z) * math.cos(az),
                math.sqrt(1 - z * z) * math.sin(az),
                z,
            )
            in_orig = inside_region(strip, p)
            in_union = any(inside_region(seg, p) for seg, _ in segments)
            assert in_orig == in_union
            hit_any += in_orig
        assert hit_any > 100

    def test_empty_region_rejected(self):
        with pytest.raises(PyramidError):
            segment_elongated_region(Region(()), 4.0)


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
