import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyindex import catalog as catmod
from skyindex import oracle
from skyindex.geom import SkyPoint, sky_to_vec
from skyindex.zones import (
    MAX_ZONE_COUNT,
    NeighborsTable,
    ZoneConfig,
    ZoneTable,
    ZoneError,
    build_neighbors,
    build_zone_table,
    nearby_objects,
    ra_images,
    ra_window_deg,
    zone_column,
    zone_of,
)

from conftest import edge_dec, edge_ra, edge_sky, near_max_radius


def brute_cone(cat, center: SkyPoint, r: float) -> set[int]:
    """Independent scan: haversine per row, no shared code with zones."""
    out = set()
    cd = math.radians(center.dec)
    cr = math.radians(center.ra)
    for objid, ra, dec in zip(cat.objid, cat.ra, cat.dec):
        sdp = math.sin((math.radians(dec) - cd) / 2)
        sdr = math.sin((math.radians(ra) - cr) / 2)
        h = sdp * sdp + math.cos(cd) * math.cos(math.radians(dec)) * sdr * sdr
        d = math.degrees(2 * math.asin(min(1.0, math.sqrt(h))))
        if d < r:
            out.add(int(objid))
    return out


def brute_pairs(cat, r: float) -> set[tuple[int, int]]:
    out = set()
    n = len(cat)
    lim = 4 * math.sin(math.radians(r) / 2) ** 2
    for i in range(n):
        for j in range(i + 1, n):
            d2 = (
                (cat.x[i] - cat.x[j]) ** 2
                + (cat.y[i] - cat.y[j]) ** 2
                + (cat.z[i] - cat.z[j]) ** 2
            )
            if d2 < lim:
                out.add((int(cat.objid[i]), int(cat.objid[j])))
                out.add((int(cat.objid[j]), int(cat.objid[i])))
    return out


class TestZoneOf:
    def test_south_pole_zone_zero(self):
        assert zone_of(-90.0, 1.0) == 0
        assert zone_of(-90.0, 0.123) == 0

    def test_equator(self):
        assert zone_of(0.0, 1.0) == 90

    def test_north_pole_clamped(self):
        assert zone_of(90.0, 1.0) == 179
        assert zone_of(90.0, 0.7) == math.ceil(180 / 0.7) - 1


class TestZoneConfig:
    @pytest.mark.parametrize("height", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_height_not_positive_and_finite(self, height):
        with pytest.raises(ZoneError, match="zone_height"):
            ZoneConfig(zone_height=height)

    def test_zone_count_ceiling(self):
        assert ZoneConfig(zone_height=180.0 / MAX_ZONE_COUNT).zone_count == MAX_ZONE_COUNT
        for height in (180.0 / (MAX_ZONE_COUNT + 1), 1e-7, 5e-324):
            with pytest.raises(ZoneError, match="zone_height"):
                ZoneConfig(zone_height=height)

    def test_neighbors_default_height_clamped_to_ceiling(self):
        # a zone height of 1e-7 deg would give 1.8e9 zones; the default
        # height stops at the ceiling's, and the join stays exact
        cat = catmod.from_arrays([1, 2, 3], [10.0] * 3, [20.0, 20.0 + 5e-8, 20.0 + 2e-7], htm_depth=5)
        table = build_neighbors(cat, 1e-7)
        assert set(zip(table.objid.tolist(), table.neighbor.tolist())) == brute_pairs(cat, 1e-7) == {(1, 2), (2, 1)}
        with pytest.raises(ZoneError, match="zone_height"):
            build_neighbors(cat, 1e-7, zone_height=1e-7)


    def test_neighbors_visit_populated_zones_only(self, monkeypatch):
        # 2^20 zones at r = 1e-7, 203 rows (three pairs 5e-8 deg apart):
        # one visit and one scan per populated zone
        base = catmod.random_catalog(200, seed=3)
        ra = np.concatenate([base.ra, base.ra[:3]])
        dec = np.concatenate([base.dec, base.dec[:3] + 5e-8])
        cat = catmod.from_arrays(np.arange(203), ra, dec)
        visits, scans = [], []
        zone_slice, scan_ra = ZoneTable.zone_slice, ZoneTable.scan_ra

        def slice_spy(self, z):
            visits.append(z)
            return zone_slice(self, z)

        def scan_spy(self, z0, z1, lo, hi):
            scans.append(z0)
            return scan_ra(self, z0, z1, lo, hi)

        monkeypatch.setattr(ZoneTable, "zone_slice", slice_spy)
        monkeypatch.setattr(ZoneTable, "scan_ra", scan_spy)
        table = build_neighbors(cat, 1e-7)
        populated = np.unique(zone_column(cat.dec, 180.0 / MAX_ZONE_COUNT)).tolist()
        assert visits == populated
        assert scans == [max(0, z - 1) for z in populated]
        a, b, d = oracle.pair_scan(cat, 1e-7)
        assert len(a) == 6
        assert table.objid.tolist() == a.tolist() and table.neighbor.tolist() == b.tolist()
        assert np.array_equal(table.distance, d)


class TestBuildZoneTable:
    def test_margin_rows(self):
        """No margin rows: an object beside ra = 0 keeps one row, its ra as given."""
        cat = catmod.from_arrays([1], [0.1], [0.0], htm_depth=5)
        table = build_zone_table(cat, ZoneConfig(zone_height=1.0))
        assert [(int(z), float(r)) for z, r in zip(table.zone, table.ra)] == [(90, 0.1)]

    def test_interior_object_single_row(self):
        cat = catmod.from_arrays([1], [180.0], [0.0], htm_depth=5)
        table = build_zone_table(cat, ZoneConfig(zone_height=1.0))
        assert len(table) == 1

    def test_near_pole_gets_both_margins(self):
        """No margin rows: an object near a pole and just under ra = 360
        keeps one row, yet cones from either side of ra = 0 find it."""
        cat = catmod.from_arrays([1], [359.9999], [89.99], htm_depth=5)
        table = build_zone_table(cat, ZoneConfig(zone_height=1.0))
        assert table.ra.tolist() == [359.9999]
        for ra in (0.0, 359.0, 180.0):
            assert [i for i, _ in nearby_objects(table, SkyPoint(ra, 89.5), 1.0)] == [1]

    def test_duplicate_objid_rejected(self):
        with pytest.raises((ZoneError, catmod.CatalogError)):
            cat = catmod.from_arrays([1, 1], [10.0, 20.0], [0.0, 0.0])
            build_zone_table(cat, ZoneConfig(zone_height=1.0))

    def test_unnormalized_rejected(self):
        class Fake:
            objid = np.array([1], dtype=np.int64)
            ra = np.array([370.0])
            dec = np.array([0.0])
            x = np.array([1.0])
            y = np.array([0.0])
            z = np.array([0.0])

        with pytest.raises(ZoneError):
            build_zone_table(Fake(), ZoneConfig(zone_height=1.0))

    @pytest.mark.parametrize("fault", ["repeated", "out of range", "negative", "short"])
    def test_row_not_a_permutation_rejected(self, fault):
        cat = catmod.random_catalog(200, seed=9)
        row = build_zone_table(cat, ZoneConfig()).row.copy()
        if fault == "repeated":
            row[7] = row[8]
        elif fault == "out of range":
            row[7] = len(cat)
        elif fault == "negative":
            row[7] = -1  # a gather would wrap it to the last row
        else:
            row = row[:-1]
        with pytest.raises(ZoneError, match="not a permutation"):
            ZoneTable(ZoneConfig(), cat, row)

    def test_table_copies_no_catalog_column(self):
        # an index over the catalog: row (8 B) and key (16 B) per row, and
        # zone_bounds, 2701 entries at the default height
        cat = catmod.random_catalog(50_000, seed=5)
        tracemalloc.start()
        try:
            table = build_zone_table(cat, ZoneConfig())
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table.catalog is cat
        assert retained / len(cat) <= 32


class TestRaWindow:
    def test_equator_matches_radius(self):
        assert ra_window_deg(1.0, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_wider_at_high_dec(self):
        assert ra_window_deg(1.0, 60.0) > 1.9

    def test_pole_touch_full(self):
        assert ra_window_deg(1.0, 89.5) == 180.0


class TestScanRa:
    @staticmethod
    def want(table, z, lo, hi):
        """Rows of zone z in any of the window's -360/0/+360 images, once
        each and ascending; every row for a full circle."""
        s = table.zone_slice(z)
        if hi - lo >= 360.0:
            return list(range(s.start, s.stop))
        stored = table.ra[s]
        hit = np.zeros(len(stored), dtype=bool)
        for shift in (-360.0, 0.0, 360.0):
            hit |= (stored >= lo + shift) & (stored <= hi + shift)
        return (s.start + np.flatnonzero(hit)).tolist()

    @staticmethod
    def edge_table(rng):
        # rows crowd ra = 0/360 and the poles
        n = 3000
        ra = np.concatenate([rng.uniform(0, 360, n), rng.uniform(0, 2, n // 4), rng.uniform(358, 360, n // 4)])
        dec = np.concatenate([rng.uniform(-90, 90, n), rng.uniform(-89.5, 89.5, n // 2)])
        cat = catmod.from_arrays(np.arange(len(ra)), ra, dec)
        return build_zone_table(cat, ZoneConfig(zone_height=10.0))

    @staticmethod
    def random_window(rng):
        # windows run past 0 and 360 and up to within rounding of a full circle
        center = float(rng.uniform(-5, 365))
        half = float(rng.choice([rng.uniform(0, 10), rng.uniform(0, 180), 180 - 1e-13, 180.0]))
        return center - half, center + half

    def test_matches_shifted_window_mask(self, rng):
        table = self.edge_table(rng)
        for _ in range(400):
            z = int(rng.integers(table.cfg.zone_count))
            lo, hi = self.random_window(rng)
            window, row = table.scan_ra(z, z, lo, hi)
            assert not window.any()
            assert row.tolist() == self.want(table, z, lo, hi)

    def test_zone_band_and_window_arrays(self, rng):
        # every window of an array scanned over a band of zones gets each
        # zone's rows in zone order, as scanning it zone by zone would
        table = self.edge_table(rng)
        nz = table.cfg.zone_count
        for _ in range(60):
            z0 = int(rng.integers(nz))
            z1 = int(rng.integers(z0, nz))
            lo, hi = np.array([self.random_window(rng) for _ in range(int(rng.integers(1, 12)))]).T
            window, row = table.scan_ra(z0, z1, lo, hi)
            for k in range(len(lo)):
                want = [i for z in range(z0, z1 + 1) for i in self.want(table, z, lo[k], hi[k])]
                assert row[window == k].tolist() == want

    def test_touching_images_give_each_row_once(self):
        # windows one rounding step under 360 wide, whose images all but
        # touch: rows on and beside either end of each image come back once
        rows = []
        windows = []
        for lo in (-0.1, -100.0, 155.8333318035505, 300.0):
            hi = lo + 360.0
            while hi - lo >= 360.0:
                hi = math.nextafter(hi, -math.inf)
            windows.append((lo, hi))
            for edge in (lo, hi, lo + 360.0, hi - 360.0):
                for v in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                    if 0.0 <= v < 360.0:
                        rows.append(v)
        rows = sorted(set(rows))
        cat = catmod.from_arrays(np.arange(len(rows)), rows, [89.99] * len(rows))
        table = build_zone_table(cat, ZoneConfig(zone_height=10.0))
        top = table.cfg.zone_count - 1
        for lo, hi in windows:
            assert table.scan_ra(top, top, lo, hi)[1].tolist() == self.want(table, top, lo, hi)


    def test_full_circle_takes_edge_rows_once(self):
        # rows at both ends of the stored range [0, 360) come back once
        # from full-circle windows wherever they sit, alone or among
        # narrow windows
        ra = [0.0, 5e-324, 180.0, math.nextafter(360.0, 0.0)]
        cat = catmod.from_arrays(np.arange(len(ra)), ra, [15.0] * len(ra))
        table = build_zone_table(cat, ZoneConfig(zone_height=10.0))
        z = int(table.zone[0])
        full = [(0.0, 360.0), (-180.0, 180.0), (-359.5, 0.5), (359.5, 719.5),
                (-1.0, 400.0), (math.nextafter(-360.0, 0.0), math.nextafter(720.0, 0.0))]
        for lo, hi in full:
            window, row = table.scan_ra(z, z, lo, hi)
            assert row.tolist() == [0, 1, 2, 3] and not window.any()
        lo, hi = np.array(full + [(170.0, 190.0), (-1.0, 1.0)]).T
        window, row = table.scan_ra(z, z, lo, hi)
        for k in range(len(lo)):
            assert row[window == k].tolist() == self.want(table, z, lo[k], hi[k])


    def test_ra_images_mask_takes_scan_rows(self, rng):
        # masking a band's contiguous rows with the edges ra_images gives,
        # as the pyramid does, takes exactly the rows scan_ra searches out,
        # in the same order: rows at 0, just under 360, and on and beside
        # every shifted edge, for narrow, wrapping, touching-image and
        # full-circle windows
        windows = [(-0.5, 0.5), (359.5, 360.5), (10.0, 20.0), (-100.0, 155.8333318035505),
                   (300.0, math.nextafter(660.0, 0.0)), (0.0, 360.0), (-180.0, 180.0),
                   (-1.0, 400.0), (math.nextafter(-360.0, 0.0), math.nextafter(720.0, 0.0))]
        ra = [0.0, 5e-324, math.nextafter(360.0, 0.0), *rng.uniform(0.0, 360.0, 200).tolist()]
        for lo, hi in windows:
            for edge in ra_images(lo, hi).ravel().tolist():
                for v in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                    if 0.0 <= v < 360.0:
                        ra.append(v)
        ra = sorted(set(ra))
        cat = catmod.from_arrays(np.arange(len(ra)), ra, rng.uniform(-30.0, 30.0, len(ra)))
        table = build_zone_table(cat, ZoneConfig(zone_height=10.0))
        for z0, z1 in ((0, table.cfg.zone_count - 1), (7, 9), (8, 8)):
            start, stop = table.zone_bounds[z0], table.zone_bounds[z1 + 1]
            stored = table.ra[start:stop]
            for lo, hi in windows:
                lo_edges, hi_edges = ra_images(lo, hi)
                mask = ((lo_edges <= stored) & (stored <= hi_edges)).any(axis=0)
                _, rows = table.scan_ra(z0, z1, lo, hi)
                assert (start + np.flatnonzero(mask)).tolist() == rows.tolist()
                if hi - lo >= 360.0:
                    assert mask.all()


class TestNearby:
    def test_zero_radius_empty(self):
        cat = catmod.random_catalog(100, seed=1)
        table = build_zone_table(cat, ZoneConfig())
        assert nearby_objects(table, SkyPoint(10, 10), 0.0) == []

    def test_radius_above_margin_errors(self):
        """Any radius in [0, 180] is answered exactly; above 180 is an error."""
        cat = catmod.random_catalog(300, seed=1)
        table = build_zone_table(cat, ZoneConfig())
        for r in (1.5, 50.0, 180.0):
            assert nearby_objects(table, SkyPoint(0, 0), r) == oracle.cone_scan(cat, SkyPoint(0, 0), r)
        for r in (math.nextafter(180.0, math.inf), 200.0, 400.0):
            with pytest.raises(ZoneError, match="radius out of"):
                nearby_objects(table, SkyPoint(0, 0), r)

    def test_wraparound_example(self):
        cat = catmod.from_arrays([1, 2, 3], [359.9, 0.1, 5.0], [0.0] * 3, htm_depth=5)
        table = build_zone_table(cat, ZoneConfig(zone_height=4 / 60))
        got = nearby_objects(table, SkyPoint(0.05, 0.0), 0.2)
        assert sorted(i for i, _ in got) == [1, 2]

    def test_matches_brute_force(self, rng):
        cat = catmod.random_catalog(4000, seed=11)
        table = build_zone_table(cat, ZoneConfig())
        for _ in range(60):
            center = SkyPoint(
                float(rng.uniform(0, 360)),
                float(np.degrees(np.arcsin(rng.uniform(-1, 1)))),
            )
            r = float(rng.uniform(0.01, 1.0))
            got = {i for i, _ in nearby_objects(table, center, r)}
            assert got == brute_cone(cat, center, r)

    def test_clustered_catalog_matches_brute_force(self, rng):
        # pole-adjacent and meridian-adjacent clusters stress the wraparound
        n = 2400
        third = n // 3
        ra = np.concatenate(
            [
                rng.uniform(0, 360, third),
                rng.uniform(0, 360, third),
                np.concatenate(
                    [rng.uniform(0, 0.8, third // 2), rng.uniform(359.2, 360, third - third // 2)]
                ),
            ]
        )
        dec = np.concatenate(
            [
                np.degrees(np.arcsin(rng.uniform(-1, 1, third))),
                np.concatenate(
                    [rng.uniform(88.8, 90, third // 2), rng.uniform(-90, -88.8, third - third // 2)]
                ),
                np.degrees(np.arcsin(rng.uniform(-1, 1, third))),
            ]
        )
        cat = catmod.from_arrays(np.arange(n, dtype=np.int64), ra, dec)
        table = build_zone_table(cat, ZoneConfig())
        for k in range(40):
            if k % 3 == 0:
                center = SkyPoint(float(rng.uniform(0, 360)), float(rng.uniform(88.5, 90)) * (1 if k % 2 else -1))
            elif k % 3 == 1:
                center = SkyPoint(float(rng.uniform(-0.4, 0.4)) % 360, float(np.degrees(np.arcsin(rng.uniform(-1, 1)))))
            else:
                center = SkyPoint(float(rng.uniform(0, 360)), float(np.degrees(np.arcsin(rng.uniform(-1, 1)))))
            r = float(rng.choice([0.01, 0.3, 1.0]))
            got = {i for i, _ in nearby_objects(table, center, r)}
            assert got == brute_cone(cat, center, r)

    def test_pole_queries_match(self, rng):
        cat = catmod.random_catalog(4000, seed=12)
        table = build_zone_table(cat, ZoneConfig())
        for dec in (89.2, -89.4, 89.95, -89.99):
            center = SkyPoint(float(rng.uniform(0, 360)), dec)
            got = {i for i, _ in nearby_objects(table, center, 0.9)}
            assert got == brute_cone(cat, center, 0.9)

    def test_distances_reported(self):
        cat = catmod.from_arrays([7], [10.0], [0.0], htm_depth=5)
        table = build_zone_table(cat, ZoneConfig())
        got = nearby_objects(table, SkyPoint(10.5, 0.0), 0.9)
        assert len(got) == 1
        assert got[0][0] == 7
        assert got[0][1] == pytest.approx(0.5, abs=1e-9)

    def test_rotation_invariance(self, rng):
        # wraparound completeness: rotating the whole catalog by 180 deg in
        # ra must not change any result set
        cat = catmod.random_catalog(2000, seed=13)
        rot = catmod.from_arrays(cat.objid, (cat.ra + 180.0) % 360.0, cat.dec)
        t1 = build_zone_table(cat, ZoneConfig())
        t2 = build_zone_table(rot, ZoneConfig())
        for _ in range(40):
            ra = float(rng.uniform(-2, 2)) % 360.0
            dec = float(np.degrees(np.arcsin(rng.uniform(-1, 1))))
            r = float(rng.uniform(0.01, 1.0))
            a = {i for i, _ in nearby_objects(t1, SkyPoint(ra, dec), r)}
            b = {i for i, _ in nearby_objects(t2, SkyPoint((ra + 180) % 360, dec), r)}
            assert a == b

    def test_zone_band_sufficiency(self, rng):
        cat = catmod.random_catalog(3000, seed=14)
        cfg = ZoneConfig()
        table = build_zone_table(cat, cfg)
        dec_by_id = {int(i): float(d) for i, d in zip(cat.objid, cat.dec)}
        for _ in range(30):
            center = SkyPoint(
                float(rng.uniform(0, 360)),
                float(np.degrees(np.arcsin(rng.uniform(-1, 1)))),
            )
            r = float(rng.uniform(0.05, 1.0))
            zmin = max(0, zone_of(max(-90.0, center.dec - r), cfg.zone_height))
            zmax = min(
                cfg.zone_count - 1,
                int(math.floor((center.dec + 90.0 + r) / cfg.zone_height)),
            )
            for objid in brute_cone(cat, center, r):
                z = zone_of(dec_by_id[objid], cfg.zone_height)
                assert zmin <= z <= zmax

    def test_stats_stage_monotone(self, rng):
        cat = catmod.random_catalog(3000, seed=15)
        table = build_zone_table(cat, ZoneConfig())
        stats = {}
        nearby_objects(table, SkyPoint(40, 10), 1.0, stats=stats)
        assert stats["ra_candidates"] >= stats["dec_filtered"] >= stats["matched"]


class TestNeighbors:
    def test_two_objects_mirror_pair(self):
        cat = catmod.from_arrays([1, 2], [10.0, 10.4], [0.0, 0.0], htm_depth=5)
        table = build_neighbors(cat, 0.5)
        assert len(table) == 2
        assert set(zip(table.objid.tolist(), table.neighbor.tolist())) == {
            (1, 2),
            (2, 1),
        }

    def test_wraparound_counted_once_before_mirror(self):
        cat = catmod.from_arrays([1, 2], [0.01, 359.99], [0.0, 0.0], htm_depth=5)
        table = build_neighbors(cat, 0.5)
        assert len(table) == 2

    def test_matches_brute_force(self):
        cat = catmod.random_catalog(1500, seed=21)
        table = build_neighbors(cat, 0.5)
        got = set(zip(table.objid.tolist(), table.neighbor.tolist()))
        assert got == brute_pairs(cat, 0.5)

    def test_distance_bounded_and_symmetric(self):
        cat = catmod.random_catalog(1500, seed=22)
        table = build_neighbors(cat, 0.5)
        assert np.all(table.distance <= 0.5)
        pair_set = set(zip(table.objid.tolist(), table.neighbor.tolist()))
        for a, b in pair_set:
            assert (b, a) in pair_set

    def test_neighbors_of(self):
        cat = catmod.from_arrays(
            [1, 2, 3, 99], [10.0, 10.3, 10.0, 200.0], [0.0, 0.0, 0.3, -40.0], htm_depth=5
        )
        table = build_neighbors(cat, 0.5)
        assert {n for n, _ in table.neighbors_of(1)} == {2, 3}
        assert table.neighbors_of(99) == []
        assert table.neighbors_of(12345) == []

    def test_polar_cluster(self):
        cat = catmod.from_arrays(range(10), [i * 36.0 for i in range(10)], [89.9] * 10, htm_depth=5)
        table = build_neighbors(cat, 0.5)
        assert set(zip(table.objid.tolist(), table.neighbor.tolist())) == brute_pairs(
            cat, 0.5
        )

    def test_work_monotone_in_zone_height(self):
        cat = catmod.random_catalog(4000, seed=23)
        narrow = build_neighbors(cat, 0.5, 0.5)
        wide = build_neighbors(cat, 0.5, 2.0)
        assert narrow.candidate_pairs <= wide.candidate_pairs
        got_a = set(zip(narrow.objid.tolist(), narrow.neighbor.tolist()))
        got_b = set(zip(wide.objid.tolist(), wide.neighbor.tolist()))
        assert got_a == got_b

    def test_zone_height_below_radius_still_exact(self):
        cat = catmod.random_catalog(1200, seed=24)
        table = build_neighbors(cat, 0.5, 0.2)
        assert set(zip(table.objid.tolist(), table.neighbor.tolist())) == brute_pairs(
            cat, 0.5
        )

    def test_invalid_radius(self):
        cat = catmod.random_catalog(10, seed=1)
        with pytest.raises(ZoneError):
            build_neighbors(cat, 0.0)

    def test_radius_above_180_rejected(self):
        # past 180 degrees the chord limit 4 sin^2(r/2) falls again, so it
        # would drop the antipodal pair at r = 200 and every pair at r = 400
        cat = catmod.from_arrays([1, 2, 3], [0.0, 90.0, 180.0], [0.0] * 3, htm_depth=5)
        for r in (math.nextafter(180.0, math.inf), 200.0, 400.0):
            with pytest.raises(ZoneError, match="radius out of"):
                build_neighbors(cat, r)
        table = build_neighbors(cat, 180.0)  # the antipodal pair is not within 180
        assert set(zip(table.objid.tolist(), table.neighbor.tolist())) == {(1, 2), (2, 1), (2, 3), (3, 2)}


def test_pair_scan_above_180_takes_every_pair():
    cat = catmod.random_catalog(30, seed=3)
    a, b, _ = oracle.pair_scan(cat, 190.0)
    assert len(a) == 30 * 29
    assert len(oracle.pair_scan(cat, 170.0)[0]) < 30 * 29


# -- oracle properties on small catalogs at the zone-scan edges ---------------


@st.composite
def cone_case(draw):
    h = draw(st.sampled_from([0.25, 1.0, 4.0 / 60.0, 7.5]))
    ra, dec = draw(edge_sky(h))
    center = SkyPoint(draw(edge_ra()), draw(edge_dec(h)))
    pole = 90.0 - abs(center.dec)  # the radius that reaches the nearer pole
    r = draw(
        st.one_of(
            st.sampled_from([0.5, 1.0, 3.0]).flatmap(near_max_radius),
            st.floats(pole, min(180.0, pole + 1.0)),
            st.floats(0.0, 180.0),
            st.sampled_from([90.0, 180.0, math.nextafter(180.0, 0.0)]),
        )
    )
    return ZoneConfig(zone_height=h), ra, dec, center, r


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([0.25, 1.0, 4.0 / 60.0, 7.5, 180.0, 400.0]).flatmap(
        lambda h: st.tuples(st.just(h), edge_sky(h))
    )
)
def test_build_zone_table_one_row_per_input_row(case):
    h, (ra, dec) = case
    cat = catmod.from_arrays(np.arange(len(ra))[::-1], ra, dec)
    table = build_zone_table(cat, ZoneConfig(zone_height=h))
    assert len(table) == len(cat)
    order = np.lexsort((table.objid, table.ra, table.zone))
    assert order.tolist() == list(range(len(table)))
    assert sorted(zip(table.objid.tolist(), table.ra.tolist(), cat.dec[table.row].tolist())) == sorted(
        zip(cat.objid.tolist(), cat.ra.tolist(), cat.dec.tolist())
    )


@settings(max_examples=150, deadline=None)
@given(cone_case())
def test_nearby_objects_matches_cone_scan(case):
    cfg, ra, dec, center, r = case
    cat = catmod.from_arrays(np.arange(len(ra)), ra, dec)
    got = nearby_objects(build_zone_table(cat, cfg), center, r)
    want = oracle.cone_scan(cat, center, r)
    # the index tests the chord and the oracle the arc: the two may round
    # apart only for rows on the circle itself
    got_ids, want_ids = {i for i, _ in got}, {i for i, _ in want}
    dist = dict(oracle.cone_scan(cat, center, 360.0))
    assert all(abs(dist[i] - r) < 1e-9 for i in got_ids ^ want_ids)
    assert len(got) == len(got_ids)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([0.05, 0.5, 2.0, 10.0, 120.0, 180.0]).flatmap(
        lambda r: st.tuples(st.just(r), edge_sky(r), st.sampled_from([None, r / 2.5, 2.0 * r]))
    )
)
def test_build_neighbors_matches_pair_scan(case):
    r, (ra, dec), zone_height = case
    cat = catmod.from_arrays(np.arange(len(ra)), ra, dec)
    table = build_neighbors(cat, r, zone_height)
    a, b, d = oracle.pair_scan(cat, r)
    assert table.objid.tolist() == a.tolist()
    assert table.neighbor.tolist() == b.tolist()
    assert table.distance.tolist() == d.tolist()
