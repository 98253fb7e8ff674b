import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skyindex import catalog as catmod
from skyindex import oracle, zones
from skyindex.geom import SkyPoint, sky_to_vec
from skyindex.zones import (
    MAX_JOIN_ROWS,
    MAX_ZONE_COUNT,
    NeighborsTable,
    ZoneConfig,
    ZoneTable,
    ZoneError,
    build_neighbors,
    build_zone_table,
    gather_runs,
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


    def test_neighbors_scan_once_per_block(self, monkeypatch):
        # 2^20 zones at r = 1e-7, 203 rows in ~200 populated zones (three
        # pairs 5e-8 deg apart), a band of 2 zones: one search batch per
        # block of _JOIN_KEYS // 2 rows, not one per populated zone, each
        # row's band starting at its own zone
        base = catmod.random_catalog(200, seed=3)
        ra = np.concatenate([base.ra, base.ra[:3]])
        dec = np.concatenate([base.dec, base.dec[:3] + 5e-8])
        cat = catmod.from_arrays(np.arange(203), ra, dec)
        zone = zone_column(cat.dec, 180.0 / MAX_ZONE_COUNT)
        assert len(np.unique(zone)) > 190
        a, b, d = oracle.pair_scan(cat, 1e-7)
        assert len(a) == 6
        join_search = zones._join_search
        for join_keys, scans in ((zones._JOIN_KEYS, 1), (128, 4)):
            calls = {"left": [], "right": []}

            def search_spy(fkey, key, z, edge, side):
                calls[side].append(np.array(z, dtype=np.int64))
                return join_search(fkey, key, z, edge, side)

            monkeypatch.setattr(zones, "_JOIN_KEYS", join_keys)
            monkeypatch.setattr(zones, "_join_search", search_spy)
            table = build_neighbors(cat, 1e-7)
            lower, upper = calls["left"], calls["right"]
            assert len(lower) == len(upper) == scans
            # no window here passes ra 0 or 360, so each row has one image:
            # its upper edge is searched in its own zone and the zone above,
            # its lower edge only in the zone above (its own zone's run
            # starts past the row itself)
            rows = [len(z) for z in lower]
            assert rows[:-1] == [join_keys // 2] * (scans - 1)
            assert [len(z) for z in upper] == [2 * k for k in rows]
            own = np.concatenate([z[:k] for z, k in zip(upper, rows)])
            assert own.tolist() == sorted(zone.tolist())
            for z, up, k in zip(lower, upper, rows):
                assert z.tolist() == (up[:k] + 1).tolist() == up[k:].tolist()
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
            ZoneTable.from_columns(ZoneConfig(), cat, row)

    @pytest.mark.parametrize("height", [4.0 / 60.0, 1.0, 180.0 / 2**20])
    def test_built_key_is_the_key_from_columns_derives(self, height):
        # build_zone_table hands its table the key its sort ordered; a
        # loaded row gets the same bits from from_columns, which checks
        # them. Rows at both poles, at ra 0 and next to 360, and tied pairs
        rng = np.random.default_rng(31)
        ra = np.concatenate([[0.0, 0.0, math.nextafter(360.0, 0.0), 5e-324], rng.uniform(0.0, 360.0, 2000)])
        dec = np.concatenate([[90.0, -90.0, 0.0, -90.0], np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 2000)))])
        ra, dec = np.concatenate([ra, ra[::97]]), np.concatenate([dec, dec[::97]])
        cat = catmod.from_arrays(rng.permutation(len(ra)), ra, dec)
        built = build_zone_table(cat, ZoneConfig(height))
        loaded = ZoneTable.from_columns(ZoneConfig(height), cat, built.row)
        assert built.key.dtype == loaded.key.dtype == complex
        assert built.key.tobytes() == loaded.key.tobytes()

    def test_table_copies_no_catalog_column(self):
        # an index over the catalog: row (8 B) and key (16 B) per row
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
    def zone_rows(table, z0, z1):
        """The table rows of zones z0..z1, a slice found on the key's zone part."""
        return slice(*np.searchsorted(table.key.real, [z0, z1 + 1]).tolist())

    def want(self, table, z, lo, hi):
        """Rows of zone z in any of the window's -360/0/+360 images, once
        each and ascending; every row for a full circle."""
        s = self.zone_rows(table, z, z)
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
            window, row = table.scan_ra(z, 1, lo, hi)
            assert not window.any()
            assert row.tolist() == self.want(table, z, lo, hi)

    def test_zone_band_and_window_arrays(self, rng):
        # every window of an array gets the rows of its own band of zones,
        # from one start for all windows or one each and running past the
        # top zone, in zone order, as scanning it zone by zone would
        table = self.edge_table(rng)
        nz = table.cfg.zone_count
        for _ in range(120):
            k = int(rng.integers(1, 12))
            height = int(rng.integers(1, nz + 3))
            z0 = rng.integers(0, nz + 2, k) if rng.integers(2) else int(rng.integers(nz))
            lo, hi = np.array([self.random_window(rng) for _ in range(k)]).T
            window, row = table.scan_ra(z0, height, lo, hi)
            for j, first in enumerate(np.broadcast_to(z0, k).tolist()):
                want = [i for z in range(first, min(nz, first + height)) for i in self.want(table, z, lo[j], hi[j])]
                assert row[window == j].tolist() == want

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
            assert table.scan_ra(top, 1, lo, hi)[1].tolist() == self.want(table, top, lo, hi)


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
            window, row = table.scan_ra(z, 1, lo, hi)
            assert row.tolist() == [0, 1, 2, 3] and not window.any()
        lo, hi = np.array(full + [(170.0, 190.0), (-1.0, 1.0)]).T
        window, row = table.scan_ra(z, 1, lo, hi)
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
            rows = self.zone_rows(table, z0, z1)
            start, stored = rows.start, table.ra[rows]
            for lo, hi in windows:
                lo_edges, hi_edges = ra_images(lo, hi)
                mask = ((lo_edges <= stored) & (stored <= hi_edges)).any(axis=0)
                _, found = table.scan_ra(z0, z1 - z0 + 1, lo, hi)
                assert (start + np.flatnonzero(mask)).tolist() == found.tolist()
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


def test_join_keeps_a_pair_on_the_circle_that_the_chord_test_keeps():
    # the pole and a row r away: their dec difference rounds above r while
    # the chord rounds below, so a dec-band prefilter dropped the pair
    r = 2.93403292246742
    cat = catmod.from_arrays([0, 1, 2], [0.0, 0.0, 0.0], [0.0, -90.0, -90.0 + r])
    table = build_neighbors(cat, r)
    a, b, d = oracle.pair_scan(cat, r)
    assert a.tolist() == [1, 2] and b.tolist() == [2, 1]
    assert table.objid.tolist() == a.tolist() and table.neighbor.tolist() == b.tolist()
    assert table.distance.tobytes() == d.tobytes()


@pytest.mark.parametrize("widen", [False, True])
@pytest.mark.parametrize("r", [1e-13, 1e-12, 1e-7, 2e-7, 1e-4 - 2e-12, 1e-4, 0.5, 90.0, 180.0])
def test_join_windows_across_ra_0_and_360(monkeypatch, r, widen):
    # rows on both sides of ra 0/360 at the equator, 1e-14 below it (dec
    # 0 is a zone edge at the finest zone height, so a window there that
    # passes 360 must find the ra 0 rows of the zone above) and next to
    # both poles: windows that pass 0 or 360, by as little as 1e-13
    # degrees, windows that reach a pole (full circles) and, widened,
    # windows of half-width 180 - 1e-13 that pass 0 or 360 and leave a
    # 2e-13-degree gap. A wider window only adds candidates for the chord
    # test, so the join stays exact
    if widen:
        windows = zones._ra_windows_arr
        monkeypatch.setattr(
            zones, "_ra_windows_arr", lambda r, dec: np.maximum(windows(r, dec), 180.0 - 1e-13)
        )
    ras = [0.0, 5e-324, math.nextafter(360.0, 0.0), 359.9999999]
    ra, dec = np.array([(a, d) for d in (0.0, -1e-14, 89.9999, -89.9999) for a in ras]).T
    cat = catmod.from_arrays(np.arange(len(ra))[::-1] * 3, ra, dec)
    table = build_neighbors(cat, r)
    a, b, d = oracle.pair_scan(cat, r)
    assert table.objid.tolist() == a.tolist() and table.neighbor.tolist() == b.tolist()
    assert table.distance.tobytes() == d.tobytes()
    # each unordered pair is a candidate at most once
    assert len(a) // 2 <= table.candidate_pairs <= len(ra) * (len(ra) - 1) // 2


def test_join_refuses_rows_past_the_packed_key():
    class Huge:  # a zero-stride column: its length costs no memory
        objid = np.broadcast_to(np.int64(0), (MAX_JOIN_ROWS + 1,))

    with pytest.raises(ZoneError, match="at most 3037000499 rows"):
        build_neighbors(Huge(), 1.0)


def piled_catalog():
    """1,609 rows piled where join windows wrap: 1,000 within 0.6 degrees of
    ra 0 on either side, 600 within 1.5 degrees of a pole, where windows
    are full circles, and nine exact edge rows. objids in no order."""
    rng = np.random.default_rng(29)
    below = math.nextafter(360.0, 0.0)
    ra = np.concatenate([
        [0.0, 0.0, below, below, 5e-324, 0.0, 180.0, 0.0, 90.0],
        rng.uniform(0.0, 0.6, 500), rng.uniform(359.4, 360.0, 500), rng.uniform(0.0, 360.0, 600),
    ])
    dec = np.concatenate([
        [90.0, -90.0, 0.0, 89.99, -89.99, 0.0, 90.0, -45.0, -90.0],
        rng.uniform(-89.0, 89.0, 1000), rng.uniform(88.5, 90.0, 300), rng.uniform(-90.0, -88.5, 300),
    ])
    return catmod.from_arrays(rng.permutation(len(ra)) * 7 - 3000, ra % 360.0, dec)


@pytest.mark.parametrize(
    "case, r, rows, candidates, digest",
    [
        ("random", 0.5, 7530, 7331, "0f19597af477963ad7db5780b814606af0cfc396657e5448da5ae06d1eb88a9c"),
        ("random", 1.5, 68630, 65932, "b98eb569f73b8dad93f71694db20429617d59c720a72d7112477bd390f40e868"),
        ("piled", 0.5, 34824, 34401, "a7b71c5c67fa370c2ebcef956c38f3176f0675ee15738492575671f122527fd0"),
        ("piled", 5.0, 270648, 161258, "1f05d8611856e48cb673686af04eaeda420545639b7806596b7244724694c64a"),
    ],
)
def test_join_output_pinned(case, r, rows, candidates, digest):
    # the SHA-256 of the objid, neighbor and distance bytes and the count
    # of candidate pairs, as the join gave them when this test was written
    cat = catmod.random_catalog(20_000, seed=301) if case == "random" else piled_catalog()
    table = build_neighbors(cat, r)
    h = hashlib.sha256()
    for col in (table.objid, table.neighbor, table.distance):
        h.update(col.tobytes())
    assert (len(table), table.candidate_pairs, h.hexdigest()) == (rows, candidates, digest)


def test_join_scans_return_only_candidate_pairs(monkeypatch):
    # every row the join's scans return is past its left row and counted
    # in candidate_pairs: none is gathered only to be dropped
    returned = []

    def gather_spy(starts, ends, period=1):
        label, index = gather_runs(starts, ends, period)
        returned.append(len(index))
        return label, index

    monkeypatch.setattr(zones, "gather_runs", gather_spy)
    for cat, r in ((catmod.random_catalog(20_000, seed=301), 0.5), (piled_catalog(), 5.0)):
        returned.clear()
        table = build_neighbors(cat, r)
        assert sum(returned) == table.candidate_pairs > 0


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


_FINEST = 180.0 / MAX_ZONE_COUNT


def _ulps_up(v: float, k: int) -> float:
    for _ in range(k):
        v = math.nextafter(v, 360.0)
    return v if v < 360.0 else math.nextafter(360.0, 0.0)


@st.composite
def tied_rows(draw):
    """(height, objid, ra, dec) of a catalog whose rows share ra and dec
    bits, or sit 1 ulp apart in ra, under shuffled objids: the ties the
    float sort in build_zone_table hands to its lexsort."""
    h = draw(st.sampled_from([_FINEST, 4.0 / 60.0, 180.0]))
    ra_base = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, math.nextafter(360.0, 0.0)]),
        st.floats(0.0, 360.0, exclude_max=True),
    )
    dec = st.one_of(edge_dec(h), edge_dec(h).map(lambda d: max(-90.0, math.nextafter(d, -90.0))))
    pairs = draw(
        st.lists(
            st.tuples(st.tuples(ra_base, st.integers(0, 3)).map(lambda t: _ulps_up(*t)), dec, st.integers(1, 4)),
            min_size=1,
            max_size=12,
        )
    )
    ra = [r for r, _, m in pairs for _ in range(m)]
    dec = [d for _, d, m in pairs for _ in range(m)]
    objid = draw(st.permutations(range(len(ra))))
    return h, np.array(objid, dtype=np.int64) * 7 - 3 * len(ra), np.array(ra), np.array(dec)


@settings(max_examples=300, deadline=None)
@given(tied_rows())
@example((_FINEST, np.array([2, 1, 0]), np.array([0.0, -0.0, 0.0]), np.array([90.0, 90.0, -90.0])))
def test_zone_order_equals_lexsort(case):
    h, objid, ra, dec = case
    cat = catmod.Catalog.from_columns(objid, ra, dec, 0)  # keeps -0.0, which from_arrays' mod would not
    table = build_zone_table(cat, ZoneConfig(h))
    assert table.row.tolist() == np.lexsort((objid, ra, zone_column(dec, h))).tolist()


def test_zone_order_settles_distinct_ra_on_one_rough_key():
    # zone 2^20 - 2 at the finest height: zone * 512 + ra lies in [2^28,
    # 2^29), 2^-24 apart, so these four distinct ra values share one key
    dec = -90.0 + (MAX_ZONE_COUNT - 2) * _FINEST + _FINEST / 2
    ra = np.array([100.0 + 2.5e-8, 100.0 + 1.5e-8, math.nextafter(100.0, 360.0), 100.0])
    objid = np.array([4, 3, 2, 1], dtype=np.int64)
    zone = zone_column(np.full(4, dec), _FINEST)
    assert (zone == MAX_ZONE_COUNT - 2).all()
    assert len(set(ra.tolist())) == 4 and len(set((zone * 512.0 + ra).tolist())) == 1
    cat = catmod.Catalog.from_columns(objid, ra, np.full(4, dec), 0)
    # ra ascends from the last row to the first: only the lexsort of the
    # tied run, not the float sort, can give that order
    assert build_zone_table(cat, ZoneConfig(_FINEST)).row.tolist() == [3, 2, 1, 0]


def test_join_float_key_ties_searched_again_on_the_exact_key(monkeypatch):
    # zone 2^20 - 2 at the finest height, where zone * 512 + ra is a
    # multiple of 2^-24: rows at ra 100, 100 + 1.5e-8 and 100 + 2.5e-8
    # share one float key, and so do the upper edge of a window in that
    # zone and the lower edge of a window from the zone below. Only the
    # exact key tells which of the tied rows each window holds
    r = 1e-7
    high = -90.0 + (MAX_ZONE_COUNT - 2) * _FINEST + _FINEST / 2
    alpha_high, alpha_below = zones._ra_windows_arr(r, np.array([high, high - _FINEST]))
    pairs = [(100.0 + 2.5e-8, high), (100.0 + 1.5e-8, high), (100.0, high),
             (100.0 + 2e-8 - alpha_high, high), (100.0 + 1e-8 + alpha_below, high - _FINEST)]
    upper, lower = pairs[3][0] + alpha_high, pairs[4][0] - alpha_below
    zone = zone_column(np.array([high, high - _FINEST]), _FINEST)
    assert zone.tolist() == [MAX_ZONE_COUNT - 2, MAX_ZONE_COUNT - 3]
    # the edges cut the tied rows, yet share their float key
    assert 100.0 + 1.5e-8 < upper < 100.0 + 2.5e-8 and 100.0 < lower < 100.0 + 1.5e-8
    assert len({zone[0] * 512.0 + v for v in (100.0, 100.0 + 2.5e-8, upper, lower)}) == 1
    rows = [p for p in pairs for _ in range(3)]  # each three times, under shuffled objids
    ra, dec = np.array(rows).T
    cat = catmod.from_arrays(np.random.default_rng(1).permutation(len(rows)) * 7 + 1000, ra, dec)

    exact = []

    class ExactKey:  # the zone table's key, counting the rows searched on it
        def __init__(self, key):
            self.key, self.real, self.imag = key, key.real, key.imag

        def searchsorted(self, v, side):
            exact.append(len(v))
            return self.key.searchsorted(v, side)

    def build_spy(catalog, cfg):
        table = build_zone_table(catalog, cfg)
        table.key = ExactKey(table.key)
        return table

    monkeypatch.setattr(zones, "build_zone_table", build_spy)
    table = build_neighbors(cat, r, _FINEST)
    assert sum(exact) > 0
    for got, want in zip((table.objid, table.neighbor, table.distance), oracle.pair_scan(cat, r)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # candidates as the exact (zone, ra) order gives them: each row later in
    # (zone, ra, objid) order in a window's own zone or the zone above
    # within that window's images. The float key alone would count every
    # tied row in both windows
    order = np.lexsort((cat.objid, cat.ra, zone_column(cat.dec, _FINEST)))
    z_of = zone_column(cat.dec, _FINEST)
    want = 0
    for i, li in enumerate(order.tolist()):
        alpha = zones._ra_windows_arr(r, cat.dec[[li]])[0]
        lo, hi = ra_images(cat.ra[li] - alpha, cat.ra[li] + alpha)
        for ri in order[i + 1:].tolist():
            if z_of[ri] - z_of[li] <= 1 and ((lo <= cat.ra[ri]) & (cat.ra[ri] <= hi)).any():
                want += 1
    assert table.candidate_pairs == want


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


# rows (0, -90) and (0, -90 + r): their dec difference rounds to above r,
# their distance, 2.9340329224674164, is below it
POLE_PAIR_R = 2.93403292246742
POLE_PAIR = (np.array([0.0, 0.0]), np.array([-90.0, -90.0 + POLE_PAIR_R]))


@settings(max_examples=150, deadline=None)
@given(cone_case())
@example((ZoneConfig(zone_height=1.0), *POLE_PAIR, SkyPoint(0.0, -90.0), POLE_PAIR_R))
@example((ZoneConfig(zone_height=1.0), *POLE_PAIR, SkyPoint(0.0, -90.0 + POLE_PAIR_R), POLE_PAIR_R))
def test_nearby_objects_equals_htm_cone_search(case):
    # both end in cone_matches' chord test, and neither may drop a row
    # before it: the lists agree exactly, distances included
    cfg, ra, dec, center, r = case
    cat = catmod.from_arrays(np.arange(len(ra)), ra, dec)
    assert nearby_objects(build_zone_table(cat, cfg), center, r) == catmod.htm_cone_search(cat, center, r)


@st.composite
def join_case(draw):
    """(catalog, r, zone_height): rows at the poles and at ra 0/360, close
    pairs inside one zone, objids in no order, radii from 1e-6 to 180, and
    zone heights from 100 times below a radius to twice above it, but
    none below the least that MAX_ZONE_COUNT allows."""
    r = draw(st.one_of(
        st.sampled_from([1e-6, 0.05, 0.5, 2.0, 10.0, 120.0, 180.0]), st.floats(1e-6, 0.01), st.floats(0.01, 180.0)
    ))
    ratio = draw(st.sampled_from([None, 0.01, 1 / 8, 0.4, 1.0, 2.0]))
    zone_height = None if ratio is None else max(ratio * r, 180.0 / MAX_ZONE_COUNT)
    ra, dec = draw(edge_sky(zone_height or r, max_rows=30))
    k = draw(st.integers(0, len(ra)))  # rows given a twin a hair away
    eps = st.floats(-1e-6, 1e-6)
    ra = np.concatenate([ra, ra[:k] + draw(st.lists(eps, min_size=k, max_size=k))])
    dec = np.concatenate([dec, np.clip(dec[:k] + draw(st.lists(eps, min_size=k, max_size=k)), -90.0, 90.0)])
    n = len(ra)
    objid = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    return catmod.from_arrays(objid, ra, dec), r, zone_height


@settings(max_examples=150, deadline=None)
@given(join_case())
def test_build_neighbors_matches_pair_scan(case):
    # objid, neighbor and distance bit for bit
    cat, r, zone_height = case
    table = build_neighbors(cat, r, zone_height)
    for got, want in zip((table.objid, table.neighbor, table.distance), oracle.pair_scan(cat, r)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
