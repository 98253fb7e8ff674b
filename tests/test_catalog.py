import math
import struct
import zlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyindex import catalog as catmod
from skyindex import htm, oracle, snapshot, zones
from skyindex.algebra import RegionStore
from skyindex.catalog import CatalogError, htm_cone_search, ingest_csv, random_catalog
from skyindex.geom import SkyPoint, UnitVec3
from skyindex.pyramid import PyramidIndex, overlap_search
from skyindex.snapshot import (
    MAGIC,
    AppState,
    SnapshotError,
    load_state,
    save_state,
)

mpmath.mp.dps = 30


def write_csv(path, rows, header="objID,ra,dec"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


class TestIngest:
    def test_three_rows(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", ["1,10.0,20.0", "2,30,-5", "3,240.5,88"])
        cat = ingest_csv(p, htm_depth=8)
        assert len(cat) == 3
        norms = cat.x**2 + cat.y**2 + cat.z**2
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert cat.htmid is not None

    def test_ra_normalized(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", ["1,360.0,0.0", "2,-10,0"])
        cat = ingest_csv(p, htm_depth=5)
        assert cat.ra[0] == 0.0
        assert cat.ra[1] == pytest.approx(350.0)

    def test_derived_example(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", ["2,30,20"])
        cat = ingest_csv(p, htm_depth=5)
        want = (
            float(mpmath.cos(mpmath.radians(20)) * mpmath.cos(mpmath.radians(30))),
            float(mpmath.cos(mpmath.radians(20)) * mpmath.sin(mpmath.radians(30))),
            float(mpmath.sin(mpmath.radians(20))),
        )
        assert (cat.x[0], cat.y[0], cat.z[0]) == pytest.approx(want, abs=1e-15)

    def test_duplicate_objid_names_line(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", ["1,10,0", "2,20,0", "1,30,0"])
        with pytest.raises(CatalogError, match=":4.*duplicate objID 1"):
            ingest_csv(p)

    def test_bad_dec_names_line(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", ["1,10,95"])
        with pytest.raises(CatalogError, match=":2"):
            ingest_csv(p)

    def test_bad_number_names_line_and_column(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", ["1,10,0", "2,xx,0"])
        with pytest.raises(CatalogError, match=":3: column 2"):
            ingest_csv(p)

    @pytest.mark.parametrize(
        "row, where",
        [("1,nan,0", ":2: column 2"), ("1,10,inf", ":2: column 3"), ("1,-inf,0", ":2: column 2")],
    )
    def test_non_finite_names_line_and_column(self, tmp_path, row, where):
        p = write_csv(tmp_path / "c.csv", [row])
        with pytest.raises(CatalogError, match=where + ": non-finite"):
            ingest_csv(p)

    def test_from_arrays_rejects_non_finite(self):
        with pytest.raises(CatalogError, match="finite"):
            catmod.from_arrays([1, 2], [math.inf, 10.0], [0.0, math.nan])
        with pytest.raises(CatalogError, match="finite"):
            catmod.from_arrays([1], [10.0], [math.nan], compute_htm=False)

    def test_bad_header(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", ["1,2,3"], header="a,b,c")
        with pytest.raises(CatalogError, match=":1"):
            ingest_csv(p)

    def test_determinism(self, tmp_path):
        rows = [f"{i},{(i * 37.1) % 360},{((i * 17.3) % 160) - 80}" for i in range(200)]
        p = write_csv(tmp_path / "c.csv", rows)
        a = ingest_csv(p, htm_depth=12)
        b = ingest_csv(p, htm_depth=12)
        assert np.array_equal(a.htmid, b.htmid)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert a.z.tobytes() == b.z.tobytes()

    def test_htmid_matches_scalar_path(self, tmp_path):
        rows = [f"{i},{(i * 91.7) % 360},{((i * 13.3) % 178) - 89}" for i in range(50)]
        p = write_csv(tmp_path / "c.csv", rows)
        cat = ingest_csv(p, htm_depth=10)
        for i in range(len(cat)):
            v = UnitVec3(float(cat.x[i]), float(cat.y[i]), float(cat.z[i]))
            assert int(cat.htmid[i]) == htm.point_to_id(v, 10)


class TestHtmConeSearch:
    def test_matches_oracle(self, rng):
        cat = random_catalog(4000, seed=31, compute_htm=True)
        for _ in range(40):
            center = SkyPoint(
                float(rng.uniform(0, 360)),
                float(np.degrees(np.arcsin(rng.uniform(-1, 1)))),
            )
            r = float(rng.uniform(0.01, 1.0))
            got = {i for i, _ in htm_cone_search(cat, center, r)}
            want = {i for i, _ in oracle.cone_scan(cat, center, r)}
            assert got == want

    def test_sorted_ids_cached(self):
        cat = random_catalog(500, seed=4, compute_htm=True)
        sorted_ids = cat.htm_sorted_ids()
        assert sorted_ids is cat.htm_sorted_ids()
        assert np.array_equal(sorted_ids, cat.htmid[cat.htm_order()])
        assert np.all(sorted_ids[1:] >= sorted_ids[:-1])

    def test_empty_far_from_points(self):
        cat = catmod.from_points([(1, SkyPoint(10, 10))], htm_depth=10)
        assert htm_cone_search(cat, SkyPoint(200, -40), 0.5) == []


class TestSnapshot:
    def test_empty_state_round_trip(self, tmp_path):
        path = tmp_path / "s.snap"
        save_state(AppState(), path)
        state = load_state(path)
        assert state.catalog is None
        assert state.zone_table is None
        assert state.neighbors is None
        assert state.pyramid is None
        assert state.regions.regions == {}

    def test_full_round_trip_queries_identical(self, tmp_path, rng):
        cat = random_catalog(3000, seed=41, compute_htm=True)
        table = zones.build_zone_table(cat, zones.ZoneConfig())
        neighbors = zones.build_neighbors(cat, 0.5)
        store = RegionStore()
        store.region_drop(store.region_new("dropped"))
        rid = store.region_new("circle", "roundtrip")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0.1, 0.2, 0.97, 0.8)
        pyr = PyramidIndex()
        pyr.insert(1, SkyPoint(10, 10), 0.5)
        pyr.insert(2, SkyPoint(0.01, -20), 2.0)
        for i in range(3, 300):  # radii over many scales, some near ra = 0
            ra = float(rng.uniform(-3, 3) % 360 if i % 4 == 0 else rng.uniform(0, 360))
            dec = float(np.degrees(np.arcsin(rng.uniform(-1, 1))))
            pyr.insert(i, SkyPoint(ra, dec), float(np.exp(rng.uniform(np.log(1e-3), np.log(60.0)))))
        assert len(pyr.scales()) >= 8
        state = AppState(cat, table, neighbors, store, pyr)
        path = tmp_path / "s.snap"
        save_state(state, path)
        loaded = load_state(path)

        assert loaded.catalog.x.tobytes() == cat.x.tobytes()
        assert np.array_equal(loaded.catalog.htmid, cat.htmid)
        # the (zone, ra) search key is derived on load, never stored
        assert loaded.zone_table.key.tobytes() == table.key.tobytes()
        for _ in range(25):
            center = SkyPoint(
                float(rng.uniform(0, 360)),
                float(np.degrees(np.arcsin(rng.uniform(-1, 1)))),
            )
            r = float(rng.uniform(0.01, 1.0))
            assert zones.nearby_objects(loaded.zone_table, center, r) == \
                zones.nearby_objects(table, center, r)
        assert loaded.neighbors.neighbors_of(5) == neighbors.neighbors_of(5)
        assert np.array_equal(loaded.neighbors.objid, neighbors.objid)
        assert loaded.regions.export_state() == store.export_state()
        assert loaded.pyramid.scales() == pyr.scales()
        for s, t in pyr.tables().items():
            got = loaded.pyramid.tables()[s]
            assert got.cfg == t.cfg
            for col in ("zone", "ra", "objid", "dec", "x", "y", "z", "is_main", "radius", "zone_bounds", "key"):
                assert getattr(got, col).tobytes() == getattr(t, col).tobytes(), col
        for k in range(40):
            if k == 20:  # entries inserted after the reload land in both
                for p in (pyr, loaded.pyramid):
                    p.insert(1000, SkyPoint(0.02, 5.0), 3.0)
                    p.insert(1001, SkyPoint(180.0, 89.0), 0.01)
            center = SkyPoint(float(rng.uniform(0, 360)), float(rng.uniform(-90, 90)))
            r = float(rng.uniform(0.01, 10.0))
            want_stats, got_stats = {}, {}
            want = overlap_search(pyr, center, r, stats=want_stats)
            assert overlap_search(loaded.pyramid, center, r, stats=got_stats) == want
            assert got_stats == want_stats

    def test_region_columns_round_trip(self, tmp_path):
        store = RegionStore()
        store.region_drop(store.region_new("gone"))
        store.region_new("empty", "no convexes")
        whole = store.region_new("whole", "ünïcödé ★ comment")
        store.region_new_convex(whole)  # no constraints: the whole sphere
        two = store.region_new("two")
        for nx, ny in ((1.0, 0.0), (0.0, 1.0)):
            cid = store.region_new_convex(two)
            store.region_new_convex_constraint(two, cid, nx, ny, 0.0, 0.5)
            store.region_new_convex_constraint(two, cid, 0.0, 0.0, 1.0, -0.25)
        store.region_drop(store.region_new("gone too"))
        path = tmp_path / "s.snap"
        save_state(AppState(regions=store), path)
        loaded = load_state(path).regions
        assert loaded.export_state() == store.export_state()
        assert loaded.region_new("next") == store.region_new("next")
        assert loaded.region_new_convex(two) == store.region_new_convex(two)
        assert loaded.region_new_convex_constraint(two, cid, 0.0, 0.0, 1.0, 0.0) == \
            store.region_new_convex_constraint(two, cid, 0.0, 0.0, 1.0, 0.0)

    def test_region_counts_checked(self, tmp_path):
        w = snapshot._Writer()
        for _ in range(3):  # no catalog, zone table or neighbours
            w.u8(0)
        w.u64(2)
        w.arr([1], "<u8")  # one region ...
        w.texts(["t"])
        w.texts([""])
        w.arr([1], "<u8")
        w.arr([2], "<u8")  # ... that claims two convexes, of which one is stored
        for column in ([1], [1], [0], []):
            w.arr(column, "<u8")
        w.arr([], "<f8")
        w.u8(0)  # no pyramid
        payload = w.buf.getvalue()
        path = tmp_path / "s.snap"
        path.write_bytes(MAGIC + struct.pack("<IQI", snapshot.VERSION, len(payload), zlib.crc32(payload)) + payload)
        with pytest.raises(SnapshotError, match="region columns"):
            load_state(path)

    @pytest.mark.parametrize("fail_at", ["write", "fsync"])
    def test_failed_save_keeps_previous_snapshot(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "s.snap"
        save_state(AppState(catalog=random_catalog(100, seed=5)), path)
        before = path.read_bytes()

        class HalfWrite:
            """A file whose first write stops halfway with a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        def fail(*args, **kwargs):
            raise OSError("fsync failed")

        with monkeypatch.context() as m:
            if fail_at == "write":
                m.setattr(snapshot, "open", lambda *a, **k: HalfWrite(open(*a, **k)), raising=False)
            else:
                m.setattr(snapshot.os, "fsync", fail)
            with pytest.raises(OSError):
                save_state(AppState(catalog=random_catalog(200, seed=6)), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        assert len(load_state(path).catalog) == 100

    def test_max_depth_ids_survive_reload(self, tmp_path):
        # ids at htm.MAX_DEPTH take all 64 bits, above the int64 range
        cat = catmod.from_arrays([1, 2, 3], [10.0, 10.1, 200.0], [5.0, 5.05, -40.0],
                                 htm_depth=htm.MAX_DEPTH)
        path = str(tmp_path / "s.snap")
        save_state(AppState(catalog=cat), path)
        loaded = load_state(path).catalog
        assert loaded.htmid.tolist() == cat.htmid.tolist()
        for c in (cat, loaded):
            assert [i for i, _ in htm_cone_search(c, SkyPoint(10.0, 5.0), 0.5)] == [1, 2]

    def test_region_ids_survive_reload(self, tmp_path):
        store = RegionStore()
        a = store.region_new("a")
        store.region_drop(a)
        b = store.region_new("b")
        path = tmp_path / "s.snap"
        save_state(AppState(regions=store), path)
        loaded = load_state(path)
        c = loaded.regions.region_new("c")
        assert c != b and c != a

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        save_state(AppState(catalog=random_catalog(100, seed=5)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(SnapshotError, match="truncated|checksum"):
            load_state(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        save_state(AppState(catalog=random_catalog(100, seed=5)), path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            load_state(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        save_state(AppState(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="version 1 != supported 2"):
            load_state(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        save_state(AppState(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="version 99"):
            load_state(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        path.write_bytes(b"NOTASNAPxxxxxxxxxxxxxxxx")
        with pytest.raises(SnapshotError, match="magic"):
            load_state(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_state(tmp_path / "nope.snap")

    @pytest.fixture(scope="class")
    def every_section(self, tmp_path_factory):
        """A saved snapshot with every section filled, and its bytes."""
        cat = random_catalog(40, seed=8, compute_htm=True)
        store = RegionStore()
        rid = store.region_new("circle")
        store.region_new_convex_constraint(rid, store.region_new_convex(rid), 0.0, 0.0, 1.0, 0.5)
        pyr = PyramidIndex()
        pyr.insert(1, SkyPoint(359.9, 10.0), 0.5)
        pyr.insert(2, SkyPoint(20.0, -89.0), 4.0)
        state = AppState(
            cat, zones.build_zone_table(cat, zones.ZoneConfig()), zones.build_neighbors(cat, 20.0), store, pyr
        )
        path = tmp_path_factory.mktemp("snap") / "s.snap"
        save_state(state, path)
        return path, path.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_byte_flip_or_truncation_rejected(self, every_section, data):
        path, blob = every_section
        if data.draw(st.booleans(), label="flip"):
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            bad = bytearray(blob)
            bad[pos] ^= data.draw(st.integers(1, 255), label="xor")
        else:
            bad = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        broken = path.with_name("broken.snap")
        broken.write_bytes(bytes(bad))
        with pytest.raises(SnapshotError):
            load_state(broken)
