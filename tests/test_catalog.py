import dataclasses
import functools
import math
import struct
import zlib

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skyindex import catalog as catmod
from skyindex import htm, oracle, snapshot, zones
from skyindex.algebra import RegionStore
from skyindex.catalog import CatalogError, htm_cone_search, ingest_csv, random_catalog
from skyindex.cli import main
from skyindex.geom import SkyPoint, UnitVec3, circle_to_halfspace, sky_to_vec, sky_to_xyz
from skyindex.pyramid import PyramidConfig, PyramidIndex, overlap_search
from skyindex.snapshot import (
    MAGIC,
    AppState,
    SnapshotError,
    load_state,
    save_state,
)

mpmath.mp.dps = 30


def assert_same_columns(a: RegionStore, b: RegionStore):
    cols_a, cols_b = a.columns(), b.columns()
    assert list(cols_a) == list(cols_b)
    for k in cols_a:
        assert np.asarray(cols_a[k]).dtype == np.asarray(cols_b[k]).dtype, k
        assert np.asarray(cols_a[k]).tobytes() == np.asarray(cols_b[k]).tobytes(), k


def write_sections(path, catalog=(snapshot._CATALOG, None), zones=None, regions=None, pyramid=(snapshot._PYRAMID, None)):
    """A CRC-valid snapshot of catalog and pyramid sections written under
    the given schemas, and the given zone table and region store columns,
    unchecked by the loader's schemas or save_state; no neighbors."""
    sections = [
        catalog,
        (snapshot._ZONES, zones),
        (snapshot._NEIGHBORS, None),
        (snapshot._REGIONS, RegionStore().columns() if regions is None else regions),
        pyramid,
    ]
    write_payload(path, b"".join(section_bytes(schema, cols) for schema, cols in sections))


def section_bytes(schema, cols) -> bytes:
    """A section's bytes as a save writes them; cols None for an absent one."""
    return b"".join(snapshot._encode(schema, "test", cols))


def write_payload(path, payload: bytes):
    """payload under a header whose length and CRC match it."""
    header = MAGIC + struct.pack("<IQI", snapshot.VERSION, len(payload), zlib.crc32(payload))
    path.write_bytes(header + payload)


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

    def test_row_subsets_derive_the_catalog_bits(self):
        # points_in_region derives unit vectors for a dec band's rows only;
        # it agrees with Catalog.x/y/z (and so with cone_matches and the
        # oracle) because sky_to_xyz gives a row the same bits whatever
        # other rows share its call.
        rng = np.random.default_rng(31)
        n = 200_000
        cat = catmod.Catalog(np.arange(n, dtype=np.int64), rng.uniform(0.0, 360.0, n),
                             np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n))))
        subsets = [np.arange(k) for k in range(1, 18)]  # the lengths of vector tails
        subsets += [np.arange(start, start + length) for start, length in
                    zip(rng.integers(0, n // 2, 40), rng.integers(1, n // 2, 40))]
        subsets += [np.flatnonzero(rng.uniform(size=n) < q) for q in np.geomspace(1e-5, 0.9, 60)]
        subsets += [np.flatnonzero(np.abs(cat.dec - c) <= h) for c, h in
                    zip(rng.uniform(-90.0, 90.0, 100), np.geomspace(1e-4, 90.0, 100))]
        for rows in subsets:
            for got, full in zip(sky_to_xyz(cat.ra[rows], cat.dec[rows]), (cat.x, cat.y, cat.z)):
                assert got.tobytes() == full[rows].tobytes()

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

    @pytest.mark.parametrize("objid", [2**63, 1180591620717411303424, -(2**63) - 1])
    def test_objid_outside_int64_names_line_and_column(self, tmp_path, objid):
        p = write_csv(tmp_path / "c.csv", ["1,10,0", f"{objid},20,0"])
        with pytest.raises(CatalogError, match=":3: column 1: objID outside the int64 range"):
            ingest_csv(p)

    def test_from_arrays_rejects_objid_outside_int64(self):
        for objid in (2**63, -(2**63) - 1):
            with pytest.raises(CatalogError, match="int64"):
                catmod.from_arrays([1, objid], [10.0, 20.0], [0.0, 0.0])
        ends = [-(2**63), 2**63 - 1]
        assert catmod.from_arrays(ends, [10.0, 20.0], [0.0, 0.0]).objid.tolist() == ends

    def test_from_arrays_rejects_non_finite(self):
        with pytest.raises(CatalogError, match="finite"):
            catmod.from_arrays([1, 2], [math.inf, 10.0], [0.0, math.nan])
        with pytest.raises(CatalogError, match="finite"):
            catmod.from_arrays([1], [10.0], [math.nan])

    @pytest.mark.parametrize("objid, dec, message", [
        ([1, 1], [0.0, 5.0], "duplicate objID"),
        ([1, 2], [0.0, 90.5], "dec must be within"),
    ], ids=["duplicate", "dec 90.5"])
    def test_from_arrays_rejects_rows_with_catalog_error(self, objid, dec, message):
        with pytest.raises(CatalogError, match=message):
            catmod.from_arrays(objid, [10.0, 20.0], dec)

    @pytest.mark.parametrize("depth", [31, -1])
    def test_from_arrays_rejects_depth_outside_0_30(self, depth):
        # refused with no mesh id to compute too, so no catalog that a
        # snapshot load refuses can be built and saved
        with pytest.raises(CatalogError, match="mesh depth outside"):
            catmod.from_arrays([1, 2], [10.0, 20.0], [0.0, 5.0], htm_depth=depth)

    def test_ingest_refuses_depth_before_reading(self, tmp_path, monkeypatch):
        # the depth depends on no row, so neither parse runs
        p = write_csv(tmp_path / "c.csv", ["1,10,5", "2,20,-5"])

        def refuse(path):
            raise AssertionError("the file was parsed")

        monkeypatch.setattr(catmod, "_read_csv", refuse)
        monkeypatch.setattr(catmod, "_read_csv_lines", refuse)
        with pytest.raises(CatalogError, match=r"mesh depth outside \[0, 30\]: 31"):
            ingest_csv(p, htm_depth=31)

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


# tokens that int() and float() read and np.loadtxt refuses, or that no
# reader accepts, so that a file holding one goes to the per-line reader
_ODD_TOKENS = [
    "1_000", "\u0663", "\xa07\xa0", " 12 ", "nan", "-inf", "1e400", "+.5e+1", "1.0", "1e3",
    str(2**63), str(-(2**63) - 1), "", "x", "0x10", "-0", "95", "-90.5", "\u0663.5", "1_0.5",
]


@st.composite
def csv_token(draw, column, odd):
    if odd and draw(st.integers(0, 5)) == 0:
        text = draw(st.sampled_from(_ODD_TOKENS))
    elif column == "objid":
        i = draw(st.one_of(st.integers(0, 20), st.integers(-(2**63), 2**63 - 1)))
        text = draw(st.sampled_from([str(i), f"+{i}" if i >= 0 else str(i), f"{i:05d}"]))
    else:
        lo, hi = (-720.0, 720.0) if column == "ra" else (-90.0, 90.0)
        v = draw(st.one_of(st.floats(lo, hi), st.sampled_from([lo, hi, -0.0, 5e-324])))
        text = draw(st.sampled_from([repr(v), f"{v:.17g}", f"{v:.3f}", f"{v:e}", f"{v:g}"]))
    pad = st.sampled_from(["", "", " ", "\t", "\xa0"])
    return draw(pad) + text + draw(pad)


@st.composite
def csv_file(draw):
    """The text of an objID,ra,dec CSV: rows of valid numbers in several
    spellings, and in half the files also odd tokens and short lines,
    with blank and whitespace-only lines and mixed line endings; no rows
    at all gives a header-only file."""
    odd = draw(st.booleans())
    header = draw(st.sampled_from(["objID,ra,dec", "objid, RA ,Dec"]))
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "space"] + ["short"] * odd))
        if kind == "row":
            lines.append(",".join(draw(csv_token(c, odd)) for c in ("objid", "ra", "dec")))
        else:
            lines.append({"blank": "", "space": "  \t", "short": "1,2"}[kind])
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    return "".join(line + end for line, end in zip(lines, ends))


def ingest_outcome(ingest, path):
    """The catalog columns ingest(path) gives, or its CatalogError message."""
    try:
        cat = ingest(path)
    except CatalogError as exc:
        return str(exc)
    return [(a.dtype.str, a.tobytes()) for a in (cat.objid, cat.ra, cat.dec)]


def ingest_lines(path):
    """ingest_csv through the per-line reader alone."""
    return catmod.from_arrays(*catmod._read_csv_lines(path), htm_depth=0)


# a byte not in UTF-8 on line 1502, past the text the header's read decodes
_BAD_UTF8 = b"objID,ra,dec\n" + b"".join(b"%d,10,5\n" % i for i in range(1500)) + b"1500,2\xff0,5\n1501,20,5\n"


class TestBulkParse:
    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv") / "c.csv"

    @settings(max_examples=300, deadline=None)
    @given(text=csv_file())
    def test_bulk_parse_matches_per_line_reader(self, csv_path, text):
        # the same columns bit for bit, or the same error message
        csv_path.write_bytes(text.encode("utf-8"))
        got = ingest_outcome(lambda p: ingest_csv(p, htm_depth=0), csv_path)
        assert got == ingest_outcome(ingest_lines, csv_path)

    @pytest.mark.parametrize("data, bulk, error", [
        pytest.param(b"objID,ra,dec\n1,10.5,-5\n2,20,5\n", True, None, id="lf"),
        pytest.param(b"objID,ra,dec\r\n1,10.5,-5\r\n2,20,5\r\n", True, None, id="crlf"),
        pytest.param(b"objID,ra,dec\r1,10.5,-5\r2,20,5\r", True, None, id="cr"),
        pytest.param(b"objID,ra,dec\n\n1,10.5,-5\n\n2,20,5\n\n", True, None, id="blank-lines"),
        pytest.param(b"objID,ra,dec\n1,10.5,-5\n2,20,5", True, None, id="no-final-newline"),
        pytest.param(b"objID,ra,dec\n1,\t10.5\t,-5\n\t2,20,5\n", True, None, id="tabs"),
        pytest.param(b"objID,ra,dec\n+5,-30,1e-3\n-0,+.5e+1,-0.0\n", True, None, id="signs"),
        pytest.param(b"objID,ra,dec\n9223372036854775807,10,5\n-9223372036854775808,20,5\n", True, None, id="int64-ends"),
        pytest.param(b"objID,ra,dec\n1,nan,5\n", True, ":2: column 2: non-finite number 'nan'", id="nan"),
        pytest.param(b"objID,ra,dec\n1,10,5\n2,20,90.5\n", True, ":3: dec out of range [-90, 90]: 90.5", id="dec-past-90"),
        pytest.param(b"objID,ra,dec\n1,10,5\n2,20,5\n1,30,5\n", True, ":4: duplicate objID 1 (first at line 2)", id="duplicate"),
        pytest.param(b"objID,ra,dec\n", False, None, id="header-only"),
        pytest.param(b"objID,ra,dec\n1,10,5\n  \t\n2,20,5\n", False, None, id="whitespace-line"),
        pytest.param(b"objID,ra,dec\r\n1_000,10,5\r\n2,20,-5\r\n", False, None, id="underscore"),
        pytest.param(b'objID,ra,dec\n"1",10,5\n', False, ":2: column 1: invalid objID '\"1\"'", id="quoted"),
        pytest.param(b"objID,ra,dec\n1,10,5 # note\n", False, ":2: column 3: invalid number '5 # note'", id="hash"),
        pytest.param(b"objID,ra,dec\n1,10,5\n#2,20,5\n", False, ":3: column 1: invalid objID '#2'", id="hash-line"),
        pytest.param(b"objID,ra,dec\n1.0,10,5\n", False, ":2: column 1: invalid objID '1.0'", id="float-objid"),
        pytest.param(b"objID,ra,dec\n9223372036854775808,10,5\n", False, ":2: column 1: objID outside the int64 range", id="past-int64"),
        pytest.param(b"objID,ra,dec\n1,10,5\n2,20\n", False, ":3: expected 3 comma-separated fields, got 2", id="two-fields"),
        pytest.param(_BAD_UTF8, False, ":1502: not valid UTF-8", id="bad-utf-8"),
    ])
    def test_edge_files_match_per_line_reader(self, tmp_path, monkeypatch, data, bulk, error):
        # line endings, blank lines, padding, signs, the int64 range, and
        # rows the bulk parse or the row checks refuse: ingest_csv, whose
        # bulk parse reads the path in chunks, gives the per-line reader's
        # columns bit for bit or its error, line and column, and takes the
        # files marked bulk without falling back to it
        p = tmp_path / "c.csv"
        p.write_bytes(data)
        read_lines, fell_back = catmod._read_csv_lines, []
        monkeypatch.setattr(catmod, "_read_csv_lines", lambda path: fell_back.append(path) or read_lines(path))
        try:
            catmod._read_csv(p)
        except (CatalogError, UnicodeDecodeError):
            pass
        assert fell_back == ([] if bulk else [p])
        got = ingest_outcome(lambda p: ingest_csv(p, htm_depth=0), p)
        if error is None:
            assert got == ingest_outcome(ingest_lines, p)
        else:
            assert isinstance(got, str) and got.startswith(f"{p}{error}")
            if data is not _BAD_UTF8:  # the per-line reader leaves bad UTF-8 to ingest_csv
                assert got == ingest_outcome(ingest_lines, p)

    @pytest.mark.parametrize("name", ["http://localhost:1/c.csv", "c.csv.gz"])
    def test_path_read_as_a_local_plain_file(self, tmp_path, monkeypatch, name):
        # np.loadtxt opens a path through numpy's DataSource, which fetches
        # a URL and decompresses by suffix: a local file named like a URL is
        # still read in bulk, and a plain file named .gz by the per-line reader
        def refuse(*args, **kw):
            raise AssertionError("the bulk parse opened a URL")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("urllib.request.urlopen", refuse)
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        write_csv(tmp_path / name, ["1,10,5", "2,20,-5"])
        want = ingest_outcome(ingest_lines, name)
        read_lines, fell_back = catmod._read_csv_lines, []
        monkeypatch.setattr(catmod, "_read_csv_lines", lambda path: fell_back.append(path) or read_lines(path))
        assert ingest_outcome(lambda p: ingest_csv(p, htm_depth=0), name) == want
        assert fell_back == ([] if name.startswith("http") else [name])

    def test_clean_file_takes_the_bulk_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        ra, dec = rng.uniform(-10.0, 370.0, 1000).tolist(), rng.uniform(-90.0, 90.0, 1000).tolist()
        objid = (rng.permutation(10**6)[:1000] - 500).tolist()
        p = write_csv(tmp_path / "c.csv", [f"{i},{a!r},{d!r}" for i, a, d in zip(objid, ra, dec)])
        want = ingest_outcome(ingest_lines, p)

        def refuse(path):
            raise AssertionError("a clean file fell back to the per-line reader")

        checks = []

        def check_rows(*args):
            checks.append(args)
            return zones.check_rows(*args)

        monkeypatch.setattr(catmod, "_read_csv_lines", refuse)
        monkeypatch.setattr(catmod, "check_rows", check_rows)
        assert ingest_outcome(lambda p: ingest_csv(p, htm_depth=0), p) == want
        assert len(checks) == 1  # the rows are checked, and their objids sorted, once


@pytest.fixture
def no_cover(monkeypatch):
    """htm.cover made to fail: the mesh cone search answers from its
    catalog's trixel table and never covers."""
    def refuse(*args, **kw):
        raise AssertionError("htm_cone_search called htm.cover")

    monkeypatch.setattr(htm, "cover", refuse)


class TestHtmConeSearch:
    @pytest.mark.parametrize("rows, r, htm_depth, depth", [
        (0, 1e-3, 20, 0),
        (1, 1e-3, 20, 0),
        (2047, 1e-3, 20, 0),
        (2048, 1e-3, 20, 0),
        (2049, 1e-3, 20, 1),
        (200_000, 1e-3, 20, 4),
        (1_000_000, 1e-3, 20, 5),
        (1_000_000, 60.0, 20, 5),
        (1_000_000, 1e-3, 3, 3),
    ])
    def test_cover_depth(self, rows, r, htm_depth, depth):
        # the trixel table's depth: the lesser of the catalog's depth and
        # the shallowest depth d at which an average trixel, one of 8 * 4^d,
        # holds at most ROWS_PER_TRIXEL = 256 rows; the radius plays no part
        assert catmod.ROWS_PER_TRIXEL == 256
        assert catmod._table_depth(rows, htm_depth) == depth

    @pytest.mark.parametrize("rows, htm_depth, radii, depth", [
        (1000, 20, (0.01, 1.0), 0),  # every row fits one trixel per face
        (2000, htm.MAX_DEPTH, (0.01, 1.0), 0),
        (50000, 20, (0.01, 1.0), 3),
        (50000, 20, (46.0, 89.0), 3),  # 90 / r is below 2: the radius does not bind
        (50000, 2, (0.01, 1.0), 2),
    ], ids=["density-0", "density-0-uint64", "density-3", "radius", "catalog-depth"])
    def test_matches_oracle(self, rng, no_cover, rows, htm_depth, radii, depth):
        # each bound of the table depth binds in some case. The first
        # centre, face 15's centroid, lies at every depth in the all-3
        # trixel, the mesh's last id, whose run is the table's last; at
        # depth 30 the bound after it would wrap uint64
        cat = random_catalog(rows, seed=31)
        cat = catmod.from_arrays(cat.objid, cat.ra, cat.dec, htm_depth=htm_depth)
        centres = [SkyPoint(315.0, -math.degrees(math.asin(1.0 / math.sqrt(3.0))))]
        for _ in range(40):
            centres.append(SkyPoint(
                float(rng.uniform(0, 360)),
                float(np.degrees(np.arcsin(rng.uniform(-1, 1)))),
            ))
        for center in centres:
            r = float(rng.uniform(*radii))
            assert htm_cone_search(cat, center, r) == oracle.cone_scan(cat, center, r)
        _, rho, _, _, _, end = cat._trixel_table
        assert len(rho) == 8 << 2 * depth and end[-1] == rows

    def test_sorted_ids_cached(self):
        cat = random_catalog(500, seed=4)
        sorted_ids = cat.htm_sorted_ids()
        assert sorted_ids is cat.htm_sorted_ids()
        assert np.array_equal(sorted_ids, cat.htmid[cat.htm_order()])
        assert np.all(sorted_ids[1:] >= sorted_ids[:-1])

    def test_empty_far_from_points(self):
        cat = catmod.from_arrays([1], [10.0], [10.0], htm_depth=10)
        assert htm_cone_search(cat, SkyPoint(200, -40), 0.5) == []

    def test_max_depth_last_face_matches_oracle(self, rng):
        # face 15 (ra 270-360, dec < 0) holds the largest ids; a cover of
        # its centre ends in the all-3 trixel, whose end bound
        # ((hi + 1) << shift) - 1 passes through 2^64 in uint64
        n = 20000
        ra = rng.uniform(270.0, 360.0, n)
        dec = -np.degrees(np.arcsin(rng.uniform(0.0, 1.0, n)))
        cat = catmod.from_arrays(np.arange(n), ra, dec, htm_depth=htm.MAX_DEPTH)
        centre = SkyPoint(315.0, -math.degrees(math.asin(1.0 / math.sqrt(3.0))))
        queries = [(centre, r) for r in (0.01, 0.3, 2.0, 10.0)]
        for _ in range(30):
            queries.append((SkyPoint(float(rng.uniform(268.0, 362.0)) % 360.0, float(rng.uniform(-90.0, 0.0))),
                            float(rng.uniform(0.01, 3.0))))
        for center, r in queries:
            got = [i for i, _ in htm_cone_search(cat, center, r)]
            want = [i for i, _ in oracle.cone_scan(cat, center, r)]
            assert got == want
        h = circle_to_halfspace(sky_to_vec(centre), 0.3)
        lo, hi = htm.cover([[(*h.normal.as_tuple(), h.l)]], max_depth=htm.MAX_DEPTH)[-1]
        assert (hi + 1) << 2 * (htm.MAX_DEPTH - htm.id_depth(hi)) == 1 << 64

    @pytest.mark.parametrize("depth", [0, 3, 20, 25, 30])
    def test_cover_depth_from_radius_matches_oracle(self, no_cover, depth):
        # 2360 rows hold more than ROWS_PER_TRIXEL per trixel only at
        # depth 0, so the trixel table has depth 1 from the density, or 0
        # at the catalog's depth 0, whatever the radius. Radii go down to
        # r = 1e-9 and r = 0, around centres at the poles, at ra = 0, on a
        # face corner and on a face's centroid, each with rows from 1e-10
        # to 10 degrees away. Without the pad, r = 1e-9 and 1e-8 would
        # rest on the cap margin alone
        rng = np.random.default_rng(16)
        centres = [(0.0, 90.0), (0.0, -90.0), (0.0, 10.0), (math.nextafter(360.0, 0.0), -20.0),
                   (90.0, 0.0), (45.0, math.degrees(math.asin(1.0 / math.sqrt(3.0))))]
        ra, dec = [rng.uniform(0.0, 360.0, 2000)], [np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 2000)))]
        for cra, cdec in centres:
            off = 10.0 ** rng.uniform(-10.0, 1.0, 60)
            az = rng.uniform(0.0, 2.0 * math.pi, 60)
            d = np.clip(cdec + off * np.cos(az), -90.0, 90.0)
            ra.append(cra + off * np.sin(az) / max(math.cos(math.radians(cdec)), 1e-3))
            dec.append(d)
        cat = catmod.from_arrays(np.arange(2360), np.concatenate(ra), np.concatenate(dec), htm_depth=depth)
        assert catmod._table_depth(len(cat), depth) == min(depth, 1)
        radii = (0.0, 1e-9, 1e-8, 1e-5, 1e-3, 0.01, 0.3, 1.0, 30.0, 90.0, 120.0, 180.0)
        for cra, cdec in centres:
            for r in radii:
                center = SkyPoint(cra, cdec)
                got = htm_cone_search(cat, center, r)
                assert got == oracle.cone_scan(cat, center, r), (cra, cdec, r)

    def test_same_list_as_zone_search(self, rng):
        # both searches end in zones.cone_matches, so they agree exactly,
        # distances included, also at the poles and across ra = 0
        cat = random_catalog(50000, seed=33)
        table = zones.build_zone_table(cat, zones.ZoneConfig())
        centres = [(0.0, 90.0), (123.0, -90.0), (0.0, 89.5), (200.0, -88.0), (0.0, 0.0),
                   (359.95, 10.0), (0.05, -30.0), (359.999, 60.0)]
        found = 0
        for ra, dec in centres:
            for r in (0.2, 1.0, 4.0):
                center = SkyPoint(ra, dec)
                got = htm_cone_search(cat, center, r)
                assert got == zones.nearby_objects(table, center, r)
                found += len(got)
        assert found > 400


def trixel_vertices(depth):
    """(ra, dec) arrays of the corners of every trixel at depth, each once:
    at depth d + 1, the corners and edge midpoints of the trixels at d."""
    corners = htm.trixel_corners(depth).transpose(0, 2, 1).reshape(-1, 3)
    x, y, z = np.unique(corners, axis=0).T
    return np.degrees(np.arctan2(y, x)) % 360.0, np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))


# rows (0, -90) and (0, -90 + r): their dec difference rounds to above r,
# their distance, 2.9340329224674164, is below it
POLE_PAIR_R = 2.93403292246742

# the corners and edge midpoints of the trixels of every table that
# mesh_catalog's sizes give (depth 0 or 1)
TABLE_VERTICES = list(zip(*(a.tolist() for a in trixel_vertices(2))))


@functools.cache
def mesh_catalog(rows, htm_depth):
    """(catalog, zone table) of the given rows and mesh depth: first the
    pole pair, rows at ra 0 and 359.9999999, and every table vertex with
    rows 1e-9, 1e-6 and 1e-3 degrees from it, then uniform rows."""
    rng = np.random.default_rng(rows)
    vra, vdec = (np.array(c) for c in zip(*TABLE_VERTICES))
    off = np.repeat([[1e-9, 1e-6, 1e-3]], len(vra), axis=0).ravel()
    az = rng.uniform(0.0, 2.0 * np.pi, off.size)
    jdec = np.clip(np.repeat(vdec, 3) + off * np.cos(az), -90.0, 90.0)
    jra = np.repeat(vra, 3) + off * np.sin(az) / np.maximum(np.cos(np.radians(jdec)), 1e-3)
    ra = np.concatenate([[0.0, 0.0, 0.0, 359.9999999, 0.0, 359.9999999], vra, jra, rng.uniform(0.0, 360.0, rows)])
    dec = np.concatenate([[-90.0, -90.0 + POLE_PAIR_R, 90.0, 0.0, 30.0, -60.0], vdec, jdec,
                          np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, rows)))])
    cat = catmod.from_arrays(np.arange(rows), ra[:rows], dec[:rows], htm_depth=htm_depth)
    return cat, zones.build_zone_table(cat, zones.ZoneConfig())


@functools.cache
def zone_fuzz_catalog():
    """300 rows: within a degree of the north pole, within half a degree
    of ra 0 on both sides, anywhere, and ten positions held by two objids
    each, whose rows tie on (zone, ra) at every height."""
    rng = np.random.default_rng(76)
    ra = np.concatenate([rng.uniform(0.0, 360.0, 60), rng.uniform(0.0, 0.5, 50), rng.uniform(359.5, 360.0, 50),
                         rng.uniform(0.0, 360.0, 130)])
    dec = np.concatenate([rng.uniform(89.0, 90.0, 60), rng.uniform(-5.0, 15.0, 100),
                          np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 130)))])
    ra, dec = np.concatenate([ra, ra[::29]]), np.concatenate([dec, dec[::29]])
    return catmod.from_arrays(rng.permutation(len(ra)) * 3 + 1, ra, dec)


_MESH_CENTRE = st.one_of(
    st.sampled_from(TABLE_VERTICES + [(0.0, 90.0), (0.0, -90.0), (0.0, 0.0), (359.9999999, 30.0), (0.0, -60.0)]),
    st.tuples(st.floats(0.0, 360.0, exclude_max=True), st.floats(-90.0, 90.0)),
)
_MESH_RADIUS = st.one_of(
    st.sampled_from([1e-9, 1e-6, 1e-3, 0.5, 45.0, 90.0, 135.0, 179.999, 180.0]),
    st.floats(-9.0, math.log10(180.0)).map(lambda e: min(180.0, 10.0**e)),
)


class TestTrixelTable:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0, 1, 2048, 2049]), st.sampled_from([0, 20, htm.MAX_DEPTH]), _MESH_CENTRE, _MESH_RADIUS)
    @example(2048, 20, (0.0, -90.0), POLE_PAIR_R)
    @example(2049, htm.MAX_DEPTH, (0.0, -90.0 + POLE_PAIR_R), POLE_PAIR_R)
    def test_mesh_search_equals_nearby_objects(self, rows, htm_depth, centre, r):
        # catalogs at table depth 0 (up to 2048 rows, or mesh depth 0) and
        # 1, centres on and next to the table's corners and edges, at the
        # poles and on ra 0: ids and distances equal, bit for bit
        cat, table = mesh_catalog(rows, htm_depth)
        center = SkyPoint(*centre)
        assert htm_cone_search(cat, center, r) == zones.nearby_objects(table, center, r)

    @pytest.mark.parametrize("rows, htm_depth", [(0, 20), (2049, 0), (2049, 20), (200_000, 20), (200_000, htm.MAX_DEPTH), (50_000, 2)])
    def test_runs_and_caps(self, rows, htm_depth):
        cat = random_catalog(rows, seed=9)
        cat = catmod.from_arrays(cat.objid, cat.ra, cat.dec, htm_depth=htm_depth)
        depth = catmod._table_depth(rows, htm_depth)
        centroid, rho, cos_padded, sin_padded, start, end = cat._trixel_table
        ids = np.arange(8 << 2 * depth, 16 << 2 * depth)
        assert len(rho) == len(ids)
        # the runs partition [0, len(cat)) in id order, each holding the
        # rows whose mesh id lies in its trixel
        assert start[0] == 0 and end[-1] == rows and (start[1:] == end[:-1]).all() and (start <= end).all()
        run = np.repeat(np.arange(len(ids)), end - start)
        assert ((cat.htm_sorted_ids() >> 2 * (htm_depth - depth)).astype(np.int64) == ids[run]).all()
        # every row of a run lies within its trixel's cap, by the chord
        rows_xyz = np.stack([cat.x, cat.y, cat.z], axis=1)[cat.htm_order()]
        chord = np.sqrt(((rows_xyz - centroid[run]) ** 2).sum(axis=1))
        assert (chord <= 2.0 * np.sin(rho[run] / 2.0) + 1e-15).all()
        # each cap is htm._bounding_cap's
        for k, hid in enumerate(ids.tolist()):
            c, r = htm._bounding_cap(htm._corners_of_id(hid))
            assert np.abs(centroid[k] - c).max() <= 1e-15 and abs(rho[k] - r) <= 1e-15
        assert (cos_padded == np.cos(rho + htm._CAP_MARGIN)).all() and (sin_padded == np.sin(rho + htm._CAP_MARGIN)).all()

    def test_built_once_per_catalog(self, monkeypatch):
        calls = []
        corners = htm.trixel_corners
        monkeypatch.setattr(htm, "trixel_corners", lambda depth: calls.append(depth) or corners(depth))
        cat = random_catalog(5000, seed=3)
        for ra in range(0, 360, 20):
            htm_cone_search(cat, SkyPoint(ra, 10.0), 5.0)
        table = cat._trixel_table
        htm_cone_search(cat, SkyPoint(0.0, -90.0), 180.0)
        assert calls == [1] and cat._trixel_table is table
        htm_cone_search(random_catalog(100, seed=3), SkyPoint(0.0, 0.0), 1.0)
        assert calls == [1, 0]


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

    def test_strided_columns_round_trip(self, tmp_path):
        # a save writes each column's values as a view of its array, so a
        # strided column (a slice of a wider array) must still land whole,
        # and the x, y, z and mesh ids derived from it on load are the same bytes
        cat = random_catalog(500, seed=8)
        wide = np.stack([cat.ra, cat.dec], axis=1)
        strided = catmod.Catalog(
            objid=np.repeat(cat.objid, 2)[::2],
            ra=wide[:, 0],
            dec=wide[:, 1],
            htm_depth=cat.htm_depth,
        )
        assert not any(getattr(strided, c).flags.c_contiguous for c in ("objid", "ra", "dec"))
        path = tmp_path / "s.snap"
        save_state(AppState(catalog=strided), path)
        loaded = load_state(path).catalog
        for col in ("objid", "ra", "dec", "x", "y", "z", "htmid"):
            assert getattr(loaded, col).tobytes() == getattr(cat, col).tobytes(), col

    def test_xyz_derived_on_first_use(self, tmp_path, monkeypatch):
        cat = random_catalog(2000, seed=12)
        path = tmp_path / "s.snap"
        save_state(AppState(cat, zones.build_zone_table(cat, zones.ZoneConfig())), path)
        center = SkyPoint(10.0, 0.0)
        want = oracle.cone_scan(cat, center, 5.0)
        calls = []

        def counted(ra, dec):
            calls.append(len(ra))
            return sky_to_xyz(ra, dec)

        monkeypatch.setattr(catmod, "sky_to_xyz", counted)
        loaded = load_state(path)
        assert calls == []
        assert zones.nearby_objects(loaded.zone_table, center, 5.0) == want
        assert calls == [2000]
        assert htm_cone_search(loaded.catalog, center, 5.0) == want
        assert zones.nearby_objects(loaded.zone_table, center, 5.0) == want
        assert calls == [2000]
        assert loaded.catalog.x.tobytes() == cat.x.tobytes()

    def test_mesh_ids_derived_once_on_first_cone_search(self, tmp_path, monkeypatch):
        ids_for_points, calls = htm.ids_for_points, []

        def counted(x, y, z, depth):
            calls.append(len(x))
            return ids_for_points(x, y, z, depth)

        monkeypatch.setattr(htm, "ids_for_points", counted)
        cat = random_catalog(2000, seed=12)
        path = tmp_path / "s.snap"
        save_state(AppState(cat), path)
        loaded = load_state(path).catalog
        assert calls == []
        center = SkyPoint(10.0, 0.0)
        want = oracle.cone_scan(cat, center, 5.0)
        assert htm_cone_search(loaded, center, 5.0) == want
        assert calls == [2000]
        assert htm_cone_search(loaded, center, 5.0) == want
        assert loaded.htm_sorted_ids() is loaded.htm_sorted_ids()
        assert calls == [2000]

    @pytest.mark.parametrize("depth", [0, 20, htm.MAX_DEPTH])
    def test_loaded_mesh_ids_match_point_to_id(self, tmp_path, depth):
        # uniform rows plus rows at the poles, on ra = 0 and on face corners
        rng = np.random.default_rng(depth)
        ra = np.concatenate([[0.0, 0.0, 0.0, 45.0, 90.0, 359.999999], rng.uniform(0.0, 360.0, 300)])
        corner = math.degrees(math.asin(1.0 / math.sqrt(3.0)))
        dec = np.concatenate([[90.0, -90.0, 0.0, corner, 0.0, -1e-9],
                              np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 300)))])
        path = tmp_path / "s.snap"
        save_state(AppState(catmod.from_arrays(np.arange(len(ra)), ra, dec, htm_depth=depth)), path)
        loaded = load_state(path).catalog
        want = [htm.point_to_id(UnitVec3(*p), depth) for p in zip(loaded.x, loaded.y, loaded.z)]
        assert loaded.htmid.tolist() == want
        assert loaded.htmid.dtype == (np.uint64 if depth == htm.MAX_DEPTH else np.int64)

    def test_full_round_trip_queries_identical(self, tmp_path, rng):
        cat = random_catalog(3000, seed=41)
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

        # x, y, z and every zone-table column but row are derived on load
        for col in ("x", "y", "z"):
            assert getattr(loaded.catalog, col).tobytes() == getattr(cat, col).tobytes(), col
        assert np.array_equal(loaded.catalog.htmid, cat.htmid)
        assert loaded.zone_table.catalog is loaded.catalog
        for col in ("zone", "ra", "objid", "row", "key"):
            got, want = getattr(loaded.zone_table, col), getattr(table, col)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), col
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
        assert_same_columns(loaded.regions, store)
        assert loaded.pyramid.scales() == pyr.scales()
        assert loaded.pyramid.cfg == pyr.cfg
        want_cols, got_cols = pyr.columns(), loaded.pyramid.columns()
        assert list(got_cols) == list(want_cols)
        for col, want in want_cols.items():
            assert got_cols[col].dtype == want.dtype, col
            assert got_cols[col].tobytes() == want.tobytes(), col
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
        store.region_new("sixteen chars ok", "ends in a NUL\x00")
        store.region_new("ünïcödé", "tab\there\nnext line\r")
        two = store.region_new("two")
        for nx, ny in ((1.0, 0.0), (0.0, 1.0)):
            cid = store.region_new_convex(two)
            store.region_new_convex_constraint(two, cid, nx, ny, 0.0, 0.5)
            store.region_new_convex_constraint(two, cid, 0.0, 0.0, 1.0, -0.25)
        store.region_drop(store.region_new("gone too"))
        path = tmp_path / "s.snap"
        save_state(AppState(regions=store), path)
        loaded = load_state(path).regions
        assert_same_columns(loaded, store)
        assert [(r.rtype, r.comment) for r in loaded.regions.values()] == \
            [(r.rtype, r.comment) for r in store.regions.values()]
        assert loaded.region_new("next") == store.region_new("next")
        assert loaded.region_new_convex(two) == store.region_new_convex(two)
        assert loaded.region_new_convex_constraint(two, cid, 0.0, 0.0, 1.0, 0.0) == \
            store.region_new_convex_constraint(two, cid, 0.0, 0.0, 1.0, 0.0)

    def test_region_counts_checked(self, tmp_path):
        store = RegionStore()
        rid = store.region_new("t")
        store.region_new_convex(rid)
        cols = store.columns()
        cols["convexes"] = np.array([2])  # one region that claims two convexes, of which one is stored
        path = tmp_path / "s.snap"
        write_sections(path, regions=cols)
        with pytest.raises(SnapshotError, match="region columns"):
            load_state(path)

    @pytest.mark.parametrize("column", ["type_utf8", "comment_utf8"])
    def test_region_text_not_utf8_refused(self, tmp_path, column):
        store = RegionStore()
        store.region_new("ab", "cd")
        store.region_new("é", "ü")
        cols = store.columns()
        cols[column] = cols[column].copy()
        cols[column][-1] = 0xFF  # the second region's text: a lead byte cut short
        path = tmp_path / "s.snap"
        write_sections(path, regions=cols)
        with pytest.raises(SnapshotError, match="decode"):
            load_state(path)

    @pytest.mark.parametrize("column, value", [
        ("region_id", [1, 1]),  # two regions under one id
        ("region_id", [0, 1]),  # ids start at 1
        ("next_region_id", 2),  # region 2 at or past the counter
        ("convex_id", [2, 1, 1]),  # falling within region 1
        ("next_convex_id", [2, 2]),  # region 1's convex 2 past its counter
    ])
    def test_region_ids_checked(self, tmp_path, column, value):
        store = RegionStore()
        for _ in range(2):
            rid = store.region_new("t")
        for _ in range(2):
            cid = store.region_new_convex(1)
        store.region_new_convex(rid)
        for _ in range(2):
            store.region_new_convex_constraint(1, cid, 0.0, 0.0, 1.0, 0.5)
        cols = store.columns()
        cols[column] = np.array(value, dtype=np.int64)
        path = tmp_path / "s.snap"
        write_sections(path, regions=cols)
        with pytest.raises(SnapshotError, match="id out of order or past its counter"):
            load_state(path)

    def test_integer_config_values_saved(self, tmp_path):
        cat = random_catalog(50, seed=4)
        table = zones.build_zone_table(cat, zones.ZoneConfig(zone_height=1))
        pyr = PyramidIndex(PyramidConfig(base_zone_height=1))
        pyr.insert(1, SkyPoint(10, 10), 2)
        path = tmp_path / "s.snap"
        save_state(AppState(cat, table, zones.build_neighbors(cat, 1), pyramid=pyr), path)
        loaded = load_state(path)
        assert loaded.zone_table.cfg == table.cfg
        assert loaded.zone_table.key.tobytes() == table.key.tobytes()
        assert loaded.pyramid.cfg == pyr.cfg
        assert overlap_search(loaded.pyramid, SkyPoint(11, 10), 1) == \
            overlap_search(pyr, SkyPoint(11, 10), 1)

    @pytest.mark.parametrize("column, value", [
        ("nx", 2.0),  # with ny = nz = 0: a normal of norm 2
        ("nx", np.nan),
        ("l", 1.5),
        ("l", np.inf),
    ])
    def test_region_rows_checked(self, tmp_path, column, value):
        store = RegionStore()
        rid = store.region_new("t")
        store.region_new_convex_constraint(rid, store.region_new_convex(rid), 1.0, 0.0, 0.0, 0.5)
        cols = store.columns()
        cols[column] = np.array([value])
        path = tmp_path / "s.snap"
        write_sections(path, regions=cols)
        with pytest.raises(SnapshotError, match="non-unit normal or a length"):
            load_state(path)

    @pytest.mark.parametrize("nx, loads", [
        (1.0 + 1.9e-12, False),  # |n|^2 - 1 = 3.8e-12: a cap at l = 1 widened by 1.1e-4 degrees
        (1.0 + 8 * 2.0**-52, True),  # |n|^2 - 1 = 16 * 2^-52, the bound
        (1.0 + 9 * 2.0**-52, False),
    ])
    def test_region_normal_length_bound(self, tmp_path, nx, loads):
        store = RegionStore()
        rid = store.region_new("t")
        store.region_new_convex_constraint(rid, store.region_new_convex(rid), 1.0, 0.0, 0.0, 1.0)
        cols = store.columns()
        cols["nx"] = np.array([nx])
        path = tmp_path / "s.snap"
        write_sections(path, regions=cols)
        if loads:
            assert load_state(path).regions.regions[rid].convexes[0].constraints == [(nx, 0.0, 0.0, 1.0)]
        else:
            with pytest.raises(SnapshotError, match="non-unit normal"):
                load_state(path)

    def test_store_written_normals_load(self, tmp_path, rng):
        # normalized and sky_to_vec normals, as constraint and grammar rows
        # hold them, lie inside the load bound
        normals = [UnitVec3.normalized(*v) for v in rng.normal(size=(5000, 3)).tolist()]
        normals += [sky_to_vec(SkyPoint(ra, dec)) for ra, dec in zip(
            rng.uniform(0.0, 360.0, 5000).tolist(), rng.uniform(-90.0, 90.0, 5000).tolist())]
        store = RegionStore()
        store.region_new_from_convexes([[(*n.as_tuple(), 0.5) for n in normals]], "t", "")
        path = tmp_path / "s.snap"
        save_state(AppState(regions=store), path)
        assert_same_columns(load_state(path).regions, store)

    def test_catalog_lengths_checked(self, tmp_path):
        cat = random_catalog(10, seed=3)
        cols = {k: getattr(cat, k) for k in snapshot._CATALOG}
        cols["ra"] = cols["ra"][:-1]
        schema = {**snapshot._CATALOG, "ra": snapshot._Col("<f8", ("short",))}
        path = tmp_path / "s.snap"
        write_sections(path, catalog=(schema, cols))
        with pytest.raises(SnapshotError, match="catalog columns disagree on their row count"):
            load_state(path)

    @pytest.mark.parametrize("fault, message", [
        ("unknown", "unknown column 'extra'"),
        ("missing", "missing column 'dec'"),
        ("dtype", "column 'ra': 1-d <f4, not 1-d <f8"),
        ("shape", "column 'htm_depth': 1-d <i8, not 0-d <i8"),
    ])
    def test_malformed_catalog_column_rejected(self, tmp_path, fault, message):
        cat = random_catalog(10, seed=3)
        schema = dict(snapshot._CATALOG)
        cols = {k: getattr(cat, k) for k in schema}
        if fault == "unknown":
            schema["extra"], cols["extra"] = snapshot._Col("<f8"), cols["ra"]
        elif fault == "missing":
            del schema["dec"], cols["dec"]
        elif fault == "dtype":
            schema["ra"] = snapshot._Col("<f4")
            cols["ra"] = cols["ra"].astype(np.float32)
        else:
            schema["htm_depth"] = snapshot._Col("<i8", ("one",))
            cols["htm_depth"] = np.array([cat.htm_depth])
        path = tmp_path / "s.snap"
        write_sections(path, catalog=(schema, cols))
        with pytest.raises(SnapshotError, match=message):
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
            with pytest.raises(SnapshotError, match="cannot write snapshot") as err:
                save_state(AppState(catalog=random_catalog(200, seed=6)), path)
        assert isinstance(err.value.__cause__, OSError)
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

    @pytest.mark.parametrize("fault, message", [
        ("row out of range", "not a permutation"),
        ("negative row", "not a permutation"),
        ("repeated row", "not a permutation"),
        ("row one short", "not a permutation"),
        ("rows swapped", "rows not sorted"),  # the first and the last row
        ("order", "rows not sorted"),  # reversed rows
    ])
    def test_zone_table_checked_on_load(self, tmp_path, fault, message):
        # the zone-table section is its zone height and the row permutation
        cat = random_catalog(2000, seed=12)
        table = zones.build_zone_table(cat, zones.ZoneConfig())
        row = table.row.copy()
        if fault == "row out of range":
            row[7] = len(cat)
        elif fault == "negative row":
            row[7] = -1  # a gather would wrap it to the last row
        elif fault == "repeated row":
            row[7] = row[8]
        elif fault == "row one short":
            row = row[:-1]
        elif fault == "rows swapped":
            row[[0, -1]] = row[[-1, 0]]
        else:
            row = row[::-1]
        path = tmp_path / "s.snap"
        catalog = (snapshot._CATALOG, {k: getattr(cat, k) for k in snapshot._CATALOG})
        write_sections(path, catalog, zones={"zone_height": table.cfg.zone_height, "row": row})
        with pytest.raises(SnapshotError, match=message):
            load_state(path)
        write_sections(path, zones={"zone_height": table.cfg.zone_height, "row": table.row})
        with pytest.raises(SnapshotError, match="zone table without a catalog"):
            load_state(path)
        save_state(AppState(cat, table), path)
        loaded = load_state(path)
        center = SkyPoint(10.0, 0.0)
        assert zones.nearby_objects(loaded.zone_table, center, 10.0) == oracle.cone_scan(cat, center, 10.0)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        height=st.sampled_from([4.0 / 60.0, 1.0, 30.0, 180.0 / 2**20]),
        fault=st.sampled_from(["none", "-1", "n", "repeat", "swap", "roll", "cut", "height"]),
        data=st.data(),
    )
    def test_zone_table_mutated_behind_the_checksum_property(self, tmp_path, height, fault, data):
        # a mutated zone-table section under a valid CRC is refused, or the
        # table it loads answers cone queries at a pole and across ra 0 as
        # the oracle does
        cat = zone_fuzz_catalog()
        n = len(cat)
        table = zones.build_zone_table(cat, zones.ZoneConfig(height))
        row = table.row.copy()
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 2))
        j += j >= i  # another row
        if fault == "swap" and data.draw(st.booleans()):  # two rows tied on (zone, ra), still in order
            i = data.draw(st.sampled_from(np.flatnonzero(table.key[1:] == table.key[:-1]).tolist()))
            j = i + 1
        if fault in ("-1", "n"):
            row[i] = -1 if fault == "-1" else n
        elif fault == "repeat":
            row[i] = row[j]
        elif fault == "swap":
            row[[i, j]] = row[[j, i]]
        elif fault == "roll":
            row = np.roll(row, i + 1)
        elif fault == "cut":
            row = row[:i]
        elif fault == "height":
            fine = 180.0 / 2**20
            height = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, fine, math.nextafter(fine, 0.0)]))
        path = tmp_path / "z.snap"
        catalog = (snapshot._CATALOG, {k: getattr(cat, k) for k in snapshot._CATALOG})
        write_sections(path, catalog, zones={"zone_height": height, "row": row})
        try:
            loaded = load_state(path)
        except SnapshotError:
            return
        assert loaded.zone_table.cfg.zone_height == height
        assert loaded.zone_table.row.tolist() == row.tolist()
        for ra, dec, r in [(0.0, 90.0, 5.0), (123.0, -90.0, 3.0), (359.9, 0.0, 1.0), (0.05, 10.0, 2.0), (0.0, 89.0, 2.0)]:
            center = SkyPoint(ra, dec)
            assert zones.nearby_objects(loaded.zone_table, center, r) == oracle.cone_scan(loaded.catalog, center, r)

    def test_zone_table_of_another_catalog_not_saved(self, tmp_path):
        # same objids, other positions: a file pairing them would load and
        # answer from the wrong rows; a table is saved only beside the
        # catalog object it indexes, not even beside an equal copy
        cat = random_catalog(2000, seed=12)
        other = zones.build_zone_table(random_catalog(2000, seed=13), zones.ZoneConfig())
        copy = zones.build_zone_table(random_catalog(2000, seed=12), zones.ZoneConfig())
        path = tmp_path / "s.snap"
        save_state(AppState(cat), path)
        before = path.read_bytes()
        for state in (AppState(cat, other), AppState(zone_table=other), AppState(cat, copy)):
            with pytest.raises(SnapshotError, match="zone table"):
                save_state(state, path)
            assert path.read_bytes() == before
            assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("fault, message", [
        ("objid all 0", "duplicate objID"),
        ("nan dec", "dec must be within"),
        ("ra + 360", "ra must be normalized to"),
        ("x column", "unknown column 'x'"),
        ("z column", "unknown column 'z'"),
        ("depth 31", "mesh depth outside"),
        ("htmid column", "unknown column 'htmid'"),
    ])
    def test_catalog_checked_on_load(self, tmp_path, fault, message):
        cat = random_catalog(2000, seed=12)
        schema = dict(snapshot._CATALOG)
        cols = {k: getattr(cat, k).copy() for k in ("objid", "ra", "dec")}
        cols["htm_depth"] = cat.htm_depth
        if fault == "objid all 0":
            cols["objid"][:] = 0
        elif fault == "nan dec":
            cols["dec"][7] = math.nan
        elif fault == "ra + 360":
            cols["ra"][7] += 360.0
        elif fault in ("x column", "z column"):
            # x, y, z are derived on load, so a file cannot hold them
            name = fault[0]
            schema[name], cols[name] = snapshot._F8, getattr(cat, name)
        elif fault == "depth 31":
            cols["htm_depth"] = 31
        else:
            # nor mesh ids, so a file cannot hold ids that disagree with ra, dec
            schema["htmid"], cols["htmid"] = snapshot._I8, np.roll(cat.htmid, 1)
        path = tmp_path / "s.snap"
        write_sections(path, catalog=(schema, cols))
        with pytest.raises(SnapshotError, match=message):
            load_state(path)
        save_state(AppState(cat), path)
        loaded = load_state(path).catalog
        center = SkyPoint(10.0, 0.0)
        assert htm_cone_search(loaded, center, 10.0) == oracle.cone_scan(cat, center, 10.0)

    @pytest.mark.parametrize("fault, message", [
        ("reversed", "neighbor rows not sorted"),
        ("repeated row", "neighbor rows not sorted"),
        ("radius 0", "neighbors radius outside"),
        ("nan radius", "neighbors radius outside"),
        ("candidate_pairs", "candidate_pairs below 0"),
        ("nan distance", "neighbor distance outside"),
        ("distance 200", "neighbor distance outside"),
    ])
    def test_neighbors_checked_on_load(self, tmp_path, fault, message):
        cat = random_catalog(2000, seed=12)
        table = zones.build_neighbors(cat, 3.0)
        assert len(table.neighbors_of(5)) == 3
        changes = {}
        if fault == "reversed":
            changes = {k: getattr(table, k)[::-1] for k in ("objid", "neighbor", "distance")}
        elif fault == "repeated row":
            changes = {k: np.insert(getattr(table, k), 1, getattr(table, k)[0]) for k in ("objid", "neighbor", "distance")}
        elif fault == "radius 0":
            changes = {"radius": 0.0}
        elif fault == "nan radius":
            changes = {"radius": math.nan}
        elif fault == "candidate_pairs":
            changes = {"candidate_pairs": -1}
        else:
            distance = table.distance.copy()
            distance[7] = math.nan if fault == "nan distance" else 200.0
            changes = {"distance": distance}
        path = tmp_path / "s.snap"
        save_state(AppState(neighbors=dataclasses.replace(table, **changes)), path)
        with pytest.raises(SnapshotError, match=message):
            load_state(path)
        save_state(AppState(neighbors=table), path)
        assert load_state(path).neighbors.neighbors_of(5) == table.neighbors_of(5)

    @pytest.mark.parametrize("fault, message", [
        ("ra + 720", "ra must be normalized to"),
        ("radius 0", "bounding radius outside"),
        ("nan radius", "bounding radius outside"),
        ("radius 200", "bounding radius outside"),
        ("objid", "duplicate objID"),
        ("x column", "unknown column 'x'"),
    ])
    def test_pyramid_scales_checked_on_load(self, tmp_path, fault, message):
        pyr = PyramidIndex()
        for i in range(40):
            pyr.insert(i, SkyPoint(9.0 * i, 2.0 * i - 40.0), 0.01 if i % 2 else 1.0)
        assert pyr.scales() == [1, 7]
        schema = dict(snapshot._PYRAMID)
        cols = {k: a.copy() for k, a in pyr.columns().items()}
        if fault == "ra + 720":
            cols["ra"] += 720.0
        elif fault == "radius 0":
            cols["radius"][3] = 0.0
        elif fault == "nan radius":
            cols["radius"][3] = math.nan
        elif fault == "radius 200":
            cols["radius"][3] = 200.0
        elif fault == "objid":
            cols["objid"][1] = cols["objid"][0]
        else:
            # x, y, z are derived as rows are sorted in, so a file cannot hold them
            schema["x"], cols["x"] = snapshot._F8, pyr._cols["x"]
        path = tmp_path / "s.snap"
        write_sections(path, pyramid=(schema, {"base_zone_height": pyr.cfg.base_zone_height, **cols}))
        with pytest.raises(SnapshotError, match=message):
            load_state(path)
        # the columns as the index holds them load
        write_sections(path, pyramid=(snapshot._PYRAMID, {"base_zone_height": pyr.cfg.base_zone_height, **pyr.columns()}))
        assert load_state(path).pyramid.scales() == [1, 7]

    @pytest.mark.parametrize("height", [math.nan, math.inf])
    def test_non_finite_heights_refused_on_load(self, tmp_path, height):
        # configs that no constructor accepts, as a file written before the
        # height checks could hold them
        cat = random_catalog(200, seed=12)
        table = zones.build_zone_table(cat, zones.ZoneConfig())
        table.cfg = zones.ZoneConfig()
        object.__setattr__(table.cfg, "zone_height", height)
        pyr = PyramidIndex()
        object.__setattr__(pyr.cfg, "base_zone_height", height)
        path = tmp_path / "s.snap"
        for state, message in ((AppState(cat, table), "zone_height"), (AppState(pyramid=pyr), "base_zone_height")):
            save_state(state, path)
            with pytest.raises(SnapshotError, match=message):
                load_state(path)

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

    @pytest.mark.parametrize("fault, message", [
        ("section truncated", "snapshot payload truncated"),
        ("column twice", "catalog section: column 'ra' twice"),
        ("trailing bytes", "trailing bytes after payload"),
        ("no region store", "region store section absent"),
    ])
    def test_payload_with_valid_crc_refused(self, tmp_path, capsys, fault, message):
        # each payload passes the length and CRC checks, so only the section
        # reader can refuse it: it raises, and a CLI command on the file
        # exits 4 and leaves the file as it was
        cat = random_catalog(10, seed=3)
        catalog = section_bytes(snapshot._CATALOG, {k: getattr(cat, k) for k in snapshot._CATALOG})
        regions = section_bytes(snapshot._REGIONS, RegionStore().columns())
        absent = section_bytes(snapshot._ZONES, None)
        if fault == "section truncated":
            payload = catalog[:-8]  # the last dec value, and every section after it
        elif fault == "column twice":
            ra = section_bytes({"ra": snapshot._F8}, {"ra": cat.ra})[4:]
            payload = struct.pack("<I", 5) + catalog[4:] + ra + absent * 2 + regions + absent
        elif fault == "trailing bytes":
            payload = catalog + absent * 2 + regions + absent + b"\0"
        else:
            payload = catalog + absent * 4
        path = tmp_path / "s.snap"
        write_payload(path, payload)
        with pytest.raises(SnapshotError, match=message):
            load_state(path)
        for argv in (["region", "show"], ["region", "new", "--type", "a"]):
            assert main(["--snapshot", str(path), *argv]) == 4
            assert message in capsys.readouterr().err
        assert path.read_bytes()[len(MAGIC) + 16 :] == payload

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

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_old_version_rejected(self, tmp_path, version):
        # format 3 stored zone tables with wraparound margin rows, format 4
        # one zone-table section per pyramid scale, format 5 every catalog
        # row twice and x, y, z, format 6 the pyramid's x, y, z, format 7
        # the catalog's mesh ids, format 8 each half-space's id and each
        # convex's next half-space id
        path = tmp_path / "s.snap"
        save_state(AppState(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), version)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match=f"version {version} != supported 9"):
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
        cat = random_catalog(40, seed=8)
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
