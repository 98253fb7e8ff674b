import contextlib
import io
import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyindex import catalog as catmod
from skyindex import htm, oracle, regionspec
from skyindex.catalog import random_catalog
from skyindex.cli import main
from skyindex.geom import SkyPoint, sky_to_vec
from skyindex.snapshot import load_state


@pytest.fixture
def snap(tmp_path):
    return str(tmp_path / "state.snap")


@pytest.fixture
def csv3(tmp_path):
    p = tmp_path / "cat.csv"
    p.write_text(
        "objID,ra,dec\n"
        "1,0.1,0.0\n"
        "2,359.9,0.0\n"
        "3,180.0,45.0\n"
        "4,30.0,20.0\n"
    )
    return str(p)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestIngestAndZone:
    def test_ingest_and_query(self, capsys, snap, csv3):
        code, out = run(capsys, "--snapshot", snap, "--format", "records", "ingest", csv3)
        assert code == 0
        assert "rows=4" in out
        code, _ = run(capsys, "--snapshot", snap, "zone", "build")
        assert code == 0
        code, out = run(
            capsys, "--snapshot", snap, "--format", "records",
            "zone", "nearby", "--ra", "0.05", "--dec", "0", "--r", "0.2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert sum(1 for l in lines if l.startswith("result ")) == 2
        assert "summary count=2" in out

    def test_missing_snapshot_is_query_error(self, capsys, snap):
        code, _ = run(capsys, "--snapshot", snap, "zone", "nearby",
                      "--ra", "1", "--dec", "1", "--r", "0.1")
        assert code == 4

    def test_bad_csv_is_parse_error(self, capsys, snap, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("objID,ra,dec\n1,10,99\n")
        code, _ = run(capsys, "--snapshot", snap, "ingest", str(bad))
        assert code == 3

    def test_non_finite_csv_is_parse_error(self, capsys, snap, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("objID,ra,dec\n1,10,0\n2,nan,0\n")
        code = main(["--snapshot", snap, "ingest", str(bad)])
        assert code == 3
        assert ":3: column 2: non-finite" in capsys.readouterr().err
        assert not os.path.exists(snap)

    @pytest.mark.parametrize("rows, depth, message", [
        ("1,10,5\n2,nan,-5\n3,30,0\n", "20", "{}:3: column 2: non-finite number 'nan'"),
        ("1,10,5\n2,20,91\n3,30,0\n", "20", "{}:3: dec out of range [-90, 90]: 91.0"),
        ("1,10,5\n2,20,-5\n1,30,0\n", "20", "{}:4: duplicate objID 1 (first at line 2)"),
        ("1,10,5\n2,20,-5\n3,30,0\n", "31", "mesh depth outside [0, 30]: 31"),
    ], ids=["nan ra", "dec 91", "repeated objID", "depth 31"])
    def test_bulk_parsed_file_refused_with_line_message(self, capsys, snap, tmp_path, rows, depth, message):
        # files the bulk parse takes whole: from_arrays refuses their rows,
        # and the per-line reader names the line
        csv = tmp_path / "c.csv"
        csv.write_text("objID,ra,dec\n" + rows)
        assert all(isinstance(c, np.ndarray) for c in catmod._read_csv(csv))
        code = main(["--snapshot", snap, "ingest", str(csv), "--htm-depth", depth])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message.format(csv)}\n"
        assert not os.path.exists(snap)

    def test_objid_outside_int64_is_parse_error(self, capsys, snap, tmp_path):
        bad = tmp_path / "big.csv"
        bad.write_text("objID,ra,dec\n1,10,0\n1180591620717411303424,20,0\n")
        code = main(["--snapshot", snap, "ingest", str(bad)])
        assert code == 3
        assert ":3: column 1: objID outside the int64 range" in capsys.readouterr().err
        assert not os.path.exists(snap)

    @pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
    def test_unreadable_csv_is_parse_error(self, capsys, snap, tmp_path, case):
        path = tmp_path / "cat.csv"
        if case == "directory":
            path.mkdir()
        elif case == "not utf-8":
            path.write_bytes(b"objID,ra,dec\n1,10,0\n2,2\xff0,0\n3,30,0\n")
        code = main(["--snapshot", snap, "ingest", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {path}") and err.count("\n") == 1
        if case == "not utf-8":
            assert err.startswith(f"error: {path}:3: not valid UTF-8")
        assert sorted(tmp_path.iterdir()) == ([] if case == "missing" else [path])

    @pytest.mark.parametrize("argv", [
        ["ingest", "CSV"],
        ["region", "new", "--type", "a", "--from", "CIRCLE J2000 10 20 60"],
    ])
    def test_snapshot_in_missing_directory_is_query_error(self, capsys, tmp_path, csv3, argv):
        # the save comes first, so nothing reports a change that was not saved
        snap = tmp_path / "missing" / "s.snap"
        code = main(["--snapshot", str(snap), *[csv3 if a == "CSV" else a for a in argv]])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: cannot write snapshot {snap}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [Path(csv3)]

    def test_radius_over_margin_is_query_error(self, capsys, snap, csv3):
        """r = 50 is answered as the brute-force scan answers it, and a
        radius above 180 degrees exits 4."""
        run(capsys, "--snapshot", snap, "ingest", csv3)
        run(capsys, "--snapshot", snap, "zone", "build")
        code, out = run(capsys, "--snapshot", snap, "--format", "records", "zone", "nearby",
                        "--ra", "0", "--dec", "0", "--r", "50")
        assert code == 0
        want = oracle.cone_scan(load_state(snap).catalog, SkyPoint(0.0, 0.0), 50.0)
        assert [int(i) for i in re.findall(r"^result objid=(\d+)", out, re.M)] == [i for i, _ in want]
        assert len(want) == 3
        for r in ("180.000001", "200"):
            code, _ = run(capsys, "--snapshot", snap, "zone", "nearby",
                          "--ra", "0", "--dec", "0", "--r", r)
            assert code == 4

    def test_nan_radius_is_query_error(self, capsys, snap, csv3):
        run(capsys, "--snapshot", snap, "ingest", csv3)
        run(capsys, "--snapshot", snap, "zone", "build")
        code = main(["--snapshot", snap, "--format", "records", "zone", "nearby",
                     "--ra", "0", "--dec", "0", "--r", "nan"])
        captured = capsys.readouterr()
        assert code == 4
        assert [l for l in captured.out.splitlines() if not l.startswith("config ")] == []
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("height", ["nan", "inf", "-inf", "0"])
    def test_zone_height_not_positive_and_finite_exit_4(self, capsys, snap, csv3, height):
        # inf used to save a table whose next nearby query raised
        # IndexError; nan ended in a ValueError traceback
        run(capsys, "--snapshot", snap, "ingest", csv3)
        before = Path(snap).read_bytes()
        for argv in (("zone", "build"), ("neighbors", "build", "--r", "1")):
            code = main(["--snapshot", snap, *argv, f"--zone-height={height}"])
            assert code == 4
            assert "zone_height" in capsys.readouterr().err
        assert Path(snap).read_bytes() == before

    def test_height_past_zone_count_ceiling_exit_4(self, capsys, snap, csv3):
        # 1e-7 deg gives 1.8e9 zones: refused before any table is allocated
        run(capsys, "--snapshot", snap, "ingest", csv3)
        run(capsys, "--snapshot", snap, "region", "new", "--type", "c1",
            "--from", "CIRCLE J2000 10 10 30")
        before = Path(snap).read_bytes()
        for argv, name in (
            (("zone", "build", "--zone-height=1e-7"), "zone_height"),
            (("neighbors", "build", "--r", "1", "--zone-height=1e-7"), "zone_height"),
            (("pyramid", "build", "--base-zone-height=1e-7"), "base_zone_height"),
        ):
            assert main(["--snapshot", snap, *argv]) == 4
            assert f"error: {name} must be finite and at least 180/" in capsys.readouterr().err
        assert Path(snap).read_bytes() == before

    def test_usage_error_exit_2(self, capsys, snap):
        with pytest.raises(SystemExit) as exc:
            main(["--snapshot", snap, "zone", "nearby", "--bogus-flag", "1"])
        assert exc.value.code == 2
        capsys.readouterr()


    def test_ingest_and_builds_compute_no_mesh_ids(self, snap, csv3, monkeypatch):
        # mesh ids are derived on their first read, and none of these reads them
        def refuse(*args):
            raise AssertionError("mesh ids computed")

        monkeypatch.setattr(htm, "ids_for_points", refuse)
        for argv in (["ingest", csv3], ["zone", "build"], ["neighbors", "build", "--r", "1"]):
            assert main(["--snapshot", snap, *argv]) == 0, argv


class TestNeighborsCli:
    def test_build_and_of(self, capsys, snap, csv3):
        run(capsys, "--snapshot", snap, "ingest", csv3)
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "neighbors", "build", "--r", "0.5")
        assert code == 0
        assert "rows=2" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "neighbors", "of", "--objid", "1")
        assert code == 0
        assert "neighbor=2" in out

    def test_radius_above_180_is_query_error(self, capsys, snap, csv3):
        run(capsys, "--snapshot", snap, "ingest", csv3)
        for r in ("200", "400"):
            code, _ = run(capsys, "--snapshot", snap, "neighbors", "build", "--r", r)
            assert code == 4
        assert load_state(snap).neighbors is None
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "neighbors", "build", "--r", "180")
        assert code == 0
        assert "rows=12" in out  # no two of the four rows are antipodal


class TestHtmCli:
    def test_id_and_cover(self, capsys, snap):
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "htm", "id", "--ra", "30", "--dec", "20", "--depth", "8")
        assert code == 0
        assert "htmid id=" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "htm", "cover", "--region", "CIRCLE J2000 30 20 3")
        assert code == 0
        ranges = [l for l in out.splitlines() if l.startswith("range ")]
        assert 1 <= len(ranges) <= 20

    def test_bad_region_exit_3(self, capsys, snap):
        code, _ = run(capsys, "--snapshot", snap, "htm", "cover",
                      "--region", "CIRCLE NOPE 1 2 3")
        assert code == 3

    @pytest.mark.parametrize("radius", ["1e999", "12000"])
    def test_circle_radius_out_of_range_exit_3(self, capsys, snap, radius):
        code, _ = run(capsys, "--snapshot", snap, "htm", "cover",
                      "--region", f"CIRCLE J2000 0 0 {radius}")
        assert code == 3


class TestRegionCli:
    def test_lifecycle(self, capsys, snap):
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "new", "--type", "circle",
                        "--from", "CIRCLE J2000 30 20 60")
        assert code == 0
        assert "region id=1" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "contains", "--id", "1", "--ra", "30", "--dec", "20")
        assert "inside=True" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "not", "--id", "1", "--type", "inv")
        assert "region id=2" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "contains", "--id", "2", "--ra", "30", "--dec", "20")
        assert "inside=False" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "or", "--id1", "1", "--id2", "2", "--type", "both")
        assert "region id=3" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "simplify", "--id", "3")
        assert "simplified" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "predicate", "--id", "1")
        assert "p.x*" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "show")
        assert "summary count=3" in out

    def test_show_id_lists_halfspaces(self, capsys, snap):
        run(capsys, "--snapshot", snap, "region", "new", "--type", "cap",
            "--from", "CONVEX 0 0 1 0.5")
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "show", "--id", "1")
        assert code == 0
        assert "region id=1 type=cap" in out
        assert "halfspace region=1 convex=1 halfspace=1 x=0.0 y=0.0 z=1.0 l=0.5" in out

    def test_contains_without_id_lists_hits(self, capsys, snap):
        run(capsys, "--snapshot", snap, "region", "new", "--type", "n",
            "--from", "CONVEX 0 0 1 0")
        run(capsys, "--snapshot", snap, "region", "new", "--type", "s",
            "--from", "CONVEX 0 0 -1 0")
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "contains", "--ra", "0", "--dec", "45")
        assert code == 0
        assert "onpoint region=1" in out
        assert "region=2" not in out

    def test_unknown_id_and_partial_point_exit_4(self, capsys, snap):
        run(capsys, "--snapshot", snap, "region", "new", "--type", "cap",
            "--from", "CONVEX 0 0 1 0.5")
        inode = os.stat(snap).st_ino
        for argv, message in ((["show", "--id", "99"], "unknown regionID: 99"),
                              (["contains", "--x", "1"], "give all of --x --y --z")):
            code = main(["--snapshot", snap, "--format", "records", "region", *argv])
            captured = capsys.readouterr()
            assert code == 4 and message in captured.err
            assert [l for l in captured.out.splitlines() if not l.startswith("config ")] == []
        assert os.stat(snap).st_ino == inode

    @pytest.mark.parametrize("flags", [
        ["--type", "b", "--comment", "\udcff"],  # how Python passes argv byte 0xff
        ["--type", "a\udcff"],
    ])
    def test_text_not_utf8_exit_4(self, capsys, snap, flags):
        run(capsys, "--snapshot", snap, "region", "new", "--type", "cap",
            "--from", "CONVEX 0 0 1 0.5")
        before = Path(snap).read_bytes()
        code = main(["--snapshot", snap, "region", "new", *flags])
        err = capsys.readouterr().err
        assert code == 4 and "not valid UTF-8" in err and "Traceback" not in err
        assert Path(snap).read_bytes() == before

    def test_predicate_of_an_empty_convex_is_true(self, capsys, snap):
        # a convex with no constraint holds every point
        run(capsys, "--snapshot", snap, "region", "new", "--type", "all")
        run(capsys, "--snapshot", snap, "region", "new-convex", "--id", "1")
        code, out = run(capsys, "--snapshot", snap, "region", "predicate", "--id", "1")
        assert code == 0 and out == "predicate region=1 text=or(true)\n"

    def test_unknown_region_exit_4(self, capsys, snap):
        for cmd in ("predicate", "simplify", "show", "drop"):
            code, _ = run(capsys, "--snapshot", snap, "region", cmd, "--id", "77")
            assert code == 4
        assert not os.path.exists(snap)

    @pytest.mark.parametrize("argv, first", [
        (["region", "show"], "region new"),
        (["region", "contains", "--ra", "0", "--dec", "0"], "region new"),
        (["region", "points-in", "--id", "1"], "region new"),
        (["region", "predicate", "--id", "1"], "region new"),
        (["pyramid", "overlap", "--ra", "0", "--dec", "0", "--r", "1"], "region new"),
        (["zone", "build"], "ingest"),
        (["zone", "nearby", "--ra", "0", "--dec", "0", "--r", "1"], "ingest"),
        (["neighbors", "build", "--r", "1"], "ingest"),
        (["neighbors", "of", "--objid", "1"], "ingest"),
    ])
    def test_missing_snapshot_names_the_command_that_makes_one(self, capsys, snap, argv, first):
        # ingest makes no region, so a region read is told to make one
        code = main(["--snapshot", snap, *argv])
        err = capsys.readouterr().err
        assert code == 4 and f"missing snapshot {snap!r}; run `{first}` first" in err

    @pytest.mark.parametrize("argv", [["show"], ["contains", "--ra", "0", "--dec", "0"]])
    def test_read_only_command_on_missing_snapshot_exit_4(self, capsys, snap, argv):
        # these once read a missing snapshot as an empty store: a mistyped
        # path printed "summary count=0" and exited 0
        code = main(["--snapshot", snap, "--format", "records", "region", *argv])
        captured = capsys.readouterr()
        assert code == 4 and "missing snapshot" in captured.err
        assert [l for l in captured.out.splitlines() if not l.startswith("config ")] == []
        assert not os.path.exists(snap)

    def test_read_only_commands_keep_snapshot(self, capsys, snap, csv3):
        run(capsys, "--snapshot", snap, "ingest", csv3)
        run(capsys, "--snapshot", snap, "region", "new", "--type", "cap",
            "--from", "CONVEX 0 0 1 0.5")
        inode = os.stat(snap).st_ino  # a save renames a new file over it
        for argv in (["contains", "--id", "1", "--ra", "0", "--dec", "80"], ["points-in", "--id", "1"],
                     ["predicate", "--id", "1"], ["show"], ["show", "--id", "1"]):
            code, _ = run(capsys, "--snapshot", snap, "region", *argv)
            assert code == 0 and os.stat(snap).st_ino == inode
        code, _ = run(capsys, "--snapshot", snap, "region", "simplify", "--id", "1")
        assert code == 0 and os.stat(snap).st_ino != inode

    def test_points_in(self, capsys, snap, csv3):
        run(capsys, "--snapshot", snap, "ingest", csv3)
        run(capsys, "--snapshot", snap, "region", "new", "--type", "north",
            "--from", "CONVEX 0 0 1 0")
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "region", "points-in", "--id", "1")
        assert code == 0
        assert "summary count=2" in out  # objects at dec 45 and 20

    def test_points_in_matches_halfspace_oracle(self, capsys, snap, tmp_path):
        rng = np.random.default_rng(17)
        dec_edge = [-90.0, -89.9999, -45.0, -1e-9, 0.0, 1e-9, 30.0, 89.9999, 90.0]
        ra = np.concatenate([
            rng.uniform(0.0, 360.0, 600),
            np.zeros(len(dec_edge)),  # ra = 0 meridian
            np.full(len(dec_edge), 359.9999999),
            rng.uniform(0.0, 360.0, len(dec_edge)),  # poles at any ra
        ])
        dec = np.concatenate([
            np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 600))),
            dec_edge, dec_edge, dec_edge,
        ])
        csv = tmp_path / "edges.csv"
        csv.write_text("objID,ra,dec\n" + "".join(
            f"{10 * i + 3},{r!r},{d!r}\n"
            for i, (r, d) in enumerate(zip(ra.tolist(), dec.tolist()))
        ))
        assert run(capsys, "--snapshot", snap, "ingest", str(csv))[0] == 0
        specs = [
            "CIRCLE J2000 0 0 300",  # straddles ra = 0
            "CIRCLE J2000 123 90 600",  # north polar cap
            "POLY J2000 350 -20 10 -20 10 20 350 20",
            "REGION CONVEX 0 0 -1 0.5 CONVEX 1 0 0 0.2 0 -1 0 -0.3",
        ]
        for spec in specs:
            assert run(capsys, "--snapshot", snap, "region", "new", "--type", "t",
                       "--from", spec)[0] == 0
        assert run(capsys, "--snapshot", snap, "region", "not", "--id", "1",
                   "--type", "not1")[0] == 0
        assert run(capsys, "--snapshot", snap, "region", "or", "--id1", "2", "--id2", "3",
                   "--type", "or23")[0] == 0
        state = load_state(snap)
        cat = state.catalog
        pole = np.abs(dec) == 90.0
        for rid, reg in sorted(state.regions.regions.items()):
            inside = np.zeros(len(cat), dtype=bool)
            for convex in reg.convexes:
                ok = np.ones(len(cat), dtype=bool)
                for nx, ny, nz, l in convex.constraints:
                    ok &= cat.x * nx + cat.y * ny + cat.z * nz > l
                inside |= ok
            want = cat.objid[inside].tolist()
            code, out = run(capsys, "--snapshot", snap, "--format", "records",
                            "region", "points-in", "--id", str(rid))
            assert code == 0
            got = [int(line.split("=")[1]) for line in out.splitlines()
                   if line.startswith("result objid=")]
            assert got == want, rid
            assert f"summary count={len(want)}" in out
            if rid in (1, 5):
                assert inside[ra == 0.0].any() and not inside[ra == 0.0].all()
            if rid in (2, 6):
                assert inside[pole & (dec > 0)].all() and not inside[pole & (dec < 0)].any()

    def test_records_one_line_each_and_values_round_trip(self, capsys, snap):
        comments = ["two\nlines", 'say "hi" \\" bye\\', "tab\there\r", "a=b", "", "plain",
                    "nul\x00 end\x85\u2028", "ünïcödé ★"]
        field = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|[^\s"]*)')
        records = []
        for comment in comments:
            code, out = run(capsys, "--snapshot", snap, "--format", "records",
                            "region", "new", "--type", "t", "--comment", comment)
            assert code == 0 and len(out.splitlines()) == 2  # config, region
            records += out.splitlines()
        code, out = run(capsys, "--snapshot", snap, "--format", "records", "region", "show")
        assert code == 0 and len(out.splitlines()) == len(comments) + 2  # config, regions, summary
        records += out.splitlines()
        parsed = []
        for line in records:
            kind, _, rest = line.partition(" ")
            pairs = field.findall(rest)
            assert " ".join(f"{k}={v}" for k, v in pairs) == rest, line
            parsed.append((kind, {k: json.loads(v) if v.startswith('"') else v for k, v in pairs}))
        assert [f["comment"] for kind, f in parsed if f.get("region_cmd") == "new"] == comments
        assert [f["comment"] for kind, f in parsed if kind == "region" and "comment" in f] == comments

    @pytest.mark.parametrize("xyz", [("1e-200", "0", "0"), ("1e200", "1e200", "0"), ("3e-160", "4e-160", "0")])
    def test_normals_whose_squares_overflow_or_underflow(self, capsys, snap, xyz):
        """A finite direction is normalized even when x^2 + y^2 + z^2 is not a
        normal float, by the constraint command, the grammar and contains."""
        v = [float(c) for c in xyz]
        m = max(v)
        want = [c / m / math.hypot(*(c / m for c in v)) for c in v]
        run(capsys, "--snapshot", snap, "region", "new", "--type", "t")
        run(capsys, "--snapshot", snap, "region", "new-convex", "--id", "1")
        code, _ = run(capsys, "--snapshot", snap, "region", "constraint", "--id", "1", "--convex", "1",
                      "--x", xyz[0], "--y", xyz[1], "--z", xyz[2], "--l", "0.5")
        assert code == 0
        for spec in (f"CONVEX {' '.join(xyz)} 0.5", f"CIRCLE CARTESIAN {' '.join(xyz)} 60"):
            code, _ = run(capsys, "--snapshot", snap, "region", "new", "--type", "t", "--from", spec)
            assert code == 0, spec
        for rid in ("1", "2", "3"):
            code, out = run(capsys, "--snapshot", snap, "--format", "records", "region", "show", "--id", rid)
            assert code == 0
            normal = re.search(r"^halfspace .* x=(\S+) y=(\S+) z=(\S+) l=", out, re.M).groups()
            assert [float(c) for c in normal] == pytest.approx(want, abs=1e-15)
        code, out = run(capsys, "--snapshot", snap, "--format", "records", "region", "contains", "--id", "1",
                        "--x", xyz[0], "--y", xyz[1], "--z", xyz[2])
        assert code == 0 and "inside=True" in out

    def test_new_from_stores_compiled_halfspaces_bit_for_bit(self, snap):
        # the compiled normals are unit already: normalizing them once more
        # moved about one in three by an ulp
        rng = np.random.default_rng(18)
        specs = []
        for _ in range(40):
            x, y, z, a, b, c = (float(v) for v in rng.normal(size=6))
            specs.append(f"CIRCLE CARTESIAN {x!r} {y!r} {z!r} {float(rng.uniform(1.0, 600.0))!r}")
            l1, l2 = (float(v) for v in rng.uniform(-0.9, 0.9, 2))
            specs.append(f"CONVEX {x!r} {y!r} {z!r} {l1!r} {a!r} {b!r} {c!r} {l2!r}")
        for spec in specs:
            assert main(["--snapshot", snap, "region", "new", "--type", "t", "--from", spec]) == 0, spec
        store = load_state(snap).regions
        for rid, spec in enumerate(specs, 1):
            convexes = regionspec.compile_region_string(spec).convexes
            want = [[(h.normal.x, h.normal.y, h.normal.z, h.l) for h in c.constraints] for c in convexes]
            got = [[(h.normal.x, h.normal.y, h.normal.z, h.l) for h in c.halfspaces()]
                   for c in store.regions[rid].convexes]
            assert got == want, spec

    @pytest.mark.parametrize("spec, fault", [
        ("CONVEX 1e400 0 0 0.5", "not finite"),
        ("CONVEX 0 0 0 0.5", "zero vector"),
    ])
    def test_bad_convex_normal_names_its_fault(self, capsys, snap, spec, fault):
        code = main(["--snapshot", snap, "region", "new", "--type", "t", "--from", spec])
        err = capsys.readouterr().err
        assert code == 3 and fault in err
        code = main(["--snapshot", snap, "region", "new", "--type", "t"])
        assert code == 0 and main(["--snapshot", snap, "region", "new-convex", "--id", "1"]) == 0
        xyz = spec.split()[1:4]
        code = main(["--snapshot", snap, "region", "constraint", "--id", "1", "--convex", "1",
                     "--x", xyz[0], "--y", xyz[1], "--z", xyz[2], "--l", "0.5"])
        err = capsys.readouterr().err
        assert code == 4 and fault in err

    @pytest.mark.parametrize("point", [
        ("--ra", "nan", "--dec", "0"),
        ("--ra", "inf", "--dec", "0"),
        ("--ra=-inf", "--dec", "0"),
        ("--ra", "0", "--dec", "nan"),
        ("--x", "nan", "--y", "0", "--z", "1"),
        ("--x", "inf", "--y", "0", "--z", "1"),
    ])
    @pytest.mark.parametrize("with_id", [False, True])
    def test_contains_non_finite_point_exit_4(self, capsys, snap, point, with_id):
        run(capsys, "--snapshot", snap, "region", "new", "--type", "all",
            "--from", "CONVEX 0 0 1 -1")
        argv = ["--snapshot", snap, "--format", "records", "region", "contains", *point]
        if with_id:
            argv += ["--id", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 4
        assert [l for l in captured.out.splitlines() if not l.startswith("config ")] == []
        assert captured.err.startswith("error: ")


class TestPyramidCli:
    def test_build_and_overlap(self, capsys, snap):
        run(capsys, "--snapshot", snap, "region", "new", "--type", "c1",
            "--from", "CIRCLE J2000 10 10 30")
        run(capsys, "--snapshot", snap, "region", "new", "--type", "c2",
            "--from", "CIRCLE J2000 200 -40 30")
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "pyramid", "build")
        assert code == 0
        assert "entries=2" in out
        code, out = run(capsys, "--snapshot", snap, "--format", "records",
                        "pyramid", "overlap", "--ra", "10", "--dec", "10",
                        "--r", "1", "--stage-counts")
        assert code == 0
        assert "result objid=1" in out
        assert "result objid=2" not in out
        assert "stages " in out

    def test_build_skips_empty_regions(self, capsys, snap):
        # a region with no convex covers nothing, so the pyramid holds no entry for it
        run(capsys, "--snapshot", snap, "region", "new", "--type", "empty")
        run(capsys, "--snapshot", snap, "region", "new", "--type", "c",
            "--from", "CIRCLE J2000 10 10 30")
        code, out = run(capsys, "--snapshot", snap, "--format", "records", "pyramid", "build")
        assert code == 0 and "pyramid_build entries=1 " in out and out.endswith(" skipped_empty=1\n")
        assert load_state(snap).pyramid.columns()["objid"].tolist() == [2]

    @pytest.mark.parametrize("edit", [
        ["new", "--type", "c3", "--from", "CIRCLE J2000 10 20 30"],
        ["new-convex", "--id", "1"],
        ["constraint", "--id", "1", "--convex", "1", "--x", "0", "--y", "0", "--z", "1", "--l", "0"],
        ["or", "--id1", "1", "--id2", "2", "--type", "u"],
        ["and", "--id1", "1", "--id2", "2", "--type", "i"],
        ["not", "--id", "1", "--type", "n"],
        ["drop", "--id", "1"],
        ["simplify", "--id", "1"],
    ], ids=lambda edit: edit[0])
    def test_region_edit_drops_pyramid(self, capsys, snap, edit):
        # a pyramid indexes the regions as they were when it was built, so
        # every edit that saves drops it rather than leave it answering
        # for regions that changed or are gone
        for ra in ("10", "11"):
            run(capsys, "--snapshot", snap, "region", "new", "--type", "c",
                "--from", f"CIRCLE J2000 {ra} 20 60")
        overlap = ["--snapshot", snap, "--format", "records", "pyramid", "overlap",
                   "--ra", "10", "--dec", "20", "--r", "0.1"]
        assert run(capsys, "--snapshot", snap, "pyramid", "build")[0] == 0
        assert run(capsys, *overlap)[0] == 0
        code, _ = run(capsys, "--snapshot", snap, "region", *edit)
        assert code == 0 and load_state(snap).pyramid is None
        code = main(overlap)
        assert code == 4
        assert "run `pyramid build` first" in capsys.readouterr().err
        run(capsys, "--snapshot", snap, "pyramid", "build")
        code, out = run(capsys, *overlap)
        ids = {int(l.split("=")[1]) for l in out.splitlines() if l.startswith("result ")}
        assert code == 0 and ids and ids <= set(load_state(snap).regions.regions)

    @pytest.mark.parametrize("spec, ra, dec", [
        ("CIRCLE J2000 0 89.99992 0.0006", "0", "89.999911"),
        ("CIRCLE J2000 123 -89.99992 0.0006", "123", "-89.999911"),
    ])
    def test_overlap_next_to_a_pole(self, capsys, snap, spec, ra, dec):
        # The region's bounding circle is centred less than 1e-12 from
        # |z| = 1, and its entry takes the least radius, half of the base
        # zone height. Placed at the pole, 8e-5 degrees away, it missed
        # these points of the region.
        run(capsys, "--snapshot", snap, "region", "new", "--type", "c", "--from", spec)
        assert load_state(snap).regions.contains(1, sky_to_vec(SkyPoint(float(ra), float(dec))))
        run(capsys, "--snapshot", snap, "pyramid", "build", f"--base-zone-height={180 / 2**20!r}")
        code, out = run(capsys, "--snapshot", snap, "--format", "records", "pyramid", "overlap",
                        "--ra", ra, f"--dec={dec}", "--r", "1e-7")
        assert code == 0
        assert [l for l in out.splitlines() if l.startswith("result ")] == ["result objid=1"]

    @pytest.mark.parametrize("with_region", [True, False])
    @pytest.mark.parametrize("height", ["nan", "inf"])
    def test_build_height_not_finite_exit_4(self, capsys, snap, height, with_region):
        if with_region:
            run(capsys, "--snapshot", snap, "region", "new", "--type", "c1",
                "--from", "CIRCLE J2000 10 10 30")
        code = main(["--snapshot", snap, "pyramid", "build", "--base-zone-height", height])
        assert code == 4
        assert "base_zone_height" in capsys.readouterr().err
        assert not os.path.exists(snap) or load_state(snap).pyramid is None

    @pytest.mark.parametrize("radius", ["nan", "inf", "-1", "1e300"])
    def test_overlap_bad_radius_exit_4(self, capsys, snap, radius):
        run(capsys, "--snapshot", snap, "region", "new", "--type", "c1",
            "--from", "CIRCLE J2000 10 10 30")
        run(capsys, "--snapshot", snap, "pyramid", "build")
        code = main(["--snapshot", snap, "--format", "records", "pyramid", "overlap",
                     "--ra", "10", "--dec", "10", f"--r={radius}"])
        captured = capsys.readouterr()
        assert code == 4
        assert [l for l in captured.out.splitlines() if not l.startswith("config ")] == []
        assert captured.err.startswith("error: ")


class TestDeterminism:
    def test_records_byte_identical(self, capsys, snap, csv3):
        run(capsys, "--snapshot", snap, "ingest", csv3)
        run(capsys, "--snapshot", snap, "zone", "build")
        args = ["--snapshot", snap, "--format", "records",
                "zone", "nearby", "--ra", "0.05", "--dec", "0", "--r", "0.2"]
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_bench_records_deterministic(self, capsys, snap):
        args = ["--format", "records", "bench", "nearby",
                "--n", "800", "--queries", "10", "--seed", "5"]
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "matches=10" in out1


class TestBenchCli:
    def test_bench_nearby_10k_200_queries(self, capsys):
        # the documented invocation: full oracle agreement plus the table
        code = main(["bench", "nearby", "--n", "10000", "--queries", "200",
                     "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        assert "oracle match: 200/200" in captured.out
        assert "speedup" in captured.out
        assert "mesh ids build: " in captured.out
        assert "zone table build: " in captured.out

    def test_bench_nearby_records_timings_on_stderr(self, capsys):
        code = main(["--format", "records", "bench", "nearby", "--n", "500",
                     "--queries", "5", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "mesh ids build: " in captured.err
        assert "mesh ids build" not in captured.out

    def test_bench_neighbors(self, capsys):
        code, out = run(capsys, "--format", "records", "bench", "neighbors",
                        "--n", "600", "--seed", "2")
        assert code == 0
        assert "match=True" in out

    def test_bench_overlap(self, capsys):
        code, out = run(capsys, "--format", "records", "bench", "overlap",
                        "--n", "1500", "--queries", "20", "--seed", "2")
        assert code == 0
        assert "matches=20" in out

    @pytest.mark.parametrize("argv", [
        ("nearby", "--n", "-1", "--queries", "2"),
        ("nearby", "--n", "10", "--queries", "0"),
        ("neighbors", "--n", "-3"),
        ("overlap", "--n", "-1", "--queries", "2"),
        ("overlap", "--n", "10", "--queries", "-2"),
    ])
    def test_sizes_below_1_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "-1", "0", "0.0099", "180.5", "1e300"])
    def test_max_radius_out_of_range_usage_error(self, capsys, radius):
        # nan and -1 used to end in numpy tracebacks inside bench_queries
        with pytest.raises(SystemExit) as exc:
            main(["bench", "nearby", "--n", "10", "--queries", "2", f"--max-radius={radius}"])
        assert exc.value.code == 2
        assert "must be within [0.01, 180] degrees" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["0.01", "180"])
    def test_max_radius_range_ends_accepted(self, capsys, radius):
        code, out = run(capsys, "--format", "records", "bench", "nearby", "--n", "50",
                        "--queries", "3", f"--max-radius={radius}")
        assert code == 0
        assert "matches=3" in out


def test_readme_walkthrough_runs(capsys, tmp_path):
    """Every non-bench line of README's CLI block, run in order on a small
    catalog, exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [c[1:] for c in commands if c and c[0] == "skyindex" and c[1] != "bench"]
    assert len(commands) > 20
    cat = random_catalog(300, seed=4)
    csv = tmp_path / "stars.csv"
    csv.write_text("objID,ra,dec\n" + "".join(
        f"{i},{a!r},{d!r}\n" for i, a, d in zip(cat.objid.tolist(), cat.ra.tolist(), cat.dec.tolist())
    ))
    snap = str(tmp_path / "walk.snap")
    for argv in commands:
        argv = [str(csv) if a == "stars.csv" else a for a in argv]
        code = main(["--snapshot", snap] + argv)
        err = capsys.readouterr().err
        assert code == 0, (argv, err)


# The numeric-argument fuzz. Every value is passed as --name=value, so that
# "-inf" and "-1" reach the argument's type instead of reading as options.
# Sizes (--n, --queries, --max-ranges) are drawn small or invalid only, so
# that no case starts a large allocation or a long refinement.
_AWKWARD = ["nan", "-nan", "inf", "-inf", "0", "-0.0", "-1", "-400", "1e308", "-1e308", "1e-300", "5e-324", "1e999", "x"]


def _number(valid):
    return st.one_of(st.sampled_from(_AWKWARD), valid.map(repr), st.floats().map(repr))


def _integer(valid):
    return st.one_of(st.sampled_from(_AWKWARD + ["99999999999999999999999", "-99999999999999999999999"]), valid.map(str))


_RA = _number(st.floats(-720.0, 720.0))
_DEC = _number(st.floats(-90.0, 90.0))
_RADIUS = _number(st.floats(0.0, 180.0))
_HEIGHT = _number(st.floats(0.01, 90.0))
_SIZE = st.sampled_from(["-3", "0", "1", "2", "17", "nan", "2.5", "1e9", "x"])
_DEPTH = _integer(st.integers(-2, 33))


def _opts(*pairs):
    """argv tokens --name=value, a value drawn from each pair's strategy."""
    return st.tuples(*(values.map(lambda v, n=name: f"{n}={v}") for name, values in pairs)).map(list)


def _cli_argv(csv):
    commands = [
        (["zone", "build"], _opts(("--zone-height", _HEIGHT))),
        (["zone", "nearby", "--stats"], _opts(("--ra", _RA), ("--dec", _DEC), ("--r", _RADIUS))),
        (["neighbors", "build"], _opts(("--r", _RADIUS))),
        (["neighbors", "build"], _opts(("--r", _RADIUS), ("--zone-height", _HEIGHT))),
        (["neighbors", "of"], _opts(("--objid", _integer(st.integers(-3, 9))))),
        (["pyramid", "build"], _opts(("--base-zone-height", _HEIGHT))),
        (["pyramid", "overlap", "--stage-counts"], _opts(("--ra", _RA), ("--dec", _DEC), ("--r", _RADIUS))),
        (["htm", "id"], _opts(("--ra", _RA), ("--dec", _DEC), ("--depth", _DEPTH))),
        (["htm", "cover", "--region", "CIRCLE J2000 10 20 1"],
         _opts(("--max-ranges", st.sampled_from(["-1", "0", "1", "20", "nan"])), ("--max-depth", _DEPTH))),
        (["region", "contains"], _opts(("--ra", _RA), ("--dec", _DEC))),
        (["region", "contains", "--id=1"], _opts(("--x", _RADIUS), ("--y", _RADIUS), ("--z", _RADIUS))),
        (["region", "constraint", "--id=1", "--convex=1"],
         _opts(("--x", _RADIUS), ("--y", _RADIUS), ("--z", _RADIUS), ("--l", _RADIUS))),
        (["ingest", csv], _opts(("--htm-depth", _DEPTH))),
        (["bench", "nearby"], _opts(("--n", _SIZE), ("--queries", _SIZE), ("--max-radius", _RADIUS), ("--zone-height", _HEIGHT))),
        (["bench", "neighbors"], _opts(("--n", _SIZE), ("--r", _RADIUS))),
        (["bench", "overlap"], _opts(("--n", _SIZE), ("--queries", _SIZE))),
    ]
    return st.one_of([opts.map(lambda tail, head=head: head + tail) for head, opts in commands])


@pytest.fixture(scope="module")
def fuzz_snapshot(tmp_path_factory):
    """A snapshot holding every section, its bytes, and a CSV to ingest."""
    root = tmp_path_factory.mktemp("fuzz")
    csv = root / "five.csv"
    csv.write_text("objID,ra,dec\n1,0.1,0.0\n2,359.9,0.0\n3,180.0,45.0\n4,30.0,20.0\n5,30.2,20.1\n")
    snap = str(root / "fuzz.snap")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["ingest", str(csv)], ["zone", "build"], ["neighbors", "build", "--r", "1"],
                     ["region", "new", "--type", "c", "--from", "CIRCLE J2000 10 20 60"], ["pyramid", "build"]):
            assert main(["--snapshot", snap] + argv) == 0
    return snap, Path(snap).read_bytes(), str(csv)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_numeric_arguments_fuzz(fuzz_snapshot, data):
    """Any numeric argument ends in exit 0, 2, 3 or 4 with no traceback,
    and a failing command leaves the snapshot byte-identical."""
    snap, before, csv = fuzz_snapshot
    argv = data.draw(_cli_argv(csv), label="argv")
    Path(snap).write_bytes(before)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["--snapshot", snap] + argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert Path(snap).read_bytes() == before


_ID_SPECS = ["CIRCLE J2000 10 20 60", "RECT J2000 10 -5 30 5", "POLY J2000 0 0 10 0 5 8",
             "REGION CONVEX 0 0 1 0.2 CONVEX 1 0 0 0.1 -1 0 0 -0.3"]
_ID_NORMAL = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: max(map(abs, v)) > 1e-3)
_ID_STEP = st.one_of(
    st.tuples(st.just("new"), st.sampled_from(_ID_SPECS)),
    st.tuples(st.just("new-convex"), st.integers(0, 99)),
    st.tuples(st.just("constraint"), st.integers(0, 99), st.integers(0, 99), _ID_NORMAL, st.floats(-1.0, 1.0)),
    st.tuples(st.just("simplify"), st.integers(0, 99)),
)


@pytest.fixture(scope="module")
def id_snapshot(tmp_path_factory):
    return str(tmp_path_factory.mktemp("ids") / "ids.snap")


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(_ID_STEP, min_size=1, max_size=8))
def test_show_numbers_halfspaces_from_1(id_snapshot, steps):
    """However a convex was made (constraint appends, new --from, simplify),
    and across the save and load of every command, `region show` numbers
    its half-spaces 1..k in stored order, and `constraint` answers with the
    new k."""
    snap = id_snapshot
    if os.path.exists(snap):
        os.remove(snap)

    def region(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--snapshot", snap, "--format", "records", "region", *argv]) == 0
        return out.getvalue()

    region("new", "--type", "t", "--from", _ID_SPECS[-1])
    for step in steps:
        regions = load_state(snap).regions.regions
        rid = sorted(regions)[step[1] % len(regions)] if step[0] != "new" else None
        if step[0] == "new":
            region("new", "--type", "t", "--from", step[1])
        elif step[0] == "new-convex":
            region("new-convex", "--id", str(rid))
        elif step[0] == "constraint" and regions[rid].convexes:
            convex = regions[rid].convexes[step[2] % len(regions[rid].convexes)]
            (x, y, z), l = step[3], step[4]
            out = region("constraint", "--id", str(rid), "--convex", str(convex.convex_id),
                         f"--x={x!r}", f"--y={y!r}", f"--z={z!r}", f"--l={l!r}")
            assert f" halfspace={len(convex.constraints) + 1}" in out
        elif step[0] == "simplify":
            region("simplify", "--id", str(rid))
    store = load_state(snap).regions
    for rid, reg in store.regions.items():
        shown = re.findall(r"^halfspace region=\d+ convex=(\d+) halfspace=(\d+) x=(\S+) y=(\S+) z=(\S+) l=(\S+)$",
                           region("show", "--id", str(rid)), re.M)
        want = [(c.convex_id, k, *row) for c in reg.convexes for k, row in enumerate(c.constraints, 1)]
        assert [(int(c), int(k), *map(float, row)) for c, k, *row in shown] == want
