import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from skyindex import oracle
from skyindex.catalog import random_catalog
from skyindex.cli import main
from skyindex.geom import SkyPoint
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

    def test_usage_error_exit_2(self, capsys, snap):
        with pytest.raises(SystemExit) as exc:
            main(["--snapshot", snap, "zone", "nearby", "--bogus-flag", "1"])
        assert exc.value.code == 2
        capsys.readouterr()


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

    def test_unknown_region_exit_4(self, capsys, snap):
        code, _ = run(capsys, "--snapshot", snap, "region", "predicate", "--id", "77")
        assert code == 4

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
                for _, nx, ny, nz, l in convex.constraints:
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

    @pytest.mark.parametrize("radius", ["nan", "inf", "-1"])
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
