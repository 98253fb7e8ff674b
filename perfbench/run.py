"""skyindex benchmark: one workload, one seed, checked answers, named metrics.

    python3 perfbench/run.py --workload {ingest,cone,regions} --seed N \\
        --seconds 20 --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the repository root. The library is imported from ./src. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics BENCHMARK.json names; with ``--trace 1`` they are its
per-layer metrics, taken from wrappers installed around the library's
public functions. The line before it is a JSON report with every metric
of the workload, provenance, the input digest and any mismatches.
``--smoke`` runs every workload, untraced and traced, at tiny sizes and
checks that every metric is printed with its unit and that nothing failed.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _provenance(seed, ctx, rec, args) -> dict:
    def git(*cmd):
        try:
            p = subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.SubprocessError):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    # only this tree's own history counts, not that of a repository around it
    sha = git("rev-parse", "HEAD") if top and os.path.samefile(top, ROOT) else None
    dirty = None
    if sha is not None:
        status = git("status", "--porcelain", "--", "src")
        dirty = bool(status) if status is not None else None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "skyindex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "seed": seed,
        "seconds": args.seconds,
        "size": args.size,
        "counts": dict(ctx.counts),
        "ops_by_kind": dict(rec.attempted),
    }


def _p(values, q):
    return float(np.percentile(values, q)) if len(values) else None


def _median(values):
    return _p(values, 50)


def _trimmed_mean(values, share=0.1):
    """Mean without the lowest and highest share of the values."""
    v = np.sort(np.asarray(values))
    k = int(len(v) * share)
    return float(v[k : len(v) - k].mean()) if len(v) else None


# latency percentiles each query-like kind reports, in ms
PERCENTILES = {
    "cone_zone": (50, 99), "cone_mesh": (50, 99),
    "region_edit": (50,), "overlap": (50, 99), "on_point": (50,), "points_in": (50,),
}


def workload_metrics(workload, kinds, rec, peak_rss_mib) -> dict:
    """The workload's own metrics, by the names the README tables use."""
    out = {"setup_s": (_median(rec.setups), "s", len(rec.setups))}
    for k in kinds:
        lat = rec.latencies(k)
        if workload == "ingest":
            out[k + "_s"] = (_median(lat), "s", len(lat))
        for q in PERCENTILES.get(k, ()):
            out[f"{k}_p{q}_ms"] = (_p(lat * 1e3, q), "ms", len(lat))
    attempted = sum(rec.attempted.values())
    out["error_rate"] = (sum(rec.failed.values()) / attempted if attempted else 1.0, "fraction", attempted)
    out["peak_rss_mib"] = (peak_rss_mib, "MiB", 1)
    return out


def gated_metrics(workload, kinds, rec, peak_rss_mib) -> dict:
    """Workload-neutral end-to-end metrics, defined on every workload:
    set-up time, the headline operation's median and the geometric mean
    of every operation kind's median. The three times are adjusted for
    the machine's speed during the run: divided by the speed probe's mean
    time in ms, they read as times on a machine where the probe takes 1 ms.
    The probe's times fall in two clusters, fast and slow stretches of
    the machine, so their median jumps from one to the other as the slow
    share of a run passes a half; a mean moves smoothly with that share,
    as the operations' medians do. It leaves out the top and bottom tenth.
    The unadjusted three are returned as well, for the report."""
    lat = {k: rec.latencies(k) for k in kinds}
    if workload == "ingest":
        by_pass = {}
        for k in kinds:
            for op, dt in rec.samples[k]:
                by_pass.setdefault(op, []).append(dt)
        headline = [sum(v) for v in by_pass.values() if len(v) == len(kinds)]
    else:
        headline = lat["cone_zone" if workload == "cone" else "overlap"]
    medians = [_median(lat[k]) for k in kinds]
    geomean = (
        math.exp(sum(math.log(m * 1e3) for m in medians) / len(medians))
        if all(m is not None and m > 0 for m in medians) else None
    )
    probe_ms = _trimmed_mean(rec.probe.times) * 1e3
    headline_ms = _p(np.asarray(headline) * 1e3, 50)
    setup = _median(rec.setups)
    return {
        "setup_s": (setup / probe_ms if setup else None, "s"),
        "headline_p50_adj_ms": (headline_ms / probe_ms if headline_ms else None, "ms"),
        "p50_geomean_adj_ms": (geomean / probe_ms if geomean else None, "ms"),
        "unadjusted_setup_s": (setup, "s"),
        "headline_p50_ms": (headline_ms, "ms"),
        "p50_geomean_ms": (geomean, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def overhead(kinds, rec) -> dict:
    """Traced against untraced operations of the same kind, inside the
    trace window, as medians; and the traced set-up against the rest."""
    out = {}
    for k in kinds:
        base = [dt for op, dt in rec.samples[k] if op < rec.window]
        traced = [dt for _, dt in rec.traced[k]]
        if base and traced:
            b, t = _median(base), _median(traced)
            out[k] = {"untraced_p50_ms": b * 1e3, "traced_p50_ms": t * 1e3, "change": t / b - 1.0,
                      "samples": [len(base), len(traced)]}
    if rec.traced_setup is not None and rec.setups:
        b = _median(rec.setups)
        out["setup"] = {"untraced_s": b, "traced_s": rec.traced_setup, "change": rec.traced_setup / b - 1.0}
    return out


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "skyindex", "__init__.py")):
        return _fail(f"no library source at {SRC}; run from the repository root")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            contract = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        importlib.import_module("skyindex.cli")
    except ImportError as exc:
        return _fail(f"cannot import skyindex from {SRC}: {exc}")
    mod = importlib.import_module("skyindex")
    if not os.path.abspath(mod.__file__).startswith(os.path.join(SRC, "")):
        return _fail(f"skyindex imported from {mod.__file__}, not from {SRC}")

    import tracer as tracing
    import workloads as wl

    sizes = wl.SMOKE if args.size == "smoke" else wl.FULL
    run_fn, kinds = wl.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    rec = wl.Recorder(tracer, wl.trace_window(args.workload, sizes))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    ctx = wl.Context(seed=args.seed, seconds=args.seconds, sizes=sizes, workdir=workdir, tracer=tracer)
    try:
        run_fn(ctx, rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    own = workload_metrics(args.workload, kinds, rec, peak)
    gated = gated_metrics(args.workload, kinds, rec, peak)
    probe = np.asarray(rec.probe.times) * 1e3
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "input_digest": ctx.digest.hexdigest(),
        "provenance": _provenance(args.seed, ctx, rec, args),
        "workload_metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in own.items()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
        "speed_probe_ms": {"p25": _p(probe, 25), "p50": _p(probe, 50), "p75": _p(probe, 75),
                           "trimmed_mean": _trimmed_mean(probe), "samples": len(probe)},
        "failed_by_kind": dict(rec.failed),
        "mismatches": rec.mismatches,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["overhead"] = overhead(kinds, rec)
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
        report["spans"] = len(tracer.spans)
        available, wanted = layers, contract["per_layer"]
    else:
        available, wanted = gated, contract["end_to_end"]

    for name, (value, unit, n) in own.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:8s} {name:24s} {shown:>14s} {unit:8s} n={n}")
    for m in rec.mismatches[:10]:
        print(f"mismatch {m['op']} #{m['index']}: {m['input']}: {m['detail']}", file=sys.stderr)
    print(json.dumps({"report": report}))

    metrics = {}
    for spec in wanted:
        if spec["name"] not in available:
            return _fail(f"metric {spec['name']} named in BENCHMARK.json is not measured")
        value, unit = available[spec["name"]]
        if value is None:
            return _fail(f"metric {spec['name']} has no samples")
        if unit != spec["unit"]:
            return _fail(f"metric {spec['name']} is measured in {unit}, BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    attempted = sum(rec.attempted.values())
    failed = sum(rec.failed.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# -- smoke -------------------------------------------------------------------

WORKLOAD_METRIC_NAMES = {
    "ingest": ["setup_s", "ingest_s", "zone_build_s", "neighbors_build_s", "snapshot_load_s"],
    "cone": ["setup_s", "cone_zone_p50_ms", "cone_zone_p99_ms", "cone_mesh_p50_ms", "cone_mesh_p99_ms"],
    "regions": ["setup_s", "region_edit_p50_ms", "overlap_p50_ms", "overlap_p99_ms",
                "on_point_p50_ms", "points_in_p50_ms"],
}


def smoke() -> int:
    """Every workload, untraced and traced (twice, to compare counts), at
    tiny sizes, each in its own process."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    problems = []
    first_counts = {}

    def run(workload, trace):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "7",
               "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or len(lines) < 2:
            problems.append(f"{workload} trace={trace}: exit {p.returncode}: {p.stderr.strip()[-500:]}")
            return None, None
        return json.loads(lines[-2])["report"], json.loads(lines[-1])

    for workload in [w["name"] for w in contract["workloads"]]:
        for trace in (0, 1, 1):
            report, final = run(workload, trace)
            if report is None:
                continue
            where = f"{workload} trace={trace}"
            specs = contract["per_layer" if trace else "end_to_end"]
            if set(final["metrics"]) != {s["name"] for s in specs}:
                problems.append(f"{where}: final metrics {sorted(final['metrics'])}")
            for s in specs:
                got = final["metrics"].get(s["name"])
                if not got or got["unit"] != s["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{where}: {s['name']} missing, or wrong unit or value: {got}")
            own = report["workload_metrics"]
            for name in WORKLOAD_METRIC_NAMES[workload] + ["error_rate", "peak_rss_mib"]:
                if name not in own or not own[name]["unit"] or own[name]["value"] is None:
                    problems.append(f"{where}: workload metric {name} missing")
            if own["error_rate"]["value"] != 0 or not final["correct"] or final["failed"]:
                problems.append(f"{where}: failures {report['mismatches'][:3]}")
            if trace:
                for name, spec in report["per_layer"].items():
                    if not spec["unit"]:
                        problems.append(f"{where}: layer metric {name} has no unit")
                if "overhead" not in report or not report["overhead"]:
                    problems.append(f"{where}: no tracing overhead reported")
                counts = {k: v["value"] for k, v in report["per_layer"].items() if v["unit"] not in ("s", "1/s")}
                if workload in first_counts and first_counts[workload] != counts:
                    diff = sorted(k for k in counts if counts[k] != first_counts[workload].get(k))
                    problems.append(f"{where}: counts differ between two traced runs: {diff}")
                first_counts[workload] = counts
            print(f"smoke {where}: {'ok' if not problems else 'problems so far'}")
    for p in problems:
        print("smoke problem:", p, file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("ingest", "cone", "regions"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true", help="self-test every workload at tiny sizes")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
