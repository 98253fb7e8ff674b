"""Command-line front end: ingest, index builds, queries, and benchmarks.

State (catalog, indexes, region store) lives in a snapshot file passed via
--snapshot; each mutating command loads it, applies the change, and writes
it back. Exit codes: 0 ok, 2 usage, 3 parse/ingest, 4 query or state
error, 5 benchmark oracle mismatch.

Machine-readable mode (--format records) prints one record per line with a
fixed field order and is byte-deterministic for a given seed; wall-clock
timings go to stderr there, since they never are.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time

import numpy as np

from . import catalog as catmod
from . import htm, oracle, regionspec, zones
from .algebra import RegionStore, RegionStoreError
from .geom import GeometryError, SkyPoint, UnitVec3, region_rows, sky_to_vec, sky_to_xyz, vec_to_sky
from .htm import HtmError
from .pyramid import (
    PyramidConfig,
    PyramidError,
    PyramidIndex,
    bounding_circle_rows,
    overlap_search,
)
from .regionspec import RegionCompileError, RegionSyntaxError
from .snapshot import AppState, SnapshotError, load_state, save_state
from .zones import ZoneConfig, ZoneError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_QUERY = 4
EXIT_MISMATCH = 5


class StateError(ValueError):
    """Missing snapshot or missing prerequisite state for a command."""


class OracleMismatch(RuntimeError):
    """A benchmark found an index result differing from brute force."""


# A records value is quoted when it is empty or holds whitespace, "=", a
# quote, a backslash, a control character or a line separator. Inside the
# quotes, backslash, quote, newline, tab and carriage return are escaped as
# in C and any other control character or line separator as \uXXXX, so a
# record stays on one line and a quoted value reads back as a JSON string.
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_ESCAPED = re.compile(r'[\\"\x00-\x1f\x7f-\x9f\u2028\u2029]')
_QUOTED = re.compile(r'[\s=\\"\x00-\x1f\x7f-\x9f\u2028\u2029]')


def _escape(m: re.Match) -> str:
    return _ESCAPES.get(m.group()) or f"\\u{ord(m.group()):04x}"


class Output:
    def __init__(self, fmt: str):
        self.machine = fmt == "records"

    def record(self, kind: str, **fields):
        parts = [kind]
        for key, value in fields.items():
            if isinstance(value, float):
                value = repr(value)
            elif isinstance(value, str) and (value == "" or _QUOTED.search(value)):
                value = '"' + _ESCAPED.sub(_escape, value) + '"'
            parts.append(f"{key}={value}")
        print(" ".join(parts))

    def echo_config(self, args):
        """Records mode opens with the resolved flag set, so outputs are
        reproducible from the output alone."""
        if not self.machine:
            return
        fields = {
            k: v
            for k, v in sorted(vars(args).items())
            if k != "func" and v is not None
        }
        self.record("config", **fields)

    def timing(self, text: str):
        print(text, file=sys.stderr if self.machine else sys.stdout)


# -- state helpers -----------------------------------------------------------


def _load(args, first: str = "ingest") -> AppState:
    """The snapshot's state; a missing one is an error naming the command
    that makes one: ingest for the zone and neighbors commands, `region
    new` for the region and pyramid reads."""
    if not os.path.exists(args.snapshot):
        raise StateError(f"missing snapshot {args.snapshot!r}; run `{first}` first")
    return load_state(args.snapshot)


def _load_or_new(args) -> AppState:
    if os.path.exists(args.snapshot):
        return load_state(args.snapshot)
    return AppState()


def _need(state: AppState, attr: str, hint: str):
    value = getattr(state, attr)
    if value is None:
        raise StateError(f"snapshot has no {attr}; run `{hint}` first")
    return value


def _point_from_args(args) -> UnitVec3:
    if args.x is not None or args.y is not None or args.z is not None:
        if None in (args.x, args.y, args.z):
            raise StateError("give all of --x --y --z, or --ra and --dec")
        return UnitVec3.normalized(args.x, args.y, args.z)
    if args.ra is None or args.dec is None:
        raise StateError("give --ra and --dec, or --x --y --z")
    return sky_to_vec(SkyPoint(args.ra, args.dec))


# -- commands ----------------------------------------------------------------


def cmd_ingest(args, out: Output) -> int:
    state = _load_or_new(args)
    state.catalog = catmod.ingest_csv(args.csv, htm_depth=args.htm_depth)
    state.zone_table = None  # derived from the previous catalog
    state.neighbors = None
    save_state(state, args.snapshot)
    out.record(
        "ingest", rows=len(state.catalog), htm_depth=args.htm_depth, snapshot=args.snapshot
    )
    return EXIT_OK


def cmd_zone_build(args, out: Output) -> int:
    state = _load(args)
    cat = _need(state, "catalog", "ingest")
    state.zone_table = zones.build_zone_table(cat, ZoneConfig(zone_height=args.zone_height))
    save_state(state, args.snapshot)
    out.record("zone_build", rows=len(state.zone_table), zone_height=args.zone_height)
    return EXIT_OK


def cmd_zone_nearby(args, out: Output) -> int:
    state = _load(args)
    table = _need(state, "zone_table", "zone build")
    stats: dict | None = {} if args.stats else None
    rows = zones.nearby_objects(table, SkyPoint(args.ra, args.dec), args.r, stats=stats)
    for objid, dist in rows:
        out.record("result", objid=objid, dist=dist)
    out.record("summary", count=len(rows))
    if stats is not None:
        out.record("stages", **stats)
    return EXIT_OK


def cmd_neighbors_build(args, out: Output) -> int:
    state = _load(args)
    cat = _need(state, "catalog", "ingest")
    state.neighbors = zones.build_neighbors(cat, args.r, args.zone_height)
    save_state(state, args.snapshot)
    out.record(
        "neighbors_build",
        rows=len(state.neighbors),
        radius=state.neighbors.radius,
        candidate_pairs=state.neighbors.candidate_pairs,
    )
    return EXIT_OK


def cmd_neighbors_of(args, out: Output) -> int:
    state = _load(args)
    table = _need(state, "neighbors", "neighbors build")
    rows = table.neighbors_of(args.objid)
    for neighbor, dist in rows:
        out.record("result", objid=args.objid, neighbor=neighbor, dist=dist)
    out.record("summary", count=len(rows))
    return EXIT_OK


def cmd_htm_id(args, out: Output) -> int:
    v = sky_to_vec(SkyPoint(args.ra, args.dec))
    hid = htm.point_to_id(v, args.depth)
    out.record("htmid", id=hid, depth=args.depth, ra=args.ra, dec=args.dec)
    return EXIT_OK


def cmd_htm_cover(args, out: Output) -> int:
    rows = region_rows(regionspec.compile_region_string(args.region))
    ranges = htm.cover(rows, max_ranges=args.max_ranges, max_depth=args.max_depth)
    depth = htm.id_depth(ranges[0][0]) if ranges else 0
    for lo, hi in ranges:
        out.record("range", lo=lo, hi=hi)
    out.record("summary", count=len(ranges), depth=depth)
    return EXIT_OK


_READ_ONLY_REGION_CMDS = {"contains", "points-in", "predicate", "show"}


def _edit_region(store: RegionStore, args) -> tuple[str, dict]:
    """Apply a region subcommand that changes the store (the last,
    simplify, by default); returns the record (kind, fields) to print."""
    if args.region_cmd == "new":
        if not args.from_spec:
            return "region", {"id": store.region_new(args.type, args.comment)}
        rows = region_rows(regionspec.compile_region_string(args.from_spec))  # stored bit for bit
        return "region", {"id": store.region_new_from_convexes(rows, args.type, args.comment)}
    if args.region_cmd == "new-convex":
        return "convex", {"region": args.id, "convex": store.region_new_convex(args.id)}
    if args.region_cmd == "constraint":
        hid = store.region_new_convex_constraint(
            args.id, args.convex, args.x, args.y, args.z, args.l
        )
        return "halfspace", {"region": args.id, "convex": args.convex, "halfspace": hid}
    if args.region_cmd in ("or", "and"):
        op = store.region_or if args.region_cmd == "or" else store.region_and
        return "region", {"id": op(args.id1, args.id2, args.type, args.comment)}
    if args.region_cmd == "not":
        return "region", {"id": store.region_not(args.id, args.type, args.comment)}
    if args.region_cmd == "drop":
        store.region_drop(args.id)
        return "dropped", {"id": args.id}
    before = len(store.geometry(args.id).convexes)  # raises on an unknown id
    store.region_simplify(args.id)
    after = len(store.geometry(args.id).convexes)
    return "simplified", {"id": args.id, "convexes_before": before, "convexes_after": after}


def cmd_region(args, out: Output) -> int:
    if args.region_cmd in _READ_ONLY_REGION_CMDS:
        state = _load(args, "region new")
    else:
        state = _load_or_new(args)
    store = state.regions
    if args.region_cmd not in _READ_ONLY_REGION_CMDS:
        kind, fields = _edit_region(store, args)
        state.pyramid = None  # it indexes the regions as they were
        save_state(state, args.snapshot)
        out.record(kind, **fields)
    elif args.region_cmd == "contains":
        p = _point_from_args(args)
        if args.id is not None:
            out.record("contains", region=args.id, inside=store.contains(args.id, p))
        else:
            hits = store.regions_on_point(p)
            for rid, cid in hits:
                out.record("onpoint", region=rid, convex=cid)
            out.record("summary", count=len(hits))
    elif args.region_cmd == "points-in":
        cat = _need(state, "catalog", "ingest")
        ids = store.points_in_region(args.id, cat.objid, cat.ra, cat.dec)
        for objid in ids:
            out.record("result", objid=objid)
        out.record("summary", count=len(ids))
    elif args.region_cmd == "predicate":
        pred = store.region_predicate(args.id)
        out.record("predicate", region=args.id, text=pred.text)
    elif args.region_cmd == "show":
        if args.id is not None:
            spec = regionspec.serialize_region(store.geometry(args.id))  # raises on an unknown id
            reg = store.regions[args.id]
            out.record(
                "region",
                id=reg.region_id,
                type=reg.rtype,
                comment=reg.comment,
                convexes=len(reg.convexes),
                spec=spec,
            )
            for convex in reg.convexes:
                for hid, (x, y, z, l) in enumerate(convex.constraints, 1):
                    out.record(
                        "halfspace",
                        region=reg.region_id,
                        convex=convex.convex_id,
                        halfspace=hid,
                        x=x,
                        y=y,
                        z=z,
                        l=l,
                    )
        else:
            for rid, reg in store.regions.items():  # in id order
                out.record(
                    "region",
                    id=rid,
                    type=reg.rtype,
                    comment=reg.comment,
                    convexes=len(reg.convexes),
                )
            out.record("summary", count=len(store.regions))
    return EXIT_OK


def cmd_pyramid_build(args, out: Output) -> int:
    state = _load_or_new(args)
    cfg = PyramidConfig(base_zone_height=args.base_zone_height)
    idx = PyramidIndex(cfg)
    skipped = 0
    for rid in sorted(state.regions.regions):
        convexes = state.regions._convex_lists(rid)
        if not convexes:
            skipped += 1
            continue
        center, radius = bounding_circle_rows(convexes)
        sky = vec_to_sky(UnitVec3(*center))
        idx.insert(rid, sky, max(radius, cfg.base_zone_height / 2))
    state.pyramid = idx
    save_state(state, args.snapshot)
    out.record(
        "pyramid_build",
        entries=len(idx),
        scales=len(idx.scales()),
        base_zone_height=cfg.base_zone_height,
        skipped_empty=skipped,
    )
    return EXIT_OK


def cmd_pyramid_overlap(args, out: Output) -> int:
    state = _load(args, "region new")
    idx = _need(state, "pyramid", "pyramid build")
    stats: dict | None = {} if args.stage_counts else None
    ids = overlap_search(idx, SkyPoint(args.ra, args.dec), args.r, stats=stats)
    for objid in ids:
        out.record("result", objid=objid)
    out.record("summary", count=len(ids))
    if stats is not None:
        out.record("stages", **stats)
    return EXIT_OK


# -- benchmarks ---------------------------------------------------------------


def _speedup_table(out: Output, rows: list[tuple[str, float, int]]):
    """rows: (label, total_seconds, operations). Mirrors a per-op ms /
    rate / speedup summary; slowest row is the 1x baseline."""
    base = max(total / max(ops, 1) for _, total, ops in rows)
    out.timing(f"{'method':<28}{'ms/op':>10}{'ops/sec':>12}{'speedup':>9}")
    for label, total, ops in rows:
        per = total / max(ops, 1)
        rate = ops / total if total > 0 else float("inf")
        out.timing(
            f"{label:<28}{per * 1e3:>10.3f}{rate:>12.1f}{base / per if per else float('inf'):>9.1f}"
        )


def cmd_bench_nearby(args, out: Output) -> int:
    cat = catmod.random_catalog(args.n, args.seed)
    t0 = time.perf_counter()
    cat.htmid  # derived on the first read
    mesh_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    table = zones.build_zone_table(cat, ZoneConfig(zone_height=args.zone_height))
    build_s = time.perf_counter() - t0
    queries = oracle.bench_queries(args.queries, args.seed, args.max_radius)
    matches = 0
    t_zone = t_htm = t_brute = 0.0
    for center, r in queries:
        t0 = time.perf_counter()
        got_zone = zones.nearby_objects(table, center, r)
        t_zone += time.perf_counter() - t0
        t0 = time.perf_counter()
        got_htm = catmod.htm_cone_search(cat, center, r)
        t_htm += time.perf_counter() - t0
        t0 = time.perf_counter()
        want = oracle.cone_scan(cat, center, r)
        t_brute += time.perf_counter() - t0
        # both paths end in cone_matches, so they agree to the distance bits and order
        ok = got_zone == got_htm and {i for i, _ in got_zone} == {i for i, _ in want}
        if ok:
            matches += 1
        else:
            out.record(
                "mismatch", ra=center.ra, dec=center.dec, r=r,
                zone=len(got_zone), htm=len(got_htm), brute=len(want),
            )
    out.record(
        "bench_nearby",
        n=args.n,
        queries=len(queries),
        seed=args.seed,
        zone_height=args.zone_height,
        max_radius=args.max_radius,
        matches=matches,
    )
    out.timing(f"mesh ids build: {mesh_s:.3f}s")
    out.timing(f"zone table build: {build_s:.3f}s")
    out.timing(f"oracle match: {matches}/{len(queries)}")
    _speedup_table(
        out,
        [
            ("brute-force scan", t_brute, len(queries)),
            ("mesh cover search", t_htm, len(queries)),
            ("zone nearby", t_zone, len(queries)),
        ],
    )
    if matches != len(queries):
        raise OracleMismatch(f"nearby: {len(queries) - matches} mismatching queries")
    return EXIT_OK


def cmd_bench_neighbors(args, out: Output) -> int:
    cat = catmod.random_catalog(args.n, args.seed)
    r = args.r
    t0 = time.perf_counter()
    table = zones.build_neighbors(cat, r)
    t_zone = time.perf_counter() - t0
    t0 = time.perf_counter()
    oa, ob, _ = oracle.pair_scan(cat, r)
    t_brute = time.perf_counter() - t0
    same = len(oa) == len(table) and bool(
        np.array_equal(oa, table.objid) and np.array_equal(ob, table.neighbor)
    )
    wide = zones.build_neighbors(cat, r, 4.0 * r)
    out.record(
        "bench_neighbors",
        n=args.n,
        seed=args.seed,
        radius=r,
        rows=len(table),
        match=same,
        candidates_height_r=table.candidate_pairs,
        candidates_height_4r=wide.candidate_pairs,
    )
    out.timing(f"oracle match: {'yes' if same else 'NO'} ({len(table)} rows)")
    out.timing(
        f"candidate pairs: zoneHeight=r {table.candidate_pairs}, "
        f"zoneHeight=4r {wide.candidate_pairs}"
    )
    _speedup_table(
        out,
        [
            ("all-pairs scan", t_brute, args.n),
            ("zone neighbors build", t_zone, args.n),
        ],
    )
    if not same:
        raise OracleMismatch("neighbors table differs from the all-pairs scan")
    return EXIT_OK


def cmd_bench_overlap(args, out: Output) -> int:
    rng = np.random.default_rng(args.seed ^ 0xCAFE)
    n = args.n
    ra = rng.uniform(0, 360, n)
    dec = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    radii = np.exp(rng.uniform(np.log(1e-3), np.log(5.0), n))
    idx = PyramidIndex(PyramidConfig())
    t0 = time.perf_counter()
    for i in range(n):
        idx.insert(i, SkyPoint(float(ra[i]), float(dec[i])), float(radii[i]))
    idx.scales()  # sorts the queued entries in inside the timed build
    t_build = time.perf_counter() - t0
    ex, ey, ez = sky_to_xyz(ra, dec)
    matches = 0
    t_idx = t_brute = 0.0
    agg = {"zone_scale": 0, "ra": 0, "fine_ra": 0, "dec": 0, "geometry": 0, "matched": 0}
    for k in range(args.queries):
        q = SkyPoint(
            float(rng.uniform(0, 360)), float(np.degrees(np.arcsin(rng.uniform(-1, 1))))
        )
        qr = float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        t0 = time.perf_counter()
        got = overlap_search(idx, q, qr)
        t_idx += time.perf_counter() - t0
        t0 = time.perf_counter()
        want = oracle.overlap_scan(ex, ey, ez, radii, q, qr)
        t_brute += time.perf_counter() - t0
        stats: dict = {}  # the stage counts, from a second, untimed call
        if got == overlap_search(idx, q, qr, stats=stats) == sorted(want):
            matches += 1
        else:
            out.record("mismatch", ra=q.ra, dec=q.dec, r=qr)
        for key in agg:
            agg[key] += stats[key]
    out.record(
        "bench_overlap",
        n=n,
        queries=args.queries,
        seed=args.seed,
        matches=matches,
        **{f"stage_{k}": v for k, v in agg.items()},
    )
    out.timing(f"pyramid build: {t_build:.3f}s for {n} entries")
    out.timing(f"oracle match: {matches}/{args.queries}")
    out.timing(
        "cascade totals: zone+scale {zone_scale} >= ra {ra} >= fine ra {fine_ra} "
        ">= dec {dec} >= geometry {geometry} >= matched {matched}".format(**agg)
    )
    if agg["dec"]:
        out.timing(f"geometry pass ratio: {agg['geometry'] / agg['dec']:.3f} (pi/4 = {math.pi/4:.3f})")
    _speedup_table(
        out,
        [
            ("linear overlap scan", t_brute, args.queries),
            ("pyramid overlap", t_idx, args.queries),
        ],
    )
    if matches != args.queries:
        raise OracleMismatch(f"overlap: {args.queries - matches} mismatching queries")
    return EXIT_OK


# -- argument wiring ----------------------------------------------------------


def positive_int(text: str) -> int:
    """An argparse type for sizes: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {n}")
    return n


def seed_int(text: str) -> int:
    """An argparse type for --seed: an integer of at least 0, as default_rng takes."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0: {n}")
    return n


def max_cone_radius(text: str) -> float:
    """An argparse type for bench nearby's --max-radius: degrees in
    [0.01, 180], as oracle.bench_queries draws radii from (0.01, it]."""
    r = float(text)
    if not 0.01 <= r <= 180.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be within [0.01, 180] degrees: {r!r}")
    return r


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process. func names a cmd_* function,
    which main looks up when it runs, so one wrapped or patched since runs."""
    parser = argparse.ArgumentParser(
        prog="skyindex",
        description="Spherical catalog search: zone, triangular-mesh, and region-pyramid indexes.",
    )
    parser.add_argument("--snapshot", default="skyindex.snap", help="state file path")
    parser.add_argument(
        "--format", choices=("human", "records"), default="human",
        help="records = line-oriented machine output",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ingest", help="load an objID,ra,dec CSV into the snapshot")
    p.add_argument("csv")
    p.add_argument("--htm-depth", type=int, default=catmod.DEFAULT_HTM_DEPTH)
    p.set_defaults(func="cmd_ingest")

    zone = sub.add_parser("zone", help="zone table commands").add_subparsers(
        dest="zone_cmd", required=True
    )
    p = zone.add_parser("build")
    p.add_argument("--zone-height", type=float, default=4.0 / 60.0)
    p.set_defaults(func="cmd_zone_build")
    p = zone.add_parser("nearby")
    p.add_argument("--ra", type=float, required=True)
    p.add_argument("--dec", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func="cmd_zone_nearby")

    nb = sub.add_parser("neighbors", help="materialized pair-list commands").add_subparsers(
        dest="nb_cmd", required=True
    )
    p = nb.add_parser("build")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--zone-height", type=float, default=None)
    p.set_defaults(func="cmd_neighbors_build")
    p = nb.add_parser("of")
    p.add_argument("--objid", type=int, required=True)
    p.set_defaults(func="cmd_neighbors_of")

    ht = sub.add_parser("htm", help="triangular mesh commands").add_subparsers(
        dest="htm_cmd", required=True
    )
    p = ht.add_parser("id")
    p.add_argument("--ra", type=float, required=True)
    p.add_argument("--dec", type=float, required=True)
    p.add_argument("--depth", type=int, default=catmod.DEFAULT_HTM_DEPTH)
    p.set_defaults(func="cmd_htm_id")
    p = ht.add_parser("cover")
    p.add_argument("--region", required=True)
    p.add_argument("--max-ranges", type=int, default=20)
    p.add_argument("--max-depth", type=int, default=20)
    p.set_defaults(func="cmd_htm_cover")

    reg = sub.add_parser("region", help="region store and algebra")
    reg.set_defaults(func="cmd_region")
    reg = reg.add_subparsers(dest="region_cmd", required=True)
    p = reg.add_parser("new")
    p.add_argument("--type", required=True)
    p.add_argument("--comment", default="")
    p.add_argument("--from", dest="from_spec", default=None,
                   help="optional region grammar string to populate from")
    p = reg.add_parser("new-convex")
    p.add_argument("--id", type=int, required=True)
    p = reg.add_parser("constraint")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--convex", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--l", type=float, required=True)
    for name in ("or", "and"):
        p = reg.add_parser(name)
        p.add_argument("--id1", type=int, required=True)
        p.add_argument("--id2", type=int, required=True)
        p.add_argument("--type", required=True)
        p.add_argument("--comment", default="")
    p = reg.add_parser("not")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--comment", default="")
    for name in ("drop", "simplify"):
        reg.add_parser(name).add_argument("--id", type=int, required=True)
    p = reg.add_parser("contains")
    p.add_argument("--id", type=int, default=None)
    p.add_argument("--ra", type=float, default=None)
    p.add_argument("--dec", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--z", type=float, default=None)
    for name in ("points-in", "predicate"):
        reg.add_parser(name).add_argument("--id", type=int, required=True)
    p = reg.add_parser("show")
    p.add_argument("--id", type=int, default=None)

    py = sub.add_parser("pyramid", help="multi-scale region index").add_subparsers(
        dest="py_cmd", required=True
    )
    p = py.add_parser("build")
    p.add_argument("--base-zone-height", type=float, default=0.5 / 60.0)
    p.set_defaults(func="cmd_pyramid_build")
    p = py.add_parser("overlap")
    p.add_argument("--ra", type=float, required=True)
    p.add_argument("--dec", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--stage-counts", action="store_true")
    p.set_defaults(func="cmd_pyramid_overlap")

    be = sub.add_parser("bench", help="index-vs-oracle benchmarks").add_subparsers(
        dest="bench_cmd", required=True
    )
    p = be.add_parser("nearby")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--queries", type=positive_int, required=True)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--zone-height", type=float, default=4.0 / 60.0)
    p.add_argument("--max-radius", type=max_cone_radius, default=1.0)
    p.set_defaults(func="cmd_bench_nearby")
    p = be.add_parser("neighbors")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--r", type=float, default=0.5)
    p.set_defaults(func="cmd_bench_neighbors")
    p = be.add_parser("overlap")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--queries", type=positive_int, required=True)
    p.add_argument("--seed", type=seed_int, default=0)
    p.set_defaults(func="cmd_bench_overlap")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Output(args.format)
    out.echo_config(args)
    try:
        return globals()[args.func](args, out)
    except (catmod.CatalogError, RegionSyntaxError, RegionCompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (
        ZoneError,
        RegionStoreError,
        PyramidError,
        HtmError,
        GeometryError,
        SnapshotError,
        StateError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY


if __name__ == "__main__":
    sys.exit(main())
