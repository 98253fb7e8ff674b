"""The three workloads: ingest, cone and regions.

Each is one client in a closed loop: the next operation starts when the
previous one returns. Every operation is checked against a reference the
benchmark computes itself or takes from ``skyindex.oracle``; checks run
between operations, outside the timed calls. Library functions are always
looked up on their module or class at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

import gen


@dataclass(frozen=True)
class Sizes:
    ingest_rows: int = 200_000
    ingest_min_passes: int = 2
    neighbors_radius: float = 0.5
    htm_samples: int = 100
    neighbor_samples: int = 20
    cone_rows: int = 200_000
    cone_min_queries: int = 1000
    cone_oracle_share: float = 0.05
    regions_rows: int = 200_000
    regions: int = 2000
    regions_min_overlaps: int = 1000
    regions_round_ops: int = 500
    regions_min_rounds: int = 3
    points_in_every: int = 250
    cone_rounds: int = 3
    ingest_setups_per_pass: int = 3
    # operations whose traced half feeds the per-layer metrics
    cone_trace_window: int = 600
    regions_trace_window: int = 1000


FULL = Sizes()
SMOKE = Sizes(
    ingest_rows=3000,
    htm_samples=20,
    neighbor_samples=5,
    cone_rows=5000,
    cone_min_queries=40,
    cone_oracle_share=0.2,
    regions_rows=3000,
    regions=120,
    regions_min_overlaps=60,
    regions_round_ops=50,
    regions_min_rounds=2,
    points_in_every=25,
    cone_rounds=2,
    ingest_setups_per_pass=1,
    cone_trace_window=40,
    regions_trace_window=60,
)


class SpeedProbe:
    """A fixed piece of work that uses no library code, timed between
    operations all through a run to follow the machine's own speed.

    On a VM shared with other tenants the same code runs up to twice as
    fast in one stretch of seconds as in another, and such stretches last
    from seconds to minutes, longer than a run. The probe is timed in the
    same stretches as the operations, so an operation's median over the
    probe's median is a cost in which the machine's speed of the moment
    largely cancels. The work mixes the kinds the library does:
    interpreter-bound Python, numpy on an in-cache array, and random reads
    of an 8 MB array. A run probes at the first operation or set-up
    boundary at least ``every`` seconds after the last probe. The work runs
    once untimed first, to bring its arrays back into cache, so the timing
    does not depend on what the operation before it evicted."""

    def __init__(self, every: float = 0.1):
        self.every = every
        rng = np.random.default_rng(0)  # the same work on every run
        self._small = rng.uniform(size=50_000)
        self._big = rng.uniform(size=1_000_000)
        self._picks = rng.integers(0, len(self._big), 20_000)
        # preallocated outputs: a probe that allocated arrays would change
        # how the heap grows, and with it the run's peak RSS
        self._sorted = np.empty_like(self._small)
        self._tmp = np.empty_like(self._small)
        self._gathered = np.empty(len(self._picks))
        self._last = -math.inf
        self.times: list[float] = []

    def _work(self):
        counts: dict[int, float] = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5
        self._sorted[:] = self._small
        self._sorted.sort()
        np.multiply(self._sorted, self._sorted, out=self._tmp)
        self._tmp += 1.0
        np.sqrt(self._tmp, out=self._tmp).sum()
        np.take(self._big, self._picks, out=self._gathered).sum()

    def maybe(self):
        if time.perf_counter() - self._last >= self.every:
            self._work()
            t0 = time.perf_counter()
            self._work()
            self._last = time.perf_counter()
            self.times.append(self._last - t0)


class Recorder:
    """Latency samples per operation kind, plus attempts, failures and the
    list of mismatches. In a traced run every other operation of each kind
    (the odd-numbered ones) runs traced, inside the window of the first
    ``window`` operations; the untraced ones give the overhead baseline.
    The speed probe runs between operations, outside their timing."""

    def __init__(self, tracer, window: int):
        self.tracer = tracer
        self.window = window
        self.probe = SpeedProbe()
        self.samples: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.traced: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.setups: list[float] = []
        self.traced_setup: float | None = None
        self.seen: Counter = Counter()
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.mismatches: list[dict] = []
        self._failed_ops: set = set()

    def setup(self, fn, traced: bool = False):
        self.probe.maybe()
        if traced and self.tracer is not None:
            self.tracer.enabled = True
        try:
            with self._span("setup", "setup"):
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        if traced and self.tracer is not None:
            self.traced_setup = dt
        else:
            self.setups.append(dt)
        return result

    def run(self, kind: str, op: int, fn, describe):
        """Time one operation. Returns its result, or None after recording
        a failure when it raised."""
        self.probe.maybe()
        n = self.seen[kind]
        self.seen[kind] += 1
        traced = self.tracer is not None and n % 2 == 1 and op < self.window
        self.attempted[kind] += 1
        if traced:
            self.tracer.enabled = True
        try:
            with self._span("op." + kind, op):
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is a result, not a crash
            self.fail(kind, op, describe, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        (self.traced if traced else self.samples)[kind].append((op, dt))
        return result

    def fail(self, kind: str, op: int, describe, detail: str):
        if (kind, op) in self._failed_ops:
            return
        self._failed_ops.add((kind, op))
        self.failed[kind] += 1
        if len(self.mismatches) < 50:
            text = describe() if callable(describe) else describe
            self.mismatches.append({"op": kind, "index": op, "input": text, "detail": detail})

    def _span(self, name, op):
        return self.tracer.span(name, op) if self.tracer is not None else contextlib.nullcontext()

    def latencies(self, kind: str) -> np.ndarray:
        return np.array([dt for _, dt in self.samples[kind]])


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process with its output captured."""
    from skyindex import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _record_field(text: str, kind: str, key: str):
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == kind:
            for part in parts[1:]:
                k, _, v = part.partition("=")
                if k == key:
                    return v
    return None


def _same_cone(got, ref, radius: float, tol: float = 1e-9) -> str | None:
    """None when two cone answers agree: the same objects, distances within
    tol degrees. An object only one side has counts as a tie, not an
    error, when its distance is within tol of the radius."""
    g = dict(got)
    r = dict(ref)
    for oid in set(g) ^ set(r):
        d = g.get(oid, r.get(oid))
        if abs(d - radius) > tol:
            return f"object {oid} at {d!r} deg only in {'index' if oid in g else 'reference'}"
    for oid in set(g) & set(r):
        if abs(g[oid] - r[oid]) > tol:
            return f"object {oid} distance {g[oid]!r} vs {r[oid]!r}"
    return None


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    workdir: str
    tracer: object = None
    digest: gen.Digest = field(default_factory=gen.Digest)
    counts: dict = field(default_factory=dict)  # rows and operation counts


# -- ingest ------------------------------------------------------------------


INGEST_KINDS = ("ingest", "zone_build", "neighbors_build", "snapshot_load")


def run_ingest(ctx: Context, rec: Recorder):
    from skyindex import catalog, snapshot, zones

    s = ctx.sizes
    rng = np.random.default_rng(ctx.seed)
    n = s.ingest_rows
    objid = rng.permutation(n).astype(np.int64) * 3 + 1000
    ra, dec = gen.uniform_sky(rng, n)
    lines = ["objID,ra,dec"]
    lines += [f"{i},{a!r},{d!r}" for i, a, d in zip(objid.tolist(), ra.tolist(), dec.tolist())]
    text = "\n".join(lines) + "\n"
    ctx.digest.add(text.encode())
    csv_path = os.path.join(ctx.workdir, "input.csv")
    with open(csv_path, "w") as fh:
        fh.write(text)
    htm_rows = rng.choice(n, s.htm_samples, replace=False)
    nb_rows = rng.choice(n, s.neighbor_samples, replace=False)
    ctx.digest.add(htm_rows, nb_rows)
    ctx.counts["rows"] = n

    def setup():
        """The reference the checks read: the generated columns as an
        in-memory catalog (no mesh ids) and its default zone table."""
        cat = catalog.from_arrays(objid, ra, dec, compute_htm=False)
        return cat, zones.build_zone_table(cat, zones.ZoneConfig())

    def step(kind, p, snap, argv, expect_kind):
        def call():
            return cli_call(["--snapshot", snap, "--format", "records"] + argv)

        got = rec.run(kind, p, call, lambda: " ".join(argv))
        if got is None:
            return False
        rc, out, err = got
        if rc != 0:
            rec.fail(kind, p, " ".join(argv), f"exit code {rc}: {err.strip()}")
            return False
        if _record_field(out, expect_kind, "rows") is None:
            rec.fail(kind, p, " ".join(argv), f"no {expect_kind} record in output")
            return False
        return True

    start = time.perf_counter()
    p = 0
    while p < s.ingest_min_passes or time.perf_counter() - start < ctx.seconds:
        # set-ups go before every pass, so they are sampled across the run
        for _ in range(s.ingest_setups_per_pass):
            ref = rec.setup(setup)
        if p == 0 and ctx.tracer is not None:
            ref = rec.setup(setup, traced=True)
        snap = os.path.join(ctx.workdir, f"pass{p}.snap")
        ok = step("ingest", p, snap, ["ingest", csv_path, "--htm-depth", "20"], "ingest")
        ok = ok and step("zone_build", p, snap, ["zone", "build"], "zone_build")
        ok = ok and step(
            "neighbors_build", p, snap, ["neighbors", "build", "--r", str(s.neighbors_radius)],
            "neighbors_build",
        )
        state = rec.run("snapshot_load", p, lambda: snapshot.load_state(snap), snap) if ok else None
        if state is not None:
            _check_ingest(rec, p, state, (objid, ra, dec), ref, htm_rows, nb_rows, s.neighbors_radius)
        if os.path.exists(snap):
            os.remove(snap)
        p += 1
    ctx.counts["passes"] = p


def _check_ingest(rec, p, state, columns, ref, htm_rows, nb_rows, radius):
    from skyindex import htm, oracle
    from skyindex.geom import SkyPoint, UnitVec3

    ref_cat, ref_zones = ref
    cat = state.catalog
    if cat is None or not all(
        np.array_equal(getattr(cat, c), want) for c, want in zip(("objid", "ra", "dec"), columns)
    ):
        rec.fail("ingest", p, "objid/ra/dec columns", "columns differ from the generated CSV")
        return
    for row in htm_rows.tolist():
        want = htm.point_to_id(UnitVec3(cat.x[row], cat.y[row], cat.z[row]), 20)
        if int(cat.htmid[row]) != want:
            rec.fail("ingest", p, f"row {row}", f"mesh id {int(cat.htmid[row])} != point_to_id {want}")
            break
    zt = state.zone_table
    if zt is None or zt.main_row_count() != len(cat):
        rec.fail("zone_build", p, "zone table", "missing, or main rows != catalog rows")
    elif not all(np.array_equal(getattr(zt, c), getattr(ref_zones, c)) for c in ("zone", "ra", "objid", "is_main")):
        rec.fail("zone_build", p, "zone table", "rows differ from build_zone_table of the generated columns")
    nb = state.neighbors
    if nb is None:
        rec.fail("neighbors_build", p, "neighbors table", "missing")
        return
    for row in nb_rows.tolist():
        oid = int(cat.objid[row])
        ref = [
            (i, d)
            for i, d in oracle.cone_scan(ref_cat, SkyPoint(float(cat.ra[row]), float(cat.dec[row])), radius)
            if i != oid
        ]
        bad = _same_cone(nb.neighbors_of(oid), ref, radius)
        if bad:
            rec.fail("neighbors_build", p, f"neighbors_of({oid})", bad)
            break


# -- cone --------------------------------------------------------------------


CONE_KINDS = ("cone_zone", "cone_mesh")


def run_cone(ctx: Context, rec: Recorder):
    from skyindex import catalog, oracle, snapshot, zones
    from skyindex.geom import SkyPoint

    s = ctx.sizes
    rng = np.random.default_rng(ctx.seed)
    n = s.cone_rows
    objid = np.arange(n, dtype=np.int64)
    ra, dec = gen.uniform_sky(rng, n)
    ctx.digest.add(objid, ra, dec)
    ctx.counts["rows"] = n
    snap = os.path.join(ctx.workdir, "cone.snap")

    def queries():
        """Endless seeded query stream, drawn in fixed-size chunks."""
        while True:
            k = 4096
            radii = 1.0 - rng.uniform(0.0, 0.99, k)  # (0.01, 1]
            qra, qdec = gen.mixed_centers(rng, radii)
            check = rng.uniform(size=k) < s.cone_oracle_share
            yield from zip(qra.tolist(), qdec.tolist(), radii.tolist(), check.tolist())

    def setup():
        cat = catalog.from_arrays(objid, ra, dec)
        table = zones.build_zone_table(cat, zones.ZoneConfig())
        snapshot.save_state(snapshot.AppState(catalog=cat, zone_table=table), snap)
        state = snapshot.load_state(snap)
        # the first query of each kind finishes any lazy set-up
        warm = SkyPoint(10.0, 10.0)
        zones.nearby_objects(state.zone_table, warm, 0.5)
        catalog.htm_cone_search(state.catalog, warm, 0.5)
        return state

    ctx.digest.add(rng.bit_generator.state)  # fixes the whole query stream
    stream = queries()
    i = 0
    for rnd in range(s.cone_rounds):
        # each round starts with a fresh set-up, so set-ups and queries are
        # both sampled across the whole run; a traced run traces the first
        state = rec.setup(setup, traced=ctx.tracer is not None and rnd == 0)
        cat, table = state.catalog, state.zone_table
        last = rnd == s.cone_rounds - 1
        start = time.perf_counter()
        while time.perf_counter() - start < ctx.seconds / s.cone_rounds or (
            last and (i < s.cone_min_queries or (ctx.tracer is not None and i < s.cone_trace_window))
        ):
            qra, qdec, r, check = next(stream)
            center = SkyPoint(qra, qdec)
            describe = f"center=({qra!r}, {qdec!r}) r={r!r}"
            calls = {
                "cone_zone": lambda: zones.nearby_objects(table, center, r),
                "cone_mesh": lambda: catalog.htm_cone_search(cat, center, r),
            }
            order = CONE_KINDS if i % 2 == 0 else CONE_KINDS[::-1]
            got = {kind: rec.run(kind, i, calls[kind], describe) for kind in order}
            if got["cone_zone"] is not None and got["cone_mesh"] is not None and got["cone_zone"] != got["cone_mesh"]:
                check = True  # let the brute-force scan say which path is wrong
            if check:
                ref = oracle.cone_scan(cat, center, r)
                for kind in CONE_KINDS:
                    if got[kind] is not None:
                        bad = _same_cone(got[kind], ref, r)
                        if bad:
                            rec.fail(kind, i, describe, bad)
            i += 1
    os.remove(snap)
    ctx.counts["queries"] = i


# -- regions -----------------------------------------------------------------


REGION_KINDS = ("region_edit", "overlap", "on_point", "points_in")


@dataclass
class RegionInfo:
    """The benchmark's own account of a stored region: how to test
    membership without the library, where to probe it, and its makeup."""

    member: object  # xyz -> (inside, near)
    probe: object  # (rng, n) -> xyz
    depth: int
    convexes: int = 1


def _base_info(shape: gen.Shape) -> RegionInfo:
    return RegionInfo(
        member=shape.membership,
        probe=lambda rng, n: gen.cap_points(rng, shape.center, 1.5 * shape.size, n),
        depth=0,
    )


def _combined_info(op: str, a: RegionInfo, b: RegionInfo | None) -> RegionInfo:
    if op == "not":

        def member(xyz):
            inside, near = a.member(xyz)
            return ~inside, near

        def probe(rng, n):
            ra, dec = gen.uniform_sky(rng, n - n // 2)
            return np.concatenate([a.probe(rng, n // 2), gen.radec_to_xyz(ra, dec)])

        return RegionInfo(member, probe, a.depth + 1)

    def member(xyz):
        ia, na = a.member(xyz)
        ib, nb = b.member(xyz)
        return (ia | ib) if op == "or" else (ia & ib), na | nb

    def probe(rng, n):
        return np.concatenate([a.probe(rng, n // 2), b.probe(rng, n - n // 2)])

    return RegionInfo(member, probe, max(a.depth, b.depth) + 1)


class _Circles:
    """The bounding circles the benchmark inserted, for the overlap oracle."""

    def __init__(self):
        self.ids: list[int] = []
        self.xyz: list[tuple[float, float, float]] = []
        self.radii: list[float] = []
        self._arrays = None

    def add(self, rid, v, radius):
        self.ids.append(rid)
        self.xyz.append((v.x, v.y, v.z))
        self.radii.append(radius)
        self._arrays = None

    def arrays(self):
        if self._arrays is None:
            xyz = np.array(self.xyz)
            self._arrays = (np.array(self.ids), xyz[:, 0], xyz[:, 1], xyz[:, 2], np.array(self.radii))
        return self._arrays


def run_regions(ctx: Context, rec: Recorder):
    from skyindex import algebra, catalog, oracle, pyramid, regionspec, snapshot
    from skyindex.geom import Convex, SkyPoint, UnitVec3, inside_convex, sky_to_vec, vec_to_sky

    s = ctx.sizes
    rng = np.random.default_rng(ctx.seed)
    n = s.regions_rows
    objid = np.arange(n, dtype=np.int64)
    ra, dec = gen.uniform_sky(rng, n)
    shapes = gen.region_shapes(rng, s.regions)
    ctx.digest.add(objid, ra, dec, *[sh.text for sh in shapes])
    ctx.counts["rows"] = n
    snap = os.path.join(ctx.workdir, "regions.snap")

    def add_text_region(store, text):
        region = regionspec.compile_region_string(text)
        rid = store.region_new("text")
        for convex in region.convexes:
            cid = store.region_new_convex(rid)
            for h in convex.constraints:
                store.region_new_convex_constraint(rid, cid, h.normal.x, h.normal.y, h.normal.z, h.l)
        return rid

    def index_region(store, idx, rid):
        """Bounding circle into the pyramid, as `pyramid build` does; an
        empty region has no circle and is skipped."""
        geometry = store.geometry(rid)
        if not geometry.convexes:
            return None
        center, radius = pyramid.bounding_circle(geometry)
        sky = vec_to_sky(center)
        radius = max(radius, idx.cfg.base_zone_height / 2)
        idx.insert(rid, sky, radius)
        return sky, radius

    def setup():
        cat = catalog.from_arrays(objid, ra, dec, compute_htm=False)
        store = algebra.RegionStore()
        rids = [add_text_region(store, sh.text) for sh in shapes]
        idx = pyramid.PyramidIndex()
        circles = [index_region(store, idx, rid) for rid in rids]
        snapshot.save_state(snapshot.AppState(catalog=cat, regions=store, pyramid=idx), snap)
        pyramid.overlap_search(idx, SkyPoint(10.0, 10.0), 0.5)  # finishes the lazy sort
        return cat, store, idx, rids, circles

    def play_round(built, i0: int) -> int:
        """One round: a fixed number of operations on a fresh set-up, so
        every round meets a store of the same size, however many rounds
        the machine fits in the run. Returns the next operation index."""
        cat, store, idx, base_ids, base_circles = built
        xyz_cat = np.stack([cat.x, cat.y, cat.z], axis=1)

        info: dict[int, RegionInfo] = {}
        circles = _Circles()
        convex_cache: dict[int, list] = {}

        def convexes_of(rid, refresh=False):
            if refresh or rid not in convex_cache:
                convex_cache[rid] = [
                    (c.convex_id, Convex(tuple(c.halfspaces()))) for c in store.regions[rid].convexes
                ]
            return convex_cache[rid]

        def remember(rid, region_info, circle):
            region_info.convexes = len(convexes_of(rid, refresh=True))
            info[rid] = region_info
            if circle is not None:
                circles.add(rid, sky_to_vec(circle[0]), circle[1])

        for rid, shape, circle in zip(base_ids, shapes, base_circles):
            remember(rid, _base_info(shape), circle)

        def eligible(single=False):
            """Operands for an edit: shallow regions with few convexes, so the
            AND products and NOT expansions stay small."""
            return [
                rid for rid, inf in info.items()
                if inf.depth <= 2 and (inf.convexes == 1 if single else inf.convexes <= 4)
            ]

        def pick(pool):
            return pool[int(rng.integers(len(pool)))]

        def edit(i):
            t = rng.uniform()
            pool = eligible()
            if t < 0.4 or len(pool) < 2:
                shape = gen.region_shapes(rng, 1)[0]
                expect = _base_info(shape)
                what = f"new {shape.text}"

                def create():
                    return add_text_region(store, shape.text)
            elif t < 0.8:
                a = pick(pool)
                op = "or" if t < 0.6 else "and"
                b = a
                if op == "and":
                    # an operand whose circle meets a's, so the AND is rarely empty
                    ids, ex, ey, ez, radii = circles.arrays()
                    if a in circles.ids:
                        k = circles.ids.index(a)
                        chord = np.sqrt((ex - ex[k]) ** 2 + (ey - ey[k]) ** 2 + (ez - ez[k]) ** 2)
                        dist = np.degrees(2.0 * np.arcsin(np.minimum(1.0, chord / 2.0)))
                        pool_set = set(pool)
                        near = [x for x in ids[dist < radii + radii[k]].tolist() if x != a and x in pool_set]
                        if near:
                            b = pick(near)
                while b == a:
                    b = pick(pool)
                expect = _combined_info(op, info[a], info[b])
                what = f"{op} {a} {b}"
                method = store.region_or if op == "or" else store.region_and

                def create():
                    return method(a, b, op)
            else:
                singles = eligible(single=True)
                a = pick(singles)
                expect = _combined_info("not", info[a], None)
                what = f"not {a}"

                def create():
                    return store.region_not(a, "not")

            def full_edit():
                rid = create()
                store.region_simplify(rid)
                return rid, index_region(store, idx, rid)

            got = rec.run("region_edit", i, full_edit, what)
            if got is None:
                return
            rid, circle = got
            remember(rid, expect, circle)
            probes = expect.probe(rng, 64)
            inside, near = expect.member(probes)
            actual = store.region_predicate(rid).evaluate_batch(probes)
            wrong = (actual != inside) & ~near
            if wrong.any():
                rec.fail("region_edit", i, what, f"{int(wrong.sum())} of 64 probe points disagree with the operands")
            elif circle is not None and inside.any():
                c = sky_to_vec(circle[0])
                chord = np.linalg.norm(probes[inside] - np.array([c.x, c.y, c.z]), axis=1)
                if (np.degrees(2.0 * np.arcsin(np.minimum(1.0, chord / 2.0))) > circle[1] + 1e-9).any():
                    rec.fail("region_edit", i, what, "bounding circle misses a point of the region")

        def overlap(i):
            r = float(gen.log_uniform(rng, 0.01, 3.0, 1)[0])
            qra, qdec = gen.mixed_centers(rng, np.array([r]))
            center = SkyPoint(float(qra[0]), float(qdec[0]))
            what = f"center=({center.ra!r}, {center.dec!r}) r={r!r}"
            got = rec.run("overlap", i, lambda: pyramid.overlap_search(idx, center, r), what)
            if got is None:
                return
            ids, ex, ey, ez, radii = circles.arrays()
            want = sorted(ids[oracle.overlap_scan(ex, ey, ez, radii, center, r)].tolist())
            if sorted(got) != want:
                missing = sorted(set(want) - set(got))[:5]
                extra = sorted(set(got) - set(want))[:5]
                rec.fail("overlap", i, what, f"missing {missing}, extra {extra}")

        def on_point(i):
            if rng.uniform() < 0.5:
                qra, qdec = gen.mixed_centers(rng, np.array([0.01]))
                p = sky_to_vec(SkyPoint(float(qra[0]), float(qdec[0])))
            else:
                base = base_ids[int(rng.integers(len(base_ids)))]
                x, y, z = info[base].probe(rng, 1)[0]
                p = UnitVec3.normalized(float(x), float(y), float(z))
            what = f"p=({p.x!r}, {p.y!r}, {p.z!r})"
            got = rec.run("on_point", i, lambda: store.regions_on_point(p), what)
            if got is None:
                return
            want = [
                (rid, cid)
                for rid in sorted(store.regions)
                for cid, convex in convexes_of(rid)
                if inside_convex(convex, p)
            ]
            if got != want:
                rec.fail("on_point", i, what, f"{len(got)} hits, brute force has {len(want)}")

        def points_in(i):
            rid = base_ids[int(rng.integers(len(base_ids)))]
            argv = ["--snapshot", snap, "--format", "records", "region", "points-in", "--id", str(rid)]
            got = rec.run("points_in", i, lambda: cli_call(argv), f"region {rid}")
            if got is None:
                return
            rc, out, err = got
            if rc != 0:
                rec.fail("points_in", i, f"region {rid}", f"exit code {rc}: {err.strip()}")
                return
            ids = [int(line.split("=")[1]) for line in out.splitlines() if line.startswith("result objid=")]
            inside = np.zeros(len(xyz_cat), dtype=bool)
            near = np.zeros(len(xyz_cat), dtype=bool)
            for convex in store.regions[rid].convexes:
                hs = convex.halfspaces()
                normals = np.array([h.normal.as_tuple() for h in hs]).reshape(-1, 3)
                d = xyz_cat @ normals.T - np.array([h.l for h in hs])
                inside |= (d > 0).all(axis=1)
                near |= (np.abs(d) < gen.BOUNDARY_TOL).any(axis=1)
            want = set(objid[inside & ~near].tolist())
            got_set = set(ids)
            tied = set(objid[near].tolist())
            if (got_set ^ want) - tied:
                rec.fail("points_in", i, f"region {rid}", f"{len((got_set ^ want) - tied)} objects differ from the half-space evaluation")

        for i in range(i0, i0 + s.regions_round_ops):
            if i % s.points_in_every == s.points_in_every - 1:
                points_in(i)
            else:
                u = rng.uniform()
                if u < 0.1:
                    edit(i)
                elif u < 0.7:
                    overlap(i)
                else:
                    on_point(i)
        ctx.counts["regions_stored"] = len(store.regions)
        ctx.counts["pyramid_entries"] = len(idx)
        return i0 + s.regions_round_ops

    ctx.digest.add(rng.bit_generator.state)  # fixes the whole operation stream
    start = time.perf_counter()
    i = rounds = 0
    while (
        time.perf_counter() - start < ctx.seconds
        or rounds < s.regions_min_rounds
        or rec.seen["overlap"] < s.regions_min_overlaps
        or (ctx.tracer is not None and i < s.regions_trace_window)
    ):
        # the first round's set-up is the traced one in a traced run
        built = rec.setup(setup, traced=ctx.tracer is not None and rounds == 0)
        i = play_round(built, i)
        rounds += 1
    os.remove(snap)
    ctx.counts["ops"] = i
    ctx.counts["rounds"] = rounds


WORKLOADS = {
    "ingest": (run_ingest, INGEST_KINDS),
    "cone": (run_cone, CONE_KINDS),
    "regions": (run_regions, REGION_KINDS),
}


def trace_window(workload: str, sizes: Sizes) -> int:
    return {
        "ingest": sizes.ingest_min_passes,
        "cone": sizes.cone_trace_window,
        "regions": sizes.regions_trace_window,
    }[workload]
