"""Span and count tracing installed from outside the library.

The tracer replaces public functions and methods of the skyindex modules
with thin wrappers, at the name each caller looks up at call time: the
module attribute (``zones.nearby_objects``), the class method
(``ZoneTable.scan_ra``), or the alias a module imported for itself
(``cli.save_state``). No library source changes. A wrapper records a span
(name, start, end, parent span, operation id) and, where the call exposes
them, counts: the ``stats=`` dicts, return values and file sizes. Wrappers
do nothing but call through while the tracer is disabled, so the benchmark
switches tracing on only around the operations it wants traced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None  # operation id stamped on every span
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._last_cover = None
        self._sorted_ids: dict[int, np.ndarray] = {}

    # -- installation --------------------------------------------------------

    def install(self):
        from skyindex import algebra, catalog, cli, htm, pyramid, regionspec, snapshot, zones

        table = [
            (catalog, "ingest_csv", "catalog.ingest_csv", None, self._after_ingest),
            (catalog, "from_arrays", "catalog.from_arrays", None, None),
            (catalog, "htm_cone_search", "catalog.htm_cone_search", self._before_mesh, self._after_mesh),
            (catalog.Catalog, "points", "catalog.points", None, None),
            (htm, "ids_for_points", "htm.ids_for_points", None, self._after_ids),
            (htm, "cover", "htm.cover", None, self._after_cover),
            (zones, "build_zone_table", "zones.build_zone_table", None, self._after_zone_table),
            (zones, "nearby_objects", "zones.nearby_objects", self._stats_arg, self._after_nearby),
            (zones.ZoneTable, "scan_ra", "zones.scan_ra", None, self._count("zones.scan_ra_calls")),
            (zones, "build_neighbors", "zones.build_neighbors", None, self._after_neighbors),
            (regionspec, "compile_region_string", "regionspec.compile_region_string", None, self._count("regionspec.calls")),
            (algebra.RegionStore, "region_or", "algebra.region_or", None, None),
            (algebra.RegionStore, "region_and", "algebra.region_and", None, None),
            (algebra.RegionStore, "region_not", "algebra.region_not", None, None),
            (algebra.RegionStore, "region_simplify", "algebra.region_simplify", self._before_simplify, self._after_simplify),
            (algebra.RegionStore, "regions_on_point", "algebra.regions_on_point", None, None),
            (algebra.RegionStore, "points_in_region", "algebra.points_in_region", None, None),
            (pyramid, "bounding_circle", "pyramid.bounding_circle", None, None),
            (pyramid.PyramidIndex, "insert", "pyramid.insert", None, self._count("pyramid.insert_calls")),
            (pyramid, "overlap_search", "pyramid.overlap_search", self._stats_arg, self._after_overlap),
            (snapshot, "save_state", "snapshot.save_state", None, self._after_save),
            (snapshot, "load_state", "snapshot.load_state", None, None),
            (cli, "save_state", "snapshot.save_state", None, self._after_save),
            (cli, "load_state", "snapshot.load_state", None, None),
            (cli, "main", "cli.main", None, None),
            (cli, "cmd_ingest", "cli.ingest", None, None),
            (cli, "cmd_zone_build", "cli.zone_build", None, None),
            (cli, "cmd_neighbors_build", "cli.neighbors_build", None, None),
            (cli, "cmd_region", "cli.region", None, None),
        ]
        for owner, attr, name, before, after in table:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, before, after))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            ctx = before(args, kwargs) if before else None
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [name, 0.0, 0.0, parent, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if after:
                after(ctx, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    @contextlib.contextmanager
    def span(self, name: str, op):
        """A benchmark-level root span around one operation."""
        self.op = op
        rec = None
        if self.enabled:
            rec = [name, time.perf_counter(), 0.0, None, op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
        try:
            yield
        finally:
            if rec is not None:
                rec[2] = time.perf_counter()
                self._stack.pop()
            self.op = None

    # -- count hooks ---------------------------------------------------------

    def _count(self, key):
        def after(ctx, args, kwargs, result):
            self.counts[key] += 1

        return after

    @staticmethod
    def _stats_arg(args, kwargs):
        """The stats dict of nearby_objects / overlap_search (4th argument);
        one is passed when the caller gave none."""
        if len(args) > 3:
            return args[3]
        if kwargs.get("stats") is None:
            kwargs["stats"] = {}
        return kwargs["stats"]

    def _after_ingest(self, ctx, args, kwargs, result):
        self.counts["catalog.rows_ingested"] += len(result)

    def _after_ids(self, ctx, args, kwargs, result):
        self.counts["htm.ids_computed"] += len(result)

    def _after_cover(self, ctx, args, kwargs, result):
        self._last_cover = result
        self.counts["htm.cover_calls"] += 1
        self.counts["htm.cover_ranges"] += len(result)
        if result:
            self.counts["htm.cover_depth_sum"] += (result[0][0].bit_length() - 4) // 2

    def _before_mesh(self, args, kwargs):
        self._last_cover = None

    def _after_mesh(self, ctx, args, kwargs, result):
        cat = args[0]
        key = id(cat)
        if key not in self._sorted_ids:
            self._sorted_ids = {key: np.sort(cat.htmid)}
        ranges = self._last_cover or []
        if ranges:
            sorted_ids = self._sorted_ids[key]
            cover_depth = (ranges[0][0].bit_length() - 4) // 2
            shift = 2 * (cat.htm_depth - cover_depth)
            lo = np.array([r[0] << shift for r in ranges], dtype=np.int64)
            hi = np.array([((r[1] + 1) << shift) - 1 for r in ranges], dtype=np.int64)
            a = np.searchsorted(sorted_ids, lo, side="left")
            b = np.searchsorted(sorted_ids, hi, side="right")
            self.counts["catalog.mesh_rows_scanned"] += int(np.maximum(b - a, 0).sum())
        self.counts["catalog.mesh_hits"] += len(result)

    def _after_zone_table(self, ctx, args, kwargs, result):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and self.spans[parent][0] == "zones.build_neighbors":
            return  # the join's private table; its margins follow the join radius
        main = result.main_row_count()
        self.counts["zones.main_rows"] += main
        self.counts["zones.margin_rows"] += len(result) - main

    def _after_nearby(self, stats, args, kwargs, result):
        self.counts["zones.ra_candidates"] += stats["ra_candidates"]
        self.counts["zones.dec_filtered"] += stats["dec_filtered"]
        self.counts["zones.matched"] += stats["matched"]

    def _after_neighbors(self, ctx, args, kwargs, result):
        self.counts["zones.candidate_pairs"] += result.candidate_pairs
        self.counts["zones.neighbor_rows"] += len(result)

    def _before_simplify(self, args, kwargs):
        store, rid = args[0], args[1]
        return len(store.regions[rid].convexes)

    def _after_simplify(self, before, args, kwargs, result):
        store, rid = args[0], args[1]
        self.counts["algebra.convexes_before_simplify"] += before
        self.counts["algebra.convexes_after_simplify"] += len(store.regions[rid].convexes)

    def _after_overlap(self, stats, args, kwargs, result):
        for key in ("zone_scale", "ra", "fine_ra", "dec", "geometry"):
            self.counts["pyramid.stage_" + key] += stats[key]
        self.counts["pyramid.matched"] += stats["matched"]
        self.counts["pyramid.scales"] = len(args[0].scales())

    def _after_save(self, ctx, args, kwargs, result):
        state, path = args[0], args[1]
        self.counts["snapshot.bytes"] += os.path.getsize(path)
        if state.catalog is not None:
            self.counts["snapshot.rows"] += len(state.catalog)

    # -- results -------------------------------------------------------------

    def _own_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self._own_times()):
            out[span[0]] += own
        return dict(out)

    def cli_self_times(self) -> dict[str, float]:
        """Self time of the CLI layer per command: cli.main plus the command
        function it dispatched to, minus the library calls beneath them."""
        own = self._own_times()
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent is not None and self.spans[parent][0] == "cli.main" and name.startswith("cli."):
                out[name + "_self_s"] += own[i] + own[parent]
        return dict(out)

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, name -> (value, unit). A layer the workload
    never reached reads 0 for its counts, ratios and times."""
    c = tracer.counts
    st = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for name in (
        "catalog.ingest_csv", "catalog.from_arrays", "catalog.htm_cone_search", "catalog.points",
        "htm.ids_for_points", "htm.cover",
        "zones.build_zone_table", "zones.nearby_objects", "zones.scan_ra", "zones.build_neighbors",
        "snapshot.save_state", "snapshot.load_state",
        "regionspec.compile_region_string",
        "algebra.region_or", "algebra.region_and", "algebra.region_not", "algebra.region_simplify",
        "algebra.regions_on_point", "algebra.points_in_region",
        "pyramid.bounding_circle", "pyramid.insert", "pyramid.overlap_search",
    ):
        out[name + "_s"] = (st.get(name, 0.0), "s")
    for name, value in tracer.cli_self_times().items():
        out[name] = (value, "s")
    for cmd in ("cli.ingest", "cli.zone_build", "cli.neighbors_build", "cli.region"):
        out.setdefault(cmd + "_self_s", (0.0, "s"))
    ids_time = st.get("htm.ids_for_points", 0.0)
    out["htm.ids_per_s"] = (_ratio(c["htm.ids_computed"], ids_time), "1/s")
    counts = {
        "catalog.rows_ingested": "count",
        "htm.cover_calls": "count",
        "htm.cover_ranges": "count",
        "catalog.mesh_rows_scanned": "count",
        "zones.scan_ra_calls": "count",
        "zones.ra_candidates": "count",
        "zones.dec_filtered": "count",
        "zones.matched": "count",
        "zones.candidate_pairs": "count",
        "zones.neighbor_rows": "count",
        "snapshot.bytes": "B",
        "regionspec.calls": "count",
        "algebra.convexes_before_simplify": "count",
        "algebra.convexes_after_simplify": "count",
        "pyramid.insert_calls": "count",
        "pyramid.stage_zone_scale": "count",
        "pyramid.stage_ra": "count",
        "pyramid.stage_fine_ra": "count",
        "pyramid.stage_dec": "count",
        "pyramid.stage_geometry": "count",
        "pyramid.matched": "count",
        "pyramid.scales": "count",
    }
    for name, unit in counts.items():
        out[name] = (c[name], unit)
    out["htm.cover_depth"] = (_ratio(c["htm.cover_depth_sum"], c["htm.cover_calls"]), "level")
    out["catalog.mesh_precision"] = (_ratio(c["catalog.mesh_hits"], c["catalog.mesh_rows_scanned"]), "ratio")
    out["zones.margin_row_ratio"] = (_ratio(c["zones.margin_rows"], c["zones.main_rows"]), "ratio")
    out["zones.dec_pass_ratio"] = (_ratio(c["zones.dec_filtered"], c["zones.ra_candidates"]), "ratio")
    out["zones.chord_pass_ratio"] = (_ratio(c["zones.matched"], c["zones.dec_filtered"]), "ratio")
    # unordered pairs kept over pairs examined; the table stores each pair twice
    out["zones.pair_yield"] = (_ratio(c["zones.neighbor_rows"] / 2, c["zones.candidate_pairs"]), "ratio")
    out["snapshot.bytes_per_row"] = (_ratio(c["snapshot.bytes"], c["snapshot.rows"]), "B/row")
    out["pyramid.geometry_pass_ratio"] = (_ratio(c["pyramid.stage_geometry"], c["pyramid.stage_dec"]), "ratio")
    out["pyramid.exact_yield"] = (_ratio(c["pyramid.matched"], c["pyramid.stage_geometry"]), "ratio")
    for name, (value, unit) in out.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite")
    return out
