"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see every line. Each test
computes its verdict, prints it, then asserts, so the line appears for
failing criteria too. Criterion 7's area-ratio clause checks the mesh's
max/min trixel area ratio against an exact high-precision rebuild of
midpoint subdivision (which rises toward 2.10592) and prints the measured
per-depth table.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from skyindex import catalog as catmod
from skyindex import htm, oracle, zones
from skyindex.algebra import RegionStore
from skyindex.catalog import htm_cone_search, random_catalog
from skyindex.geom import (
    Convex,
    HalfSpace,
    Region,
    SkyPoint,
    UnitVec3,
    arc_distance_deg,
    sky_to_vec,
)
from skyindex.pyramid import PyramidConfig, PyramidIndex, bounding_circle, overlap_search
from skyindex.regionspec import compile_region_string, serialize_region
from skyindex.snapshot import AppState, load_state, save_state
from skyindex.zones import ZoneConfig, build_neighbors, build_zone_table, nearby_objects

from conftest import generate_corpus_specs, sample_cap, sample_sphere
from test_htm import (
    AREA_RATIO_CAP,
    AREA_RATIO_REL_TOL,
    area_ratio_at_depth,
    area_ratio_gate_failures,
)

mpmath.mp.dps = 40


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def brute_cone_ids(cat, center: SkyPoint, r: float) -> frozenset:
    """Independent full scan via the chord/arcsine distance."""
    v = sky_to_vec(center)
    chord2 = (cat.x - v.x) ** 2 + (cat.y - v.y) ** 2 + (cat.z - v.z) ** 2
    dist = np.degrees(2.0 * np.arcsin(np.minimum(1.0, np.sqrt(chord2) / 2.0)))
    return frozenset(cat.objid[dist < r].tolist())


# -- shared fixtures (module scope keeps the heavy builds single-run) ---------


@pytest.fixture(scope="module")
def cone_fixture():
    cat = random_catalog(10_000, seed=101)
    table = build_zone_table(cat, ZoneConfig(zone_height=4 / 60))
    queries = oracle.bench_queries(200, seed=202, max_radius=1.0)
    truth = [brute_cone_ids(cat, c, r) for c, r in queries]
    return cat, table, queries, truth


@pytest.fixture(scope="module")
def neighbors_fixture():
    cat = random_catalog(5_000, seed=303)
    table = build_neighbors(cat, 0.5, 0.5)
    lim = 4 * math.sin(math.radians(0.5) / 2) ** 2
    pairs = set()
    for start in range(0, len(cat), 512):
        stop = min(len(cat), start + 512)
        d2 = (
            (cat.x[start:stop, None] - cat.x[None, :]) ** 2
            + (cat.y[start:stop, None] - cat.y[None, :]) ** 2
            + (cat.z[start:stop, None] - cat.z[None, :]) ** 2
        )
        ii, jj = np.nonzero(d2 < lim)
        for i, j in zip(ii, jj):
            if i + start != j:
                pairs.add((int(cat.objid[i + start]), int(cat.objid[j])))
    return cat, table, pairs


@pytest.fixture(scope="module")
def pyramid_fixture():
    rng = np.random.default_rng(404)
    n = 100_000
    cfg = PyramidConfig()  # base 0.5/60 deg
    ra = rng.uniform(0, 360, n)
    dec = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    # radii spanning exactly 10 scale levels: (base/2, base * 2^9]
    radii = np.exp(
        rng.uniform(np.log(cfg.base_zone_height / 2), np.log(cfg.base_zone_height * 512), n)
    )
    idx = PyramidIndex(cfg)
    for i in range(n):
        idx.insert(i, SkyPoint(float(ra[i]), float(dec[i])), float(radii[i]))
    idx.scales()
    rr, dd = np.radians(ra), np.radians(dec)
    ex, ey, ez = np.cos(dd) * np.cos(rr), np.cos(dd) * np.sin(rr), np.sin(dd)
    queries = []
    for k in range(100):
        queries.append(
            (
                SkyPoint(
                    float(rng.uniform(0, 360)),
                    float(np.degrees(np.arcsin(rng.uniform(-1, 1)))),
                ),
                float(np.exp(rng.uniform(np.log(0.01), np.log(3.0)))),
            )
        )
    truth = [
        frozenset(oracle.overlap_scan(ex, ey, ez, radii, q, r)) for q, r in queries
    ]
    return idx, queries, truth


@pytest.fixture(scope="module")
def corpus():
    specs = generate_corpus_specs(seed=555, count=32)
    return [(s, compile_region_string(s)) for s in specs]


def _run_cone_equivalence(table, queries, truth):
    mismatches = 0
    for (center, r), want in zip(queries, truth):
        got = frozenset(i for i, _ in nearby_objects(table, center, r))
        if got != want:
            mismatches += 1
    return mismatches


def test_criterion_01_cone_search_oracle_equivalence(cone_fixture):
    cat, table, queries, truth = cone_fixture
    t0 = time.perf_counter()
    mismatches = _run_cone_equivalence(table, queries, truth)
    elapsed = time.perf_counter() - t0
    n_pole = sum(1 for c, _ in queries if abs(c.dec) >= 89.0)
    n_wrap = sum(1 for c, r in queries if min(c.ra, 360 - c.ra) < r)
    ok = mismatches == 0 and elapsed < 60.0 and n_pole >= 20 and n_wrap >= 20
    assert report(
        "1",
        ok,
        f"zone cone search {200 - mismatches}/200 oracle-exact "
        f"({n_pole} polar, {n_wrap} wrap queries) in {elapsed:.2f}s",
    )


def test_criterion_02_htm_path_equivalence(cone_fixture, corpus):
    cat, _, queries, truth = cone_fixture
    mismatches = 0
    for (center, r), want in zip(queries, truth):
        got = frozenset(i for i, _ in htm_cone_search(cat, center, r))
        if got != want:
            mismatches += 1
    # cover soundness over the grammar corpus
    rng = np.random.default_rng(606)
    unsound = 0
    for text, region in corpus:
        ranges = htm.cover(region)
        if not ranges:
            interior = [
                p for p in sample_sphere(rng, 300) if _inside_off_edges(region, p)
            ]
            unsound += 1 if interior else 0
            continue
        depth = htm.id_depth(ranges[0][0])
        center, radius = bounding_circle(region)
        pts = sample_cap(rng, center, min(radius * 1.01 + 1e-6, 180.0), 300)
        pts += sample_sphere(rng, 100)
        for p in pts:
            if _inside_off_edges(region, p):
                hid = htm.point_to_id(p, depth)
                if not any(lo <= hid <= hi for lo, hi in ranges):
                    unsound += 1
                    break
    ok = mismatches == 0 and unsound == 0
    assert report(
        "2",
        ok,
        f"mesh-cover cone search {200 - mismatches}/200 oracle-exact; "
        f"cover soundness violations: {unsound}/{len(corpus)} corpus regions",
    )


def _inside_off_edges(region, p, guard=1e-11):
    from conftest import membership_with_guard

    return membership_with_guard(region, p, guard) is True


def test_criterion_03_neighbors_equivalence(neighbors_fixture):
    cat, table, want_pairs = neighbors_fixture
    got_pairs = set(zip(table.objid.tolist(), table.neighbor.tolist()))
    multiset_ok = got_pairs == want_pairs and len(table) == len(got_pairs)
    symmetric = all((b, a) in got_pairs for a, b in got_pairs)
    half_ok = len(table) % 2 == 0 and len({
        (min(a, b), max(a, b)) for a, b in got_pairs
    }) * 2 == len(table)
    wrap_pairs = sum(
        1 for a, b in got_pairs
        if min(cat.ra[a], 360 - cat.ra[a]) < 0.5 and min(cat.ra[b], 360 - cat.ra[b]) < 0.5
    )
    ok = multiset_ok and symmetric and half_ok
    assert report(
        "3",
        ok,
        f"neighbors multiset {'=' if multiset_ok else '!='} O(n^2) oracle "
        f"({len(got_pairs)} rows, {wrap_pairs} wraparound, symmetric={symmetric}, "
        f"premirror=half={half_ok})",
    )


def test_criterion_04_grammar_round_trip(corpus):
    rng = np.random.default_rng(707)
    pts = sample_sphere(rng, 1000)
    xyz = np.array([p.as_tuple() for p in pts])
    disagreements = 0
    for text, region in corpus:
        back = compile_region_string(serialize_region(region))
        m1, g1 = _membership_and_guard(region, xyz)
        m2, g2 = _membership_and_guard(back, xyz)
        safe = g1 & g2
        disagreements += int(np.sum(m1[safe] != m2[safe]))
    ok = disagreements == 0
    assert report(
        "4",
        ok,
        f"parse-compile-serialize round trip on {len(corpus)} specs "
        f"(3 canonical + {len(corpus) - 3} generated), 1000 pts each: "
        f"{disagreements} disagreements",
    )


def _membership_and_guard(region, xyz, guard=None):
    """(membership mask, safe mask) for points as an (n, 3) array.

    The guard band scales with the 1e-9 deg edge tolerance: a point within
    angular distance g of a cap boundary has |p.n - l| <~ g (radians).
    """
    if guard is None:
        guard = math.radians(1e-9) * 1.1 + 1e-12
    n = xyz.shape[0]
    member = np.zeros(n, dtype=bool)
    safe = np.ones(n, dtype=bool)
    for convex in region.convexes:
        if not convex.constraints:
            member[:] = True
            continue
        inside = np.ones(n, dtype=bool)
        for h in convex.constraints:
            dots = xyz @ np.array(h.normal.as_tuple())
            inside &= dots > h.l
            safe &= np.abs(dots - h.l) > guard
        member |= inside
    return member, safe


def _store_with(store: RegionStore, region: Region, name="r") -> int:
    rid = store.region_new(name)
    for convex in region.convexes:
        cid = store.region_new_convex(rid)
        for h in convex.constraints:
            store.region_new_convex_constraint(
                rid, cid, h.normal.x, h.normal.y, h.normal.z, h.l
            )
    return rid


def test_criterion_05_region_algebra_laws():
    rng = np.random.default_rng(808)
    specs = generate_corpus_specs(seed=909, count=100)[3:]  # generated only
    regions = [compile_region_string(s) for s in specs]
    regions = [r for r in regions if r.convexes][:100]
    pts = sample_sphere(rng, 1000)
    xyz = np.array([p.as_tuple() for p in pts])
    store = RegionStore()
    law_violations = 0
    count_violations = 0
    disjoint_violations = 0
    pairs = 0
    for i in range(0, 100, 2):
        if i + 1 >= len(regions):
            break
        a, b = regions[i], regions[i + 1]
        pairs += 1
        ra = _store_with(store, a, "a")
        rb = _store_with(store, b, "b")
        rid_or = store.region_or(ra, rb, "or")
        rid_and = store.region_and(ra, rb, "and")
        rid_not = store.region_not(ra, "not")
        if len(store.geometry(rid_or).convexes) != len(a.convexes) + len(b.convexes):
            count_violations += 1
        if len(store.geometry(rid_and).convexes) != len(a.convexes) * len(b.convexes):
            count_violations += 1
        ma, ga = _membership_and_guard(a, xyz)
        mb, gb = _membership_and_guard(b, xyz)
        m_or, g_or = _membership_and_guard(store.geometry(rid_or), xyz)
        m_and, g_and = _membership_and_guard(store.geometry(rid_and), xyz)
        m_not, g_not = _membership_and_guard(store.geometry(rid_not), xyz)
        safe = ga & gb & g_or & g_and & g_not
        law_violations += int(np.sum((ma | mb)[safe] != m_or[safe]))
        law_violations += int(np.sum((ma & mb)[safe] != m_and[safe]))
        law_violations += int(np.sum((~ma)[safe] != m_not[safe]))
        # NOT of one k-constraint convex: k pairwise-disjoint convexes
        convex = next((c for c in a.convexes if c.constraints), None)
        if convex is not None:
            single = Region((convex,))
            rid_single = _store_with(store, single, "s")
            rid_comp = store.region_not(rid_single, "ns")
            geometry = store.geometry(rid_comp)
            if len(geometry.convexes) != len(convex.constraints):
                disjoint_violations += 1
            hit_counts = np.zeros(len(pts), dtype=int)
            for cvx in geometry.convexes:
                m, _ = _membership_and_guard(Region((cvx,)), xyz)
                hit_counts += m
            if np.any(hit_counts > 1):
                disjoint_violations += 1
    ok = law_violations == 0 and count_violations == 0 and disjoint_violations == 0
    assert report(
        "5",
        ok,
        f"{pairs} region pairs: pointwise OR/AND/NOT violations={law_violations}, "
        f"count (N+M / NxM) violations={count_violations}, "
        f"NOT-disjointness violations={disjoint_violations}",
    )


def test_criterion_06_simplify(corpus):
    rng = np.random.default_rng(1010)
    pts = sample_sphere(rng, 10000)
    xyz = np.array([p.as_tuple() for p in pts])
    store = RegionStore()
    membership_violations = 0
    not_idempotent = 0
    for text, region in corpus:
        rid = _store_with(store, region)
        m0, g0 = _membership_and_guard(region, xyz)
        store.region_simplify(rid)
        g_simplified = store.geometry(rid)
        m1, g1 = _membership_and_guard(g_simplified, xyz)
        safe = g0 & g1
        membership_violations += int(np.sum(m0[safe] != m1[safe]))
        store.region_simplify(rid)
        if store.geometry(rid) != g_simplified:
            not_idempotent += 1
    # the three named fixtures
    fixtures_ok = True
    rid = store.region_new("redundant")
    cid = store.region_new_convex(rid)
    store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.0)
    store.region_new_convex_constraint(rid, cid, 0, 0, 1, -0.5)
    store.region_simplify(rid)
    g = store.geometry(rid)
    fixtures_ok &= len(g.convexes) == 1 and len(g.convexes[0].constraints) == 1
    fixtures_ok &= g.convexes[0].constraints[0].l == 0.0

    rid = store.region_new("contradiction")
    cid = store.region_new_convex(rid)
    store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.0)
    store.region_new_convex_constraint(rid, cid, 0, 0, -1, 0.0)
    store.region_simplify(rid)
    fixtures_ok &= store.geometry(rid).convexes == ()

    rid = store.region_new("merge")
    c1 = store.region_new_convex(rid)
    store.region_new_convex_constraint(rid, c1, 0, 0, 1, 0.3)
    store.region_new_convex_constraint(rid, c1, 0, 1, 0, 0.2)
    c2 = store.region_new_convex(rid)
    store.region_new_convex_constraint(rid, c2, 0, 0, 1, 0.3)
    store.region_new_convex_constraint(rid, c2, 0, -1, 0, -0.2)
    store.region_simplify(rid)
    g = store.geometry(rid)
    fixtures_ok &= len(g.convexes) == 1 and len(g.convexes[0].constraints) == 1

    ok = membership_violations == 0 and not_idempotent == 0 and fixtures_ok
    assert report(
        "6",
        ok,
        f"simplify on corpus: membership violations={membership_violations}, "
        f"non-idempotent={not_idempotent}, named fixtures ok={fixtures_ok}",
    )


def test_criterion_07a_prefix_containment_geometric():
    rng = np.random.default_rng(1111)
    mismatches = 0
    trials = 10000
    for k in range(trials):
        p = sample_sphere(rng, 1)[0]
        da = int(rng.integers(0, 9))
        db = int(rng.integers(0, 9))
        a = htm.point_to_id(p, da)
        if rng.uniform() < 0.5:
            b = htm.point_to_id(sample_sphere(rng, 1)[0], db)
        else:
            b = htm.point_to_id(p, db)
        ta = htm.id_to_trixel(a)
        tb = htm.id_to_trixel(b)
        corners_a = (ta.v0.as_tuple(), ta.v1.as_tuple(), ta.v2.as_tuple())
        geometric = all(
            htm._contains(corners_a, c.as_tuple(), eps=-1e-9) for c in tb.corners()
        )
        if htm.prefix_contains(a, b) != geometric:
            mismatches += 1
    ok = mismatches == 0
    assert report(
        "7a", ok, f"prefix-containment <=> geometric containment on {trials} id pairs: "
        f"{mismatches} mismatches"
    )


def test_criterion_07b_depth20_edge_lengths():
    rng = np.random.default_rng(1212)
    edges = []
    for p in sample_sphere(rng, 200):
        t = htm.id_to_trixel(htm.point_to_id(p, 20))
        corners = t.corners()
        for i in range(3):
            edges.append(arc_distance_deg(corners[i], corners[(i + 1) % 3]) * 3600)
    ok = min(edges) >= 0.15 and max(edges) <= 0.7
    assert report(
        "7b", ok,
        f"depth-20 edges in [{min(edges):.3f}, {max(edges):.3f}] arcsec "
        f"(required [0.15, 0.7])",
    )


def test_criterion_07c_area_ratio():
    ratios = {d: area_ratio_at_depth(d) for d in range(1, 9)}
    failures = area_ratio_gate_failures(ratios)
    assert report(
        "7c",
        not failures,
        "max/min trixel area ratio by depth "
        + ", ".join(f"{d}:{r:.4f}" for d, r in ratios.items())
        + f" ; gate: within {AREA_RATIO_REL_TOL:g} of the exact midpoint-subdivision"
        + f" reference, non-decreasing, <= {AREA_RATIO_CAP}"
        + "".join(f" ; {f}" for f in failures),
    )


def _run_pyramid_equivalence(idx, queries, truth):
    mismatches = 0
    stage_violations = 0
    dec_total = 0
    geom_total = 0
    over_returns = 0
    for (q, r), want in zip(queries, truth):
        stats = {}
        got = overlap_search(idx, q, r, stats=stats)
        if frozenset(got) != want:
            mismatches += 1
        chain = (
            stats["zone_scale"], stats["ra"], stats["fine_ra"],
            stats["dec"], stats["geometry"], stats["matched"],
        )
        if any(x < y for x, y in zip(chain, chain[1:])):
            stage_violations += 1
        dec_total += stats["dec"]
        geom_total += stats["geometry"]
        over_returns += stats["geometry"] - stats["matched"]
    return mismatches, stage_violations, dec_total, geom_total, over_returns


def test_criterion_08_pyramid(pyramid_fixture):
    idx, queries, truth = pyramid_fixture
    n_scales = len(idx.scales())
    mismatches, stage_violations, dec_total, geom_total, over_returns = (
        _run_pyramid_equivalence(idx, queries, truth)
    )
    ratio = geom_total / dec_total if dec_total else float("nan")
    ratio_ok = math.pi / 4 - 0.15 <= ratio <= math.pi / 4 + 0.15
    ok = mismatches == 0 and stage_violations == 0 and ratio_ok
    assert report(
        "8",
        ok,
        f"pyramid overlap on 100000 entries / {n_scales} scales: "
        f"{100 - mismatches}/100 oracle-exact, cascade monotone "
        f"(violations={stage_violations}), geometry-pass ratio {ratio:.3f} "
        f"(pi/4 = {math.pi / 4:.3f} +- 0.15), planar over-returns removed by "
        f"exact stage: {over_returns}",
    )


def test_criterion_09_relative_performance():
    cat = random_catalog(1_000_000, seed=1313)
    table = build_zone_table(cat, ZoneConfig(zone_height=4 / 60))
    rng = np.random.default_rng(1414)
    queries = [
        SkyPoint(float(rng.uniform(0, 360)), float(np.degrees(np.arcsin(rng.uniform(-1, 1)))))
        for _ in range(25)
    ]
    r = 0.1
    zone_times = []
    brute_times = []
    for q in queries:
        t0 = time.perf_counter()
        got = frozenset(i for i, _ in nearby_objects(table, q, r))
        zone_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        want = brute_cone_ids(cat, q, r)
        brute_times.append(time.perf_counter() - t0)
        assert got == want
    ratio = float(np.median(brute_times)) / float(np.median(zone_times))
    cat_small = random_catalog(20_000, seed=1515)
    narrow = build_neighbors(cat_small, 0.2, 0.2)
    wide = build_neighbors(cat_small, 0.2, 0.8)
    fewer = narrow.candidate_pairs < wide.candidate_pairs
    ok = ratio >= 5.0 and fewer
    assert report(
        "9",
        ok,
        f"1M-point zone cone search {ratio:.1f}x faster than brute force at r=0.1 "
        f"(median over 25 queries, gate >= 5x); neighbor-join candidates "
        f"zoneHeight=r {narrow.candidate_pairs} < 4r {wide.candidate_pairs}: {fewer}",
    )


def test_criterion_09_bench_prints_speedup_table(capsys):
    from skyindex.cli import main

    code = main(["--format", "records", "bench", "nearby", "--n", "2000",
                 "--queries", "15", "--seed", "9"])
    captured = capsys.readouterr()
    ok = (
        code == 0
        and "matches=15" in captured.out
        and "speedup" in captured.err
        and "zone nearby" in captured.err
        and "brute-force scan" in captured.err
    )
    assert report("9-bench", ok, "bench nearby emits the oracle check and speedup table")


def test_criterion_10_numerical_stability():
    from conftest import rotate_toward

    base_points = [
        UnitVec3(1, 0, 0),
        sky_to_vec(SkyPoint(123.4, 45.6)),
        sky_to_vec(SkyPoint(300.0, -80.0)),
    ]
    worst_rel = 0.0
    all_strictly_better = True
    trials = 0
    for base in base_points:
        for s_deg in np.geomspace(1e-7, 1e-3, 25):
            v = rotate_toward(base, float(s_deg), 0.7)
            truth = float(
                mpmath.degrees(
                    2
                    * mpmath.asin(
                        mpmath.sqrt(
                            (mpmath.mpf(v.x) - mpmath.mpf(base.x)) ** 2
                            + (mpmath.mpf(v.y) - mpmath.mpf(base.y)) ** 2
                            + (mpmath.mpf(v.z) - mpmath.mpf(base.z)) ** 2
                        )
                        / 2
                    )
                )
            )
            got = arc_distance_deg(base, v)
            dot = max(-1.0, min(1.0, base.dot(v)))
            acos_got = math.degrees(math.acos(dot))
            rel = abs(got - truth) / truth
            worst_rel = max(worst_rel, rel)
            if not abs(got - truth) < abs(acos_got - truth):
                all_strictly_better = False
            trials += 1
    ok = worst_rel <= 1e-6 and all_strictly_better
    assert report(
        "10",
        ok,
        f"chord/arcsine distance: worst relative error {worst_rel:.2e} over {trials} "
        f"constructed separations in [1e-7, 1e-3] deg; strictly better than acos "
        f"in every trial: {all_strictly_better}",
    )


def test_criterion_11_snapshot_fidelity(
    cone_fixture, neighbors_fixture, pyramid_fixture, tmp_path
):
    cat10k, zone_table, queries, truth = cone_fixture
    cat5k, neighbors, want_pairs = neighbors_fixture
    pyr, pqueries, ptruth = pyramid_fixture
    state = AppState(
        catalog=cat10k,
        zone_table=zone_table,
        neighbors=neighbors,
        regions=RegionStore(),
        pyramid=pyr,
    )
    path = tmp_path / "acceptance.snap"
    save_state(state, path)
    loaded = load_state(path)

    cone_mismatches = _run_cone_equivalence(loaded.zone_table, queries, truth)
    got_pairs = set(
        zip(loaded.neighbors.objid.tolist(), loaded.neighbors.neighbor.tolist())
    )
    neighbors_ok = got_pairs == want_pairs
    pyr_mismatches, stage_violations, *_ = _run_pyramid_equivalence(
        loaded.pyramid, pqueries, ptruth
    )
    ok = cone_mismatches == 0 and neighbors_ok and pyr_mismatches == 0 and stage_violations == 0
    assert report(
        "11",
        ok,
        f"after save/load: cone {200 - cone_mismatches}/200, neighbors multiset "
        f"equal={neighbors_ok}, pyramid {100 - pyr_mismatches}/100 "
        f"(stage violations {stage_violations})",
    )
