import hashlib
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from skyindex.algebra import (
    CompiledPredicate,
    RegionStore,
    RegionStoreError,
    complement_convex_lists,
    simplify_convex,
    simplify_region_geometry,
)
from skyindex.catalog import Catalog
from skyindex.pyramid import bounding_circle
from skyindex.geom import (
    Convex,
    SkyPoint,
    UnitVec3,
    inside_convex,
    inside_region,
    sky_to_vec,
    sky_to_xyz,
    vec_to_sky,
)
from skyindex.regionspec import compile_region_string
from skyindex.snapshot import AppState, load_state, save_state

from conftest import _convex_poly_points, add_region, generate_corpus_specs, membership_with_guard, sample_sphere


@pytest.fixture
def store():
    return RegionStore()


def sky_columns(ra, dec):
    """Catalog columns (objid, ra, dec) and the unit vectors a catalog
    derives from them; objids are spread out so that a row index is never
    mistaken for one."""
    ra = np.asarray(ra, dtype=np.float64)
    dec = np.asarray(dec, dtype=np.float64)
    objid = 1000 + 7 * np.arange(len(ra), dtype=np.int64)
    return objid, ra, dec, sky_to_xyz(ra, dec)


def random_sky(rng, n):
    """n (ra, dec) rows uniform on the sphere."""
    return rng.uniform(0.0, 360.0, n), np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))


def evaluate_at(pred: CompiledPredicate, p: UnitVec3) -> bool:
    """pred at one point, through evaluate_columns with one-row columns."""
    return bool(pred.evaluate_columns(*(np.array([c]) for c in p.as_tuple()))[0])


def stored_normal(n: UnitVec3) -> UnitVec3 | None:
    """n moved to a vector that normalizing leaves unchanged, so that the
    store keeps it bit for bit as a constraint normal; None if it does
    not settle within a few steps."""
    for _ in range(4):
        m = UnitVec3.normalized(n.x, n.y, n.z)
        if m == n:
            return n
        n = m
    return None


def sampled_membership(store, rid, pts, guard=1e-9):
    region = store.geometry(rid)
    return [membership_with_guard(region, p, guard) for p in pts]


class TestConstruction:
    def test_new_region_empty_everywhere(self, store, rng):
        rid = store.region_new("circle", "test")
        for p in sample_sphere(rng, 50):
            assert not store.contains(rid, p)

    def test_distinct_ids(self, store):
        assert store.region_new("a") != store.region_new("b")

    def test_type_length_limit(self, store):
        with pytest.raises(RegionStoreError):
            store.region_new("x" * 17)

    def test_rows_cover_refuses_are_not_stored(self, store, tmp_path):
        # a row whose |n|^2 is off 1, whose l is outside [-1, 1] or with a
        # NaN raises before anything is stored, so the store still saves
        # and loads, and the algebra on its own rows still runs
        cap = [(0.0, 0.0, 1.0, 0.5)]
        rid = store.region_new_from_convexes([cap], "cap", "")
        for row in [(2.0, 0.0, 0.0, 0.5), (0.0, 0.0, 1.0, 1.5), (0.0, 0.0, 1.0, -1.5),
                    (0.0, 0.0, 1.0, math.nan), (math.nan, 0.0, 1.0, 0.5), (0.0, math.inf, 0.0, 0.0)]:
            with pytest.raises(RegionStoreError, match="unit normal"):
                store.region_new_from_convexes([cap, cap + [row]], "bad", "")
        assert store.region_or(rid, rid, "or") == rid + 1
        assert store.region_not(rid, "not") == rid + 2
        path = str(tmp_path / "s.snap")
        save_state(AppState(regions=store), path)
        loaded = load_state(path).regions
        assert sorted(loaded.regions) == [rid, rid + 1, rid + 2]
        assert loaded.columns()["nx"].tobytes() == store.columns()["nx"].tobytes()

    def test_empty_convex_is_whole_sphere(self, store, rng):
        rid = store.region_new("all")
        store.region_new_convex(rid)
        for p in sample_sphere(rng, 50):
            assert store.contains(rid, p)

    def test_convex_ids_monotone(self, store):
        rid = store.region_new("r")
        cids = [store.region_new_convex(rid) for _ in range(4)]
        assert cids == sorted(cids)
        assert len(set(cids)) == 4

    def test_adding_convex_grows(self, store, rng):
        rid = store.region_new("r")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.5)
        pts = sample_sphere(rng, 400)
        before = [store.contains(rid, p) for p in pts]
        cid2 = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid2, 1, 0, 0, 0.5)
        after = [store.contains(rid, p) for p in pts]
        assert all(b or not a for a, b in zip(before, after))

    def test_adding_constraint_shrinks(self, store, rng):
        rid = store.region_new("r")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.0)
        pts = sample_sphere(rng, 400)
        before = [store.contains(rid, p) for p in pts]
        store.region_new_convex_constraint(rid, cid, 1, 0, 0, 0.0)
        after = [store.contains(rid, p) for p in pts]
        assert all(a or not b for a, b in zip(before, after))

    def test_constraint_normalizes(self, store):
        rid = store.region_new("r")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0, 0, 7, 0.25)
        h = store.geometry(rid).convexes[0].constraints[0]
        assert h.normal == UnitVec3(0, 0, 1)
        assert h.l == 0.25

    def test_constraint_errors(self, store):
        rid = store.region_new("r")
        cid = store.region_new_convex(rid)
        with pytest.raises(RegionStoreError):
            store.region_new_convex_constraint(rid, cid, 0, 0, 0, 0.5)
        with pytest.raises(RegionStoreError):
            store.region_new_convex_constraint(rid, cid, 0, 0, 1, 1.5)
        with pytest.raises(RegionStoreError):
            store.region_new_convex_constraint(rid, 999, 0, 0, 1, 0.5)
        with pytest.raises(RegionStoreError):
            store.region_new_convex_constraint(999, cid, 0, 0, 1, 0.5)

    def test_contradictory_constraints_empty(self, store, rng):
        rid = store.region_new("r")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.0)
        store.region_new_convex_constraint(rid, cid, 0, 0, -1, 0.0)
        for p in sample_sphere(rng, 100):
            assert not store.contains(rid, p)


class TestDrop:
    def test_drop_then_query_errors(self, store):
        rid = store.region_new("r")
        store.region_drop(rid)
        with pytest.raises(RegionStoreError):
            store.geometry(rid)
        with pytest.raises(RegionStoreError):
            store.region_drop(rid)

    def test_ids_never_reused(self, store):
        a = store.region_new("a")
        store.region_drop(a)
        b = store.region_new("b")
        assert b != a

    def test_other_regions_unaffected(self, store, rng):
        a = store.region_new("a")
        ca = store.region_new_convex(a)
        store.region_new_convex_constraint(a, ca, 0, 0, 1, 0.0)
        b = store.region_new("b")
        cb = store.region_new_convex(b)
        store.region_new_convex_constraint(b, cb, 1, 0, 0, 0.0)
        pts = sample_sphere(rng, 100)
        before = [store.contains(a, p) for p in pts]
        store.region_drop(b)
        assert [store.contains(a, p) for p in pts] == before


class TestBoolean:
    def _hemisphere(self, store, normal):
        rid = store.region_new("h")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, *normal, 0.0)
        return rid

    def test_or_membership_and_counts(self, store, rng):
        a = self._hemisphere(store, (0, 0, 1))
        b = self._hemisphere(store, (1, 0, 0))
        u = store.region_or(a, b, "u")
        assert len(store.geometry(u).convexes) == 2
        for p in sample_sphere(rng, 1000):
            assert store.contains(u, p) == (store.contains(a, p) or store.contains(b, p))

    def test_or_with_empty_is_identity(self, store, rng):
        a = self._hemisphere(store, (0, 0, 1))
        empty = store.region_new("empty")
        u = store.region_or(a, empty, "u")
        for p in sample_sphere(rng, 500):
            assert store.contains(u, p) == store.contains(a, p)

    def test_and_membership_and_nxm(self, store, rng):
        a = store.region_new("a")
        for n in ((0, 0, 1), (1, 0, 0)):
            cid = store.region_new_convex(a)
            store.region_new_convex_constraint(a, cid, *n, 0.0)
        b = store.region_new("b")
        for n in ((0, 1, 0), (0, 0, -1), (-1, 0, 0)):
            cid = store.region_new_convex(b)
            store.region_new_convex_constraint(b, cid, *n, 0.0)
        prod = store.region_and(a, b, "prod")
        assert len(store.geometry(prod).convexes) == 6
        for p in sample_sphere(rng, 1000):
            assert store.contains(prod, p) == (
                store.contains(a, p) and store.contains(b, p)
            )

    def test_and_with_sphere_is_identity(self, store, rng):
        a = self._hemisphere(store, (0, 0, 1))
        sphere = store.region_new("all")
        store.region_new_convex(sphere)
        u = store.region_and(a, sphere, "u")
        for p in sample_sphere(rng, 500):
            assert store.contains(u, p) == store.contains(a, p)

    def test_not_hemisphere(self, store):
        a = self._hemisphere(store, (0, 0, 1))
        n = store.region_not(a, "s")
        assert store.contains(n, UnitVec3(0, 0, -1))
        assert not store.contains(n, UnitVec3(0, 0, 1))

    def test_not_not_identity(self, store, rng):
        a = self._hemisphere(store, (0, 0, 1))
        nn = store.region_not(store.region_not(a, "n"), "nn")
        for p in sample_sphere(rng, 1000):
            m = membership_with_guard(store.geometry(a), p)
            mm = membership_with_guard(store.geometry(nn), p)
            if m is None or mm is None:
                continue
            assert m == mm

    def test_not_disjoint_convexes(self, store, rng):
        rid = store.region_new("k3")
        cid = store.region_new_convex(rid)
        for n in ((0, 0, 1), (1, 0, 0), (0, 1, 0)):
            store.region_new_convex_constraint(rid, cid, *n, 0.0)
        comp = store.region_not(rid, "comp")
        geometry = store.geometry(comp)
        assert len(geometry.convexes) == 3
        for p in sample_sphere(rng, 2000):
            count = sum(1 for c in geometry.convexes if inside_convex(c, p))
            assert count <= 1

    def test_results_keep_operand_rows_bit_for_bit(self, store, rng):
        # normals whose stored (normalized) form moves when normalized
        # again: results must copy the operands' rows, not normalize them
        def unsettled():
            while True:
                n = UnitVec3.normalized(*rng.normal(size=3))
                if stored_normal(n) != n:
                    return n

        def region(convexes, size):
            rid = store.region_new("r")
            for _ in range(convexes):
                cid = store.region_new_convex(rid)
                for _ in range(size):
                    n = unsettled()
                    store.region_new_convex_constraint(rid, cid, n.x, n.y, n.z, float(rng.uniform(-0.5, 0.5)))
            return rid

        def rows(rid):
            return {row for c in store.regions[rid].convexes for row in c.constraints}

        a, b, c = region(3, 4), region(2, 3), region(2, 2)
        operands = rows(a) | rows(b) | rows(c)
        allowed = operands | {tuple(-v for v in row) for row in operands}
        results = [
            store.region_or(a, a, "o"), store.region_or(a, b, "o"), store.region_and(a, b, "a"),
            store.region_not(b, "n"), store.region_not(c, "n"),
        ]
        assert rows(results[0]) == rows(a)
        for rid in results:
            assert rows(rid) <= allowed

    def test_boolean_laws_sampled(self, store, rng):
        # commutativity, associativity, distributivity in membership terms
        specs = ["CONVEX 0 0 1 0.2", "CIRCLE J2000 40 10 600", "RECT J2000 10 -20 60 20"]
        from skyindex.regionspec import compile_region_string

        rids = []
        for s in specs:
            region = compile_region_string(s)
            rid = store.region_new("law")
            for convex in region.convexes:
                cid = store.region_new_convex(rid)
                for h in convex.constraints:
                    store.region_new_convex_constraint(
                        rid, cid, h.normal.x, h.normal.y, h.normal.z, h.l
                    )
            rids.append(rid)
        a, b, c = rids
        pts = sample_sphere(rng, 1000)

        def member(rid):
            geometry = store.geometry(rid)
            return [membership_with_guard(geometry, p) for p in pts]

        pairs = [
            (store.region_or(a, b, "x"), store.region_or(b, a, "x")),
            (store.region_and(a, b, "x"), store.region_and(b, a, "x")),
            (
                store.region_or(store.region_or(a, b, "x"), c, "x"),
                store.region_or(a, store.region_or(b, c, "x"), "x"),
            ),
            (
                store.region_and(store.region_and(a, b, "x"), c, "x"),
                store.region_and(a, store.region_and(b, c, "x"), "x"),
            ),
            (
                store.region_and(a, store.region_or(b, c, "x"), "x"),
                store.region_or(
                    store.region_and(a, b, "x"), store.region_and(a, c, "x"), "x"
                ),
            ),
        ]
        for lhs, rhs in pairs:
            for x, y in zip(member(lhs), member(rhs)):
                if x is None or y is None:
                    continue
                assert x == y

    def test_demorgan(self, store, rng):
        a = self._hemisphere(store, (0, 0, 1))
        b = self._hemisphere(store, (1, 0, 0))
        lhs = store.region_not(store.region_or(a, b, "u"), "lhs")
        rhs = store.region_and(
            store.region_not(a, "na"), store.region_not(b, "nb"), "rhs"
        )
        for p in sample_sphere(rng, 1000):
            ml = membership_with_guard(store.geometry(lhs), p)
            mr = membership_with_guard(store.geometry(rhs), p)
            if ml is None or mr is None:
                continue
            assert ml == mr


class TestSimplify:
    def test_redundant_limit(self, store):
        rid = store.region_new("r")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.0)
        store.region_new_convex_constraint(rid, cid, 0, 0, 1, -0.5)
        store.region_simplify(rid)
        geometry = store.geometry(rid)
        assert len(geometry.convexes) == 1
        assert len(geometry.convexes[0].constraints) == 1
        assert geometry.convexes[0].constraints[0].l == 0.0

    def test_contradiction_removed(self, store):
        rid = store.region_new("r")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.0)
        store.region_new_convex_constraint(rid, cid, 0, 0, -1, 0.0)
        store.region_simplify(rid)
        assert store.geometry(rid).convexes == ()

    def test_ab_plus_a_notb_merges(self, store, rng):
        rid = store.region_new("r")
        c1 = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, c1, 0, 0, 1, 0.2)
        store.region_new_convex_constraint(rid, c1, 1, 0, 0, 0.1)
        c2 = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, c2, 0, 0, 1, 0.2)
        store.region_new_convex_constraint(rid, c2, -1, 0, 0, -0.1)
        pts = sample_sphere(rng, 2000)
        before = sampled_membership(store, rid, pts)
        store.region_simplify(rid)
        geometry = store.geometry(rid)
        assert len(geometry.convexes) == 1
        assert len(geometry.convexes[0].constraints) == 1
        after = sampled_membership(store, rid, pts)
        for x, y in zip(before, after):
            if x is None or y is None:
                continue
            assert x == y

    def test_contained_convex_dropped(self, store):
        rid = store.region_new("r")
        c1 = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, c1, 0, 0, 1, 0.0)
        c2 = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, c2, 0, 0, 1, 0.5)
        store.region_simplify(rid)
        geometry = store.geometry(rid)
        assert len(geometry.convexes) == 1
        assert geometry.convexes[0].constraints[0].l == 0.0

    def test_membership_preserved_on_corpus(self, store, corpus_regions, rng):
        pts = sample_sphere(rng, 600)
        for text, region in corpus_regions:
            rid = add_region(store, region)
            before = sampled_membership(store, rid, pts)
            store.region_simplify(rid)
            after = sampled_membership(store, rid, pts)
            for x, y in zip(before, after):
                if x is None or y is None:
                    continue
                assert x == y, text

    def test_idempotent(self, store, corpus_regions):
        for text, region in corpus_regions:
            rid = add_region(store, region)
            store.region_simplify(rid)
            first = store.geometry(rid)
            store.region_simplify(rid)
            assert store.geometry(rid) == first, text

    def test_simplify_convex_unit(self):
        h1 = (0.0, 0.0, 1.0, 0.0)
        h2 = (0.0, 0.0, 1.0, -0.5)
        assert simplify_convex([h1, h2]) == [h1]
        h3 = (0.0, 0.0, -1.0, 0.0)
        assert simplify_convex([h1, h3]) is None
        # overlapping band survives
        h4 = (0.0, 0.0, -1.0, -0.5)
        assert simplify_convex([h1, h4]) == [h1, h4]


class TestQueries:
    def test_regions_on_point(self, store):
        north = store.region_new("north")
        cn = store.region_new_convex(north)
        store.region_new_convex_constraint(north, cn, 0, 0, 1, 0.0)
        south = store.region_new("south")
        cs = store.region_new_convex(south)
        store.region_new_convex_constraint(south, cs, 0, 0, -1, 0.0)
        hits = store.regions_on_point(UnitVec3(0, 0, 1))
        assert hits == [(north, cn)]

    def test_regions_on_point_empty_store(self, store):
        assert store.regions_on_point(UnitVec3(0, 0, 1)) == []

    def test_regions_on_point_matches_inside_convex(self, store, corpus_regions, rng):
        for _, region in corpus_regions[:10]:
            add_region(store, region)
        for p in sample_sphere(rng, 300):
            hits = set(store.regions_on_point(p))
            for rid in store.regions:
                geometry = store.geometry(rid)
                for stored, convex in zip(
                    store.regions[rid].convexes, geometry.convexes
                ):
                    if inside_convex(convex, p):
                        assert (rid, stored.convex_id) in hits
                    else:
                        assert (rid, stored.convex_id) not in hits

    def test_points_in_region(self, store, rng):
        rid = store.region_new("north")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.0)
        ra, dec = random_sky(rng, 2000)
        dec[:10] = 0.0  # on the boundary, so outside
        objid, ra, dec, (x, y, z) = sky_columns(ra, dec)
        got = store.points_in_region(rid, objid, ra, dec)
        want = [int(i) for i, pz in zip(objid, z) if pz > 0]
        assert got == want
        assert got == [int(i) for i, d in zip(objid, dec) if d > 0]
        empty = np.array([])
        assert store.points_in_region(rid, empty.astype(np.int64), empty, empty) == []

    def test_points_in_whole_sphere(self, store, rng):
        rid = store.region_new("all")
        store.region_new_convex(rid)
        ra, dec = random_sky(rng, 50)
        dec[:2] = [90.0, -90.0]
        objid, ra, dec, _ = sky_columns(ra, dec)
        assert store.points_in_region(rid, objid, ra, dec) == objid.tolist()

    def test_boundary_points_all_paths_agree(self, store, rng):
        # Each row lies exactly on its own region's boundary (p . n == l for
        # the unit vector p derived from the row's ra, dec), so it is
        # outside. A dot summed in another order than UnitVec3.dot (as BLAS
        # may) rounds above l for about one pair in six; the first pair's
        # normal is one where `xyz @ normals.T` put its point inside.
        first = vec_to_sky(UnitVec3(-0.9090383987025042, 0.16383819762414065, -0.38315301732292245))
        ra, dec = random_sky(rng, 150)
        ra[0], dec[0] = first.ra, first.dec
        normals = [UnitVec3(0.05299980382820608, 0.2672325046196405, -0.9621734818986053)]
        normals += [stored_normal(n) for n in sample_sphere(rng, 149)]
        keep = np.array([n is not None for n in normals])
        normals = [n for n in normals if n is not None]
        assert len(normals) > 100
        objid, ra, dec, (x, y, z) = sky_columns(ra[keep], dec[keep])
        xyz = np.stack([x, y, z], axis=1)
        points = [UnitVec3(*row) for row in xyz.tolist()]
        rids = []
        for p, n in zip(points, normals):
            rid = store.region_new("edge")
            cid = store.region_new_convex(rid)
            store.region_new_convex_constraint(rid, cid, n.x, n.y, n.z, p.dot(n))
            assert store.regions[rid].convexes[0].halfspaces()[0].normal == n
            rids.append(rid)
        for rid, p in zip(rids, points):
            convex = store.geometry(rid).convexes[0]
            want = [inside_convex(convex, q) for q in points]
            assert store.contains(rid, p) is False
            assert rid not in {r for r, _ in store.regions_on_point(p)}
            pred = store.region_predicate(rid)
            assert evaluate_at(pred, p) is False
            assert pred.evaluate_batch(xyz).tolist() == want
            assert store.points_in_region(rid, objid, ra, dec) == objid[want].tolist()
        for p in points:
            assert store.regions_on_point(p) == [
                (rid, 1) for rid in rids if store.contains(rid, p)
            ]

    def test_row_with_l_one_holds_no_point(self, store, rng):
        # a radius-0 circle, the empty cap that htm.cover and simplify_convex
        # see; within ~1e-12 rad of n the rounded p . n exceeds 1 for many
        # points, and every path clips it at 1
        n = UnitVec3(-0.3278960990399359, 0.0, -0.9447137917032823)
        rid = store.region_new("dot")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, n.x, n.y, n.z, 1.0)
        c = vec_to_sky(n)
        ra = c.ra + rng.uniform(-3e-11, 3e-11, 2000)
        dec = c.dec + rng.uniform(-3e-11, 3e-11, 2000)
        objid, ra, dec, (x, y, z) = sky_columns(ra, dec)
        points = [UnitVec3(*p) for p in zip(x.tolist(), y.tolist(), z.tolist())]
        assert sum(p.dot(n) > 1.0 for p in points) > 50
        convex = store.geometry(rid).convexes[0]
        assert not any(inside_convex(convex, p) for p in points)
        assert not store.region_predicate(rid).evaluate_columns(x, y, z).any()
        assert not any(store.regions_on_point(p) for p in points)
        assert not any(store.contains(rid, p) for p in points[:200])
        assert store.points_in_region(rid, objid, ra, dec) == []

    def test_predicate_equivalence(self, store, corpus_regions, rng):
        pts = sample_sphere(rng, 2000)
        xyz = np.array([p.as_tuple() for p in pts])
        for text, region in corpus_regions[:12]:
            rid = add_region(store, region)
            pred = store.region_predicate(rid)
            batch = pred.evaluate_batch(xyz)
            for p, b in zip(pts, batch):
                m = membership_with_guard(region, p)
                if m is None:
                    continue
                assert bool(b) == m, text
                assert evaluate_at(pred, p) == m, text

    def test_predicate_text_forms(self, store):
        empty = store.region_new("empty")
        assert store.region_predicate(empty).text == "false"
        rid = store.region_new("h")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.0)
        text = store.region_predicate(rid).text
        assert text.startswith("or(and((p.x*")
        assert "> 0.0" in text

    def test_predicate_survives_store_mutation(self, store, rng):
        rid = store.region_new("h")
        cid = store.region_new_convex(rid)
        store.region_new_convex_constraint(rid, cid, 0, 0, 1, 0.0)
        pred = store.region_predicate(rid)
        text = pred.text
        xyz = np.array([p.as_tuple() for p in sample_sphere(rng, 200)])
        want = pred.evaluate_batch(xyz)
        table = store._rows
        # appends that grow the half-space table, moves, then drops that
        # compact it; each query writes the pending convexes in
        normals = sample_sphere(rng, 400)
        others = [
            store.region_new_from_convexes([[(*n.as_tuple(), 0.5)] * 3], "o", "") for n in normals[:200]
        ]
        store.regions_on_point(normals[0])
        for rid2, n in zip(others[:50], normals[200:250]):
            store.region_new_convex_constraint(rid2, 1, n.x, n.y, n.z, -0.5)
        store.regions_on_point(normals[1])
        assert store._rows is table and len(table.nx) > 512 and store._dead > 0
        store.region_drop(rid)
        for rid2 in others:
            store.region_drop(rid2)
        store.regions_on_point(normals[2])
        assert store._rows is not table and store._rows.n == 0
        assert pred.text == text
        assert (pred.evaluate_batch(xyz) == want).all()
        assert evaluate_at(pred, UnitVec3(0, 0, 1))


# -- a pinned run of the algebra ---------------------------------------------


def seeded_run_digest() -> str:
    """SHA-256 of a seeded run: grammar shapes stored as constraint rows,
    then or/and/not/simplify/drop edits; it hashes the store's columns,
    regions_on_point at fixed points and every region's bounding circle."""
    rng = np.random.default_rng(25)
    store = RegionStore()
    for text in generate_corpus_specs(seed=25, count=60):
        add_region(store, compile_region_string(text))
    for _ in range(300):
        rids = [rid for rid in sorted(store.regions) if len(store.regions[rid].convexes) <= 4]
        a, b = (rids[int(rng.integers(len(rids)))] for _ in range(2))
        op = int(rng.integers(5))
        if op == 0:
            store.region_or(a, b, "or")
        elif op == 1:
            store.region_and(a, b, "and")
        elif op == 2 and len(store.regions[a].convexes) <= 2:
            store.region_not(a, "not")
        elif op == 3:
            store.region_simplify(a)
        elif op == 4 and len(rids) > 20:
            store.region_drop(a)
    h = hashlib.sha256()
    for name, col in store.columns().items():
        h.update(name.encode() + np.asarray(col).tobytes())
    for p in EDGE_POINTS + sample_sphere(rng, 200):
        h.update(repr(store.regions_on_point(p)).encode())
    for rid in sorted(store.regions):
        geometry = store.geometry(rid)
        if geometry.convexes:
            center, radius = bounding_circle(geometry)
            h.update(repr((rid, center.as_tuple(), radius)).encode())
    return h.hexdigest()


def test_seeded_run_digest():
    # taken with the format-8 store, whose columns held the same rows plus
    # two id columns that a half-space's position now gives
    assert seeded_run_digest() == "0f2eaa6fd008eff1c141aab34d8b7186aef56d1fda056fb71fc7f63ab0a85b78"


# -- points-in's dec band against the whole catalog ---------------------------


def whole_catalog_points_in(store, rid, objid, ra, dec):
    """What points_in_region must return: the region's predicate over the
    x, y, z columns of the whole catalog."""
    cat = Catalog(objid, ra, dec)
    return objid[store.region_predicate(rid).evaluate_columns(cat.x, cat.y, cat.z)].tolist()


def row_vector(ra, dec) -> UnitVec3:
    """The unit vector a catalog derives for the row (ra, dec)."""
    return UnitVec3(*(float(c[0]) for c in sky_to_xyz(np.array([ra]), np.array([dec]))))


def circle_text(ra, dec, arcmin):
    return f"CIRCLE J2000 {float(ra)!r} {float(dec)!r} {float(arcmin)!r}"


_BAND_RA = st.floats(0.0, 360.0, exclude_max=True) | st.sampled_from([0.0, 359.9999999])
_BAND_DEC = (
    st.floats(-90.0, 90.0)
    | st.sampled_from([90.0, -90.0, 1e-9, -1e-9, 89.99995, -89.99995])
    | st.floats(89.999, 90.0)
    | st.floats(-90.0, -89.999)
)
_ARCMIN = (
    st.floats(-6.0, math.log10(10800.0)).map(lambda e: min(10800.0, 10.0**e))
    | st.sampled_from([1e-6, 1e-3, 1.0, 5400.0, 10800.0])
)
# circles of r <= 0.01 arcmin, whose l = cos(r) lies within 5e-12 of 1,
# where rounding moves the cap's edge most
_TINY_ARCMIN = st.floats(-6.0, -2.0).map(lambda e: 10.0**e) | st.sampled_from([1e-6, 1e-3])


@st.composite
def band_case(draw):
    """(store, rid, ra, dec): one region built from grammar text, constraint
    rows or the algebra, and a catalog biased to the poles, ra = 0, dec 0,
    the dec extremes of the drawn circles and the drawn cap boundaries."""
    ra = draw(st.lists(_BAND_RA, max_size=16))
    dec = draw(st.lists(_BAND_DEC, min_size=len(ra), max_size=len(ra)))
    store = RegionStore()

    def circle(arcmin_values):
        if ra and draw(st.booleans()):
            i = draw(st.integers(0, len(ra) - 1))
            ra_c, dec_c = ra[i], dec[i]
        else:
            ra_c, dec_c = draw(_BAND_RA), draw(_BAND_DEC)
        arcmin = draw(arcmin_values)
        # a row at the centre, and rows on the circle's meridian within
        # 2e-6 degrees of its dec extremes: a ladder and a few drawn
        ladder = [0.0, 1e-9, 1e-8, 1e-7, 5e-7, 9e-7, 2e-6]
        offsets = ladder + [-o for o in ladder[1:]] + draw(st.lists(st.floats(-2e-6, 2e-6), max_size=3))
        for d in [dec_c] + [dec_c + s * (arcmin / 60.0 + o) for o in offsets for s in (1.0, -1.0)]:
            if -90.0 <= d <= 90.0:
                ra.append(ra_c)
                dec.append(d)
        return add_region(store, compile_region_string(circle_text(ra_c, dec_c, arcmin)))

    def rect():
        ra1, width = draw(st.floats(0.0, 359.0)), draw(st.floats(1e-3, 179.0))
        dec1 = draw(st.floats(-90.0, 89.0))
        dec2 = draw(st.floats(dec1 + 1e-3, 90.0))
        return add_region(store, compile_region_string(f"RECT J2000 {ra1!r} {dec1!r} {ra1 + width!r} {dec2!r}"))

    def poly():
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pts = [vec_to_sky(p) for p in _convex_poly_points(rng, int(rng.integers(3, 7)), 55.0)]
        return add_region(store, compile_region_string(
            "POLY J2000 " + " ".join(f"{p.ra!r} {p.dec!r}" for p in pts)))

    def constraints(first_l):
        """One convex of 1-3 constraints; the first has length first_l, or
        passes through a catalog row when first_l is None."""
        rid = store.region_new("convex")
        cid = store.region_new_convex(rid)
        for k in range(draw(st.integers(1, 3))):
            n = stored_normal(sky_to_vec(SkyPoint(draw(_BAND_RA), draw(_BAND_DEC)))) or UnitVec3(0.0, 0.0, 1.0)
            if k == 0 and first_l is None and ra:
                i = draw(st.integers(0, len(ra) - 1))
                l = min(1.0, row_vector(ra[i], dec[i]).dot(n))  # p == n can round above 1
            else:
                l = first_l if k == 0 and first_l is not None else draw(st.floats(-1.0, 1.0))
            store.region_new_convex_constraint(rid, cid, n.x, n.y, n.z, l)
        return rid

    def empty():
        return store.region_new("empty")

    def whole_sky():
        rid = store.region_new("sky")
        store.region_new_convex(rid)
        return rid

    makers = {
        "circle": lambda: circle(_ARCMIN),
        "tiny_circle": lambda: circle(_TINY_ARCMIN),
        "rect": rect,
        "poly": poly,
        "negative_l": lambda: constraints(draw(st.floats(-1.0, -1e-9))),
        "boundary": lambda: constraints(None),
        "empty": empty,
        "sky": whole_sky,
    }
    rid = makers[draw(st.sampled_from(sorted(makers)))]()
    op = draw(st.sampled_from(["none", "none", "not", "or", "and"]))
    if op == "not" and len(store.regions[rid].convexes) <= 1:
        rid = store.region_not(rid, "not")
    elif op in ("or", "and"):
        other = makers[draw(st.sampled_from(sorted(makers)))]()
        rid = (store.region_or if op == "or" else store.region_and)(rid, other, op)
    if draw(st.booleans()):
        store.region_simplify(rid)
    return store, rid, np.array(ra, dtype=np.float64), np.array(dec, dtype=np.float64)


def pole_lens_case():
    """band_case's draw of the AND of two 1-arcmin circles at (0, 90) and
    (0, 89.998046875), with a row at each centre and its ladder rows. The
    normals' 1 - d^2 is 1.2e-9, and a bounding circle from vertices formed
    through d alone missed most of the lens: points-in kept 2 of 8 rows."""
    store, ra, dec = RegionStore(), [], []
    ladder = [0.0, 1e-9, 1e-8, 1e-7, 5e-7, 9e-7, 2e-6]
    rids = []
    for dec_c in (90.0, 89.998046875):
        for d in [dec_c] + [dec_c + s * (1 / 60 + o) for o in ladder + [-o for o in ladder[1:]] for s in (1.0, -1.0)]:
            if -90.0 <= d <= 90.0:
                ra.append(0.0)
                dec.append(d)
        rids.append(add_region(store, compile_region_string(circle_text(0.0, dec_c, 1.0))))
    rid = store.region_and(*rids, "and")
    return store, rid, np.array(ra), np.array(dec)


class TestPointsInBand:
    @given(band_case())
    @example(pole_lens_case())
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_band_matches_whole_catalog(self, case):
        store, rid, ra, dec = case
        objid = 1000 + 7 * np.arange(len(ra), dtype=np.int64)
        got = store.points_in_region(rid, objid, ra, dec)
        assert got == whole_catalog_points_in(store, rid, objid, ra, dec)

    @pytest.mark.parametrize("dec_c", [0.0, 45.0, -60.0, 89.99995, -89.99995, 90.0])
    @pytest.mark.parametrize("arcmin", [1e-6, 1e-3, 1.0, 60.0, 5400.0, 10800.0])
    def test_rows_next_to_the_dec_extremes(self, store, dec_c, arcmin):
        # Rows on the circle's meridian, up to 2e-6 degrees inside and
        # outside its dec extremes: a band narrower than the circle, or
        # unpadded, loses some that the whole-catalog test accepts.
        ra_c = 123.25
        rid = add_region(store, compile_region_string(circle_text(ra_c, dec_c, arcmin)))
        offsets = np.array([0.0, 1e-9, 1e-8, 1e-7, 5e-7, 9e-7, 2e-6])
        dec = dec_c + np.concatenate([arcmin / 60.0 - offsets, -(arcmin / 60.0 - offsets),
                                      arcmin / 60.0 + offsets, -(arcmin / 60.0 + offsets), [0.0]])
        # past a pole the meridian runs down the far side, at ra_c + 180
        ra = np.where(np.abs(dec) > 90.0, ra_c + 180.0, ra_c)
        dec = np.where(dec > 90.0, 180.0 - dec, np.where(dec < -90.0, -180.0 - dec, dec))
        objid, ra, dec, _ = sky_columns(ra, dec)
        want = whole_catalog_points_in(store, rid, objid, ra, dec)
        assert store.points_in_region(rid, objid, ra, dec) == want
        if 1e-3 <= arcmin < 10800.0:
            # rows 5e-7 degrees inside both extremes are in the answer
            assert {objid[4], objid[11]} <= set(want)

    def test_rows_in_their_own_tiny_circles(self, store, rng):
        # A 1e-3 arcmin circle has l within 1e-13 of 1, and a row at its
        # centre is inside: the band's pad keeps it, whatever its dec and
        # the atan2 of its circle's normal. A 1e-6 arcmin circle has l = 1.0,
        # the empty cap, and holds no row, also where |p|^2 rounds above 1.
        ra, dec = random_sky(rng, 300)
        dec[:4] = [89.99995, -89.99995, 1e-9, -1e-9]
        objid, ra, dec, _ = sky_columns(ra, dec)
        for i, (r, d) in enumerate(zip(ra, dec)):
            for arcmin in (1e-6, 1e-3):
                rid = add_region(store, compile_region_string(circle_text(r, d, arcmin)))
                want = whole_catalog_points_in(store, rid, objid, ra, dec)
                assert store.points_in_region(rid, objid, ra, dec) == want
                assert want == ([] if arcmin == 1e-6 else [objid[i]])

    def test_empty_and_unknown_regions(self, store):
        objid, ra, dec, _ = sky_columns([0.0, 180.0], [90.0, -90.0])
        assert store.points_in_region(store.region_new("empty"), objid, ra, dec) == []
        with pytest.raises(RegionStoreError):
            store.points_in_region(99, objid, ra, dec)


# -- the store's tables behind regions_on_point ------------------------------


def brute_on_point(store, p):
    """The reference answer: inside_convex over every stored convex."""
    return [
        (rid, c.convex_id)
        for rid in sorted(store.regions)
        for c in store.regions[rid].convexes
        if inside_convex(Convex(tuple(c.halfspaces())), p)
    ]


# poles and points on the ra = 0 meridian, where ra/dec code tends to break
EDGE_POINTS = [UnitVec3(0.0, 0.0, 1.0), UnitVec3(0.0, 0.0, -1.0)] + [
    sky_to_vec(SkyPoint(0.0, dec)) for dec in (-60.0, -30.0, 0.0, 30.0, 60.0, 89.99)
]


def live_rows(store):
    return sum(len(c.constraints) for reg in store.regions.values() for c in reg.convexes)


class TestHalfSpaceTable:
    def assert_matches(self, store, points):
        for p in points:
            assert store.regions_on_point(p) == brute_on_point(store, p)

    def test_edits_update_the_built_table(self, store, corpus_regions, rng):
        rids = [add_region(store, region) for _, region in corpus_regions[:8]]
        points = EDGE_POINTS + sample_sphere(rng, 60)
        self.assert_matches(store, points)
        tables = store._rows, store._convexes
        a = store.region_or(rids[0], rids[1], "or")
        b = store.region_and(rids[2], rids[3], "and")
        c = store.region_not(rids[4], "not")
        store.region_simplify(a)
        store.region_simplify(c)
        store.regions_on_point(points[0])  # writes the pending convexes into the tables
        cid = store.region_new_convex(b)
        store.region_new_convex_constraint(b, cid, 0.0, 0.0, 1.0, 0.25)
        store.region_new_convex_constraint(b, 1, 0.0, 1.0, 0.0, -0.5)  # moves convex 1 to the end
        store.region_new_convex(store.region_new("sphere"))
        store.region_drop(rids[5])
        assert (store._rows, store._convexes) == tables  # no edit above asked for a rebuild
        assert store._dead > 0
        self.assert_matches(store, points)

    def test_compaction_once_dead_outnumber_live(self, store, corpus_regions, rng):
        rids = [add_region(store, region) for _, region in corpus_regions[:10]]
        points = EDGE_POINTS + sample_sphere(rng, 40)
        self.assert_matches(store, points)
        table = store._rows
        for rid in rids[:-1]:
            store.region_drop(rid)
            store.regions_on_point(points[0])  # a query writes and compacts
            if store._rows is not table:
                break
        else:
            pytest.fail("dropping 9 of 10 regions never compacted the tables")
        self.assert_matches(store, points)
        assert store._rows.n == live_rows(store) and store._dead == 0
        assert store._convexes.alive[: store._convexes.n].all()

    def test_records_are_copies(self, store):
        rid = store.region_new_from_convexes([[(0.0, 0.0, 1.0, 0.5)]], "cap", "")
        for _ in range(2):  # a pending convex, then one in the tables
            store.regions[rid].convexes[0].constraints.append((1.0, 0.0, 0.0, 0.0))
            assert store.regions[rid].convexes[0].constraints == [(0.0, 0.0, 1.0, 0.5)]
            store.regions_on_point(UnitVec3(0.0, 0.0, 1.0))

    def test_loaded_store_adopts_its_columns(self, store, corpus_regions, rng, tmp_path):
        for _, region in corpus_regions[:6]:
            add_region(store, region)
        store.region_drop(2)
        cols = store.columns()
        adopted = RegionStore.from_columns(cols)
        assert all(getattr(adopted._rows, k) is cols[k] for k in ("nx", "ny", "nz", "l"))
        path = str(tmp_path / "s.snap")
        save_state(AppState(regions=store), path)
        loaded = load_state(path).regions
        assert loaded._rows.n == live_rows(store) and loaded._dead == 0
        points = EDGE_POINTS + sample_sphere(rng, 40)
        self.assert_matches(loaded, points)
        # rows written after a load go into new arrays, not the adopted ones
        nx = cols["nx"].copy()
        rid = adopted.region_new_from_convexes([[(0.0, 0.0, 1.0, 0.5)]], "cap", "")
        assert adopted.contains(rid, UnitVec3(0.0, 0.0, 1.0))
        self.assert_matches(adopted, points)
        assert adopted._rows.nx is not cols["nx"] and cols["nx"].tobytes() == nx.tobytes()


def _sky_vectors():
    ra = st.floats(0.0, 360.0, exclude_max=True) | st.sampled_from([0.0, 90.0, 180.0])
    dec = st.floats(-90.0, 90.0) | st.sampled_from([-90.0, 0.0, 90.0])
    return st.builds(lambda r, d: sky_to_vec(SkyPoint(r, d)), ra, dec)


_PICK = st.integers(0, 1 << 20)


class RegionStoreMachine(RuleBasedStateMachine):
    """Random edit sequences; after every step the store must hold what a
    plain model of its regions holds, and regions_on_point, contains and
    each region's predicate must equal inside_convex over the whole store,
    at poles, on the ra = 0 meridian, at random points and at points lying
    exactly on a stored boundary; a save and load must give back the same
    columns."""

    def __init__(self):
        super().__init__()
        self.store = RegionStore()
        self.model: dict[int, list] = {}  # rid -> [next convex id, [(convex id, rows)]]
        self.points = list(EDGE_POINTS)
        self.tmp = tempfile.mkdtemp()

    def stored(self, rid, lists):
        """Record in the model that region rid gained convexes of these rows."""
        entry = self.model.setdefault(rid, [1, []])
        for rows in lists:
            entry[1].append((entry[0], list(rows)))
            entry[0] += 1

    def rows(self, rid):
        return [rows for _, rows in self.model[rid][1]]

    def constrain(self, rid, cid, x, y, z, l):
        hid = self.store.region_new_convex_constraint(rid, cid, x, y, z, l)
        rows = dict(self.model[rid][1])[cid]
        n = UnitVec3.normalized(x, y, z)
        rows.append((n.x, n.y, n.z, float(l)))
        assert hid == len(rows)

    def new_convex_of(self, rid):
        cid = self.store.region_new_convex(rid)
        assert cid == self.model[rid][0]
        self.stored(rid, [[]])
        return cid

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def pick(self, k, predicate=lambda reg: True):
        rids = [rid for rid in sorted(self.store.regions) if predicate(self.store.regions[rid])]
        return rids[k % len(rids)] if rids else None

    @rule()
    def new_region(self):
        self.stored(self.store.region_new("r"), [])

    @precondition(lambda self: self.store.regions)
    @rule(k=_PICK)
    def new_convex(self, k):
        self.new_convex_of(self.pick(k))

    def _add_constraint(self, k, j, n, l):
        rid = self.pick(k, lambda reg: reg.convexes and len(reg.convexes) <= 6)
        if rid is None:
            return
        convexes = self.store.regions[rid].convexes
        self.constrain(rid, convexes[j % len(convexes)].convex_id, n.x, n.y, n.z, l)

    @precondition(lambda self: self.store.regions)
    @rule(k=_PICK, j=_PICK, n=_sky_vectors(), l=st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 0.0, 1.0]))
    def constraint(self, k, j, n, l):
        self._add_constraint(k, j, n, l)

    @precondition(lambda self: self.store.regions)
    @rule(k=_PICK, j=_PICK, n=_sky_vectors(), q=_PICK, fresh=st.booleans())
    def constraint_through_point(self, k, j, n, q, fresh):
        """A cap whose boundary passes exactly through a query point, where
        the strict test must say outside; in a fresh convex of its own, a
        dot rounded the other way shows as a hit."""
        p = self.points[q % len(self.points)]
        n = stored_normal(n)
        if n is None or not (-1.0 <= p.dot(n) <= 1.0):
            return
        if fresh:
            rid = self.pick(k)
            self.constrain(rid, self.new_convex_of(rid), n.x, n.y, n.z, p.dot(n))
        else:
            self._add_constraint(k, j, n, p.dot(n))

    @precondition(lambda self: self.store.regions)
    @rule(k=_PICK, j=_PICK, n=_sky_vectors(), l=st.floats(-1.0, 1.0))
    def constraint_before_a_later_convex(self, k, j, n, l):
        """A constraint on a convex that a later convex with rows follows,
        so that the convex moves to the end of the half-space table."""
        rid = self.pick(k, lambda reg: reg.convexes and len(reg.convexes) <= 6)
        if rid is None:
            return
        self.constrain(rid, self.new_convex_of(rid), n.x, n.y, n.z, l)
        convexes = self.store.regions[rid].convexes
        self.constrain(rid, convexes[j % (len(convexes) - 1)].convex_id, -n.x, -n.y, -n.z, -l)

    @rule(p=_sky_vectors())
    def add_point(self, p):
        if len(self.points) < 24:
            self.points.append(p)

    @precondition(lambda self: len(self.store.regions) >= 2)
    @rule(a=_PICK, b=_PICK, op=st.sampled_from(["or", "and"]))
    def combine(self, a, b, op):
        small = lambda reg: len(reg.convexes) <= 4
        id1, id2 = self.pick(a, small), self.pick(b, small)
        if id1 is None or id2 is None:
            return
        if op == "or":
            self.stored(self.store.region_or(id1, id2, op), self.rows(id1) + self.rows(id2))
        else:
            lists = [a + b for a in self.rows(id1) for b in self.rows(id2)]
            self.stored(self.store.region_and(id1, id2, op), lists)

    @precondition(lambda self: self.store.regions)
    @rule(k=_PICK)
    def negate(self, k):
        rid = self.pick(k, lambda reg: len(reg.convexes) <= 2
                        and all(len(c.constraints) <= 3 for c in reg.convexes))
        if rid is not None:
            acc = [[]]
            for i, rows in enumerate(self.rows(rid)):
                acc = [a + c for a in acc for c in complement_convex_lists(rows)]
                acc = simplify_region_geometry(acc) if i else acc
            self.stored(self.store.region_not(rid, "not"), acc)

    @precondition(lambda self: self.store.regions)
    @rule(k=_PICK)
    def drop(self, k):
        rid = self.pick(k)
        self.store.region_drop(rid)
        del self.model[rid]

    @precondition(lambda self: self.store.regions)
    @rule(k=_PICK)
    def simplify(self, k):
        rid = self.pick(k, lambda reg: len(reg.convexes) <= 12)
        if rid is not None:
            self.store.region_simplify(rid)
            reduced = simplify_region_geometry(self.rows(rid))
            self.model[rid][1] = []
            self.stored(rid, reduced)

    @rule()
    def save_and_load(self):
        path = os.path.join(self.tmp, "state.snap")
        saved = self.store.columns()
        save_state(AppState(regions=self.store), path)
        self.store = load_state(path).regions
        loaded = self.store.columns()
        assert list(loaded) == list(saved)
        for name, col in saved.items():
            a, b = np.asarray(loaded[name]), np.asarray(col)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @invariant()
    def store_holds_the_model(self):
        held = {
            rid: [reg.next_convex_id, [(c.convex_id, c.constraints) for c in reg.convexes]]
            for rid, reg in self.store.regions.items()
        }
        assert held == self.model

    @invariant()
    def on_point_matches_inside_convex(self):
        for p in self.points:
            assert self.store.regions_on_point(p) == brute_on_point(self.store, p)

    @invariant()
    def contains_and_predicate_match_inside_convex(self):
        for rid, reg in self.store.regions.items():
            convexes = [Convex(tuple(c.halfspaces())) for c in reg.convexes]
            pred = self.store.region_predicate(rid)
            for p in self.points:
                want = any(inside_convex(c, p) for c in convexes)
                assert self.store.contains(rid, p) is want
                assert evaluate_at(pred, p) is want


RegionStoreMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestRegionStoreMachine = RegionStoreMachine.TestCase
