import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skyindex.geom import (
    Convex,
    GeometryError,
    HalfSpace,
    Region,
    SkyPoint,
    UnitVec3,
    arc_deg,
    arc_distance_deg,
    circle_to_halfspace,
    closed_hemisphere_witness,
    inside_convex,
    inside_region,
    min_enclosing_cap,
    region_rows,
    row_is_halfspace,
    sky_to_vec,
    vec_to_sky,
    _plane_pair_points,
)
from skyindex.algebra import RegionStore, RegionStoreError, _contains_cap, _disjoint_caps, complement_convex_lists
from skyindex.catalog import htm_cone_search, random_catalog
from skyindex.htm import HtmError, cover
from skyindex.pyramid import PyramidConfig, PyramidError, PyramidIndex, overlap_search, scale_of
from skyindex.zones import ZoneConfig, ZoneError, build_neighbors, build_zone_table, nearby_objects

from conftest import rotate_toward, sample_sphere

mpmath.mp.dps = 40


def mp_vec(ra, dec):
    ra, dec = mpmath.radians(ra), mpmath.radians(dec)
    return (
        mpmath.cos(dec) * mpmath.cos(ra),
        mpmath.cos(dec) * mpmath.sin(ra),
        mpmath.sin(dec),
    )


class TestSkyPoint:
    def test_ra_normalized(self):
        assert SkyPoint(360.0, 0.0).ra == 0.0
        assert SkyPoint(-10.0, 0.0).ra == 350.0
        assert SkyPoint(725.0, 0.0).ra == pytest.approx(5.0)

    def test_dec_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            SkyPoint(0.0, 90.0001)
        with pytest.raises(GeometryError):
            SkyPoint(0.0, -91.0)

    @pytest.mark.parametrize(
        "ra, dec",
        [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.nan)],
    )
    def test_non_finite_rejected(self, ra, dec):
        with pytest.raises(GeometryError):
            SkyPoint(ra, dec)


def _catalog():
    return random_catalog(50, seed=3)


_RADIUS_CHECKS = {
    "zones.nearby_objects": (ZoneError, lambda r: nearby_objects(build_zone_table(_catalog(), ZoneConfig(1.0)), SkyPoint(1, 2), r)),
    "zones.build_neighbors": (ZoneError, lambda r: build_neighbors(_catalog(), r)),
    "pyramid.overlap_search": (PyramidError, lambda r: overlap_search(PyramidIndex(), SkyPoint(1, 2), r)),
    "PyramidIndex.insert": (PyramidError, lambda r: PyramidIndex().insert(1, SkyPoint(1, 2), r)),
    "pyramid.scale_of": (PyramidError, lambda r: scale_of(r, PyramidConfig())),
    "pyramid.scale_of[array]": (PyramidError, lambda r: scale_of(np.array([1.0, r]), PyramidConfig())),
    "geom.circle_to_halfspace": (GeometryError, lambda r: circle_to_halfspace(UnitVec3(0, 0, 1), r)),
    "catalog.htm_cone_search": (GeometryError, lambda r: htm_cone_search(_catalog(), SkyPoint(1, 2), r)),
}


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0, 181.0])
@pytest.mark.parametrize("call", sorted(_RADIUS_CHECKS))
def test_radius_out_of_range_raises_the_modules_own_error(call, radius):
    """Each function's range check is the only check of a radius in
    degrees, so NaN and inf raise the same error as -1 or 181."""
    error, search = _RADIUS_CHECKS[call]
    with pytest.raises(error, match=r"radius out"):
        search(radius)


_ULP = 2.0**-52
_HALFSPACE_ROWS = [  # (row, taken)
    ((0.6, 0.8, 0.0, 0.1), True),
    ((0.0, 0.0, 1.0 + 8 * _ULP, 0.5), True),  # |n|^2 - 1 = 16 ulps, the tolerance
    ((0.0, 0.0, 1.0 + 9 * _ULP, 0.5), False),  # 18 ulps
    ((0.0, 0.0, 1.0 - 8 * _ULP, 0.5), True),  # 1 - |n|^2 = 16 ulps
    ((0.0, 0.0, 1.0 - 8.5 * _ULP, 0.5), False),  # 17 ulps
    *(((*([0.0] * k), math.nan, *([0.0] * (3 - k))), False) for k in range(4)),
    ((0.0, 0.0, 1.0, 1.0), True),
    ((0.0, 0.0, 1.0, -1.0), True),
    ((0.0, 0.0, 1.0, math.nextafter(1.0, 2.0)), False),
    ((0.0, 0.0, 1.0, math.nextafter(-1.0, -2.0)), False),
    ((math.inf, 0.0, 0.0, 0.5), False),
    ((0.0, -math.inf, 0.0, 0.5), False),
    ((0.0, 0.0, 1.0, math.inf), False),
    ((0.0, 0.0, 1.0, -math.inf), False),
    ((1e200, 0.0, 0.0, 0.5), False),  # the square overflows
]


@pytest.mark.parametrize("row, taken", _HALFSPACE_ROWS)
def test_half_space_row_taken_alike_by_cover_store_and_loader(row, taken):
    """htm.cover, the store's region_new_from_convexes and the loader's
    RegionStore.from_columns take or refuse each row alike."""
    verdicts = []
    for error, call in ((HtmError, lambda: cover([[row]], max_depth=2)),
                        (RegionStoreError, lambda: RegionStore().region_new_from_convexes([[row]], "r", "")),
                        (RegionStoreError, lambda: RegionStore.from_columns(_columns_with_row(row)))):
        try:
            call()
            verdicts.append(True)
        except error:
            verdicts.append(False)
    assert verdicts == [taken] * 3
    assert bool(row_is_halfspace(*row)) == taken


def _vec_with_norm2(n2):
    """(x, y, 0.0) whose |v|^2, summed in UnitVec3's order, is n2: x*x is
    exactly 1 - 64 ulps, and y is stepped until y*y makes up the rest."""
    x = 1.0 - 64 * 2.0**-53
    y = math.sqrt(n2 - x * x)
    for _ in range(32):
        got = x * x + y * y + 0.0 * 0.0
        if got == n2:
            return x, y, 0.0
        y = math.nextafter(y, math.inf if got < n2 else -math.inf)
    raise AssertionError(f"no y gives |v|^2 = {n2!r}")


@pytest.mark.parametrize(
    "n2, taken",
    [
        (1.0 + 16 * _ULP, True),
        (1.0 - 16 * _ULP, True),
        (1.0 + 17 * _ULP, False),
        (1.0 - 17 * _ULP, False),
        (1.0 + 1e-14, False),
        (1.0 + 4e-12, False),
    ],
)
def test_unit_vec_takes_the_rows_row_is_halfspace_takes(n2, taken):
    """A normal UnitVec3 builds is one that htm.cover and the store take."""
    v = _vec_with_norm2(n2)
    assert bool(row_is_halfspace(*v, 0.5)) == taken
    if taken:
        assert UnitVec3(*v).as_tuple() == v
    else:
        with pytest.raises(GeometryError, match="not a unit vector"):
            UnitVec3(*v)


def _columns_with_row(row):
    store = RegionStore()
    store.region_new_from_convexes([[(0.0, 0.0, 1.0, 0.5)]], "r", "")
    cols = store.columns()
    for name, value in zip(("nx", "ny", "nz", "l"), row):
        cols[name] = np.array([value])
    return cols


class TestVecConversion:
    def test_axis_cases(self):
        assert sky_to_vec(SkyPoint(0, 0)) == UnitVec3(1, 0, 0)
        v = sky_to_vec(SkyPoint(0, 90))
        assert v.z == pytest.approx(1.0, abs=1e-15)

    def test_example_against_high_precision(self):
        # independent oracle: 40-digit trigonometric evaluation
        want = mp_vec(30, 20)
        got = sky_to_vec(SkyPoint(30, 20))
        for g, w in zip(got.as_tuple(), want):
            assert abs(g - float(w)) < 1e-15
        assert got.x == pytest.approx(0.8137977, abs=5e-8)
        assert got.y == pytest.approx(0.4698463, abs=5e-8)
        assert got.z == pytest.approx(0.3420201, abs=5e-8)

    def test_pole_convention(self):
        assert vec_to_sky(UnitVec3(0, 0, -1)) == SkyPoint(0, -90)
        assert vec_to_sky(UnitVec3(1, 0, 0)) == SkyPoint(0, 0)

    @pytest.mark.parametrize("dec", [89.99992, -89.99995])
    def test_next_to_a_pole_not_snapped(self, dec):
        # |z| is within 1e-12 of 1 here, up to 8.1e-5 degrees from the pole
        p = vec_to_sky(sky_to_vec(SkyPoint(123.0, dec)))
        assert p.ra == pytest.approx(123.0, abs=1e-6)
        assert p.dec == pytest.approx(dec, abs=1e-8) and abs(p.dec) < 90.0

    def test_inverse_example(self):
        # full-precision inverse is 1e-9-exact; the 7-digit rendering of the
        # same vector can only resolve ~1e-6 deg
        exact = vec_to_sky(sky_to_vec(SkyPoint(30, 20)))
        assert exact.ra == pytest.approx(30.0, abs=1e-9)
        assert exact.dec == pytest.approx(20.0, abs=1e-9)
        p = vec_to_sky(UnitVec3.normalized(0.8137977, 0.4698463, 0.3420201))
        assert p.ra == pytest.approx(30.0, abs=1e-5)
        assert p.dec == pytest.approx(20.0, abs=1e-5)

    def test_round_trip(self, rng):
        for _ in range(500):
            p = SkyPoint(float(rng.uniform(0, 360)), float(rng.uniform(-89.999, 89.999)))
            q = vec_to_sky(sky_to_vec(p))
            assert q.ra == pytest.approx(p.ra, abs=1e-10)
            assert q.dec == pytest.approx(p.dec, abs=1e-10)

    def test_non_unit_rejected(self):
        with pytest.raises(GeometryError):
            UnitVec3(1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "xyz",
        [(math.nan, 0.0, 0.0), (0.0, 0.0, math.nan), (math.inf, 0.0, 0.0), (1.0, -math.inf, 0.0)],
    )
    def test_non_finite_rejected(self, xyz):
        with pytest.raises(GeometryError):
            UnitVec3(*xyz)
        with pytest.raises(GeometryError, match="not finite"):
            UnitVec3.normalized(*xyz)

    @settings(max_examples=400, deadline=None)
    @given(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.integers(-1074, 996))
    @example((1e-200, 0.0, 0.0), 0)  # the square underflows to 0
    @example((1.0, 1.0, 0.0), 900)  # the squares overflow
    @example((3e-160, 4e-160, 0.0), 0)  # the sum is subnormal
    def test_normalized_at_every_scale(self, mantissas, exponent):
        """Scales from the smallest subnormal to ~1e300: the result is unit,
        parallel to the input, and bit-equal to the plain formula wherever
        x^2 + y^2 + z^2 is a normal float."""
        x, y, z = (math.ldexp(m, exponent) for m in mantissas)
        assume(x or y or z)
        u = UnitVec3.normalized(x, y, z)
        assert abs(u.x * u.x + u.y * u.y + u.z * u.z - 1.0) <= 1e-15
        # exact rational arithmetic: |u x v| <= 4e-16 |v| and u . v > 0
        ux, uy, uz, vx, vy, vz = map(Fraction, (u.x, u.y, u.z, x, y, z))
        cross2 = (uy * vz - uz * vy) ** 2 + (uz * vx - ux * vz) ** 2 + (ux * vy - uy * vx) ** 2
        assert cross2 <= Fraction(4e-16) ** 2 * (vx * vx + vy * vy + vz * vz)
        assert ux * vx + uy * vy + uz * vz > 0
        n2 = x * x + y * y + z * z
        if sys.float_info.min <= n2 < math.inf:
            n = math.sqrt(n2)
            assert [c.hex() for c in u.as_tuple()] == [(x / n).hex(), (y / n).hex(), (z / n).hex()]


class TestContainment:
    def test_halfspace_strict_edge(self):
        cap = Convex((HalfSpace(UnitVec3(0, 0, 1), 0.0),))
        assert inside_convex(cap, UnitVec3(0, 0, 1))
        assert not inside_convex(cap, UnitVec3(1, 0, 0))  # dot == l exactly

    def test_halfspace_small_circle(self):
        center = sky_to_vec(SkyPoint(30, 20))
        cap = Convex((circle_to_halfspace(center, 3 / 60),))
        assert inside_convex(cap, sky_to_vec(SkyPoint(30, 20.049)))
        assert not inside_convex(cap, sky_to_vec(SkyPoint(30, 20.051)))

    def test_convex(self):
        assert inside_convex(Convex(()), UnitVec3(0, 0, -1))
        octant = Convex(
            tuple(HalfSpace(UnitVec3(*n), 0.0) for n in ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
        )
        assert inside_convex(octant, sky_to_vec(SkyPoint(45, 45)))
        assert not inside_convex(octant, UnitVec3(0, 0, -1))

    def test_region(self):
        assert not inside_region(Region(()), UnitVec3(0, 0, 1))
        two = Region((Convex((HalfSpace(UnitVec3(0, 0, 1), 0.0),)), Convex(())))
        assert inside_region(two, UnitVec3(0, 0, -1))

    def test_halfspace_agrees_with_distance(self, rng):
        center = sample_sphere(rng, 1)[0]
        radius = 10.0
        cap = Convex((circle_to_halfspace(center, radius),))
        for p in sample_sphere(rng, 10000):
            d = arc_distance_deg(center, p)
            if abs(d - radius) < 1e-9:
                continue
            assert inside_convex(cap, p) == (d < radius)

    def test_region_rows_bit_for_bit(self):
        center = sky_to_vec(SkyPoint(30, 20))
        h = circle_to_halfspace(center, 1.0)
        region = Region((Convex((h, HalfSpace(UnitVec3(0, 0, 1), -1.0))), Convex(())))
        assert region_rows(region) == [[(center.x, center.y, center.z, h.l), (0.0, 0.0, 1.0, -1.0)], []]
        assert region_rows(Region(())) == []


class TestDistance:
    def test_special_values(self):
        a = UnitVec3(1, 0, 0)
        assert arc_distance_deg(a, a) == 0.0
        assert arc_distance_deg(a, UnitVec3(-1, 0, 0)) == pytest.approx(180.0)
        assert arc_distance_deg(a, UnitVec3(0, 1, 0)) == pytest.approx(90.0)

    def test_metric_properties(self, rng):
        pts = sample_sphere(rng, 60)
        for i in range(0, 57, 3):
            a, b, c = pts[i], pts[i + 1], pts[i + 2]
            assert arc_distance_deg(a, b) == arc_distance_deg(b, a)
            assert arc_distance_deg(a, c) <= (
                arc_distance_deg(a, b) + arc_distance_deg(b, c) + 1e-12
            )
            assert arc_distance_deg(a, a) == 0.0

    def test_small_angle_stability(self):
        # constructed tiny rotations: chord formula must stay accurate where
        # acos of the dot product collapses
        base = UnitVec3(1, 0, 0)
        for exp in range(-7, -2):
            s_deg = 10.0 ** exp
            v = rotate_toward(base, s_deg, 0.3)
            truth = float(
                mpmath.degrees(
                    2 * mpmath.asin(
                        mpmath.sqrt(
                            (v.x - 1) ** 2 + mpmath.mpf(v.y) ** 2 + mpmath.mpf(v.z) ** 2
                        ) / 2
                    )
                )
            )
            got = arc_distance_deg(base, v)
            acos_got = math.degrees(math.acos(max(-1.0, min(1.0, v.x))))
            assert abs(got - truth) / truth <= 1e-6
            assert abs(got - truth) < abs(acos_got - truth)


class TestNegate:
    # the complement of a one-row convex is its row with all four
    # components negated, as region NOT builds it
    def test_rule(self):
        row = (0.0, 0.0, 1.0, 0.5)
        [[n]] = complement_convex_lists([row])
        assert n == (-0.0, -0.0, -1.0, -0.5)
        assert complement_convex_lists([n]) == [[row]]

    def test_partition(self, rng):
        h = HalfSpace(sample_sphere(rng, 1)[0], float(rng.uniform(-0.9, 0.9)))
        [[(nx, ny, nz, l)]] = complement_convex_lists(region_rows(Region((Convex((h,)),)))[0])
        n = Convex((HalfSpace(UnitVec3(nx, ny, nz), l),))
        for p in sample_sphere(rng, 2000):
            if abs(p.dot(h.normal) - h.l) <= 1e-9:
                continue
            assert inside_convex(Convex((h,)), p) != inside_convex(n, p)


class TestCircleToHalfspace:
    def test_hemisphere(self):
        h = circle_to_halfspace(UnitVec3(0, 0, 1), 90.0)
        assert h.l == pytest.approx(0.0, abs=1e-15)

    def test_three_arcmin(self):
        h = circle_to_halfspace(UnitVec3(1, 0, 0), 3 / 60)
        assert h.l == pytest.approx(math.cos(math.radians(0.05)), abs=1e-15)

    def test_radius_out_of_range(self):
        with pytest.raises(GeometryError):
            circle_to_halfspace(UnitVec3(0, 0, 1), 181.0)


class TestUnitNormPreservation:
    def test_operations_preserve_norm(self, rng):
        for p in sample_sphere(rng, 200):
            for v in (p, p.negated()):
                n2 = v.x**2 + v.y**2 + v.z**2
                assert abs(n2 - 1.0) <= 4e-12


class TestCapRelations:
    def test_containment_and_disjointness(self):
        def row(center, radius):
            h = circle_to_halfspace(center, radius)
            return (*h.normal.as_tuple(), h.l)

        big = row(UnitVec3(0, 0, 1), 40.0)
        small = row(sky_to_vec(SkyPoint(0, 80)), 10.0)
        assert _contains_cap(big, small)
        assert not _contains_cap(small, big)
        far = row(UnitVec3(0, 0, -1), 20.0)
        assert _disjoint_caps(small, far)
        assert not _disjoint_caps(big, small)


def mp_plane_pair_points(h1, h2):
    """_plane_pair_points of two (nx, ny, nz, l) rows at 50 digits, for the
    normals' exact directions."""
    with mpmath.workdps(50):
        def unit(v):
            v = [mpmath.mpf(c) for c in v[:3]]
            n = mpmath.sqrt(sum(c * c for c in v))
            return [c / n for c in v]

        n1, n2 = unit(h1), unit(h2)
        d = sum(a * b for a, b in zip(n1, n2))
        alpha = (h1[3] - h2[3] * d) / (1 - d * d)
        beta = (h2[3] - h1[3] * d) / (1 - d * d)
        q = [alpha * a + beta * b for a, b in zip(n1, n2)]
        c = [n1[1] * n2[2] - n1[2] * n2[1], n1[2] * n2[0] - n1[0] * n2[2], n1[0] * n2[1] - n1[1] * n2[0]]
        g = mpmath.sqrt((1 - sum(x * x for x in q)) / sum(x * x for x in c))
        return [[float(a + s * g * b) for a, b in zip(q, c)] for s in (1, -1)]


class TestPlanePairPoints:
    # two 1-arcmin circles at the pole, 0.00195 degrees apart: their
    # normals' 1 - d^2 is 1.2e-9, and the form through d put the lens
    # vertices at y = +-1.70e-5 instead of +-2.904e-4
    POLE_LENS = (
        (6.123233995736766e-17, 0.0, 1.0, 0.9999999576920253),
        (3.4088461946422855e-05, 0.0, 0.9999999994189884, 0.9999999576920253),
    )

    def test_pole_lens_vertices(self):
        got = _plane_pair_points(*self.POLE_LENS)
        assert [p[1] for p in got] == pytest.approx([2.904e-4, -2.904e-4], rel=1e-3)
        for p, w in zip(got, mp_plane_pair_points(*self.POLE_LENS)):
            assert max(abs(x - y) for x, y in zip(p, w)) < 1e-13

    # two near-opposite planes: z = 0, and the plane of the normal 1e-5
    # degrees from the south pole with l half its sine. 1 + d cancelled in
    # e (2 - e), e = |n1 - n2|^2 / 2, and put the vertices at
    # y = +-0.85997 instead of +-0.86603
    SLIVER = (
        (6.1e-17, 0.0, 1.0, 0.0),
        (1.7453292528463437e-07, 0.0, -0.9999999999999848, 8.726646259971605e-08),
    )

    def test_near_antiparallel_vertices(self):
        got = _plane_pair_points(*self.SLIVER)
        assert len(got) == 2
        # 1 - d^2 is 3e-14, so the planes' rounding moves q by ~1e-9 along z
        for p, w in zip(got, mp_plane_pair_points(*self.SLIVER)):
            assert max(abs(x - y) for x, y in zip(p, w)) < 1e-9, (p, w)

    @pytest.mark.parametrize("ra, dec", [(0.0, 90.0), (0.0, 0.0), (359.9999999, -45.0), (123.4, -89.99)])
    @pytest.mark.parametrize("radius", [1 / 60, 1.0, 20.0])
    @pytest.mark.parametrize("part", [1e-3, 0.1, 0.5, 1.5])
    def test_vertices_match_mpmath(self, ra, dec, radius, part):
        # two circles whose centres lie part of the first's radius apart,
        # of one radius or the second larger by half that distance, so
        # that they cross: each vertex within 1e-12 of the 50-digit one
        a = sky_to_vec(SkyPoint(ra, dec))
        b = rotate_toward(a, radius * part, 1.0)
        for r2 in (radius, radius * (1.0 + part / 2.0)):
            h1, h2 = (
                (*h.normal.as_tuple(), h.l) for h in (circle_to_halfspace(a, radius), circle_to_halfspace(b, r2))
            )
            got = _plane_pair_points(h1, h2)
            assert len(got) == 2
            for p, w in zip(got, mp_plane_pair_points(h1, h2)):
                assert max(abs(x - y) for x, y in zip(p, w)) < 1e-12, (p, w)


class TestEnclosingCap:
    def test_cap_covers(self, rng):
        pts = [p.as_tuple() for p in sample_sphere(rng, 40)]
        center, radius = min_enclosing_cap(pts)
        assert all(arc_deg(center, p) <= radius + 1e-9 for p in pts)

    def test_tight_for_clustered(self, rng):
        center = sample_sphere(rng, 1)[0]
        pts = [rotate_toward(center, 5.0, float(a)).as_tuple() for a in rng.uniform(0, 6.28, 30)]
        c, r = min_enclosing_cap(pts)
        assert r <= 5.0 + 1e-6
        assert arc_deg(c, center.as_tuple()) < 1.0

    def test_hemisphere_witness_closed(self):
        pts = [UnitVec3(1, 0, 0), UnitVec3(0, 0, 1), UnitVec3(-1, 0, 0)]
        w = closed_hemisphere_witness(pts)
        assert w is not None
        assert min(w.dot(p) for p in pts) >= -1e-12

    def test_hemisphere_witness_none_when_spanning(self, rng):
        pts = [UnitVec3(1, 0, 0), UnitVec3(-1, 0, 0), UnitVec3(0, 1, 0), UnitVec3(0, -1, 0), UnitVec3(0, 0, 1), UnitVec3(0, 0, -1)]
        assert closed_hemisphere_witness(pts) is None
