import math

import mpmath
import numpy as np
import pytest

from skyindex.geom import (
    ArcAngle,
    Convex,
    GeometryError,
    HalfSpace,
    Region,
    SkyPoint,
    UnitVec3,
    arc_distance_deg,
    as_degrees,
    buffer_halfspace,
    buffer_region,
    circle_to_halfspace,
    closed_hemisphere_witness,
    inside_convex,
    inside_halfspace,
    inside_region,
    min_enclosing_cap,
    negate_halfspace,
    sky_to_vec,
    vec_to_sky,
)
from skyindex.algebra import _contains_cap, _disjoint_caps

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


class TestAsDegrees:
    def test_numbers_and_arc_angles(self):
        assert as_degrees(2) == 2.0
        assert as_degrees(ArcAngle.from_arcmin(30)) == 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(GeometryError):
            as_degrees(bad)


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
        with pytest.raises(GeometryError):
            UnitVec3.normalized(*xyz)


class TestContainment:
    def test_halfspace_strict_edge(self):
        h = HalfSpace(UnitVec3(0, 0, 1), 0.0)
        assert inside_halfspace(h, UnitVec3(0, 0, 1))
        assert not inside_halfspace(h, UnitVec3(1, 0, 0))  # dot == l exactly

    def test_halfspace_small_circle(self):
        center = sky_to_vec(SkyPoint(30, 20))
        h = circle_to_halfspace(center, ArcAngle.from_arcmin(3))
        assert inside_halfspace(h, sky_to_vec(SkyPoint(30, 20.049)))
        assert not inside_halfspace(h, sky_to_vec(SkyPoint(30, 20.051)))

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
        h = circle_to_halfspace(center, radius)
        for p in sample_sphere(rng, 10000):
            d = arc_distance_deg(center, p)
            if abs(d - radius) < 1e-9:
                continue
            assert inside_halfspace(h, p) == (d < radius)


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


class TestBuffer:
    def test_formula(self):
        h = HalfSpace(UnitVec3(0, 0, 1), math.cos(math.radians(3 / 60)))
        buffered = buffer_halfspace(h, ArcAngle.from_arcmin(2))
        assert buffered.l == pytest.approx(math.cos(math.radians(5 / 60)), abs=1e-15)

    def test_zero_is_identity(self):
        h = HalfSpace(UnitVec3(0, 0, 1), 0.25)
        assert buffer_halfspace(h, 0.0).l == pytest.approx(h.l, abs=1e-15)

    def test_clamp_to_full_sphere(self):
        h = HalfSpace(UnitVec3(0, 0, 1), math.cos(math.radians(179)))
        assert buffer_halfspace(h, 2.0).l == -1.0

    def test_region_monotone(self, rng):
        region = Region(
            (
                Convex(
                    (
                        HalfSpace(UnitVec3(0, 0, 1), 0.0),
                        HalfSpace(UnitVec3(1, 0, 0), 0.0),
                    )
                ),
            )
        )
        grown = buffer_region(region, 1.0)
        inside = 0
        for p in sample_sphere(rng, 1000):
            if inside_region(region, p):
                inside += 1
                assert inside_region(grown, p)
        assert inside > 0

    def test_empty_region(self):
        assert buffer_region(Region(()), 1.0) == Region(())

    def test_single_circle_grows_to_r_plus_theta(self):
        center = sky_to_vec(SkyPoint(30, 20))
        region = Region((Convex((circle_to_halfspace(center, 0.5),)),))
        grown = buffer_region(region, 0.25)
        h = grown.convexes[0].constraints[0]
        assert h.normal == center
        assert h.l == pytest.approx(math.cos(math.radians(0.75)), abs=1e-15)


class TestNegate:
    def test_rule(self):
        h = HalfSpace(UnitVec3(0, 0, 1), 0.0)
        n = negate_halfspace(h)
        assert n.normal == UnitVec3(0, 0, -1)
        assert n.l == 0.0
        assert negate_halfspace(n) == h

    def test_partition(self, rng):
        h = HalfSpace(sample_sphere(rng, 1)[0], float(rng.uniform(-0.9, 0.9)))
        n = negate_halfspace(h)
        for p in sample_sphere(rng, 2000):
            if abs(p.dot(h.normal) - h.l) <= 1e-9:
                continue
            assert inside_halfspace(h, p) != inside_halfspace(n, p)


class TestCircleToHalfspace:
    def test_hemisphere(self):
        h = circle_to_halfspace(UnitVec3(0, 0, 1), 90.0)
        assert h.l == pytest.approx(0.0, abs=1e-15)

    def test_three_arcmin(self):
        h = circle_to_halfspace(UnitVec3(1, 0, 0), ArcAngle.from_arcmin(3))
        assert h.l == pytest.approx(math.cos(math.radians(0.05)), abs=1e-15)

    def test_radius_out_of_range(self):
        with pytest.raises(GeometryError):
            circle_to_halfspace(UnitVec3(0, 0, 1), 181.0)


class TestUnitNormPreservation:
    def test_operations_preserve_norm(self, rng):
        for p in sample_sphere(rng, 200):
            for v in (p, negate_halfspace(HalfSpace(p, 0.1)).normal):
                n2 = v.x**2 + v.y**2 + v.z**2
                assert abs(n2 - 1.0) <= 4e-12


class TestCapRelations:
    def test_containment_and_disjointness(self):
        big = circle_to_halfspace(UnitVec3(0, 0, 1), 40.0)
        small = circle_to_halfspace(sky_to_vec(SkyPoint(0, 80)), 10.0)
        assert _contains_cap(big, small)
        assert not _contains_cap(small, big)
        far = circle_to_halfspace(UnitVec3(0, 0, -1), 20.0)
        assert _disjoint_caps(small, far)
        assert not _disjoint_caps(big, small)


class TestEnclosingCap:
    def test_cap_covers(self, rng):
        pts = sample_sphere(rng, 40)
        center, radius = min_enclosing_cap(pts)
        assert all(arc_distance_deg(center, p) <= radius + 1e-9 for p in pts)

    def test_tight_for_clustered(self, rng):
        center = sample_sphere(rng, 1)[0]
        pts = [rotate_toward(center, 5.0, float(a)) for a in rng.uniform(0, 6.28, 30)]
        c, r = min_enclosing_cap(pts)
        assert r <= 5.0 + 1e-6
        assert arc_distance_deg(c, center) < 1.0

    def test_hemisphere_witness_closed(self):
        pts = [UnitVec3(1, 0, 0), UnitVec3(0, 0, 1), UnitVec3(-1, 0, 0)]
        w = closed_hemisphere_witness(pts)
        assert w is not None
        assert min(w.dot(p) for p in pts) >= -1e-12

    def test_hemisphere_witness_none_when_spanning(self, rng):
        pts = [UnitVec3(1, 0, 0), UnitVec3(-1, 0, 0), UnitVec3(0, 1, 0), UnitVec3(0, -1, 0), UnitVec3(0, 0, 1), UnitVec3(0, 0, -1)]
        assert closed_hemisphere_witness(pts) is None
