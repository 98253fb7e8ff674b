import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyindex.geom import (
    Convex,
    HalfSpace,
    Region,
    SkyPoint,
    UnitVec3,
    circle_to_halfspace,
    inside_region,
    region_rows,
    sky_to_vec,
)
from skyindex.regionspec import (
    RegionCompileError,
    RegionSyntaxError,
    compile_region_string,
    serialize_region,
)

from conftest import membership_with_guard, sample_sphere


def one_convex(*halves) -> Region:
    return Region((Convex(halves),))


class TestParse:
    def test_paper_circle(self):
        region = compile_region_string("CIRCLE J2000 30 20 3")
        assert region == one_convex(circle_to_halfspace(sky_to_vec(SkyPoint(30, 20)), 0.05))

    def test_paper_poly(self):
        # the equator-pole-equator triangle: its vertices share the plane
        # y = 0, and its antipodal edge (180 0 to 0 0) takes the normal
        # toward the vertex centroid
        (rows,) = region_rows(compile_region_string("POLY J2000 0 0 0 90 180 0"))
        want = [(0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]
        assert rows == [pytest.approx(w, abs=1e-15) for w in want]

    def test_paper_cartesian_circle(self):
        region = compile_region_string("CIRCLE CARTESIAN 1 0 0 3")
        assert region == one_convex(circle_to_halfspace(UnitVec3(1.0, 0.0, 0.0), 0.05))

    def test_case_and_whitespace_insensitive(self):
        region = compile_region_string("  circle\tj2000\n30 20 3 ")
        assert region == compile_region_string("CIRCLE J2000 30 20 3")

    def test_number_forms(self):
        region = compile_region_string("CIRCLE J2000 +3.5e1 -2.0E+1 .5")
        assert region == one_convex(circle_to_halfspace(sky_to_vec(SkyPoint(35, -20)), 0.5 / 60.0))

    def test_rect(self):
        region = compile_region_string("RECT J2000 10 -5 20 5")
        r10, r20 = math.radians(10.0), math.radians(20.0)
        assert region == one_convex(
            HalfSpace(UnitVec3(0.0, 0.0, 1.0), math.sin(math.radians(-5.0))),
            HalfSpace(UnitVec3(0.0, 0.0, -1.0), -math.sin(math.radians(5.0))),
            HalfSpace(UnitVec3.normalized(-math.sin(r10), math.cos(r10), 0.0), 0.0),
            HalfSpace(UnitVec3.normalized(math.sin(r20), -math.cos(r20), 0.0), 0.0),
        )

    def test_convex_and_region(self):
        region = compile_region_string("REGION CONVEX 0 0 1 0 CONVEX 1 0 0 0.5 0 1 0 0")
        assert region == Region(
            (
                Convex((HalfSpace(UnitVec3(0.0, 0.0, 1.0), 0.0),)),
                Convex((HalfSpace(UnitVec3(1.0, 0.0, 0.0), 0.5), HalfSpace(UnitVec3(0.0, 1.0, 0.0), 0.0))),
            )
        )

    def test_empty_region(self):
        assert compile_region_string("REGION") == Region(())

    def test_error_offset_and_expectation(self):
        with pytest.raises(RegionSyntaxError) as err:
            compile_region_string("CIRCLE J2000 30 20")
        assert err.value.offset == len("CIRCLE J2000 30 20")
        assert "3 numbers" in str(err.value)

    def test_poly_arity(self):
        with pytest.raises(RegionSyntaxError) as err:
            compile_region_string("POLY J2000 0 0 0 90")
        assert "at least 3" in str(err.value)

    def test_odd_number_count(self):
        with pytest.raises(RegionSyntaxError):
            compile_region_string("POLY J2000 0 0 0 90 180")

    def test_unknown_frame(self):
        with pytest.raises(RegionSyntaxError) as err:
            compile_region_string("CIRCLE GALACTIC 0 0 3")
        assert "frame" in str(err.value)
        assert err.value.offset == len("CIRCLE ")

    def test_rect_j2000_only(self):
        with pytest.raises(RegionSyntaxError):
            compile_region_string("RECT CARTESIAN 0 0 1 1")

    def test_trailing_garbage(self):
        with pytest.raises(RegionSyntaxError):
            compile_region_string("CIRCLE J2000 30 20 3 BANANA")

    def test_syntax_error_before_compile_error(self):
        # dec 100 and a zero normal would each fail to compile
        with pytest.raises(RegionSyntaxError, match="end of input"):
            compile_region_string("CIRCLE J2000 30 100 3 BANANA")
        with pytest.raises(RegionSyntaxError, match="multiple of 4"):
            compile_region_string("REGION CONVEX 0 0 0 1 CONVEX 1 0")

    def test_totality_fuzz(self, rng):
        # arbitrary byte soup must produce a structured error, never a crash
        alphabet = list("ABCXYZ regionconvexpoly0123456789.+-eE\t\n(){}#")
        for _ in range(400):
            n = int(rng.integers(0, 40))
            s = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), n))
            try:
                compile_region_string(s)
            except (RegionSyntaxError, RegionCompileError):
                pass


class TestCompile:
    def test_circle_constraint(self):
        region = compile_region_string("CIRCLE J2000 30 20 3")
        assert len(region.convexes) == 1
        assert len(region.convexes[0].constraints) == 1
        h = region.convexes[0].constraints[0]
        assert h.l == pytest.approx(math.cos(math.radians(0.05)), abs=1e-15)
        assert inside_region(region, sky_to_vec(SkyPoint(30, 20)))

    def test_octant_poly(self):
        region = compile_region_string("POLY J2000 0 0 0 90 180 0")
        convex = region.convexes[0]
        assert len(convex.constraints) == 3
        assert all(h.l == 0.0 for h in convex.constraints)
        assert inside_region(region, sky_to_vec(SkyPoint(45, 45)))
        assert not inside_region(region, sky_to_vec(SkyPoint(270, -45)))

    def test_convex_spec_directly(self):
        region = compile_region_string("CONVEX 0 0 1 0")
        assert inside_region(region, UnitVec3(0, 0, 1))
        assert not inside_region(region, UnitVec3(0, 0, -1))

    def test_convex_normalizes_normal_keeps_d(self):
        region = compile_region_string("CONVEX 0 0 5 0.25")
        h = region.convexes[0].constraints[0]
        assert h.normal == UnitVec3(0, 0, 1)
        assert h.l == 0.25

    def test_rect_membership(self):
        region = compile_region_string("RECT J2000 10 -5 20 5")
        assert inside_region(region, sky_to_vec(SkyPoint(15, 0)))
        assert not inside_region(region, sky_to_vec(SkyPoint(25, 0)))
        assert not inside_region(region, sky_to_vec(SkyPoint(15, 6)))
        assert not inside_region(region, sky_to_vec(SkyPoint(355, 0)))

    def test_rect_corner_autosort(self):
        a = compile_region_string("RECT J2000 10 -5 20 5")
        b = compile_region_string("RECT J2000 20 5 10 -5")
        assert a == b

    def test_rect_too_wide(self):
        with pytest.raises(RegionCompileError):
            compile_region_string("RECT J2000 0 -5 180 5")

    def test_poly_reversal_same_membership(self, rng):
        fwd = compile_region_string("POLY J2000 10 10 50 10 50 40 10 40")
        rev = compile_region_string("POLY J2000 10 40 50 40 50 10 10 10")
        for p in sample_sphere(rng, 1000):
            a = membership_with_guard(fwd, p)
            b = membership_with_guard(rev, p)
            if a is None or b is None:
                continue
            assert a == b

    def test_poly_self_intersecting_rejected(self):
        # bowtie ordering
        with pytest.raises(RegionCompileError):
            compile_region_string("POLY J2000 10 10 50 40 50 10 10 40")

    def test_poly_duplicate_vertex_rejected(self):
        with pytest.raises(RegionCompileError):
            compile_region_string("POLY J2000 10 10 10 10 50 40")

    def test_poly_over_hemisphere_rejected(self):
        with pytest.raises(RegionCompileError):
            compile_region_string(
                "POLY CARTESIAN 1 0 0 -1 0.01 0 0 1 0.01 0 -1 0.01 0 0 1"
            )

    def test_chull_contains_inputs(self, rng):
        pts = sample_sphere(rng, 1)
        center = pts[0]
        from conftest import sample_cap

        cloud = sample_cap(rng, center, 30.0, 10)
        body = " ".join(f"{p.x!r} {p.y!r} {p.z!r}" for p in cloud)
        region = compile_region_string("CHULL CARTESIAN " + body)
        for p in cloud:
            for h in region.convexes[0].constraints:
                assert p.dot(h.normal) >= -1e-9

    def test_chull_over_hemisphere_rejected(self):
        with pytest.raises(RegionCompileError):
            compile_region_string(
                "CHULL CARTESIAN 1 0 0 -1 0 0 0 1 0 0 -1 0 0 0 1 0 0 -1"
            )

    def test_bad_convex_d(self):
        with pytest.raises(RegionCompileError):
            compile_region_string("CONVEX 0 0 1 1.5")

    def test_zero_normal(self):
        with pytest.raises(RegionCompileError):
            compile_region_string("CONVEX 0 0 0 0.5")

    @pytest.mark.parametrize(
        "spec",
        [
            "CIRCLE J2000 0 0 1e999",
            "CIRCLE J2000 0 0 12000",
            "CIRCLE CARTESIAN 1 0 0 1e999",
            "CIRCLE J2000 0 0 -1",
        ],
    )
    def test_circle_radius_out_of_range(self, spec):
        with pytest.raises(RegionCompileError):
            compile_region_string(spec)

    def test_circle_radius_half_turn_compiles(self):
        h = compile_region_string("CIRCLE J2000 0 0 10800").convexes[0].constraints[0]
        assert h.l == -1.0

    @pytest.mark.parametrize("arcmin", [0.0, 1e-9, 0.5, 3.0, 7.3, 59.99, 60.0, 1234.5, 5400.0, 10799.0])
    @pytest.mark.parametrize("frame", ["J2000 30 20", "CARTESIAN 0.3 -0.2 0.9"])
    def test_circle_cut_is_cos_of_arcmin_over_60(self, frame, arcmin):
        h = compile_region_string(f"CIRCLE {frame} {arcmin!r}").convexes[0].constraints[0]
        assert h.l == math.cos(math.radians(arcmin / 60.0))


_NUMBER_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e999", "-1e999", "0", "-0", "90", "-90", "180", "360", "10800", "12000"]),
)


@settings(max_examples=400, deadline=None)
@given(
    keyword=st.sampled_from(["CIRCLE", "RECT", "POLY"]),
    frame=st.sampled_from(["J2000", "CARTESIAN"]),
    numbers=st.lists(_NUMBER_TEXTS, min_size=0, max_size=10),
)
def test_keyword_with_arbitrary_numbers_fails_only_by_grammar_errors(keyword, frame, numbers):
    # out-of-range and overflowing literals are the grammar's to reject:
    # a spec either compiles or fails with the grammar's own error types
    text = " ".join([keyword, frame, *numbers])
    try:
        compile_region_string(text)
    except (RegionSyntaxError, RegionCompileError):
        pass


# One of each keyword in each frame it takes, then inputs that fail; the
# first two bad ones hold a syntax fault and a compile fault both.
_PINNED_SHAPES = [
    "CIRCLE J2000 30 20 3",
    "CIRCLE CARTESIAN 0.3 -0.2 0.9 7.5",
    "RECT J2000 10 -5 20 5",
    "POLY J2000 0 0 0 90 180 0",
    "POLY J2000 10 10 50 10 50 40 10 40",
    "POLY CARTESIAN 1 0 0 0 1 0 0 0 1",
    "CHULL J2000 358 -3 3 -2 2 4 357 2",
    "CHULL CARTESIAN 1 0 0 0 1 0 0 0 1 0.5 0.5 0.5",
    "CONVEX 0 0 5 0.25",
    "REGION",
    "REGION CONVEX 0 0 1 0",
    "REGION CONVEX 0 0 1 0 CONVEX 1 0 0 0.5 0 1 0 0",
    "CONVEX 1e200 1e200 0 0.5",
    "CIRCLE J2000 0 0 0",
    "CONVEX 0 0 1 1",
]
_PINNED_BAD = [
    "CIRCLE J2000 30 100 3 BANANA",
    "REGION CONVEX 0 0 0 1 CONVEX 1 0",
    "",
    "CIRCLE",
    "FOO 1 2",
    "CIRCLE GALACTIC 0 0 3",
    "CIRCLE J2000 30 20",
    "CIRCLE J2000 30 20 3 #",
    "RECT CARTESIAN 0 0 1 1",
    "POLY J2000 0 0 0 90",
    "POLY J2000 0 0 0 90 180",
    "CONVEX",
    "CONVEX 0 0 1 1.5",
    "CONVEX 0 0 0 0.5",
    "RECT J2000 0 -5 180 5",
    "RECT J2000 0 -95 10 5",
    "POLY J2000 10 10 50 40 50 10 10 40",
    "POLY J2000 10 10 10 10 50 40",
    "CHULL CARTESIAN 1 0 0 -1 0 0 0 1 0 0 -1 0 0 0 1 0 0 -1",
    "CIRCLE J2000 0 0 1e999",
    "CIRCLE CARTESIAN 0 0 0 3",
]
# SHA-256 over the corpus and the shapes above, each as its serialized
# region or its error's (type, message)
_PINNED_COMPILE_DIGEST = "91b3b4a2823c12fcc6551f8b08beb6265a8fa0419373d5b9a6851ba39579967b"


def test_compile_output_pinned():
    from conftest import generate_corpus_specs

    h = hashlib.sha256()
    for text in generate_corpus_specs(seed=35, count=600) + _PINNED_SHAPES + _PINNED_BAD:
        try:
            out = serialize_region(compile_region_string(text))
        except (RegionSyntaxError, RegionCompileError) as err:
            out = (type(err).__name__, str(err))
        h.update(repr(out).encode() + b"\n")
    assert h.hexdigest() == _PINNED_COMPILE_DIGEST


class TestSerialize:
    def test_single_convex(self):
        region = compile_region_string("CONVEX 0 0 1 0")
        assert serialize_region(region) == "REGION CONVEX 0 0 1 0"

    def test_empty_region(self):
        assert serialize_region(Region(())) == "REGION"
        assert compile_region_string("REGION").convexes == ()

    def test_whole_sphere_convex_membership_exact(self, rng):
        whole = Region((Convex(()),))
        back = compile_region_string(serialize_region(whole))
        for p in sample_sphere(rng, 200):
            assert inside_region(back, p)

    def test_round_trip_constraints_identical(self):
        region = compile_region_string("CIRCLE J2000 30 20 3")
        back = compile_region_string(serialize_region(region))
        assert len(back.convexes) == 1
        ha = region.convexes[0].constraints[0]
        hb = back.convexes[0].constraints[0]
        assert ha.normal.as_tuple() == pytest.approx(hb.normal.as_tuple(), abs=1e-12)
        assert ha.l == pytest.approx(hb.l, abs=1e-12)

    def test_corpus_round_trip_membership(self, corpus_regions, rng):
        pts = sample_sphere(rng, 1000)
        for text, region in corpus_regions:
            back = compile_region_string(serialize_region(region))
            for p in pts:
                a = membership_with_guard(region, p)
                b = membership_with_guard(back, p)
                if a is None or b is None:
                    continue
                assert a == b, f"round trip changed membership for {text!r}"
