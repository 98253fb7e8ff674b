import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from skyindex import htm
from skyindex.geom import (
    Convex,
    Region,
    SkyPoint,
    UnitVec3,
    arc_distance_deg,
    circle_to_halfspace,
    region_rows,
    sky_to_vec,
)
from skyindex.htm import (
    HtmError,
    INSIDE,
    OUTSIDE,
    PARTIAL,
    children_ids,
    classify_trixel,
    cover,
    id_depth,
    ids_for_points,
    parent,
    point_to_id,
    prefix_contains,
    trixel_area_sr,
    trixel_max_edge_deg,
)

from conftest import edge_ra, generate_corpus_specs, membership_with_guard, sample_cap, sample_sphere
from skyindex.pyramid import bounding_circle


def centroid_of(corners) -> UnitVec3:
    a, b, c = corners
    return UnitVec3.normalized(a[0] + b[0] + c[0], a[1] + b[1] + c[1], a[2] + b[2] + c[2])


def cap_row(center: UnitVec3, radius: float):
    """The row (nx, ny, nz, l) of a circle_to_halfspace cap."""
    h = circle_to_halfspace(center, radius)
    return (*h.normal.as_tuple(), h.l)


class TestBaseTrixels:
    def test_partition_area(self):
        total = sum(trixel_area_sr(t) for t in htm.FACE_CORNERS)
        assert total == pytest.approx(4 * math.pi, abs=1e-9)

    def test_each_face_is_an_octant(self):
        for t in htm.FACE_CORNERS:
            assert trixel_area_sr(t) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_north_pole_shared_by_northern_faces(self):
        npole = (0.0, 0.0, 1.0)
        count = sum(
            1 for t in htm.FACE_CORNERS if npole in t
        )
        assert count == 4


class TestSubdivide:
    def test_child_areas_sum(self):
        for t in htm.FACE_CORNERS:
            kids = htm._children(t)
            assert sum(trixel_area_sr(k) for k in kids) == pytest.approx(
                trixel_area_sr(t), rel=1e-9
            )

    def test_center_child_corners_are_midpoints(self):
        parents = htm.FACE_CORNERS[0]
        center = htm._children(parents)[3]
        for corner in center:
            dots = [
                abs(
                    corner[0] * 0.5 * (a[0] + b[0])
                    + corner[1] * 0.5 * (a[1] + b[1])
                    + corner[2] * 0.5 * (a[2] + b[2])
                )
                for a in parents
                for b in parents
                if a != b
            ]
            assert any(abs(1 - d / math.sqrt(sum((0.5*(a[i]+b[i]))**2 for i in range(3)))) < 1e-12
                       for d, (a, b) in zip(dots, [(a, b) for a in parents for b in parents if a != b]))

    def test_corner_child_keeps_parent_corner(self):
        t = htm.FACE_CORNERS[2]
        kids = htm._children(t)
        assert kids[0][0] == t[0]
        assert kids[1][0] == t[1]
        assert kids[2][0] == t[2]

    @pytest.mark.parametrize("depth", range(5))
    def test_trixel_corners_in_id_order(self, depth):
        # column k holds the corners of id (8 << 2 depth) + k, bit for bit
        corners = htm.trixel_corners(depth)
        assert corners.shape == (3, 3, 8 << 2 * depth)
        for k in range(corners.shape[2]):
            assert tuple(map(tuple, corners[:, :, k].tolist())) == htm._corners_of_id((8 << 2 * depth) + k)


class TestPointToId:
    def test_depth_zero_northern(self):
        p = UnitVec3.normalized(0.5, 0.5, 0.7071067811865476)
        hid = point_to_id(p, 0)
        assert 8 <= hid <= 11

    def test_prefix_relation_between_depths(self, rng):
        for p in sample_sphere(rng, 300):
            assert point_to_id(p, 10) >> (2 * 5) == point_to_id(p, 5)

    def test_depth20_edge_length_band(self, rng):
        for p in sample_sphere(rng, 50):
            t = htm._corners_of_id(point_to_id(p, 20))
            edge = trixel_max_edge_deg(t) * 3600
            assert 0.15 <= edge <= 0.7

    def test_depth_out_of_range(self):
        with pytest.raises(HtmError):
            point_to_id(UnitVec3(0, 0, 1), 31)

    def test_containment_of_result(self, rng):
        for p in sample_sphere(rng, 500):
            depth = int(rng.integers(0, 13))
            t = htm._corners_of_id(point_to_id(p, depth))
            assert htm._contains(t, p.as_tuple())

    def test_round_trip_via_centroid(self, rng):
        for p in sample_sphere(rng, 500):
            depth = int(rng.integers(0, 13))
            hid = point_to_id(p, depth)
            centroid = centroid_of(htm._corners_of_id(hid))
            assert point_to_id(centroid, depth) == hid

    def test_vectorized_matches_scalar(self, rng):
        pts = sample_sphere(rng, 400)
        xs = np.array([p.x for p in pts])
        ys = np.array([p.y for p in pts])
        zs = np.array([p.z for p in pts])
        got = ids_for_points(xs, ys, zs, 11)
        for p, hid in zip(pts, got):
            assert point_to_id(p, 11) == int(hid)


class TestIdStructure:
    def test_depth_and_parent(self):
        assert id_depth(8) == 0
        assert id_depth(15) == 0
        assert id_depth(32) == 1
        kid = children_ids(8)[2]
        assert kid == 34
        assert parent(kid) == 8

    def test_malformed_ids(self):
        for bad in (0, 5, 7, 16, 64 + 3):  # 16 has odd digit structure
            with pytest.raises(HtmError):
                id_depth(bad)

    def test_face_ids_valid(self):
        for hid in range(8, 16):
            assert trixel_area_sr(htm._corners_of_id(hid)) > 0

    def test_face_id_decodes_to_base_face(self):
        for f in range(8):
            assert htm._corners_of_id(8 + f) == htm.FACE_CORNERS[f]

    def test_too_deep_rejected(self):
        with pytest.raises(HtmError):
            id_depth(1 << 65)


class TestPrefixContains:
    def test_self(self):
        assert prefix_contains(8, 8)

    def test_parent_children(self):
        for kid in children_ids(9):
            assert prefix_contains(9, kid)
            assert not prefix_contains(kid, 9)

    def test_geometric_agreement(self, rng):
        # prefix containment iff all corners of b inside-or-on a
        for _ in range(2000):
            p = sample_sphere(rng, 1)[0]
            da = int(rng.integers(0, 9))
            db = int(rng.integers(0, 9))
            a = point_to_id(p, da)
            if rng.uniform() < 0.5:
                q = sample_sphere(rng, 1)[0]
                b = point_to_id(q, db)
            else:
                b = point_to_id(p, db)
            ta = htm._corners_of_id(a)
            tb = htm._corners_of_id(b)
            geo = all(
                htm._contains(ta, c, eps=-1e-9)
                for c in tb
            )
            assert prefix_contains(a, b) == geo, (a, b)


class TestClassify:
    def test_hemisphere_cases(self):
        hemi = [(0.0, 0.0, 1.0, 0.0)]
        northern = htm._corners_of_id(children_ids(8)[2])  # corner child at the pole
        southern = htm._corners_of_id(children_ids(12)[2])
        assert classify_trixel(northern, hemi) == INSIDE
        assert classify_trixel(southern, hemi) == OUTSIDE
        assert classify_trixel(htm._corners_of_id(8), hemi) == PARTIAL

    def test_small_hole_detected(self):
        # cap complement whose excluded circle is strictly inside a face
        t = htm._corners_of_id(8)
        hole = [(*centroid_of(t).negated().as_tuple(), -math.cos(math.radians(1.0)))]
        # all corners satisfy the constraint but the excluded cap is inside
        assert classify_trixel(t, hole) == PARTIAL

    def test_conservative_soundness(self, rng):
        for _ in range(200):
            center = sample_sphere(rng, 1)[0]
            radius = float(rng.uniform(1.0, 120.0))
            convex = [(*center.as_tuple(), math.cos(math.radians(radius)))]
            p = sample_sphere(rng, 1)[0]
            t = htm._corners_of_id(point_to_id(p, int(rng.integers(0, 7))))
            verdict = classify_trixel(t, convex)
            samples = sample_cap(rng, center, radius, 20)
            if verdict == OUTSIDE:
                for s in samples:
                    assert not htm._contains(t, s.as_tuple(), eps=-1e-9) or (
                        arc_distance_deg(center, s) >= radius - 1e-7
                    )


class TestCover:
    def test_whole_sphere(self):
        assert cover([[]]) == [(8, 15)]  # one convex of no rows

    def test_empty(self):
        assert cover([]) == []

    def test_budget_respected(self, corpus_regions):
        for text, region in corpus_regions:
            ranges = cover(region_rows(region), max_ranges=20, max_depth=20)
            assert len(ranges) <= 20, text
            # disjoint, sorted, not mergeable
            for (alo, ahi), (blo, bhi) in zip(ranges, ranges[1:]):
                assert alo <= ahi
                assert blo > ahi + 1

    @pytest.mark.parametrize("budget", [
        {"max_ranges": math.nan, "max_depth": 4},
        {"max_ranges": 2.5, "max_depth": 4},
        {"max_ranges": 20, "max_depth": 2.5},
        {"max_ranges": 0, "max_depth": 4},
        {"max_ranges": 20, "max_depth": htm.MAX_DEPTH + 1},
    ])
    def test_budget_not_an_integer_in_range_rejected(self, budget):
        # a NaN max_ranges never stopped the refinement: this 40 x 30 deg
        # POLY then gave 20 ranges at depth 4 instead of 11
        from skyindex.regionspec import compile_region_string

        region = region_rows(compile_region_string("POLY J2000 10 -10 50 -10 50 20 10 20"))
        with pytest.raises(HtmError):
            cover(region, **budget)
        assert cover(region, max_ranges=np.int64(18), max_depth=np.int64(4)) == cover(region, 18, 4)

    @pytest.mark.parametrize("row", [
        (1.8490092644035885, -0.5174132742462024, -0.5598644869819172, 0.5952041442968893),  # |n| = 2
        (0.0, 0.0, 1.0, 1.5),
        (0.0, 0.0, 1.0, math.nan),
        (math.nan, 0.0, 1.0, 0.5),
        (0.0, 0.0, 1.0 + 2.0**-45, 0.5),  # |n|^2 32 ulps from 1
        (0.0, 0.0, math.inf, 0.5),
        (0.0, 0.0, 1.0, -1.0 - 2.0**-52),
    ])
    def test_row_not_a_unit_normal_with_l_in_range_rejected(self, row):
        # a normal of length 2 gave a cover missing 125 of 6,964 seeded
        # points inside, l = 1.5 a bare math domain error, and a NaN l no
        # error; each row is checked, in any convex
        with pytest.raises(HtmError, match="half-space row"):
            cover([[row]])
        with pytest.raises(HtmError, match="half-space row"):
            cover([[(1.0, 0.0, 0.0, 0.0)], [(0.0, 1.0, 0.0, 0.0), row]])

    def test_rows_at_the_norm_and_length_edges_taken(self):
        # |n|^2 within _NORM2_TOL of 1 and l at either end of [-1, 1]
        z = math.sqrt(1.0 + 15 * 2.0**-52)
        assert cover([[(0.0, 0.0, 1.0, -1.0)]], max_depth=3) == [(8 << 6, (16 << 6) - 1)]  # all but the south pole
        assert cover([[(0.0, 0.0, z, 1.0)]], max_depth=3) == cover([[(0.0, 0.0, 1.0, 1.0)]], max_depth=3)

    def test_empty_cap_covers_nothing(self):
        # l = 1 is the empty cap {p . n > 1}; its point circle on a trixel
        # corner once gave 4 depth-20 ranges around n
        from skyindex.regionspec import compile_region_string

        (point,) = region_rows(compile_region_string("CIRCLE J2000 0 0 0"))
        assert cover([[(0.0, 0.0, 1.0, 1.0)]]) == []
        assert cover([point]) == []
        assert cover([point + [cap_row(sky_to_vec(SkyPoint(0, 0)), 10.0)]]) == []

    def test_common_depth(self, corpus_regions):
        for _, region in corpus_regions:
            ranges = cover(region_rows(region))
            depths = {id_depth(lo) for lo, hi in ranges} | {
                id_depth(hi) for lo, hi in ranges
            }
            assert len(depths) <= 1

    def test_cover_soundness_small_circle(self, rng):
        center = sky_to_vec(SkyPoint(30, 20))
        ranges = cover([[(*center.as_tuple(), math.cos(math.radians(0.05)))]])
        depth = id_depth(ranges[0][0])
        for p in sample_cap(rng, center, 0.0499, 3000):
            hid = point_to_id(p, depth)
            assert any(lo <= hid <= hi for lo, hi in ranges)

    def test_cover_soundness_corpus(self, corpus_regions, rng):
        for text, region in corpus_regions:
            ranges = cover(region_rows(region))
            if not ranges:
                continue
            depth = id_depth(ranges[0][0])
            c, r = bounding_circle(region)
            pts = sample_cap(rng, c, min(r * 1.01 + 1e-6, 180.0), 400)
            pts += sample_sphere(rng, 200)
            for p in pts:
                if membership_with_guard(region, p, guard=1e-9):
                    hid = point_to_id(p, depth)
                    assert any(lo <= hid <= hi for lo, hi in ranges), text

    def test_area_ratio_small_circle(self, rng):
        center = sky_to_vec(SkyPoint(30, 20))
        ranges = cover([[(*center.as_tuple(), math.cos(math.radians(0.05)))]])
        area = 0.0
        for lo, hi in ranges:
            for hid in range(lo, hi + 1):
                area += trixel_area_sr(htm._corners_of_id(hid))
        circle_area = 2 * math.pi * (1 - math.cos(math.radians(0.05)))
        assert area / circle_area <= 2.0


def pinned_cover_regions():
    """Seeded circles, then the grammar corpus (the corpus fixture's specs
    and 200 more), each region as its convexes' rows. The circles have radii log-uniform in [0.001, 180]
    degrees plus 0, 90 and 180, and centres anywhere, at and near the
    poles, at and near ra = 0, on trixel corners and on trixel edges."""
    from skyindex.regionspec import compile_region_string

    rng = np.random.default_rng(16)
    centres = [v.as_tuple() for v in sample_sphere(rng, 100)]
    centres += [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    for _ in range(40):
        dec = 90.0 - 10.0 ** rng.uniform(-6.0, 0.0)
        ra = rng.uniform(0.0, 360.0)
        centres.append(sky_to_vec(SkyPoint(ra, dec if rng.uniform() < 0.5 else -dec)).as_tuple())
    for ra in rng.choice([0.0, 1e-9, 360.0 - 1e-9], 40):
        centres.append(sky_to_vec(SkyPoint(float(ra), rng.uniform(-90.0, 90.0))).as_tuple())
    for _ in range(120):
        depth = int(rng.integers(0, 11))
        corners = htm._corners_of_id(int(rng.integers(8 << (2 * depth), 16 << (2 * depth))))
        i = int(rng.integers(3))
        if rng.uniform() < 0.5:
            centres.append(corners[i])
        else:
            centres.append(normalized_lerp(corners[i], corners[(i + 1) % 3], rng.uniform()))
    regions = [[[cap_row(UnitVec3(*c), float(10.0 ** rng.uniform(-3.0, math.log10(180.0))))]] for c in centres]
    for c in centres[:: len(centres) // 10]:
        regions += [[[cap_row(UnitVec3(*c), r)]] for r in (0.0, 90.0, 180.0)]
    specs = generate_corpus_specs(seed=1234, count=32) + generate_corpus_specs(seed=16, count=200)
    return regions + [region_rows(compile_region_string(s)) for s in specs]


def random_cover_cases(count: int = 600, seed: int = 34):
    """Seeded (region, max_ranges, max_depth) cases: 1-3 convexes of 1-4
    circles, radii log-uniform in [1e-6, 160] degrees or exactly 0, 90 or
    180, max_depth in 0..30 and max_ranges in 1..40. A convex's later
    circles are centred within its first, so most convexes are not empty."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        region = []
        for _ in range(int(rng.integers(1, 4))):
            centre = sample_sphere(rng, 1)[0]
            convex = []
            for k in range(int(rng.integers(1, 5))):
                r = float(10.0 ** rng.uniform(-6.0, math.log10(160.0)))
                if rng.uniform() < 0.1:
                    r = float(rng.choice([0.0, 90.0, 180.0]))
                c = centre if k == 0 else sample_cap(rng, centre, convex[0][1], 1)[0]
                convex.append((c, r))
            region.append([cap_row(c, r) for c, r in convex])
        cases.append((region, int(rng.integers(1, 41)), int(rng.integers(0, htm.MAX_DEPTH + 1))))
    return cases


def cover_digest(regions) -> str:
    h = hashlib.sha256()
    for region in regions:
        h.update(repr(cover(region)).encode() + b"\n")
    return h.hexdigest()


class TestPinnedCover:
    # cover_digest(pinned_cover_regions()). Re-pinned when an empty cap
    # (l = 1) became OUTSIDE before the edge test: only the radius-0
    # circles' ranges moved, each to none (44a27031... before)
    DIGEST = "528897a12c6d7e10184311e7078dc0bcf5f0fb980afb49633a889ee2ef1f3577"
    # the pinned regions at max_depth 25 and 30 with max_ranges 1, 7 and
    # 40, then random_cover_cases(), as one SHA-256 of their ranges
    # (9a99576f... before the same re-pin)
    DEEP_DIGEST = "84865ea47cfc10b61a072c37ef0b04459558490e22945284c194311f838bcf65"

    def test_ranges_unchanged(self):
        assert cover_digest(pinned_cover_regions()) == self.DIGEST

    def test_deep_ranges_unchanged(self):
        regions = pinned_cover_regions()
        cases = [(region, m, d) for d in (25, 30) for m in (1, 7, 40) for region in regions]
        h = hashlib.sha256()
        for region, max_ranges, max_depth in cases + random_cover_cases():
            h.update(repr(cover(region, max_ranges, max_depth)).encode() + b"\n")
        assert h.hexdigest() == self.DEEP_DIGEST


def area_ratio_at_depth(depth: int) -> float:
    """Exact max/min trixel area ratio at a depth (one face; all congruent)."""
    areas = []
    stack = [(htm.FACE_CORNERS[0], 0)]
    while stack:
        corners, d = stack.pop()
        if d == depth:
            areas.append(trixel_area_sr(corners))
            continue
        for kid in htm._children(corners):
            stack.append((kid, d + 1))
    return max(areas) / min(areas)


# -- independent high-precision reference for the area balance ---------------

# Ceiling on the max/min area ratio of midpoint subdivision at any depth:
# the exact ratio rises with depth toward 2.10592 (reference_area_ratio(30)).
AREA_RATIO_CAP = 2.106
AREA_RATIO_REL_TOL = 1e-9


def mp_area_sr(corners) -> mpmath.mpf:
    """Girard's excess at 80 digits of the triangle the corner directions span."""
    with mpmath.workdps(80):
        units = []
        for c in corners:
            v = [mpmath.mpf(x) for x in c]
            n = mpmath.sqrt(sum(x * x for x in v))
            units.append([x / n for x in v])

        def cross(u, v):
            return [
                u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0],
            ]

        total = mpmath.mpf(0)
        for i in range(3):
            a, b, c = units[i], units[(i + 1) % 3], units[(i + 2) % 3]
            ab, ac = cross(a, b), cross(a, c)
            num = sum(x * y for x, y in zip(ab, ac))
            den = mpmath.sqrt(sum(x * x for x in ab) * sum(x * x for x in ac))
            total += mpmath.acos(num / den)
        return +(total - mpmath.pi)


def _mp_mid(a, b):
    s = [x + y for x, y in zip(a, b)]
    n = mpmath.sqrt(sum(x * x for x in s))
    return [x / n for x in s]


def reference_area_ratio(depth: int) -> float:
    """Max/min area ratio of midpoint subdivision, rebuilt from FACE_CORNERS.

    The smallest trixel at every depth is a corner chain (digits 0...0)
    and the largest the central chain (digits 3...3); both are subdivided
    here at 80 digits, independently of htm's own midpoint code.
    """
    with mpmath.workdps(80):
        face = [[mpmath.mpf(x) for x in c] for c in htm.FACE_CORNERS[0]]
        corner = central = face
        for _ in range(depth):
            v0, v1, v2 = corner
            corner = [v0, _mp_mid(v0, v1), _mp_mid(v2, v0)]
            v0, v1, v2 = central
            central = [_mp_mid(v1, v2), _mp_mid(v2, v0), _mp_mid(v0, v1)]
        return float(mp_area_sr(central) / mp_area_sr(corner))


def area_ratio_gate_failures(ratios: dict[int, float]) -> list[str]:
    """Reasons measured per-depth ratios fail the area-balance gate.

    Each must match the exact reference, none may fall with depth, and all
    stay under AREA_RATIO_CAP. Empty when the gate passes.
    """
    failures = []
    prev = None
    for d in sorted(ratios):
        r, want = ratios[d], reference_area_ratio(d)
        if abs(r - want) > AREA_RATIO_REL_TOL * want:
            failures.append(f"depth {d}: ratio {r:.10f} != reference {want:.10f}")
        if prev is not None and r < prev:
            failures.append(f"depth {d}: ratio {r:.10f} fell below {prev:.10f}")
        if r > AREA_RATIO_CAP:
            failures.append(f"depth {d}: ratio {r:.10f} above cap {AREA_RATIO_CAP}")
        prev = r
    return failures


class TestAreaBalance:
    def test_max_min_ratio_gate(self):
        ratios = {d: area_ratio_at_depth(d) for d in range(1, 9)}
        assert area_ratio_gate_failures(ratios) == []

    def test_reference_ratio_bounded_to_max_depth(self):
        ratios = [reference_area_ratio(d) for d in range(1, htm.MAX_DEPTH + 1)]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(2.1059212554, abs=1e-10)
        assert ratios[-1] <= AREA_RATIO_CAP

    def test_ratio_measured_and_stable(self, capsys):
        ratios = {d: area_ratio_at_depth(d) for d in range(1, 9)}
        print("area max/min ratios by depth:", {d: round(r, 5) for d, r in ratios.items()})
        # the ratio approaches a limit near 2.106 rather than growing
        assert ratios[8] - ratios[7] < 1e-3
        assert ratios[8] < 2.11


class TestAreaPrecision:
    @pytest.mark.parametrize("depth", [0, 8, 20, 30])
    def test_area_matches_high_precision(self, depth, rng):
        for p in sample_sphere(rng, 20):
            t = htm._corners_of_id(point_to_id(p, depth))
            want = mp_area_sr(t)
            assert abs(trixel_area_sr(t) - want) <= 1e-12 * want


class TestPartition:
    def test_each_point_in_exactly_one_trixel(self, rng):
        # at each depth the chosen trixel contains the point and no other
        # sibling strictly contains it (edges are tie-broken)
        for depth in (1, 3, 5, 8):
            for p in sample_sphere(rng, 400):
                hid = point_to_id(p, depth)
                t = htm._corners_of_id(hid)
                assert htm._contains(t, p.as_tuple())
                strict_holders = 0
                for sibling in children_ids(hid >> 2):
                    corners = htm._corners_of_id(sibling)
                    if htm._contains(corners, p.as_tuple(), eps=1e-12):
                        strict_holders += 1
                assert strict_holders <= 1


class TestLocality:
    def test_sorted_ids_are_spatially_close_on_average(self, rng, capsys):
        # reported, not asserted: mean gap distance between sort-adjacent
        # ids should be far below the random-pair mean
        pts = sample_sphere(rng, 800)
        ids = sorted((point_to_id(p, 20), i) for i, p in enumerate(pts))
        adjacent = [
            arc_distance_deg(pts[i], pts[j])
            for (_, i), (_, j) in zip(ids, ids[1:])
        ]
        random_pairs = [
            arc_distance_deg(pts[int(a)], pts[int(b)])
            for a, b in rng.integers(0, 800, (800, 2))
            if a != b
        ]
        print(
            f"locality: sorted-adjacent mean {np.mean(adjacent):.3f} deg, "
            f"random-pair mean {np.mean(random_pairs):.3f} deg"
        )


# -- ids_for_points parity with point_to_id ----------------------------------

PARITY_DEPTHS = (0, 1, 7, 20, 30)


def assert_ids_match_scalar(x, y, z, depths=PARITY_DEPTHS):
    """ids_for_points equals point_to_id exactly, point by point."""
    cols = [np.asarray(c, dtype=float) for c in (x, y, z)]
    for depth in depths:
        got = ids_for_points(x, y, z, depth)
        assert got.dtype == (np.uint64 if depth == htm.MAX_DEPTH else np.int64)
        assert got.shape == cols[0].shape
        want = [
            point_to_id(UnitVec3(float(px), float(py), float(pz)), depth)
            for px, py, pz in zip(*cols)
        ]
        bad = [i for i, (g, w) in enumerate(zip(got.tolist(), want)) if g != w]
        assert not bad, (
            f"depth {depth}: {len(bad)} ids differ, first at "
            f"{tuple(float(c[bad[0]]) for c in cols)}"
        )


def normalized_lerp(u, v, f, dot=0.0):
    """The point a fraction f along the edge u -> v, moved off it along the
    edge's normal until its dot with u x v is about dot."""
    e = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    e2 = e[0] * e[0] + e[1] * e[1] + e[2] * e[2]
    s = [u[k] * (1.0 - f) + v[k] * f + dot * e[k] / e2 for k in range(3)]
    n = math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2])
    return (s[0] / n, s[1] / n, s[2] / n)


def edge_points(depths, per_depth_sample, rng):
    """Corners, edge midpoints and 0.3-fractions of trixels, the latter also
    moved to an edge dot of about -1e-15, where rounding decides the child:
    every trixel at depths up to 2, a seeded sample of per_depth_sample
    beyond."""
    pts = set()
    for depth in depths:
        first, last = 8 << (2 * depth), 16 << (2 * depth)
        if depth <= 2:
            hids = range(first, last)
        else:
            hids = rng.integers(first, last, per_depth_sample).tolist()
        for hid in hids:
            corners = htm._corners_of_id(int(hid))
            pts.update(corners)
            for i in range(3):
                u, v = corners[i], corners[(i + 1) % 3]
                pts.add(normalized_lerp(u, v, 0.5))
                pts.add(normalized_lerp(u, v, 0.3))
                pts.add(normalized_lerp(u, v, 0.3, dot=-1e-15))
    return np.array(sorted(pts))


def axis_points():
    """Both poles, the equator, and the ra = 0/90/180/270 meridians, both
    axis-exact and as sky_to_vec rounds them."""
    pts = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    for ra in np.arange(0.0, 360.0, 7.5):
        v = sky_to_vec(SkyPoint(float(ra), 0.0))
        pts.append((v.x, v.y, 0.0))
    for dec in (-89.9, -60.0, -45.0, -12.5, 0.0, 1e-9, 30.0, 45.0, 80.0, 89.999):
        c, s = math.cos(math.radians(dec)), math.sin(math.radians(dec))
        pts += [(c, 0.0, s), (0.0, c, s), (-c, 0.0, s), (0.0, -c, s)]
        for ra in (0.0, 90.0, 180.0, 270.0):
            v = sky_to_vec(SkyPoint(ra, dec))
            pts.append(v.as_tuple())
    return np.array(pts)


class TestVectorizedParity:
    def test_uniform_points(self, rng):
        pts = np.array([p.as_tuple() for p in sample_sphere(rng, 300)])
        assert_ids_match_scalar(pts[:, 0], pts[:, 1], pts[:, 2])

    def test_trixel_corners_and_edges(self, rng):
        pts = edge_points(range(7), 40, rng)
        assert len(pts) > 1500
        assert_ids_match_scalar(pts[:, 0], pts[:, 1], pts[:, 2])

    def test_poles_equator_and_meridians(self):
        pts = axis_points()
        assert_ids_match_scalar(pts[:, 0], pts[:, 1], pts[:, 2])

    @pytest.mark.parametrize(
        "n", [0, 1, htm._BLOCK - 1, htm._BLOCK, htm._BLOCK + 1]
    )
    def test_sizes_around_the_block(self, n, rng):
        pts = np.array([p.as_tuple() for p in sample_sphere(rng, n)]).reshape(n, 3)
        # every point would cost a scalar lookup per depth; the block edges
        # are what these sizes add, so check around them at one depth
        assert_ids_match_scalar(pts[:, 0], pts[:, 1], pts[:, 2], depths=(20,))

    def test_python_lists(self, rng):
        pts = [p.as_tuple() for p in sample_sphere(rng, 50)]
        xs, ys, zs = ([p[k] for p in pts] for k in range(3))
        assert_ids_match_scalar(xs, ys, zs)

    def test_strided_views(self, rng):
        pts = np.array([p.as_tuple() for p in sample_sphere(rng, 600)])
        x, y, z = (np.ascontiguousarray(pts[:, k])[::3] for k in range(3))
        assert not x.flags.c_contiguous
        assert_ids_match_scalar(x, y, z)
        # the columns of a row-major array are strided views too
        assert_ids_match_scalar(pts[:, 0], pts[:, 1], pts[:, 2], depths=(20,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        x = np.array([1.0, 0.0, bad])
        y = np.zeros(3)
        z = np.zeros(3)
        for args in ((x, y, z), (y, x, z), (y, z, x)):
            with pytest.raises(HtmError, match="finite"):
                ids_for_points(*args, 5)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(HtmError):
            ids_for_points(np.zeros(3), np.zeros(2), np.ones(3), 5)
        with pytest.raises(HtmError):
            ids_for_points(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)), 5)


unit_components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def unit_vectors(draw):
    x, y, z = draw(unit_components), draw(unit_components), draw(unit_components)
    n = math.sqrt(x * x + y * y + z * z)
    assume(n > 1e-3)
    return (x / n, y / n, z / n)


@st.composite
def near_edge_vectors(draw):
    """A point on a trixel edge, nudged off it along the edge's normal so
    that its edge dot is about 0 or about -1e-15, where the rounding of
    each dot decides the child."""
    depth = draw(st.integers(0, 12))
    hid = draw(st.integers(8 << (2 * depth), (16 << (2 * depth)) - 1))
    corners = htm._corners_of_id(hid)
    i = draw(st.integers(0, 2))
    u, v = corners[i], corners[(i + 1) % 3]
    f = draw(st.floats(0.0, 1.0))
    dot = draw(
        st.sampled_from([0.0, 1e-15, -1e-15])
        | st.floats(-3e-15, 3e-15)
        | st.floats(-1.02e-15, -0.98e-15)
    )
    return normalized_lerp(u, v, f, dot)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pts=st.lists(unit_vectors() | near_edge_vectors(), min_size=1, max_size=20),
    depth=st.sampled_from(PARITY_DEPTHS),
)
def test_ids_for_points_matches_point_to_id_property(pts, depth):
    xs, ys, zs = (np.array([p[k] for p in pts]) for k in range(3))
    assert_ids_match_scalar(xs, ys, zs, depths=(depth,))


def test_face_edge_rows_are_the_face_edge_dots():
    # each face's edge dots are one signed component of p, exactly
    rng = np.random.default_rng(41)
    points = [p.as_tuple() for p in sample_sphere(rng, 20)] + [(0.0, 0.0, 1.0), (-0.0, 1.0, -0.0)]
    for corners, rows in zip(htm.FACE_CORNERS, htm._FACE_EDGES):
        for p in points:
            signed = (*p, -p[0], -p[1], -p[2])
            assert htm._edge_dots(corners, p) == tuple(signed[r] for r in rows)


# -- every point lies in the trixel of its own id, at 50 digits ---------------

# How far a point may lie outside the trixel of its id, in radians: a tie
# on an edge is broken by rounding, a few 1e-17 off.
OUTSIDE_TOL_RAD = 1e-15


def mp_outside_per_depth(p, hid30) -> list[float]:
    """How far p lies outside each trixel on hid30's path, depths 0..30, in
    radians (0 inside): the trixels rebuilt at 50 digits from FACE_CORNERS
    by their own normalized midpoints, never by htm's code."""
    with mpmath.workdps(50):
        q = [mpmath.mpf(c) for c in p]
        norm = mpmath.sqrt(sum(c * c for c in q))
        q = [c / norm for c in q]
        corners = [[mpmath.mpf(c) for c in v] for v in htm.FACE_CORNERS[(hid30 >> 60) - 8]]
        out = []
        for level in range(htm.MAX_DEPTH + 1):
            worst = mpmath.mpf(0)
            for i in range(3):
                u, v = corners[i], corners[(i + 1) % 3]
                n = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
                worst = max(worst, -sum(a * b for a, b in zip(n, q)) / mpmath.sqrt(sum(a * a for a in n)))
            out.append(float(mpmath.asin(worst)))
            if level < htm.MAX_DEPTH:
                a, b, c = corners
                w0, w1, w2 = _mp_mid(b, c), _mp_mid(c, a), _mp_mid(a, b)
                corners = [(a, w2, w1), (b, w0, w2), (c, w1, w0), (w0, w1, w2)][(hid30 >> (58 - 2 * level)) & 3]
        return out


@st.composite
def trixel_probe_points(draw):
    """A unit vector anywhere, at or near a pole, on the ra = 0 meridian,
    or on a trixel corner or edge at any depth, nudged off the edge by at
    most 1e-15 in dot."""
    kind = draw(st.sampled_from(["any", "pole", "ra0", "corner", "edge"]))
    if kind == "any":
        return draw(unit_vectors())
    if kind == "pole":
        dec = draw(st.sampled_from([90.0, -90.0]) | st.floats(89.999, 90.0) | st.floats(-90.0, -89.999))
        if draw(st.booleans()):
            return (0.0, 0.0, math.copysign(1.0, dec))
        return sky_to_vec(SkyPoint(draw(edge_ra()), dec)).as_tuple()
    if kind == "ra0":
        ra = draw(st.sampled_from([0.0, 1e-12, math.nextafter(360.0, 0.0)]))
        return sky_to_vec(SkyPoint(ra, draw(st.floats(-90.0, 90.0)))).as_tuple()
    depth = draw(st.integers(0, htm.MAX_DEPTH))
    corners = htm._corners_of_id(draw(st.integers(8 << (2 * depth), (16 << (2 * depth)) - 1)))
    i = draw(st.integers(0, 2))
    if kind == "corner":
        return corners[i]
    f = draw(st.floats(0.0, 1.0))
    return normalized_lerp(corners[i], corners[(i + 1) % 3], f, draw(st.sampled_from([0.0]) | st.floats(-1e-15, 1e-15)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pts=st.lists(trixel_probe_points(), min_size=1, max_size=8), depth=st.integers(0, htm.MAX_DEPTH))
def test_every_point_lies_in_the_trixel_of_its_id_property(pts, depth):
    xs, ys, zs = (np.array([p[k] for p in pts]) for k in range(3))
    for p, hid30 in zip(pts, ids_for_points(xs, ys, zs, htm.MAX_DEPTH).tolist()):
        assert point_to_id(UnitVec3(*p), depth) == hid30 >> (2 * (htm.MAX_DEPTH - depth))
        outside = mp_outside_per_depth(p, hid30)
        assert max(outside) <= OUTSIDE_TOL_RAD, (p, hid30, outside.index(max(outside)), max(outside))


# -- cover soundness and the bounding cap, property-based ---------------------


@st.composite
def cap_centres(draw):
    """A unit vector anywhere, at a pole, on the ra = 0 meridian, or on a
    trixel corner or edge, where the cover's verdicts are closest calls."""
    kind = draw(st.sampled_from(["any", "pole", "ra0", "corner", "edge"]))
    if kind == "any":
        return draw(unit_vectors())
    if kind == "pole":
        return (0.0, 0.0, draw(st.sampled_from([1.0, -1.0])))
    if kind == "ra0":
        ra = draw(st.sampled_from([0.0, 1e-12, math.nextafter(360.0, 0.0)]))
        return sky_to_vec(SkyPoint(ra, draw(st.floats(-90.0, 90.0)))).as_tuple()
    depth = draw(st.integers(0, 12))
    corners = htm._corners_of_id(draw(st.integers(8 << (2 * depth), (16 << (2 * depth)) - 1)))
    i = draw(st.integers(0, 2))
    if kind == "corner":
        return corners[i]
    return normalized_lerp(corners[i], corners[(i + 1) % 3], draw(st.floats(0.0, 1.0)))


# radii in degrees, log-uniform in [1e-6, 180] plus the hemisphere and the sphere
cap_radii = st.floats(-6.0, math.log10(180.0)).map(lambda e: min(180.0, 10.0**e)) | st.sampled_from([90.0, 180.0])


def assert_cover_holds(region, points, max_depth):
    """Every point inside the region, clear of its boundary by 1e-12 in
    dot, has its trixel at the cover's depth inside a range of the cover."""
    inside = [p for p in points if membership_with_guard(region, p, guard=1e-12)]
    ranges = cover(region_rows(region), max_depth=max_depth)
    if inside:
        assert ranges
        depth = id_depth(ranges[0][0])
        for p in inside:
            hid = point_to_id(p, depth)
            assert any(lo <= hid <= hi for lo, hi in ranges), (p, hid)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    centre=cap_centres(),
    radius=cap_radii,
    max_depth=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_cover_holds_every_point_of_a_circle_property(centre, radius, max_depth, seed):
    c = UnitVec3(*centre)
    region = Region((Convex((circle_to_halfspace(c, radius),)),))
    assert_cover_holds(region, [c] + sample_cap(np.random.default_rng(seed), c, radius, 150), max_depth)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    convexes=st.lists(
        st.lists(st.tuples(cap_centres(), cap_radii), min_size=1, max_size=4),
        min_size=1,
        max_size=2,
    ),
    max_depth=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_cover_holds_every_point_of_a_convex_union_property(convexes, max_depth, seed):
    rng = np.random.default_rng(seed)
    caps = [[(UnitVec3(*c), r) for c, r in convex] for convex in convexes]
    region = Region(tuple(Convex(tuple(circle_to_halfspace(c, r) for c, r in convex)) for convex in caps))
    # the points of a convex lie in each of its caps: sample the smallest
    points = []
    for convex in caps:
        c, r = min(convex, key=lambda cap: cap[1])
        points += [c] + sample_cap(rng, c, r, 100)
    assert_cover_holds(region, points, max_depth)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), depth=st.integers(0, htm.MAX_DEPTH))
def test_bounding_cap_holds_the_trixel_property(data, depth):
    """Every point of a trixel lies within its bounding cap's angle rho,
    give or take the 3e-8 that catalog._CAP_MARGIN allows for rounding."""
    corners = htm._corners_of_id(data.draw(st.integers(8 << (2 * depth), (16 << (2 * depth)) - 1)))
    (cx, cy, cz), rho = htm._bounding_cap(corners)
    weights = data.draw(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=20))
    points = list(corners)
    for w in weights:
        s = [sum(w[k] * corners[k][i] for k in range(3)) for i in range(3)]
        n = math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2])
        if n > 0.0:
            points.append((s[0] / n, s[1] / n, s[2] / n))
    for px, py, pz in points:
        cross = math.sqrt((cy * pz - cz * py) ** 2 + (cz * px - cx * pz) ** 2 + (cx * py - cy * px) ** 2)
        assert math.atan2(cross, cx * px + cy * py + cz * pz) <= rho + 3e-8
