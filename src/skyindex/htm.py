"""Hierarchical triangular mesh: trixel ids, point lookup, region covers.

The sphere is split into 8 octahedral faces, each subdivided as a
quad-tree by joining normalized edge midpoints. A depth-d trixel id packs
a leading marker bit, 3 face bits and d two-bit child digits, so ids at
depth d occupy 4 + 2d bits and faces are ids 8..15. Containment is the
prefix relation: a trixel contains another iff its id is a bit-prefix of
the other's.

Faces 0..3 (ids 8..11) tile the northern hemisphere anticlockwise from
ra 0, faces 4..7 the southern. Child digit i keeps parent corner i with
the two adjacent edge midpoints; digit 3 is the central midpoint triangle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .geom import Convex, Region, UnitVec3, arc_distance_deg

MAX_DEPTH = 30

_EQ = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
_NP = (0.0, 0.0, 1.0)
_SP = (0.0, 0.0, -1.0)

FACE_CORNERS: tuple[tuple[tuple[float, float, float], ...], ...] = tuple(
    [(_EQ[k], _EQ[(k + 1) % 4], _NP) for k in range(4)]
    + [(_EQ[(k + 1) % 4], _EQ[k], _SP) for k in range(4)]
)

_TIE_EPS = -1e-15

INSIDE = 1
PARTIAL = 0
OUTSIDE = -1


class HtmError(ValueError):
    """Malformed trixel id or out-of-range depth."""


@dataclass(frozen=True)
class Trixel:
    v0: UnitVec3
    v1: UnitVec3
    v2: UnitVec3

    def corners(self) -> tuple[UnitVec3, UnitVec3, UnitVec3]:
        return (self.v0, self.v1, self.v2)


def base_trixels() -> list[Trixel]:
    """The 8 octahedral faces, in face order (ids 8..15)."""
    return [Trixel(*(UnitVec3(*c) for c in corners)) for corners in FACE_CORNERS]


def _mid(a, b):
    x, y, z = a[0] + b[0], a[1] + b[1], a[2] + b[2]
    n = math.sqrt(x * x + y * y + z * z)
    return (x / n, y / n, z / n)


def _children(corners):
    v0, v1, v2 = corners
    w0 = _mid(v1, v2)
    w1 = _mid(v2, v0)
    w2 = _mid(v0, v1)
    return ((v0, w2, w1), (v1, w0, w2), (v2, w1, w0), (w0, w1, w2))


def subdivide(t: Trixel) -> list[Trixel]:
    """The 4 child trixels: corners 0..2 keep a parent corner, 3 is central."""
    kids = _children((t.v0.as_tuple(), t.v1.as_tuple(), t.v2.as_tuple()))
    return [Trixel(*(UnitVec3(*c) for c in kid)) for kid in kids]


def _edge_dots(corners, p):
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = corners
    px, py, pz = p
    d0 = (ay * bz - az * by) * px + (az * bx - ax * bz) * py + (ax * by - ay * bx) * pz
    d1 = (by * cz - bz * cy) * px + (bz * cx - bx * cz) * py + (bx * cy - by * cx) * pz
    d2 = (cy * az - cz * ay) * px + (cz * ax - cx * az) * py + (cx * ay - cy * ax) * pz
    return d0, d1, d2


def _contains(corners, p, eps=_TIE_EPS) -> bool:
    d0, d1, d2 = _edge_dots(corners, p)
    return d0 >= eps and d1 >= eps and d2 >= eps


def _pick(cands, p):
    """First candidate whose edge tests all pass; else the most-interior one."""
    best_i = 0
    best_min = -math.inf
    for i, corners in enumerate(cands):
        m = min(_edge_dots(corners, p))
        if m >= _TIE_EPS:
            return i, corners
        if m > best_min:
            best_min = m
            best_i = i
    return best_i, cands[best_i]


def point_to_id(p: UnitVec3, depth: int) -> int:
    """Trixel id at the given depth containing p. Deterministic on edges:
    the lowest face/child digit whose (non-strict) plane tests pass wins."""
    if not (0 <= depth <= MAX_DEPTH):
        raise HtmError(f"depth out of range 0..{MAX_DEPTH}: {depth}")
    pt = (p.x, p.y, p.z)
    face, corners = _pick(FACE_CORNERS, pt)
    hid = 8 + face
    for _ in range(depth):
        digit, corners = _pick(_children(corners), pt)
        hid = (hid << 2) | digit
    return hid


def id_depth(hid: int) -> int:
    """Depth encoded in the id's bit length; raises on malformed ids."""
    if hid < 8:
        raise HtmError(f"not a trixel id (no leading marker): {hid}")
    bl = hid.bit_length()
    if bl % 2 != 0:
        raise HtmError(f"malformed trixel id (odd bit length): {hid}")
    depth = (bl - 4) // 2
    if depth > MAX_DEPTH:
        raise HtmError(f"trixel id deeper than {MAX_DEPTH}: {hid}")
    return depth


def parent(hid: int) -> int:
    if id_depth(hid) == 0:
        raise HtmError(f"face trixel has no parent: {hid}")
    return hid >> 2


def children_ids(hid: int) -> tuple[int, int, int, int]:
    id_depth(hid)
    return (hid << 2, (hid << 2) | 1, (hid << 2) | 2, (hid << 2) | 3)


def _corners_of_id(hid: int):
    depth = id_depth(hid)
    face = hid >> (2 * depth)
    corners = FACE_CORNERS[face - 8]
    for level in range(depth - 1, -1, -1):
        digit = (hid >> (2 * level)) & 3
        corners = _children(corners)[digit]
    return corners


def id_to_trixel(hid: int) -> Trixel:
    corners = _corners_of_id(hid)
    return Trixel(*(UnitVec3(*c) for c in corners))


def prefix_contains(a: int, b: int) -> bool:
    """True iff trixel a contains trixel b (a's id is a digit-prefix of b's)."""
    da, db = id_depth(a), id_depth(b)
    if da > db:
        return False
    return (b >> (2 * (db - da))) == a


def trixel_area_sr(t: Trixel) -> float:
    """Spherical area (steradians) by the Van Oosterom-Strackee formula.

    tan(E/2) = |a . ((b - a) x (c - a))| / (1 + a.b + b.c + c.a). The edge
    differences keep the numerator accurate for tiny trixels, where
    Girard's excess (angle sum minus pi) cancels to nothing near MAX_DEPTH.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = (v.as_tuple() for v in t.corners())
    ux, uy, uz = bx - ax, by - ay, bz - az
    vx, vy, vz = cx - ax, cy - ay, cz - az
    triple = (
        ax * (uy * vz - uz * vy)
        + ay * (uz * vx - ux * vz)
        + az * (ux * vy - uy * vx)
    )
    ab = ax * bx + ay * by + az * bz
    bc = bx * cx + by * cy + bz * cz
    ca = cx * ax + cy * ay + cz * az
    return 2.0 * math.atan2(abs(triple), 1.0 + ab + bc + ca)


def trixel_max_edge_deg(t: Trixel) -> float:
    c = t.corners()
    return max(arc_distance_deg(c[i], c[(i + 1) % 3]) for i in range(3))


# -- trixel vs region classification ----------------------------------------


def _circle_intersects_arc(n, l, a, b) -> bool:
    """Does the small circle {p . n = l} meet the great arc from a to b?"""
    ex = a[1] * b[2] - a[2] * b[1]
    ey = a[2] * b[0] - a[0] * b[2]
    ez = a[0] * b[1] - a[1] * b[0]
    en = math.sqrt(ex * ex + ey * ey + ez * ez)
    if en < 1e-15:
        return False
    ex, ey, ez = ex / en, ey / en, ez / en
    # p(t) = a cos t + w sin t walks the great circle from a toward b
    wx = ey * a[2] - ez * a[1]
    wy = ez * a[0] - ex * a[2]
    wz = ex * a[1] - ey * a[0]
    nu = n[0] * a[0] + n[1] * a[1] + n[2] * a[2]
    nw = n[0] * wx + n[1] * wy + n[2] * wz
    amp = math.hypot(nu, nw)
    if amp < abs(l):
        return False
    span = math.atan2(en, a[0] * b[0] + a[1] * b[1] + a[2] * b[2])
    phi = math.atan2(nw, nu)
    delta = math.acos(max(-1.0, min(1.0, l / amp))) if amp > 0 else 0.0
    for t in (phi - delta, phi + delta):
        t %= 2.0 * math.pi
        if -1e-12 <= t <= span + 1e-12:
            return True
    return False


# The bounding-cap pre-test's clearance, in radians. Its own angles are
# acos of dots, off by less than 3e-8 near a dot of 1. The exact test
# wavers near the boundary circle: within ~1e-8 where it takes acos near
# 1, and within about 1e-15 / |edge| where _contains tests a point of the
# circle, under 1e-9 to depth 20. So to depth 20 a trixel clear by this
# much gets the exact test's verdict; deeper, the pre-test's verdict is
# still sound.
_CAP_MARGIN = 1e-6


def _bounding_cap(corners):
    """A cap holding the trixel: the unit centroid c of its corners and
    the angle rho in radians to the farthest corner. A trixel is the
    convex hull of its corners and rho < 90 degrees, so the cap holds it."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = corners
    x, y, z = ax + bx + cx, ay + by + cy, az + bz + cz
    n = math.sqrt(x * x + y * y + z * z)
    x, y, z = x / n, y / n, z / n
    cos_rho = min(x * ax + y * ay + z * az, x * bx + y * by + z * bz, x * cx + y * cy + z * cz, 1.0)
    return (x, y, z), math.acos(cos_rho)


def _halfspaces(c: Convex):
    """c's constraints as (normal tuple, l, acos(l)), made once per cover."""
    return tuple((h.normal.as_tuple(), h.l, math.acos(h.l)) for h in c.constraints)


def _classify_halfspace(corners, cap, n, l, theta) -> int:
    """The trixel, with its _bounding_cap, against the cap {p . n > l} of
    angular radius theta.

    Cheap verdicts first, each exact: corners strictly on both sides of
    the boundary make it PARTIAL; a bounding cap clear of the boundary by
    _CAP_MARGIN makes it OUTSIDE (disjoint from the cap) or INSIDE (within
    it); corners all outside the cap while its centre n lies inside the
    trixel make it PARTIAL. Only the rest run the exact test, the boundary
    circle against each edge arc. Szalay et al., "Indexing the Sphere with
    the Hierarchical Triangular Mesh" (MSR-TR-2005-123), test a trixel's
    bounding circle first in the same way.
    """
    nx, ny, nz = n
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = corners
    d0 = nx * ax + ny * ay + nz * az
    d1 = nx * bx + ny * by + nz * bz
    d2 = nx * cx + ny * cy + nz * cz
    if -1.0 < l < 1.0:
        below = d0 < l or d1 < l or d2 < l
        if below and (d0 > l or d1 > l or d2 > l):
            return PARTIAL
        (ux, uy, uz), rho = cap
        delta = math.acos(max(-1.0, min(1.0, nx * ux + ny * uy + nz * uz)))
        if below:
            if delta > theta + rho + _CAP_MARGIN:
                return OUTSIDE
            if min(_edge_dots(corners, n)) > 0.0:
                return PARTIAL  # the cap's centre lies in the trixel
        elif delta + rho + _CAP_MARGIN < theta:
            return INSIDE
    edges = ((corners[0], corners[1]), (corners[1], corners[2]), (corners[2], corners[0]))
    if any(_circle_intersects_arc(n, l, a, b) for a, b in edges):
        return PARTIAL
    # No boundary crossing: either the boundary circle sits wholly inside
    # the trixel, or the trixel is entirely on one side of it.
    if abs(l) < 1.0:
        if abs(n[2]) < 0.9:
            tx, ty, tz = -n[1], n[0], 0.0
        else:
            tx, ty, tz = n[2], 0.0, -n[0]
        tn = math.sqrt(tx * tx + ty * ty + tz * tz)
        s = math.sqrt(max(0.0, 1.0 - l * l))
        q = (l * n[0] + s * tx / tn, l * n[1] + s * ty / tn, l * n[2] + s * tz / tn)
        if _contains(corners, q):
            return PARTIAL
    else:
        if l >= 1.0:
            return OUTSIDE  # open cap {p.n > 1} is empty
        # l = -1: everything but the antipodal point
        anti = (-n[0], -n[1], -n[2])
        return PARTIAL if _contains(corners, anti) else INSIDE
    if d0 > l and d1 > l and d2 > l:
        return INSIDE
    if d0 < l and d1 < l and d2 < l:
        return OUTSIDE
    return PARTIAL


def classify_trixel(t: Trixel, c: Convex) -> int:
    """Conservative: INSIDE/OUTSIDE only when provable, else PARTIAL."""
    return _classify_region((t.v0.as_tuple(), t.v1.as_tuple(), t.v2.as_tuple()), [_halfspaces(c)])


def _classify_region(corners, convexes) -> int:
    """The trixel against a union of convexes, each given by _halfspaces."""
    cap = _bounding_cap(corners)
    verdict = OUTSIDE
    for halfspaces in convexes:
        res = INSIDE
        for n, l, theta in halfspaces:
            r = _classify_halfspace(corners, cap, n, l, theta)
            if r == OUTSIDE:
                res = OUTSIDE
                break
            if r == PARTIAL:
                res = PARTIAL
        if res == INSIDE:
            return INSIDE
        if res == PARTIAL:
            verdict = PARTIAL
    return verdict


# -- region cover ------------------------------------------------------------


def cover(region: Region, max_ranges: int = 20, max_depth: int = 20) -> list[tuple[int, int]]:
    """Sound trixel-range cover of a region.

    Breadth-first refinement of boundary trixels; fully-inside trixels are
    accepted whole, refinement stops at max_depth or once the budget is
    hit, and remaining boundary trixels are accepted conservatively. Each
    half-space's normal and angular radius are taken once per cover, and
    most trixels are settled by their corners or their bounding cap before
    the exact edge test (_classify_halfspace). All ranges are emitted at
    the deepest level reached, sorted, disjoint and coalesced; if more than
    max_ranges remain, nearest ranges are merged (which only widens the
    cover, never drops any of it).
    """
    try:  # operator.index refuses a float, NaN included
        ok = operator.index(max_ranges) >= 1 and 0 <= operator.index(max_depth) <= MAX_DEPTH
    except TypeError:
        ok = False
    if not ok:
        raise HtmError(f"need an integer max_ranges >= 1 and max_depth in 0..{MAX_DEPTH}: {max_ranges!r}, {max_depth!r}")
    convexes = [_halfspaces(c) for c in region.convexes]
    accepted: list[tuple[int, int]] = []  # (id, depth)
    frontier = [(8 + f, FACE_CORNERS[f]) for f in range(8)]
    depth = 0
    while True:
        boundary = []
        for hid, corners in frontier:
            res = _classify_region(corners, convexes)
            if res == INSIDE:
                accepted.append((hid, depth))
            elif res == PARTIAL:
                boundary.append((hid, corners))
        if not boundary:
            deepest = depth
            break
        if depth >= max_depth or len(boundary) > max_ranges:
            accepted.extend((hid, depth) for hid, _ in boundary)
            deepest = depth
            break
        frontier = [
            ((hid << 2) | digit, kid)
            for hid, corners in boundary
            for digit, kid in enumerate(_children(corners))
        ]
        depth += 1
    if not accepted:
        return []
    ranges = []
    for hid, d in accepted:
        shift = 2 * (deepest - d)
        ranges.append((hid << shift, ((hid + 1) << shift) - 1))
    ranges.sort()
    merged = [ranges[0]]
    for lo, hi in ranges[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi + 1:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    while len(merged) > max_ranges:
        gap_at = min(
            range(1, len(merged)),
            key=lambda i: merged[i][0] - merged[i - 1][1],
        )
        lo = merged[gap_at - 1][0]
        hi = merged[gap_at][1]
        merged[gap_at - 1 : gap_at + 1] = [(lo, hi)]
    return merged


# -- vectorized id computation ----------------------------------------------

# Points per block: each level's temporaries, about forty arrays of this
# length, stay small enough to remain in cache.
_BLOCK = 8192

_FACE_CORNER_ARR = np.array(FACE_CORNERS)  # (face, corner, component)


def ids_for_points(x, y, z, depth: int) -> np.ndarray:
    """point_to_id for arrays of unit-vector components, equal to it bit for bit.

    The points are walked in blocks of _BLOCK, component-major: x, y and z
    and each trixel corner component are separate 1-D arrays. Every level
    evaluates the floating-point expressions point_to_id does, in the same
    order: the edge midpoints by _mid's formula, each child's edge dots by
    _edge_dots' formula, and _pick's rule (the first child whose smallest
    dot is >= _TIE_EPS, else the one with the largest smallest dot, the
    first on ties). So the ids equal point_to_id's on every finite input,
    edges, corners and poles included. The corner children's inner edges
    are the central child's edges reversed, and IEEE subtraction is
    antisymmetric, so those three dots are the central child's negated:
    9 dots per level, not 12, with no change to any result.

    The usual shortcut, three sign tests against the central child's edges
    to pick the child, is not used: it settles points on and near edges
    by those three planes rather than by _pick's rule, so its ids differ
    from point_to_id's there (on 141 of 200k uniform points at depth 20).

    The ids are int64, except at MAX_DEPTH, whose ids take all 64 bits and
    come back as uint64. Raises HtmError on an out-of-range depth, inputs
    that are not 1-D arrays of one length, or any non-finite component.
    """
    if not (0 <= depth <= MAX_DEPTH):
        raise HtmError(f"depth out of range 0..{MAX_DEPTH}: {depth}")
    x, y, z = (np.asarray(c, dtype=float) for c in (x, y, z))
    if x.ndim != 1 or x.shape != y.shape or x.shape != z.shape:
        raise HtmError(
            f"x, y, z must be 1-D and of one length, got shapes {x.shape}, {y.shape}, {z.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(z).all()):
        raise HtmError("point components must be finite (got NaN or inf)")
    n = x.shape[0]
    ids = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        ids[lo:hi] = _block_ids(
            np.ascontiguousarray(x[lo:hi]),
            np.ascontiguousarray(y[lo:hi]),
            np.ascontiguousarray(z[lo:hi]),
            depth,
        )
    return ids if depth == MAX_DEPTH else ids.view(np.int64)


def _block_ids(px, py, pz, depth: int) -> np.ndarray:
    p = (px, py, pz)
    face = _first_passing([
        np.minimum(
            np.minimum(_edge_dot_cols(*a, *b, *p), _edge_dot_cols(*b, *c, *p)),
            _edge_dot_cols(*c, *a, *p),
        )
        for a, b, c in FACE_CORNERS
    ])
    corners = _FACE_CORNER_ARR[face]
    a, b, c = (tuple(corners[:, i, k] for k in range(3)) for i in range(3))
    ids = face + 8
    for _ in range(depth):
        w0 = _mid_cols(*b, *c)
        w1 = _mid_cols(*c, *a)
        w2 = _mid_cols(*a, *b)
        # Child 3 is (w0, w1, w2); children 0..2 are (a, w2, w1),
        # (b, w0, w2) and (c, w1, w0), whose middle edges are child 3's
        # reversed: e(w2, w1) = -i1, e(w0, w2) = -i2, e(w1, w0) = -i0.
        i0 = _edge_dot_cols(*w0, *w1, *p)
        i1 = _edge_dot_cols(*w1, *w2, *p)
        i2 = _edge_dot_cols(*w2, *w0, *p)
        m0 = np.minimum(np.minimum(_edge_dot_cols(*a, *w2, *p), -i1), _edge_dot_cols(*w1, *a, *p))
        m1 = np.minimum(np.minimum(_edge_dot_cols(*b, *w0, *p), -i2), _edge_dot_cols(*w2, *b, *p))
        m2 = np.minimum(np.minimum(_edge_dot_cols(*c, *w1, *p), -i0), _edge_dot_cols(*w0, *c, *p))
        m3 = np.minimum(np.minimum(i0, i1), i2)
        digit = _first_passing([m0, m1, m2, m3])
        ids <<= 2
        ids |= digit
        k0, k1, k2 = digit == 0, digit == 1, digit == 2
        a, b, c = (
            tuple(np.where(k0, a[i], np.where(k1, b[i], np.where(k2, c[i], w0[i]))) for i in range(3)),
            tuple(np.where(k0, w2[i], np.where(k1, w0[i], w1[i])) for i in range(3)),
            tuple(np.where(k0, w1[i], np.where(k2, w0[i], w2[i])) for i in range(3)),
        )
    return ids


def _mid_cols(ux, uy, uz, vx, vy, vz):
    """_mid on component arrays, same operations in the same order."""
    x, y, z = ux + vx, uy + vy, uz + vz
    n = x * x
    n += y * y
    n += z * z
    np.sqrt(n, out=n)
    x /= n
    y /= n
    z /= n
    return x, y, z


def _edge_dot_cols(ux, uy, uz, vx, vy, vz, px, py, pz):
    """(u x v) . p on component arrays, in _edge_dots' operation order.
    u and v may be scalars (a face's corners)."""
    d = uy * vz
    d -= uz * vy
    d *= px
    t = uz * vx
    t -= ux * vz
    t *= py
    d += t
    t = ux * vy
    t -= uy * vx
    t *= pz
    d += t
    return d


def _first_passing(mins) -> np.ndarray:
    """_pick's rule per point over candidates' smallest edge dots: the first
    candidate with mins[i] >= _TIE_EPS, else the argmax, the first on ties."""
    choice = np.full(mins[0].shape, len(mins), dtype=np.uint64)
    for i in range(len(mins) - 1, -1, -1):
        choice[mins[i] >= _TIE_EPS] = i
    miss = np.flatnonzero(choice == len(mins))
    if miss.size:
        choice[miss] = np.stack([m[miss] for m in mins]).argmax(axis=0)
    return choice
