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

A trixel is its three corners, a tuple of (x, y, z) tuples, as
FACE_CORNERS, _children and _corners_of_id give them. A region is a list
of its convexes, each a list of (nx, ny, nz, l) half-space rows, the
region store's form.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .geom import _NORM2_TOL, arc_deg

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
    """Malformed trixel id, out-of-range depth or bad half-space row."""


def _mid(a, b, sqrt=math.sqrt):
    x, y, z = a[0] + b[0], a[1] + b[1], a[2] + b[2]
    n = sqrt(x * x + y * y + z * z)
    return (x / n, y / n, z / n)


def _children(corners, sqrt=math.sqrt):  # on floats, or on columns with np.sqrt
    v0, v1, v2 = corners
    w0 = _mid(v1, v2, sqrt)
    w1 = _mid(v2, v0, sqrt)
    w2 = _mid(v0, v1, sqrt)
    return ((v0, w2, w1), (v1, w0, w2), (v2, w1, w0), (w0, w1, w2))


def trixel_corners(depth: int) -> np.ndarray:
    """_corners_of_id of every trixel at depth, bit for bit, as a (corner,
    component, trixel) array: column k is id (8 << 2 * depth) + k."""
    corners = np.array(FACE_CORNERS).transpose(1, 2, 0)
    for _ in range(depth):  # child digit fastest, as in the ids
        corners = np.array(_children(corners, np.sqrt)).transpose(1, 2, 3, 0).reshape(3, 3, -1)
    return corners


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


# Each face's edge dots (a x b, b x c, c x a) . p as rows of the signed
# components (x, y, z, -x, -y, -z): a face's corners are axis vectors, so
# each edge normal is one signed axis and each dot is exact. Face 0 =
# (x, y, z-axis) has a x b = z, b x c = x and c x a = y, rows (2, 0, 1).
_FACE_EDGES = ((2, 0, 1), (2, 1, 3), (2, 3, 4), (2, 4, 0), (5, 1, 0), (5, 3, 1), (5, 4, 3), (5, 0, 4))


def _kids(e_ab, e_bc, e_ca, c_ab, c_bc, c_ca, sqrt):
    """One level of the descent, on floats (sqrt = math.sqrt) or arrays
    (np.sqrt) by the same expressions in the same order.

    A trixel (a, b, c) is carried as its edge dots e_ab = (a x b) . p,
    e_bc, e_ca and its corner cosines c_ab = a . b, c_bc, c_ca. With the
    midpoints w0 = (b + c) / n0, w1 = (c + a) / n1, w2 = (a + b) / n2,
    where n0 = |b + c| = sqrt(2 + 2 c_bc) and so on, the central child's
    edge dots are i0 = (w0 x w1) . p = (e_bc - e_ab + e_ca) / (n0 n1),
    i1 = (w1 x w2) . p and i2 = (w2 x w0) . p. Every child's dots and
    cosines follow by the same identities, so no corner is ever formed:
    child 0 = (a, w2, w1) has a x w2 = (a x b) / n2, w2 x w1 = -(w1 x w2),
    w1 x a = (c x a) / n1, a . w2 = n2 / 2 and w2 . w1 = s / (n1 n2),
    where s = 1 + c_ab + c_bc + c_ca; children 1 and 2 rotate it.

    Returns the values each child's carry is drawn from, as _CARRY lists.
    """
    n0 = sqrt(2.0 + 2.0 * c_bc)
    n1 = sqrt(2.0 + 2.0 * c_ca)
    n2 = sqrt(2.0 + 2.0 * c_ab)
    s = 1.0 + c_ab + c_bc + c_ca
    n01, n12, n20 = n0 * n1, n1 * n2, n2 * n0
    i0 = (e_bc - e_ab + e_ca) / n01
    i1 = (e_ca - e_bc + e_ab) / n12
    i2 = (e_ab - e_ca + e_bc) / n20
    return (
        e_ab / n2, e_bc / n0, e_ca / n1,
        i0, i1, i2, -i0, -i1, -i2,
        0.5 * n2, 0.5 * n0, 0.5 * n1,
        s / n01, s / n12, s / n20,
    )  # fmt: skip


# Each child's carry (e_ab, e_bc, e_ca, c_ab, c_bc, c_ca) as indices into
# _kids' values. Child 3 = (w0, w1, w2) carries (i0, i1, i2) and its
# cosines s / (n0 n1), s / (n1 n2), s / (n2 n0).
_CARRY = (
    (0, 7, 2, 9, 13, 11),  # child 0 = (a, w2, w1)
    (1, 8, 0, 10, 14, 9),  # child 1 = (b, w0, w2)
    (2, 6, 1, 11, 12, 10),  # child 2 = (c, w1, w0)
    (3, 4, 5, 12, 13, 14),  # child 3 = (w0, w1, w2)
)

# The child digit by which of i1, i2, i0 (bits 0, 1, 2) are below 0: p
# outside the central child's edge w1 w2 lies in child 0, outside w2 w0
# in child 1, outside w0 w1 in child 2, the first of these winning.
_DIGIT = (3, 0, 1, 0, 2, 0, 1, 0)


def point_to_id(p, depth: int) -> int:
    """Trixel id at the given depth containing p, a unit vector with x, y
    and z attributes (a geom.UnitVec3).

    The face is the first whose edge dots, exactly +-x, +-y or +-z, are
    all >= 0; each level then takes the child _DIGIT names, by _kids'
    inner-edge dots. These are exact identities of the normalized
    midpoints, rounded once per operation, so the id is p's geometric
    trixel at every depth: p lies in it, or just outside it (far less
    than 1e-15 radians) where rounding breaks a tie on an edge.
    """
    if not (0 <= depth <= MAX_DEPTH):
        raise HtmError(f"depth out of range 0..{MAX_DEPTH}: {depth}")
    signed = (p.x, p.y, p.z, -p.x, -p.y, -p.z)
    for face, rows in enumerate(_FACE_EDGES):
        if min(signed[r] for r in rows) >= 0.0:
            break
    carry = (*(signed[r] for r in rows), 0.0, 0.0, 0.0)
    hid = 8 + face
    for _ in range(depth):
        vals = _kids(*carry, math.sqrt)
        i0, i1, i2 = vals[3:6]
        digit = _DIGIT[(i1 < 0.0) + 2 * (i2 < 0.0) + 4 * (i0 < 0.0)]
        carry = tuple(vals[k] for k in _CARRY[digit])
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


def prefix_contains(a: int, b: int) -> bool:
    """True iff trixel a contains trixel b (a's id is a digit-prefix of b's)."""
    da, db = id_depth(a), id_depth(b)
    if da > db:
        return False
    return (b >> (2 * (db - da))) == a


def trixel_area_sr(corners) -> float:
    """Spherical area (steradians) by the Van Oosterom-Strackee formula.

    tan(E/2) = |a . ((b - a) x (c - a))| / (1 + a.b + b.c + c.a). The edge
    differences keep the numerator accurate for tiny trixels, where
    Girard's excess (angle sum minus pi) cancels to nothing near MAX_DEPTH.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = corners
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


def trixel_max_edge_deg(corners) -> float:
    return max(arc_deg(corners[i], corners[(i + 1) % 3]) for i in range(3))


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


def _halfspaces(rows):
    """A convex's rows as (normal tuple, l, acos(l)), made once per cover;
    |n|^2 off 1 by more than _NORM2_TOL, l outside [-1, 1] or NaN raise."""
    for nx, ny, nz, l in rows:
        if not (abs(nx * nx + ny * ny + nz * nz - 1.0) <= _NORM2_TOL and -1.0 <= l <= 1.0):
            raise HtmError(f"a half-space row needs a unit normal and l in [-1, 1]: {(nx, ny, nz, l)!r}")
    return tuple(((nx, ny, nz), l, math.acos(l)) for nx, ny, nz, l in rows)


def _classify_halfspace(corners, cap, n, l, theta) -> int:
    """The trixel against the cap {p . n > l} of angular radius theta.
    cap holds the trixel's _bounding_cap, or is empty until a verdict
    first needs it, so a trixel the corner test settles never makes one.

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
        if not cap:
            cap.append(_bounding_cap(corners))
        (ux, uy, uz), rho = cap[0]
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


def classify_trixel(corners, rows) -> int:
    """The trixel against a convex's rows: INSIDE/OUTSIDE only when provable, else PARTIAL."""
    return _classify_region(corners, [_halfspaces(rows)])


def _classify_region(corners, convexes) -> int:
    """The trixel against a union of convexes, each given by _halfspaces."""
    cap = []  # its _bounding_cap, made once, by the first half-space that needs it
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


def cover(convexes, max_ranges: int = 20, max_depth: int = 20) -> list[tuple[int, int]]:
    """Sound trixel-range cover of a region, given as its convexes' rows,
    unit normals and l in [-1, 1], as geom.region_rows makes them.

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
    convexes = [_halfspaces(rows) for rows in convexes]
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

# Points per block: each level's temporaries, a few dozen arrays of this
# length, stay small enough to remain in cache.
_BLOCK = 8192


def ids_for_points(x, y, z, depth: int) -> np.ndarray:
    """point_to_id for arrays of unit-vector components, equal to it bit for bit.

    The points are walked in blocks of _BLOCK. Each level runs _kids on
    whole columns, the expressions point_to_id evaluates in the same
    order, and draws each point's next carry by the same _DIGIT and
    _CARRY tables. So the ids equal point_to_id's on every finite input,
    edges, corners and poles included.

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
        ids[lo:hi] = _block_ids(x[lo:hi], y[lo:hi], z[lo:hi], depth)
    return ids if depth == MAX_DEPTH else ids.view(np.int64)


def _block_ids(x, y, z, depth: int) -> np.ndarray:
    signed = np.stack((x, y, z, -x, -y, -z))
    face = np.zeros(len(x), dtype=np.intp)
    for f in range(len(_FACE_EDGES) - 1, -1, -1):
        face[signed[list(_FACE_EDGES[f])].min(axis=0) >= 0.0] = f
    carry = (*_take_rows(signed, _FACE_EDGES, face), *np.zeros((3, len(x))))
    ids = (face + 8).astype(np.uint64)
    digits = np.array(_DIGIT, dtype=np.uint8)
    for _ in range(depth):
        vals = np.stack(_kids(*carry, np.sqrt))
        neg0, neg1, neg2 = (vals[3:6] < 0.0).view(np.uint8)  # i0, i1, i2 below 0
        digit = digits.take(neg1 + 2 * neg2 + 4 * neg0)
        carry = _take_rows(vals, _CARRY, digit)
        ids <<= 2
        ids |= digit
    return ids


def _take_rows(vals, table, choice) -> np.ndarray:
    """Point j's rows table[choice[j]] of the stacked columns vals, as one
    gather: a np.where per choice would branch on every point."""
    n = vals.shape[1]
    at = (np.array(table).T * n).take(choice, axis=1)
    at += np.arange(n)
    return vals.take(at)
