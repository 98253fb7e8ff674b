"""Core spherical geometry: unit vectors, spherical caps, convexes, regions.

Positions on the celestial sphere are unit 3-vectors. A cap ("half-space")
is the set of unit vectors p with p . normal > l for a unit normal and a
cut length l in [-1, 1]; a convex is the intersection of caps; a region is
a union of convexes (disjunctive normal form). All angles are degrees
unless a name says otherwise; radians appear only transiently inside trig
calls.

Containment is strict everywhere: a point exactly on a cap boundary is
outside. Callers that sample membership should keep a small guard band
around boundaries.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np


UNIT_NORM_TOL = 1e-12
# How far |n|^2 of a stored or covered normal may lie from 1. The store
# writes normals within 2.5 ulps (over 200k `UnitVec3.normalized` and
# `sky_to_vec` vectors). A normal 16 ulps long widens its cap by at most
# 3.4e-6 degrees (at l = 1), which with the 2.6e-6 degree rounding of
# p . n > l stays inside points_in_region's COVER_PAD_DEG of 1e-5 degrees.
_NORM2_TOL = 16 * 2.0**-52

Vec = tuple[float, float, float]  # a point on the unit sphere: (x, y, z)
Row = tuple[float, float, float, float]  # one half-space: (nx, ny, nz, l)


class GeometryError(ValueError):
    """Invalid geometric argument (bad range, non-unit vector, ...)."""


def _normalize_ra(ra: float) -> float:
    ra = math.fmod(ra, 360.0)
    if ra < 0.0:
        ra += 360.0
    # fmod(-1e-17, 360) + 360 rounds to 360.0; fold that back
    if ra >= 360.0:
        ra = 0.0
    return ra


@dataclass(frozen=True)
class SkyPoint:
    """Equatorial position in degrees: ra normalized to [0, 360), dec in [-90, 90]."""

    ra: float
    dec: float

    def __post_init__(self):
        if not (-90.0 <= self.dec <= 90.0):
            raise GeometryError(f"dec out of range [-90, 90]: {self.dec!r}")
        if not math.isfinite(self.ra):
            raise GeometryError(f"ra is not finite: {self.ra!r}")
        object.__setattr__(self, "ra", _normalize_ra(float(self.ra)))
        object.__setattr__(self, "dec", float(self.dec))


def _check_unit(x: float, y: float, z: float) -> None:
    n2 = x * x + y * y + z * z
    # `not <=` rather than `>`, so that a NaN norm fails it too
    if not (abs(n2 - 1.0) <= 4.0 * UNIT_NORM_TOL):
        raise GeometryError(f"not a unit vector: norm^2 = {n2!r}")


def normalized_xyz(x: float, y: float, z: float) -> Vec:
    """(x, y, z) scaled to unit length, checked as UnitVec3 checks."""
    n2 = x * x + y * y + z * z
    # `not <=` so that a NaN sum takes this branch too
    if not (sys.float_info.min <= n2 < math.inf):
        # the squares overflowed or underflowed: divide by the largest
        # component first, so the sum lies in [1, 3]
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise GeometryError(f"cannot normalize a vector that is not finite: {(x, y, z)!r}")
        m = max(abs(x), abs(y), abs(z))
        if m == 0.0:
            raise GeometryError("cannot normalize the zero vector")
        x, y, z = x / m, y / m, z / m
        n2 = x * x + y * y + z * z
    n = math.sqrt(n2)
    v = (x / n, y / n, z / n)
    _check_unit(*v)
    return v


@dataclass(frozen=True)
class UnitVec3:
    """A point on the unit sphere. Construction rejects non-unit input."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        _check_unit(self.x, self.y, self.z)

    @staticmethod
    def normalized(x: float, y: float, z: float) -> "UnitVec3":
        return UnitVec3(*normalized_xyz(x, y, z))

    def dot(self, other: "UnitVec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "UnitVec3") -> tuple[float, float, float]:
        return (
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def negated(self) -> "UnitVec3":
        return UnitVec3(-self.x, -self.y, -self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class HalfSpace:
    """The open cap {p : p . normal > l}, l in [-1, 1]."""

    normal: UnitVec3
    l: float

    def __post_init__(self):
        l = float(self.l)
        if not (-1.0 - 1e-9 <= l <= 1.0 + 1e-9):
            raise GeometryError(f"half-space length out of [-1, 1]: {l!r}")
        object.__setattr__(self, "l", min(1.0, max(-1.0, l)))


@dataclass(frozen=True)
class Convex:
    """Intersection of half-spaces. No constraints means the whole sphere."""

    constraints: tuple[HalfSpace, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))


@dataclass(frozen=True)
class Region:
    """Union of convexes. No convexes means the empty region."""

    convexes: tuple[Convex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "convexes", tuple(self.convexes))


def sky_to_vec(p: SkyPoint) -> UnitVec3:
    """Map (ra, dec) to the unit vector (cos dec cos ra, cos dec sin ra, sin dec)."""
    ra = math.radians(p.ra)
    dec = math.radians(p.dec)
    cd = math.cos(dec)
    return UnitVec3(cd * math.cos(ra), cd * math.sin(ra), math.sin(dec))


def sky_to_xyz(ra: np.ndarray, dec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sky_to_vec of columns; catalogs built or loaded derive x, y, z here."""
    rr = np.radians(ra)
    dd = np.radians(dec)
    cd = np.cos(dd)
    return cd * np.cos(rr), cd * np.sin(rr), np.sin(dd)


def vec_to_sky(v: UnitVec3) -> SkyPoint:
    """Inverse of sky_to_vec. At the poles (x = y = 0) ra is 0; every other
    vector keeps its own ra and dec, however close to a pole."""
    if v.x == 0.0 and v.y == 0.0:
        return SkyPoint(0.0, 90.0 if v.z > 0 else -90.0)
    ra = math.degrees(math.atan2(v.y, v.x))
    if ra < 0.0:
        ra += 360.0
    dec = math.degrees(math.asin(max(-1.0, min(1.0, v.z))))
    return SkyPoint(ra, dec)


def inside_convex(c: Convex, p: UnitVec3) -> bool:
    return all(p.dot(h.normal) > h.l for h in c.constraints)


def inside_region(r: Region, p: UnitVec3) -> bool:
    return any(inside_convex(c, p) for c in r.convexes)


def arc_deg(a, b) -> float:
    """Arc distance in degrees between a and b, each (x, y, z) or a row's
    normal (nx, ny, nz, l), via the chord: 2 asin(|a - b| / 2).

    Stable for very small separations, where acos of the dot product loses
    all precision.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    half_chord = 0.5 * math.sqrt(dx * dx + dy * dy + dz * dz)
    return math.degrees(2.0 * math.asin(min(1.0, half_chord)))


def arc_distance_deg(a: UnitVec3, b: UnitVec3) -> float:
    """arc_deg of two UnitVec3."""
    return arc_deg(a.as_tuple(), b.as_tuple())


def radius_deg(h: Row) -> float:
    """Angular radius in degrees of a row's cap."""
    return math.degrees(math.acos(h[3]))


def circle_to_halfspace(center: UnitVec3, radius) -> HalfSpace:
    """Cap of the given angular radius around center: normal = center, l = cos(radius)."""
    r = float(radius)
    if not (0.0 <= r <= 180.0):
        raise GeometryError(f"circle radius out of [0, 180] degrees: {r!r}")
    return HalfSpace(center, math.cos(math.radians(r)))


def region_rows(region: Region) -> list[list[Row]]:
    """The region's convexes as lists of (nx, ny, nz, l) rows, bit for bit:
    the form the region store, the bounding circles and htm.cover take."""
    return [[(h.normal.x, h.normal.y, h.normal.z, h.l) for h in c.constraints] for c in region.convexes]


# -- boundary vertices ----------------------------------------------------


# Below this 1 - d^2 (normals at a dot d), _plane_pair_points forms 1 - |d|
# as half a squared distance of the normals: from d, a vertex is ~2e-9 off
# at 3e-6. Past 1e-2 the forms agree to ~1e-14, and the vertices there keep
# the bits they had.
_NEAR_PARALLEL = 1e-2


def _plane_pair_points(h1: Row, h2: Row) -> list[Vec]:
    """The (0, 1, or 2) unit-sphere points on both rows' boundary planes,
    q +- g (n1 x n2) with q = alpha n1 + beta n2. For near-parallel normals,
    alpha, beta and 1 - |q|^2 are written through e = 1 - d, the last as
    ((1 - d)(1 + d) - (l1 - l2)^2 - 2 l1 l2 (1 - d)) / (1 - d^2), and
    e = |n1 - n2|^2 / 2. For near-antiparallel ones (d < 0) the same forms
    take h2's plane as (-n2, -l2): e is then |n1 + n2|^2 / 2 = 1 + d, which
    2 - e would give only through cancellation."""
    (n1x, n1y, n1z, l1), (n2x, n2y, n2z, l2) = h1, h2
    d = n1x * n2x + n1y * n2y + n1z * n2z
    denom = 1.0 - d * d
    if denom <= 1e-14:
        return []
    if denom < _NEAR_PARALLEL:
        s = math.copysign(1.0, d)
        m2x, m2y, m2z, m2 = s * n2x, s * n2y, s * n2z, s * l2
        e = 0.5 * ((n1x - m2x) ** 2 + (n1y - m2y) ** 2 + (n1z - m2z) ** 2)
        denom = e * (2.0 - e)
        alpha, beta = (l1 - m2 + m2 * e) / denom, s * (m2 - l1 + l1 * e) / denom
        rest = (denom - (l1 - m2) ** 2 - 2.0 * l1 * m2 * e) / denom
    else:
        alpha, beta, rest = (l1 - l2 * d) / denom, (l2 - l1 * d) / denom, None
    qx = alpha * n1x + beta * n2x
    qy = alpha * n1y + beta * n2y
    qz = alpha * n1z + beta * n2z
    cx, cy, cz = n1y * n2z - n1z * n2y, n1z * n2x - n1x * n2z, n1x * n2y - n1y * n2x
    c2 = cx * cx + cy * cy + cz * cz
    g2 = (1.0 - (qx * qx + qy * qy + qz * qz) if rest is None else rest) / c2
    if g2 <= -1e-14:
        return []
    g = math.sqrt(max(g2, 0.0))  # a g2 above -1e-14 is a rounded 0
    out = []
    for s in ((g,) if g == 0.0 else (g, -g)):
        vx, vy, vz = qx + s * cx, qy + s * cy, qz + s * cz
        try:
            out.append(normalized_xyz(vx, vy, vz))
        except GeometryError:
            pass
    return out


def convex_boundary_vertices(rows: list[Row]) -> list[Vec]:
    """Pairwise cap-boundary intersection points that satisfy all other
    rows of the convex (within 1e-12). These are the corner points of the
    convex's boundary patches."""
    verts: list[Vec] = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            for p in _plane_pair_points(rows[i], rows[j]):
                px, py, pz = p
                for k, (nx, ny, nz, l) in enumerate(rows):
                    if k != i and k != j and px * nx + py * ny + pz * nz < l - 1e-12:
                        break
                else:
                    verts.append(p)
    return verts


# -- enclosing caps --------------------------------------------------------
#
# The minimum cap covering a point set comes from the Euclidean minimum
# enclosing ball of the unit vectors (Welzl's algorithm): for cap radii
# below 90 degrees the normalized ball center is the cap center, and a
# ball centered at the origin means no hemisphere holds the points.


def _solve3(rows, rhs):
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if abs(det) < 1e-14:
        return None
    x = (rhs[0] * (e * i - f * h) - b * (rhs[1] * i - f * rhs[2]) + c * (rhs[1] * h - e * rhs[2])) / det
    y = (a * (rhs[1] * i - f * rhs[2]) - rhs[0] * (d * i - f * g) + c * (d * rhs[2] - rhs[1] * g)) / det
    z = (a * (e * rhs[2] - rhs[1] * h) - b * (d * rhs[2] - rhs[1] * g) + rhs[0] * (d * h - e * g)) / det
    return (x, y, z)


def _circum(points):
    """Circumcenter of 3 or 4 points in 3D (equidistant point), or None."""
    a = points[0]
    rows = []
    rhs = []
    for p in points[1:]:
        u = (p[0] - a[0], p[1] - a[1], p[2] - a[2])
        rows.append(u)
        rhs.append((u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 2.0)
    if len(rows) == 2:
        u, v = rows
        w = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        rows = [u, v, w]
        rhs = rhs + [0.0]
    sol = _solve3(rows, rhs)
    if sol is None:
        return None
    return (a[0] + sol[0], a[1] + sol[1], a[2] + sol[2])


def _ball_of_support(support):
    if not support:
        return (0.0, 0.0, 0.0), -1.0
    if len(support) == 1:
        return support[0], 0.0
    best = None
    # smallest ball with all support points on its boundary-or-inside:
    # try diameters, then circumcenters of sub-triples/quadruple
    for m in range(2, len(support) + 1):
        for combo in combinations(range(len(support)), m):
            pts = [support[i] for i in combo]
            if len(pts) == 2:
                (ax, ay, az), (bx, by, bz) = pts
                c = ((ax + bx) / 2, (ay + by) / 2, (az + bz) / 2)
            elif (c := _circum(pts)) is None:
                continue
            cx, cy, cz = c
            r = None
            for x, y, z in pts:
                d = math.sqrt((cx - x) * (cx - x) + (cy - y) * (cy - y) + (cz - z) * (cz - z))
                if r is None or d > r:
                    r = d
            bound = r * (1 + 1e-12) + 1e-14
            for x, y, z in support:
                if not math.sqrt((cx - x) * (cx - x) + (cy - y) * (cy - y) + (cz - z) * (cz - z)) <= bound:
                    break
            else:
                if best is None or r < best[1]:
                    best = (c, r)
        if best is not None:
            return best
    return best if best is not None else (support[0], 0.0)


def _welzl(points, support, idx):
    """Welzl's (1991) smallest ball of points[idx:] with support on its
    boundary; tail recursion unrolled, so calls nest at most 4 deep."""
    c, r = _ball_of_support(support)
    if len(support) == 4:
        return c, r
    for j in range(len(points) - 1, idx - 1, -1):
        px, py, pz = p = points[j]
        dx, dy, dz = c[0] - px, c[1] - py, c[2] - pz
        if not math.sqrt(dx * dx + dy * dy + dz * dz) <= r * (1 + 1e-12) + 1e-14:
            c, r = _welzl(points, support + [p], j + 1)
    return c, r


def euclidean_miniball(points: list[tuple[float, float, float]]):
    """Exact minimum enclosing ball (center, radius) of 3D points."""
    if not points:
        raise GeometryError("miniball of no points")
    pts = list(points)
    random.Random(0x5EED).shuffle(pts)
    if len(pts) > 400:
        # Welzl on a sample, grown by the worst violator until it holds all
        sample = pts[:400]
        while True:
            c, r = _welzl(sample, [], 0)
            cx, cy, cz = c
            dists = [math.sqrt((cx - x) * (cx - x) + (cy - y) * (cy - y) + (cz - z) * (cz - z)) for x, y, z in pts]
            worst = max(dists)
            if worst <= r * (1 + 1e-10) + 1e-12:
                return c, r
            sample.append(pts[dists.index(worst)])
    return _welzl(pts, [], 0)


def min_enclosing_cap(points: list[Vec]) -> tuple[Vec, float]:
    """Near-minimal cap covering the unit (x, y, z) points: (center, radius
    degrees).

    The radius is measured against the chosen center, so the cap covers the
    inputs even in the degenerate case where the Euclidean ball center
    collapses to the origin (points spanning the whole sphere).
    """
    if not points:
        raise GeometryError("min_enclosing_cap of no points")
    if len(points) == 1:
        return points[0], 0.0
    c, _ = euclidean_miniball(points)
    if math.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2]) < 1e-9:
        center = (0.0, 0.0, 1.0)
    else:
        center = normalized_xyz(*c)
    radius = max(arc_deg(center, p) for p in points)
    return center, radius


def closed_hemisphere_witness(points: list[UnitVec3], margin: float = -1e-12):
    """A unit w with w . p >= margin for all points, or None.

    Fast paths (centroid, enclosing-cap center) resolve well-separated
    inputs; the exact search over KKT support sets of the max-min problem
    settles boundary cases like vertex sets touching a great circle.
    """
    if not points:
        return UnitVec3(0.0, 0.0, 1.0)

    def min_dot(w):
        return min(w.dot(p) for p in points)

    sx = sum(p.x for p in points)
    sy = sum(p.y for p in points)
    sz = sum(p.z for p in points)
    if sx * sx + sy * sy + sz * sz > 1e-20:
        w = UnitVec3.normalized(sx, sy, sz)
        if min_dot(w) >= margin:
            return w
    w = UnitVec3(*min_enclosing_cap([p.as_tuple() for p in points])[0])
    if min_dot(w) >= margin:
        return w
    if len(points) > 64:
        return None
    best_w, best_m = None, -2.0
    n = len(points)
    candidates = list(points)
    for i in range(n):
        for j in range(i + 1, n):
            s = (
                points[i].x + points[j].x,
                points[i].y + points[j].y,
                points[i].z + points[j].z,
            )
            if s[0] * s[0] + s[1] * s[1] + s[2] * s[2] > 1e-20:
                candidates.append(UnitVec3.normalized(*s))
            for k in range(j + 1, n):
                rows = [points[i].as_tuple(), points[j].as_tuple(), points[k].as_tuple()]
                sol = _solve3(rows, (1.0, 1.0, 1.0))
                if sol is None:
                    continue
                nn = math.sqrt(sol[0] ** 2 + sol[1] ** 2 + sol[2] ** 2)
                if nn < 1e-12:
                    continue
                candidates.append(UnitVec3(sol[0] / nn, sol[1] / nn, sol[2] / nn))
    for w in candidates:
        m = min_dot(w)
        if m > best_m:
            best_w, best_m = w, m
    if best_m >= margin:
        return best_w
    return None
