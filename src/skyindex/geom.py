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
from dataclasses import dataclass


UNIT_NORM_TOL = 1e-12


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
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        # `not <=` rather than `>`, so that a NaN norm fails it too
        if not (abs(n2 - 1.0) <= 4.0 * UNIT_NORM_TOL):
            raise GeometryError(f"not a unit vector: norm^2 = {n2!r}")

    @staticmethod
    def normalized(x: float, y: float, z: float) -> "UnitVec3":
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise GeometryError("cannot normalize the zero vector")
        return UnitVec3(x / n, y / n, z / n)

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
class ArcAngle:
    """A non-negative arc angle, stored in degrees."""

    degrees: float

    def __post_init__(self):
        if not (0.0 <= self.degrees <= 360.0):
            raise GeometryError(f"arc angle out of range [0, 360]: {self.degrees!r}")
        object.__setattr__(self, "degrees", float(self.degrees))

    @staticmethod
    def from_arcmin(value: float) -> "ArcAngle":
        return ArcAngle(value / 60.0)


def as_degrees(angle) -> float:
    """Accept an ArcAngle or a plain finite number of degrees."""
    if isinstance(angle, ArcAngle):
        return angle.degrees
    deg = float(angle)
    if not math.isfinite(deg):
        raise GeometryError(f"angle is not finite: {deg!r}")
    return deg


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

    def radius_deg(self) -> float:
        """Angular radius of the cap in degrees."""
        return math.degrees(math.acos(self.l))


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


def vec_to_sky(v: UnitVec3) -> SkyPoint:
    """Inverse of sky_to_vec. At the poles (|z| = 1 within 1e-12) ra is 0."""
    if abs(abs(v.z) - 1.0) <= 1e-12:
        return SkyPoint(0.0, 90.0 if v.z > 0 else -90.0)
    ra = math.degrees(math.atan2(v.y, v.x))
    if ra < 0.0:
        ra += 360.0
    dec = math.degrees(math.asin(max(-1.0, min(1.0, v.z))))
    return SkyPoint(ra, dec)


def inside_halfspace(h: HalfSpace, p: UnitVec3) -> bool:
    return p.dot(h.normal) > h.l


def inside_convex(c: Convex, p: UnitVec3) -> bool:
    return all(p.dot(h.normal) > h.l for h in c.constraints)


def inside_region(r: Region, p: UnitVec3) -> bool:
    return any(inside_convex(c, p) for c in r.convexes)


def arc_distance_deg(a: UnitVec3, b: UnitVec3) -> float:
    """Arc distance in degrees via the chord: 2 asin(|a - b| / 2).

    Stable for very small separations, where acos of the dot product loses
    all precision.
    """
    dx = a.x - b.x
    dy = a.y - b.y
    dz = a.z - b.z
    half_chord = 0.5 * math.sqrt(dx * dx + dy * dy + dz * dz)
    return math.degrees(2.0 * math.asin(min(1.0, half_chord)))


def circle_to_halfspace(center: UnitVec3, radius) -> HalfSpace:
    """Cap of the given angular radius around center: normal = center, l = cos(radius)."""
    r = as_degrees(radius)
    if not (0.0 <= r <= 180.0):
        raise GeometryError(f"circle radius out of [0, 180] degrees: {r!r}")
    return HalfSpace(center, math.cos(math.radians(r)))


def buffer_halfspace(h: HalfSpace, theta) -> HalfSpace:
    """Enlarge the cap by theta: l' = cos(acos(l) + theta), clamped to -1."""
    t = math.radians(as_degrees(theta))
    a = math.acos(h.l) + t
    if a >= math.pi:
        return HalfSpace(h.normal, -1.0)
    return HalfSpace(h.normal, math.cos(a))


def buffer_region(r: Region, theta) -> Region:
    """Buffer every constraint of every convex by theta."""
    return Region(
        tuple(
            Convex(tuple(buffer_halfspace(h, theta) for h in c.constraints))
            for c in r.convexes
        )
    )


def negate_halfspace(h: HalfSpace) -> HalfSpace:
    """Complement cap: all four components flip sign."""
    return HalfSpace(h.normal.negated(), -h.l)


# -- boundary vertices ----------------------------------------------------


def _plane_pair_points(h1: HalfSpace, h2: HalfSpace) -> list[UnitVec3]:
    """The (0, 1, or 2) unit-sphere points on both cap boundary planes."""
    n1, n2 = h1.normal, h2.normal
    d = n1.dot(n2)
    denom = 1.0 - d * d
    if denom <= 1e-14:
        return []
    alpha = (h1.l - h2.l * d) / denom
    beta = (h2.l - h1.l * d) / denom
    qx = alpha * n1.x + beta * n2.x
    qy = alpha * n1.y + beta * n2.y
    qz = alpha * n1.z + beta * n2.z
    cx, cy, cz = n1.cross(n2)
    c2 = cx * cx + cy * cy + cz * cz
    g2 = (1.0 - (qx * qx + qy * qy + qz * qz)) / c2
    if g2 < 0.0:
        if g2 > -1e-14:
            g2 = 0.0
        else:
            return []
    g = math.sqrt(g2)
    out = []
    for s in ((g,) if g == 0.0 else (g, -g)):
        vx, vy, vz = qx + s * cx, qy + s * cy, qz + s * cz
        try:
            out.append(UnitVec3.normalized(vx, vy, vz))
        except GeometryError:
            pass
    return out


def convex_boundary_vertices(c: Convex, tol: float = 1e-12) -> list[UnitVec3]:
    """Pairwise cap-boundary intersection points that satisfy all other
    constraints of the convex (within tol). These are the corner points of
    the convex's boundary patches."""
    cons = c.constraints
    verts: list[UnitVec3] = []
    for i in range(len(cons)):
        for j in range(i + 1, len(cons)):
            for p in _plane_pair_points(cons[i], cons[j]):
                ok = True
                for k, h in enumerate(cons):
                    if k == i or k == j:
                        continue
                    if p.dot(h.normal) < h.l - tol:
                        ok = False
                        break
                if ok:
                    verts.append(p)
    return verts


# -- enclosing caps --------------------------------------------------------
#
# The minimum cap covering a point set comes from the Euclidean minimum
# enclosing ball of the unit vectors (Welzl's algorithm): for cap radii
# below 90 degrees the normalized ball center is the cap center, and a
# ball centered at the origin means no hemisphere holds the points.


def _ball_2(a, b):
    c = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2)
    return c, _edist(c, a)


def _edist(a, b):
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


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
    """Circumcenter of 2, 3 or 4 points in 3D (equidistant point), or None."""
    a = points[0]
    rows = []
    rhs = []
    for p in points[1:]:
        u = (p[0] - a[0], p[1] - a[1], p[2] - a[2])
        rows.append(u)
        rhs.append((u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 2.0)
    if len(rows) == 1:
        return _ball_2(a, points[1])[0]
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
    k = len(support)
    # smallest ball with all support points on its boundary-or-inside:
    # try diameters, then circumcenters of sub-triples/quadruple
    import itertools

    for m in (2, 3, 4):
        if m > k:
            break
        for combo in itertools.combinations(range(k), m):
            pts = [support[i] for i in combo]
            c = _ball_2(*pts)[0] if m == 2 else _circum(pts)
            if c is None:
                continue
            r = max(_edist(c, p) for p in pts)
            if all(_edist(c, p) <= r * (1 + 1e-12) + 1e-14 for p in support):
                if best is None or r < best[1]:
                    best = (c, r)
        if best is not None:
            return best
    return best if best is not None else (support[0], 0.0)


def _welzl(points, support, idx):
    if idx == len(points) or len(support) == 4:
        return _ball_of_support(support)
    c, r = _welzl(points, support, idx + 1)
    p = points[idx]
    if _edist(c, p) <= r * (1 + 1e-12) + 1e-14:
        return c, r
    return _welzl(points, support + [p], idx + 1)


def euclidean_miniball(points: list[tuple[float, float, float]]):
    """Exact minimum enclosing ball (center, radius) of 3D points."""
    if not points:
        raise GeometryError("miniball of no points")
    pts = list(points)
    import random as _random

    _random.Random(0x5EED).shuffle(pts)
    if len(pts) > 400:
        # cap the recursion; refine with violators until stable
        sample = pts[:400]
        while True:
            c, r = _welzl(sample, [], 0)
            worst = max(pts, key=lambda p: _edist(c, p))
            if _edist(c, worst) <= r * (1 + 1e-10) + 1e-12:
                return c, r
            sample.append(worst)
    return _welzl(pts, [], 0)


def min_enclosing_cap(points: list[UnitVec3]) -> tuple[UnitVec3, float]:
    """Near-minimal cap covering the points: (center, radius degrees).

    The radius is measured against the chosen center, so the cap covers the
    inputs even in the degenerate case where the Euclidean ball center
    collapses to the origin (points spanning the whole sphere).
    """
    if not points:
        raise GeometryError("min_enclosing_cap of no points")
    if len(points) == 1:
        return points[0], 0.0
    c, _ = euclidean_miniball([p.as_tuple() for p in points])
    n = math.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    if n < 1e-9:
        center = UnitVec3(0.0, 0.0, 1.0)
    else:
        center = UnitVec3(c[0] / n, c[1] / n, c[2] / n)
    radius = max(arc_distance_deg(center, p) for p in points)
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
    w, _ = min_enclosing_cap(points)
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


# -- pure-geometry boolean combinations -----------------------------------


def region_intersection(a: Region, b: Region) -> Region:
    """Distribute the conjunction: every pair of convexes intersects into one."""
    out = []
    for ca in a.convexes:
        for cb in b.convexes:
            out.append(Convex(ca.constraints + cb.constraints))
    return Region(tuple(out))
