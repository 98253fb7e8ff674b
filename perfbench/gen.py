"""Seeded inputs, generated here and not by the library's own fixtures.

Everything derives from ``numpy.random.default_rng(seed)``, so a seed
fixes the inputs, and a change to ``oracle.bench_queries`` or
``catalog.random_catalog`` cannot change a workload. ``Digest`` hashes
what was generated so two runs can be shown to have used the same inputs.

Region shapes carry their own membership test, computed from the numbers
written into the region text, so the benchmark can check the library's
compiled regions against an evaluation it did not borrow from the library.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

POLE_SHARE = 0.15
WRAP_SHARE = 0.15
# a probe this close to a boundary, in dot-product or degrees, is a tie that
# rounding may send either way; it is left out of membership comparisons
BOUNDARY_TOL = 1e-9


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(str(item.dtype).encode())
                self._h.update(np.ascontiguousarray(item).tobytes())
            elif isinstance(item, bytes):
                self._h.update(item)
            else:
                self._h.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def radec_to_xyz(ra, dec) -> np.ndarray:
    ra = np.radians(np.asarray(ra, dtype=float))
    dec = np.radians(np.asarray(dec, dtype=float))
    cd = np.cos(dec)
    return np.stack([cd * np.cos(ra), cd * np.sin(ra), np.sin(dec)], axis=-1)


def xyz_to_radec(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ra = np.degrees(np.arctan2(xyz[..., 1], xyz[..., 0])) % 360.0
    dec = np.degrees(np.arcsin(np.clip(xyz[..., 2], -1.0, 1.0)))
    return ra, dec


def uniform_sky(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    ra = rng.uniform(0.0, 360.0, n)
    dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    return ra, dec


def mixed_centers(rng, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers for circles of the given radii. Each center on its own is
    within 1 degree of a pole with chance 15%, straddles ra = 0 with chance
    15%, and is uniform otherwise, so the shares hold for one circle at a
    time as well as for a batch."""
    n = len(radii)
    u = rng.uniform(size=n)
    pole = u < POLE_SHARE
    wrap = (u >= POLE_SHARE) & (u < POLE_SHARE + WRAP_SHARE)
    ra, dec = uniform_sky(rng, n)
    sign = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    dec[pole] = sign[pole] * rng.uniform(89.0, 90.0, int(pole.sum()))
    dec[wrap] = np.degrees(np.arcsin(rng.uniform(-0.9, 0.9, int(wrap.sum()))))
    ra[wrap] = (rng.uniform(-0.5, 0.5, int(wrap.sum())) * radii[wrap]) % 360.0
    return ra, dec


def log_uniform(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _tangent_basis(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    seed = np.array([1.0, 0.0, 0.0]) if abs(c[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(c, seed)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(c, e1)


def cap_points(rng, center: np.ndarray, radius_deg: float, n: int) -> np.ndarray:
    """n points uniform in the cap of the given radius about center."""
    e1, e2 = _tangent_basis(center)
    z = rng.uniform(math.cos(math.radians(min(radius_deg, 180.0))), 1.0, n)
    az = rng.uniform(0.0, 2.0 * math.pi, n)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    p = z[:, None] * center + s[:, None] * (np.cos(az)[:, None] * e1 + np.sin(az)[:, None] * e2)
    return p / np.linalg.norm(p, axis=1, keepdims=True)


# Membership: xyz (n, 3) -> (inside, near_boundary) boolean masks.
Membership = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass
class Shape:
    text: str
    center: np.ndarray  # unit vector
    size: float  # degrees; a cap of this radius about center holds the shape
    membership: Membership


def _fmt(v: float) -> str:
    return repr(float(v))


def _planes_membership(normals: np.ndarray, ls: np.ndarray) -> Membership:
    def member(xyz):
        d = xyz @ normals.T - ls
        return (d > 0).all(axis=1), (np.abs(d) < BOUNDARY_TOL).any(axis=1)

    return member


def _polygon_vertices(rng, center: np.ndarray, size: float) -> np.ndarray:
    """3 to 8 vertices on the circle of radius size about center, at angles
    spread so no two are closer than 0.4 of an even spacing."""
    k = int(rng.integers(3, 9))
    step = 2.0 * math.pi / k
    az = np.arange(k) * step + rng.uniform(-0.3, 0.3, k) * step + rng.uniform(0, 2 * math.pi)
    e1, e2 = _tangent_basis(center)
    r = math.radians(size)
    return (
        math.cos(r) * center
        + math.sin(r) * (np.cos(az)[:, None] * e1 + np.sin(az)[:, None] * e2)
    )


def _spherical_polygon(verts_xyz: np.ndarray) -> Membership:
    """Convex spherical polygon: one great-circle plane per edge, oriented
    so the vertex centroid is inside."""
    c = verts_xyz.sum(axis=0)
    c /= np.linalg.norm(c)
    normals = np.cross(verts_xyz, np.roll(verts_xyz, -1, axis=0))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals *= np.where(normals @ c < 0, -1.0, 1.0)[:, None]
    return _planes_membership(normals, np.zeros(len(normals)))


def circle_shape(center_ra, center_dec, size) -> Shape:
    arcmin = size * 60.0
    text = f"CIRCLE J2000 {_fmt(center_ra)} {_fmt(center_dec)} {_fmt(arcmin)}"
    c = radec_to_xyz(center_ra, center_dec)
    ls = np.array([math.cos(math.radians(arcmin / 60.0))])
    return Shape(text, c, size, _planes_membership(c[None, :], ls))


def rect_shape(center_ra, center_dec, size) -> Shape:
    half = size / math.sqrt(2.0)
    dec_lo = max(-90.0, center_dec - half)
    dec_hi = min(90.0, center_dec + half)
    cosd = max(math.cos(math.radians(center_dec)), 1e-3)
    width = min(2.0 * half / cosd, 90.0)
    ra_lo = center_ra - width / 2.0
    ra_hi = center_ra + width / 2.0
    text = f"RECT J2000 {_fmt(ra_lo)} {_fmt(dec_lo)} {_fmt(ra_hi)} {_fmt(dec_hi)}"
    span = ra_hi - ra_lo  # the width the text states

    def member(xyz):
        ra, dec = xyz_to_radec(xyz)
        d = (ra - ra_lo) % 360.0
        inside = (dec > dec_lo) & (dec < dec_hi) & (d > 0.0) & (d < span)
        tol = 1e-7  # degrees; ra from atan2 loses digits as cos(dec) shrinks
        near = (
            (np.abs(dec - dec_lo) < tol)
            | (np.abs(dec - dec_hi) < tol)
            | (np.minimum(d, 360.0 - d) < tol)
            | (np.abs(d - span) < tol)
            | (np.hypot(xyz[:, 0], xyz[:, 1]) < 1e-6)
        )
        return inside, near

    c = radec_to_xyz(center_ra, (dec_lo + dec_hi) / 2.0)
    return Shape(text, c, min(math.hypot(half, width / 2.0 * cosd), 90.0), member)


def poly_shape(rng, center_ra, center_dec, size, hull: bool) -> Shape:
    c = radec_to_xyz(center_ra, center_dec)
    verts = _polygon_vertices(rng, c, size)
    ra, dec = xyz_to_radec(verts)
    points = list(zip(ra, dec))
    if hull:
        # interior points as positive combinations of the vertices, so the
        # hull of all the points is the polygon of the outer ones
        inner = rng.dirichlet(np.ones(len(verts)), 3) @ verts
        inner /= np.linalg.norm(inner, axis=1, keepdims=True)
        ira, idec = xyz_to_radec(inner)
        points += list(zip(ira, idec))
        points = [points[i] for i in rng.permutation(len(points))]
    exact = radec_to_xyz(ra, dec)  # the vertices as written in the text
    kw = "CHULL" if hull else "POLY"
    text = f"{kw} J2000 " + " ".join(f"{_fmt(a)} {_fmt(b)}" for a, b in points)
    return Shape(text, c, size, _spherical_polygon(exact))


def region_shapes(rng, n: int) -> list[Shape]:
    """Region texts with sizes log-uniform from 1 arcmin to 5 degrees, a
    quarter each of CIRCLE, RECT, POLY and CHULL, centers placed with the
    query pole and wraparound shares."""
    sizes = log_uniform(rng, 1.0 / 60.0, 5.0, n)
    ra, dec = mixed_centers(rng, sizes)
    kinds = rng.integers(0, 4, n)
    out = []
    for i in range(n):
        r, d, s = float(ra[i]), float(dec[i]), float(sizes[i])
        if kinds[i] == 0:
            out.append(circle_shape(r, d, s))
        elif kinds[i] == 1:
            out.append(rect_shape(r, d, s))
        else:
            out.append(poly_shape(rng, r, d, s, hull=kinds[i] == 3))
    return out
