"""Brute-force reference scans and the seeded benchmark fixtures.

These are the slow, obviously-correct paths the `bench` command checks the
indexes against: full-catalog distance scans, the O(n^2) pair scan, and a
linear scan over bounding circles. They share nothing with the zone, mesh,
or pyramid query code beyond the distance formula itself.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import Catalog
from .geom import SkyPoint, as_degrees, sky_to_vec


def cone_scan(cat: Catalog, center: SkyPoint, radius) -> list[tuple[int, float]]:
    """Every object strictly within radius of center, by scanning all rows."""
    r = as_degrees(radius)
    v = sky_to_vec(center)
    dx = cat.x - v.x
    dy = cat.y - v.y
    dz = cat.z - v.z
    chord = np.sqrt(dx * dx + dy * dy + dz * dz)
    dist = np.degrees(2.0 * np.arcsin(np.minimum(1.0, chord / 2.0)))
    hit = dist < r
    ids = cat.objid[hit]
    d = dist[hit]
    order = np.lexsort((ids, d))
    return [(int(i), float(x)) for i, x in zip(ids[order], d[order])]


def pair_scan(cat: Catalog, radius, chunk: int = 512):
    """All ordered pairs (a, b), a != b, strictly within radius.

    Returns (objid_a, objid_b, distance) arrays sorted by (a, b).
    """
    r = as_degrees(radius)
    # 4 sin^2(r/2) falls again past 180 degrees, where every pair is within r
    limit = 4.0 * math.sin(math.radians(r) / 2.0) ** 2 if r <= 180.0 else math.inf
    n = len(cat)
    out_a, out_b, out_d = [], [], []
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        dx = cat.x[start:stop, None] - cat.x[None, :]
        dy = cat.y[start:stop, None] - cat.y[None, :]
        dz = cat.z[start:stop, None] - cat.z[None, :]
        d2 = dx * dx + dy * dy + dz * dz
        ii, jj = np.nonzero(d2 < limit)
        keep = (ii + start) != jj
        ii, jj = ii[keep], jj[keep]
        out_a.append(cat.objid[ii + start])
        out_b.append(cat.objid[jj])
        out_d.append(
            np.degrees(2.0 * np.arcsin(np.sqrt(d2[ii, jj]) / 2.0))
        )
    a = np.concatenate(out_a) if out_a else np.empty(0, np.int64)
    b = np.concatenate(out_b) if out_b else np.empty(0, np.int64)
    d = np.concatenate(out_d) if out_d else np.empty(0, float)
    order = np.lexsort((b, a))
    return a[order], b[order], d[order]


def overlap_scan(ex, ey, ez, radii, center: SkyPoint, radius) -> list[int]:
    """Indices of bounding circles overlapping the query circle: the exact
    spherical test arc_distance(centers) < r_query + r_entry."""
    r = as_degrees(radius)
    v = sky_to_vec(center)
    chord = np.sqrt((ex - v.x) ** 2 + (ey - v.y) ** 2 + (ez - v.z) ** 2)
    dist = np.degrees(2.0 * np.arcsin(np.minimum(1.0, chord / 2.0)))
    return np.nonzero(dist < r + radii)[0].tolist()


def bench_queries(k: int, seed: int, max_radius: float = 1.0):
    """Seeded query mix: >= 15% within 1 degree of a pole, >= 15% crossing
    the ra = 0 meridian, the rest uniform on the sphere. Radii are uniform
    in (0.01, max_radius]."""
    rng = np.random.default_rng(seed ^ 0x51DE)
    n_pole = max(1, int(math.ceil(0.15 * k)))
    n_wrap = max(1, int(math.ceil(0.15 * k)))
    queries = []
    for i in range(k):
        r = float(rng.uniform(0.01, max_radius))
        if i < n_pole:
            dec = float(rng.uniform(89.0, 90.0)) * (1 if i % 2 == 0 else -1)
            ra = float(rng.uniform(0.0, 360.0))
        elif i < n_pole + n_wrap:
            dec = float(np.degrees(np.arcsin(rng.uniform(-0.9, 0.9))))
            ra = float(rng.uniform(-0.5, 0.5) * r) % 360.0
        else:
            dec = float(np.degrees(np.arcsin(rng.uniform(-1.0, 1.0))))
            ra = float(rng.uniform(0.0, 360.0))
        queries.append((SkyPoint(ra, dec), r))
    return queries
