"""Zone bucketing: declination stripes with ordered (zone, ra) scans.

A catalog is bucketed into horizontal zones of fixed height; rows are kept
sorted by (zone, ra, objid), one row per object with ra in [0, 360).
ZoneTable.scan_ra is the one access method: it scans a band of zones for
many ra windows at once with a binary search on an exact (zone, ra) key,
so a cone search is one scan of its dec band and the all-pairs neighbor
join is one scan per zone. Wraparound is handled in the scan alone: it
searches each window's -360, 0 and +360 images, which covers windows of
any width up to the full circle (polar queries). The zone papers copy rows
near ra 0/360 into margins instead, because a SQL range predicate cannot
wrap; a sorted array search can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import SkyPoint, as_degrees


class ZoneError(ValueError):
    """Bad zone configuration or query arguments."""


@dataclass(frozen=True)
class ZoneConfig:
    zone_height: float = 4.0 / 60.0

    def __post_init__(self):
        if self.zone_height <= 0:
            raise ZoneError("zone_height must be positive")

    @property
    def zone_count(self) -> int:
        return int(math.ceil(180.0 / self.zone_height))


def zone_of(dec: float, zone_height: float) -> int:
    """floor((dec + 90) / height); dec = +90 clamps into the top zone."""
    nz = int(math.ceil(180.0 / zone_height))
    return min(int(math.floor((dec + 90.0) / zone_height)), nz - 1)


def ra_window_deg(radius: float, dec: float) -> float:
    """Exact half-width in ra of a circle of the given radius at dec.

    asin(sin r / cos dec), computed as an atan2 for conditioning. 180 when
    the circle reaches a pole, where every ra qualifies.
    """
    if radius <= 0:
        return 0.0
    if abs(dec) + radius >= 90.0 - 1e-12:
        return 180.0
    rr = math.radians(radius)
    dd = math.radians(dec)
    x = math.cos(dd) ** 2 - math.sin(rr) ** 2
    if x <= 0:
        return 180.0
    return math.degrees(math.atan2(math.sin(rr), math.sqrt(x)))


def _ra_windows_arr(radius: float, dec: np.ndarray) -> np.ndarray:
    rr = math.radians(radius)
    dd = np.radians(dec)
    x = np.cos(dd) ** 2 - math.sin(rr) ** 2
    out = np.degrees(np.arctan2(math.sin(rr), np.sqrt(np.maximum(x, 0.0))))
    out[(np.abs(dec) + radius >= 90.0 - 1e-12) | (x <= 0)] = 180.0
    return out


_SHIFTS = np.array([-360.0, 0.0, 360.0])
_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass(eq=False)
class ZoneTable:
    """Immutable after build; one row per input row, sorted by
    (zone, ra, objid), with ra in [0, 360).

    radius is a per-row column carried along for tables of circles (a
    pyramid scale) and None for tables of points (a catalog). key is the
    (zone, ra) search key scan_ra runs on, derived here and never stored.
    """

    cfg: ZoneConfig
    zone: np.ndarray
    ra: np.ndarray
    objid: np.ndarray
    dec: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    radius: np.ndarray | None = None
    zone_bounds: np.ndarray = field(init=False)
    key: np.ndarray = field(init=False)

    def __post_init__(self):
        self.zone_bounds = np.searchsorted(
            self.zone, np.arange(self.cfg.zone_count + 1)
        )
        # numpy orders and searches complex values lexicographically by
        # (real, imag), and zone + 1j * ra keeps both parts exact, so key
        # orders rows exactly by (zone, ra)
        self.key = self.zone + 1j * self.ra

    def __len__(self) -> int:
        return len(self.zone)

    @property
    def is_main(self) -> np.ndarray:
        """All True, derived and never stored: every row is its input row.
        Kept for perfbench, which reads it; nothing in skyindex does."""
        return np.ones(len(self), dtype=bool)

    def main_row_count(self) -> int:
        """len(self). Kept for perfbench, which reads it; nothing in
        skyindex does."""
        return len(self)

    def zone_slice(self, z: int) -> slice:
        return slice(int(self.zone_bounds[z]), int(self.zone_bounds[z + 1]))

    def scan_ra(self, z0: int, z1: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Rows of zones z0..z1 whose ra (mod 360) falls in a window [lo, hi].

        lo and hi are scalars or equal-length non-empty arrays, one window
        per entry, with -360 < lo <= hi < 720 and 0 <= z0 <= z1 <
        zone_count. Returns (window, row) index arrays: every row of the
        band in window k, once per window, paired with k (0 for scalar
        windows). Each window's rows come in ascending order; with several
        windows the pairs are grouped by zone, not by window.

        The stored ra lie in [0, 360), so a row is in a window when it is
        in the window's -360, 0 or +360 image, and all three are scanned.
        A window narrower than 360 has disjoint images in ascending ra
        order, so their row ranges, taken in shift order, are already
        sorted. Each range is clamped to start no earlier than the previous
        one ends, a guard against rounding letting neighbouring images
        touch; with ra in [0, 360) and windows inside (-360, 720) the
        shifted edges round too little for that to happen. A full-circle
        window (hi - lo >= 360) takes each row of its zones once.
        """
        edges = np.array((lo, hi), dtype=float).reshape(2, -1)
        base = self.zone_bounds[z0]
        key = self.key[base : self.zone_bounds[z1 + 1]]
        # search keys (lo or hi, zone, shift, window): ascending ra within
        # a zone keeps each side's keys near-sorted, which numpy exploits
        q = np.empty((2, z1 - z0 + 1, 3, edges.shape[1]), dtype=complex)
        q.real = np.arange(z0, z1 + 1)[:, None, None]
        q.imag = (edges[:, None, :] + _SHIFTS[:, None])[:, None]
        a = key.searchsorted(q[0], side="left")
        b = key.searchsorted(q[1], side="right")
        width = edges[1] - edges[0]
        # images of a window narrower than 180 are far apart, and it is no
        # full circle: only wider windows need the two fix-ups
        if width.max() >= 180.0:
            np.maximum(a[:, 1:], b[:, :-1], out=a[:, 1:])
            full = width >= 360.0
            bounds = self.zone_bounds[z0 : z1 + 2] - base
            a[:, 0, full] = bounds[:-1, None]
            b[:, 0, full] = bounds[1:, None]
            a[:, 1:, full] = b[:, 1:, full]
        b = b.ravel()
        counts = b - a.ravel()
        ends = counts.cumsum()
        if not ends[-1]:
            return _NO_ROWS, _NO_ROWS
        row = np.repeat(base + b - ends, counts) + np.arange(ends[-1])
        window = np.repeat(np.arange(counts.size) % edges.shape[1], counts)
        return window, row


def build_zone_table(catalog, cfg: ZoneConfig) -> ZoneTable:
    """Bucket rows into zones: one table row per input row.

    catalog: any object with objid, ra, dec, x, y, z columns, such as a
    Catalog, and optionally a radius column that the table carries along.
    """
    objid = np.asarray(catalog.objid, dtype=np.int64)
    ra = np.asarray(catalog.ra, dtype=float)
    dec = np.asarray(catalog.dec, dtype=float)
    radius = getattr(catalog, "radius", None)
    if len(np.unique(objid)) != len(objid):
        raise ZoneError("duplicate objID in catalog")
    if len(ra) and (ra.min() < 0.0 or ra.max() >= 360.0):
        raise ZoneError("ra must be normalized to [0, 360)")
    if len(dec) and (dec.min() < -90.0 or dec.max() > 90.0):
        raise ZoneError("dec must be within [-90, 90]")
    nz = cfg.zone_count
    zone = np.minimum(
        np.floor((dec + 90.0) / cfg.zone_height).astype(np.int64), nz - 1
    )
    order = np.lexsort((objid, ra, zone))

    def column(values):
        return np.asarray(values, dtype=float)[order]

    return ZoneTable(
        cfg=cfg,
        zone=zone[order],
        ra=ra[order],
        objid=objid[order],
        dec=dec[order],
        x=column(catalog.x),
        y=column(catalog.y),
        z=column(catalog.z),
        radius=None if radius is None else column(radius),
    )


def nearby_objects(
    table: ZoneTable,
    center: SkyPoint,
    radius,
    stats: dict | None = None,
) -> list[tuple[int, float]]:
    """All catalog objects strictly within the radius of center, for a
    radius in [0, 180].

    Scan order: one scan of the zone band over the circle's ra window, the
    dec band filter, then the chord-squared careful test
    4 sin^2(r/2) > |p - q|^2. Results are sorted by (distance, objid).
    """
    r = as_degrees(radius)
    cfg = table.cfg
    if not 0 <= r <= 180:
        raise ZoneError(f"radius out of [0, 180] degrees: {r!r}")
    if r == 0 or len(table) == 0:
        if stats is not None:
            stats.update(zones=0, ra_candidates=0, dec_filtered=0, matched=0)
        return []
    nz = cfg.zone_count
    zmin = max(0, zone_of(max(-90.0, center.dec - r), cfg.zone_height))
    zmax = min(nz - 1, int(math.floor((center.dec + 90.0 + r) / cfg.zone_height)))
    alpha = ra_window_deg(r, center.dec)
    lo, hi = center.ra - alpha, center.ra + alpha
    cx, cy, cz = (
        math.cos(math.radians(center.dec)) * math.cos(math.radians(center.ra)),
        math.cos(math.radians(center.dec)) * math.sin(math.radians(center.ra)),
        math.sin(math.radians(center.dec)),
    )
    chord2_limit = 4.0 * math.sin(math.radians(r) / 2.0) ** 2
    _, idx = table.scan_ra(zmin, zmax, lo, hi)
    n_ra = len(idx)
    idx = idx[np.abs(table.dec[idx] - center.dec) <= r]
    dx = table.x[idx] - cx
    dy = table.y[idx] - cy
    dz = table.z[idx] - cz
    d2 = dx * dx + dy * dy + dz * dz
    hit = d2 < chord2_limit
    ids = table.objid[idx][hit]
    d2 = d2[hit]
    dist = np.degrees(2.0 * np.arcsin(np.sqrt(d2) / 2.0))
    order = np.lexsort((ids, dist))
    if stats is not None:
        stats.update(
            zones=zmax - zmin + 1, ra_candidates=n_ra, dec_filtered=len(idx), matched=len(ids)
        )
    return [(int(i), float(d)) for i, d in zip(ids[order], dist[order])]


# -- neighbors (all-pairs within radius) -------------------------------------


@dataclass(eq=False)
class NeighborsTable:
    """Symmetric pair list: every unordered pair appears in both orders."""

    radius: float
    objid: np.ndarray
    neighbor: np.ndarray
    distance: np.ndarray
    candidate_pairs: int  # pairs examined by the careful test during build

    def __len__(self) -> int:
        return len(self.objid)

    def neighbors_of(self, objid: int) -> list[tuple[int, float]]:
        lo = int(np.searchsorted(self.objid, objid, side="left"))
        hi = int(np.searchsorted(self.objid, objid, side="right"))
        return [
            (int(self.neighbor[i]), float(self.distance[i])) for i in range(lo, hi)
        ]


def build_neighbors(catalog, radius, zone_height: float | None = None) -> NeighborsTable:
    """Materialize all object pairs strictly within a radius in (0, 180].

    Scans the zone band around each zone with one ra window per row of the
    zone, keeping objid1 < objid2 to do half the work, then mirroring.
    zone_height defaults to the radius, which minimizes the candidate area
    of the join.
    """
    r = as_degrees(radius)
    if not 0 < r <= 180:
        raise ZoneError(f"neighbors radius out of (0, 180] degrees: {r!r}")
    zh = zone_height if zone_height is not None else r
    cfg = ZoneConfig(zone_height=zh)
    table = build_zone_table(catalog, cfg)
    deltas = int(math.ceil(r / zh - 1e-12))
    chord2_limit = 4.0 * math.sin(math.radians(r) / 2.0) ** 2
    nz = cfg.zone_count
    pairs_a = [np.empty(0, dtype=np.int64)]
    pairs_b = [np.empty(0, dtype=np.int64)]
    pair_d2 = [np.empty(0, dtype=float)]
    candidates = 0
    for z in range(nz):
        s = table.zone_slice(z)
        if s.start == s.stop:
            continue
        alpha = _ra_windows_arr(r, table.dec[s])
        window, right = table.scan_ra(
            max(0, z - deltas), min(nz - 1, z + deltas),
            table.ra[s] - alpha, table.ra[s] + alpha,
        )
        candidates += len(right)
        left = s.start + window
        keep = table.objid[left] < table.objid[right]
        left, right = left[keep], right[keep]
        keep = np.abs(table.dec[left] - table.dec[right]) <= r
        left, right = left[keep], right[keep]
        dx = table.x[left] - table.x[right]
        dy = table.y[left] - table.y[right]
        dz = table.z[left] - table.z[right]
        d2 = dx * dx + dy * dy + dz * dz
        hit = d2 < chord2_limit
        pairs_a.append(table.objid[left][hit])
        pairs_b.append(table.objid[right][hit])
        pair_d2.append(d2[hit])
    a = np.concatenate(pairs_a)
    b = np.concatenate(pairs_b)
    d2 = np.concatenate(pair_d2)
    dist = np.degrees(2.0 * np.arcsin(np.sqrt(d2) / 2.0))
    all_a = np.concatenate([a, b])
    all_b = np.concatenate([b, a])
    all_d = np.concatenate([dist, dist])
    order = np.lexsort((all_b, all_a))
    return NeighborsTable(
        radius=r,
        objid=all_a[order],
        neighbor=all_b[order],
        distance=all_d[order],
        candidate_pairs=candidates,
    )
