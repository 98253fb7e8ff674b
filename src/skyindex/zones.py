"""Zone bucketing: declination stripes with ordered (zone, ra) scans.

A catalog is bucketed into horizontal zones of fixed height; rows are kept
sorted by (zone, ra, objid) so cone searches and the all-pairs neighbor
join reduce to a handful of contiguous range scans. Rows near the prime
meridian are duplicated into left/right margins (ra shifted by -360/+360)
so wraparound queries stay contiguous; scans additionally decompose their
ra window modulo 360, which keeps results exact even when a window is
wider than the margins (polar queries).
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
    max_radius: float = 1.0
    epsilon: float = 1.0e-6

    def __post_init__(self):
        if self.zone_height <= 0:
            raise ZoneError("zone_height must be positive")
        if self.max_radius <= 0:
            raise ZoneError("max_radius must be positive")

    @property
    def zone_count(self) -> int:
        return int(math.ceil(180.0 / self.zone_height))


def zone_of(dec: float, zone_height: float) -> int:
    """floor((dec + 90) / height); dec = +90 clamps into the top zone."""
    nz = int(math.ceil(180.0 / zone_height))
    return min(int(math.floor((dec + 90.0) / zone_height)), nz - 1)


def _margin_width(dec: np.ndarray, max_radius: float, epsilon: float) -> np.ndarray:
    return max_radius / (np.cos(np.radians(np.abs(dec))) + epsilon)


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


@dataclass(eq=False)
class ZoneTable:
    """Immutable after build; rows sorted by (zone, ra, objid).

    radius is a per-row column carried along for tables of circles (a
    pyramid scale) and None for tables of points (a catalog).
    """

    cfg: ZoneConfig
    zone: np.ndarray
    ra: np.ndarray
    objid: np.ndarray
    dec: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    is_main: np.ndarray
    radius: np.ndarray | None = None
    zone_bounds: np.ndarray = field(init=False)

    def __post_init__(self):
        self.zone_bounds = np.searchsorted(
            self.zone, np.arange(self.cfg.zone_count + 1)
        )

    def __len__(self) -> int:
        return len(self.zone)

    def main_row_count(self) -> int:
        return int(self.is_main.sum())

    def zone_slice(self, z: int) -> slice:
        return slice(int(self.zone_bounds[z]), int(self.zone_bounds[z + 1]))

    def scan_ra(self, z: int, lo: float, hi: float) -> np.ndarray:
        """Ascending indices of rows in zone z whose ra (mod 360) falls in
        [lo, hi], each row once.

        The stored rows cover [-margin, 360 + margin); windows wider than
        the margins are folded by scanning the -360 and +360 images as
        well. A window narrower than 360 has disjoint images in ascending
        ra order, so their row ranges, taken in shift order, are already
        sorted; each range starts no earlier than the previous one ends,
        which only matters when rounding lets neighbouring images touch.
        """
        s = self.zone_slice(z)
        if hi - lo >= 360.0:
            return np.arange(s.start, s.stop)[self.is_main[s]]
        ra = self.ra[s]
        starts = np.searchsorted(ra, lo + _SHIFTS, side="left").tolist()
        stops = np.searchsorted(ra, hi + _SHIFTS, side="right").tolist()
        runs = []
        prev = 0
        for a, b in zip(starts, stops):
            a = max(a, prev)
            if b > a:
                runs.append(np.arange(s.start + a, s.start + b))
            prev = b
        if len(runs) == 1:
            return runs[0]
        return np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)


def build_zone_table(catalog, cfg: ZoneConfig) -> ZoneTable:
    """Bucket rows into zones, adding wraparound margin rows.

    catalog: any object with objid, ra, dec, x, y, z columns, such as a
    Catalog, and optionally a radius column that the table carries along.
    An object lands in the right margin (ra + 360) when its ra is below
    the cos-corrected margin width, and in the left margin (ra - 360) when
    within that width of 360. Near the poles the width exceeds 360 and
    both margins apply.
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
    width = _margin_width(dec, cfg.max_radius, cfg.epsilon)
    right = ra < width  # ra >= 0 always holds here
    left = ra >= 360.0 - width  # ra < 360 always holds here
    # source row of every table row: main rows, then right and left margins
    rows = np.concatenate([np.arange(len(ra)), np.flatnonzero(right), np.flatnonzero(left)])
    ra_all = np.concatenate([ra, ra[right] + 360.0, ra[left] - 360.0])
    zone_all = zone[rows]
    order = np.lexsort((objid[rows], ra_all, zone_all))
    src = rows[order]

    def column(values):
        return np.asarray(values, dtype=float)[src]

    return ZoneTable(
        cfg=cfg,
        zone=zone_all[order],
        ra=ra_all[order],
        objid=objid[src],
        dec=dec[src],
        x=column(catalog.x),
        y=column(catalog.y),
        z=column(catalog.z),
        is_main=order < len(ra),
        radius=None if radius is None else column(radius),
    )


def nearby_objects(
    table: ZoneTable,
    center: SkyPoint,
    radius,
    stats: dict | None = None,
) -> list[tuple[int, float]]:
    """All catalog objects strictly within the radius of center.

    Scan order: zone band, ra interval per zone, dec band filter, then the
    chord-squared careful test 4 sin^2(r/2) > |p - q|^2. Results are
    deduplicated by objid (margin rows alias their main row) and sorted by
    (distance, objid).
    """
    r = as_degrees(radius)
    cfg = table.cfg
    if r < 0:
        raise ZoneError("radius must be non-negative")
    if r > cfg.max_radius:
        raise ZoneError(
            f"radius exceeds margin width: {r} > max_radius {cfg.max_radius}"
        )
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
    n_ra = 0
    n_dec = 0
    found_ids = []
    found_d2 = []
    for z in range(zmin, zmax + 1):
        idx = table.scan_ra(z, lo, hi)
        if len(idx) == 0:
            continue
        n_ra += len(idx)
        dec_ok = np.abs(table.dec[idx] - center.dec) <= r
        idx = idx[dec_ok]
        n_dec += len(idx)
        if len(idx) == 0:
            continue
        dx = table.x[idx] - cx
        dy = table.y[idx] - cy
        dz = table.z[idx] - cz
        d2 = dx * dx + dy * dy + dz * dz
        hit = d2 < chord2_limit
        found_ids.append(table.objid[idx][hit])
        found_d2.append(d2[hit])
    if stats is not None:
        stats.update(zones=zmax - zmin + 1, ra_candidates=n_ra, dec_filtered=n_dec)
    if not found_ids:
        if stats is not None:
            stats["matched"] = 0
        return []
    ids = np.concatenate(found_ids)
    d2 = np.concatenate(found_d2)
    ids, first = np.unique(ids, return_index=True)
    d2 = d2[first]
    dist = np.degrees(2.0 * np.arcsin(np.sqrt(d2) / 2.0))
    order = np.lexsort((ids, dist))
    if stats is not None:
        stats["matched"] = len(ids)
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
    """Materialize all object pairs strictly within the radius.

    Joins each zone's main rows against the scanned ra windows of the zone
    band around it (margin rows included), keeping objid1 < objid2 to do
    half the work, deduplicating pairs found through both a margin image
    and a wrapped window, then mirroring. zone_height defaults to the
    radius, which minimizes the candidate area of the join.
    """
    r = as_degrees(radius)
    if r <= 0:
        raise ZoneError("neighbors radius must be positive")
    zh = zone_height if zone_height is not None else r
    cfg = ZoneConfig(zone_height=zh, max_radius=r)
    table = build_zone_table(catalog, cfg)
    deltas = int(math.ceil(r / zh - 1e-12))
    chord2_limit = 4.0 * math.sin(math.radians(r) / 2.0) ** 2
    nz = cfg.zone_count
    pairs_a = []
    pairs_b = []
    pair_d2 = []
    candidates = 0
    for z in range(nz):
        s = table.zone_slice(z)
        if s.start == s.stop:
            continue
        main = np.arange(s.start, s.stop)[table.is_main[s]]
        if len(main) == 0:
            continue
        alpha = _ra_windows_arr(r, table.dec[main])
        lo = table.ra[main] - alpha
        hi = table.ra[main] + alpha
        for dz in range(-deltas, deltas + 1):
            z2 = z + dz
            if not (0 <= z2 < nz):
                continue
            s2 = table.zone_slice(z2)
            if s2.start == s2.stop:
                continue
            ra2 = table.ra[s2]
            full = alpha >= 180.0
            for shift in (0.0, 360.0, -360.0):
                a = np.searchsorted(ra2, lo + shift, side="left")
                b = np.searchsorted(ra2, hi + shift, side="right")
                if shift == 0.0:
                    # full-circle windows scan the whole zone once
                    a = np.where(full, 0, a)
                    b = np.where(full, len(ra2), b)
                else:
                    a = np.where(full, 0, a)
                    b = np.where(full, 0, b)
                counts = b - a
                total = int(counts.sum())
                if total == 0:
                    continue
                candidates += total
                left = np.repeat(main, counts)
                starts = np.repeat(a + s2.start, counts)
                offs = np.arange(total) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                right_idx = starts + offs
                keep = table.objid[left] < table.objid[right_idx]
                left = left[keep]
                right_idx = right_idx[keep]
                if len(left) == 0:
                    continue
                dd = np.abs(table.dec[left] - table.dec[right_idx]) <= r
                left = left[dd]
                right_idx = right_idx[dd]
                if len(left) == 0:
                    continue
                dx = table.x[left] - table.x[right_idx]
                dy = table.y[left] - table.y[right_idx]
                dzv = table.z[left] - table.z[right_idx]
                d2 = dx * dx + dy * dy + dzv * dzv
                hit = d2 < chord2_limit
                pairs_a.append(table.objid[left][hit])
                pairs_b.append(table.objid[right_idx][hit])
                pair_d2.append(d2[hit])
    if pairs_a:
        a = np.concatenate(pairs_a)
        b = np.concatenate(pairs_b)
        d2 = np.concatenate(pair_d2)
        order = np.lexsort((b, a))
        a, b, d2 = a[order], b[order], d2[order]
        fresh = np.ones(len(a), dtype=bool)
        fresh[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        a, b, d2 = a[fresh], b[fresh], d2[fresh]
    else:
        a = np.empty(0, dtype=np.int64)
        b = np.empty(0, dtype=np.int64)
        d2 = np.empty(0, dtype=float)
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
