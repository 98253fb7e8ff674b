"""Zone bucketing: declination stripes with ordered (zone, ra) scans.

A catalog is bucketed into horizontal zones of fixed height; a ZoneTable
is an index over it, as in the zone papers: the catalog's rows in (zone,
ra, objid) order, one per object with ra in [0, 360), and no copied column.
ZoneTable.scan_ra scans a band of zones for many ra windows at once with
a binary search on an exact (zone, ra) key, so a cone search is one scan
of its dec band and the all-pairs neighbor join is one scan per zone.
The pyramid's bands are sparse, where a binary search per zone costs
more than a look at every row, so pyramid.overlap_search masks its
bands' contiguous rows instead (the choice between an index seek and a
range scan that the zone papers leave to the SQL optimizer). Both test
the edges ra_images gives, which holds the one wraparound rule: each
window's -360, 0 and +360 images, and a full-circle window (polar
queries) taken as [0, 360) first. The zone papers copy rows near ra
0/360 into margins instead, because a SQL range predicate cannot wrap;
a sorted array search can.

Both cone searches end in the same two steps: gather_runs turns sorted
index ranges into positions that a permutation maps to catalog rows
(ZoneTable.row here, Catalog.htm_order() for catalog.htm_cone_search's
trixel id ranges), and cone_matches runs the exact chord test.

A zone table holds points only; the pyramid keeps its circles in a
(scale, zone) table of its own, with the zone rule zone_column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .geom import SkyPoint, as_degrees


class ZoneError(ValueError):
    """Bad zone configuration or query arguments."""


# The most zones a height may give. zone_bounds holds zone_count + 1
# int64s, so 2^20 zones cost 8 MiB; 180 / 2^20 degrees (0.62 arcsec) is
# below survey astrometric errors. Zone numbers stay exact in the complex
# search keys, which need them below 2^53.
MAX_ZONE_COUNT = 1 << 20


def check_zone_height(height: float, name: str, error: type[ValueError]) -> None:
    """Raise error unless height is finite and gives at most
    MAX_ZONE_COUNT zones; NaN and heights <= 0 fail too."""
    if not (0 < height < math.inf and 180.0 / height <= MAX_ZONE_COUNT):
        raise error(f"{name} must be finite and at least 180/{MAX_ZONE_COUNT} degrees: {height!r}")


@dataclass(frozen=True)
class ZoneConfig:
    zone_height: float = 4.0 / 60.0

    def __post_init__(self):
        check_zone_height(self.zone_height, "zone_height", ZoneError)

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
# what a full-circle window becomes: every stored ra, and nothing in the
# window's -360 and +360 images
_FULL_CIRCLE = ((0.0,), (math.nextafter(360.0, 0.0),))
_NO_ROWS = np.empty(0, dtype=np.int64)


def ra_images(lo, hi) -> np.ndarray:
    """The ra edges of windows [lo, hi] in their -360, 0 and +360 images,
    as a (2, 3, k) array: [0] the lower and [1] the upper edge of image i
    of window k. A stored ra in [0, 360) is in a window when lo' <= ra <=
    hi' for one of its images.

    lo and hi are scalars or equal-length non-empty arrays, with -360 <
    lo <= hi < 720. A window narrower than 360 has disjoint images in
    ascending ra order, so no row is in two of them. A full-circle window
    (hi - lo >= 360) is first mapped to [0, nextafter(360, 0)], whose
    other two images hold no stored ra, so it takes each row once.
    """
    edges = np.array((lo, hi), dtype=float).reshape(2, -1)
    width = edges[1] - edges[0]
    if width.max() >= 360.0:
        edges[:, width >= 360.0] = _FULL_CIRCLE
    return edges[:, None, :] + _SHIFTS[:, None]


def gather_runs(starts: np.ndarray, ends: np.ndarray, period: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the runs [starts[k], ends[k]) in run order, as
    (label, index) arrays, each index labelled with its run's k % period.

    starts and ends are flat non-empty arrays with starts <= ends, such as
    the two searchsorted results of a batch of ranges over a sorted key.
    For runs laid out window fastest, period = the number of windows makes
    the label each index's window.
    """
    counts = ends - starts
    total = counts.cumsum()
    if not total[-1]:
        return _NO_ROWS, _NO_ROWS
    label = np.repeat(np.arange(counts.size) % period, counts)
    return label, np.repeat(ends - total, counts) + np.arange(total[-1])


def cone_matches(catalog, rows: np.ndarray, cx: float, cy: float, cz: float, r: float) -> list[tuple[int, float]]:
    """(objid, distance) of the given catalog rows strictly within r
    degrees of the unit vector (cx, cy, cz), sorted by (distance, objid).

    catalog is anything with objid, x, y, z columns, such as a Catalog.
    The exact test is on the squared chord, |p - c|^2 < 4 sin^2(r/2); the
    distance is 2 asin(|p - c| / 2) in degrees.
    """
    dx = catalog.x[rows] - cx
    dy = catalog.y[rows] - cy
    dz = catalog.z[rows] - cz
    d2 = dx * dx + dy * dy + dz * dz
    hit = d2 < 4.0 * math.sin(math.radians(r) / 2.0) ** 2
    ids = catalog.objid[rows][hit]
    dist = np.degrees(2.0 * np.arcsin(np.sqrt(d2[hit]) / 2.0))
    order = np.lexsort((ids, dist))
    return list(zip(ids[order].tolist(), dist[order].tolist()))


def has_duplicates(values: np.ndarray) -> bool:
    """Whether a value occurs twice: a sort and a compare of neighbours,
    far cheaper than np.unique on large arrays."""
    s = np.sort(values)
    return bool((s[1:] == s[:-1]).any())


@dataclass(eq=False)
class ZoneTable:
    """An index over a catalog (any object with array columns objid, ra,
    dec, x, y, z), immutable after build: row lists the catalog's rows in
    (zone, ra, objid) order. key is the (zone, ra) search key scan_ra runs
    on, derived here and never stored. A row that is not a permutation of
    the catalog's rows, or out of key order, raises ZoneError."""

    cfg: ZoneConfig
    catalog: Any
    row: np.ndarray
    zone_bounds: np.ndarray = field(init=False)
    key: np.ndarray = field(init=False)

    def __post_init__(self):
        cat, row, n = self.catalog, self.row, len(self.catalog.ra)
        # the range test keeps bincount from sizing by a bad row
        if not (len(row) == n and ((row >= 0) & (row < n)).all() and (np.bincount(row, minlength=n) == 1).all()):
            raise ZoneError("zone table rows are not a permutation of the catalog's rows")
        zone = zone_column(cat.dec[row], self.cfg.zone_height)
        self.zone_bounds = np.searchsorted(zone, np.arange(self.cfg.zone_count + 1))
        # numpy orders and searches complex values lexicographically by
        # (real, imag), and zone + 1j * ra keeps both parts exact, so key
        # orders rows exactly by (zone, ra)
        self.key = zone + 1j * cat.ra[row]
        if not (self.key[1:] >= self.key[:-1]).all():  # all scan_ra relies on
            raise ZoneError("rows not sorted by (zone, ra)")

    def __len__(self) -> int:
        return len(self.row)

    # zone, ra, objid, is_main and main_row_count() are derived and never
    # stored; they stay because perfbench reads them, and nothing in skyindex does
    zone = property(lambda self: self.key.real)
    ra = property(lambda self: self.key.imag)
    objid = property(lambda self: self.catalog.objid[self.row])
    is_main = property(lambda self: np.ones(len(self), dtype=bool))  # every row is its input row

    def main_row_count(self) -> int:
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
        windows the pairs are grouped by zone, not by window. The rows are
        the table's; self.row maps them to the catalog's.

        A row is in a window when it is in one of the window's ra_images,
        and all three are searched. Their row ranges, taken in shift
        order, are already sorted and take no row twice.
        """
        images = ra_images(lo, hi)
        # search keys (lo or hi, zone, shift, window): ascending ra within
        # a zone keeps each side's keys near-sorted, which numpy exploits
        q = np.empty((2, z1 - z0 + 1, 3, images.shape[2]), dtype=complex)
        q.real = np.arange(z0, z1 + 1)[:, None, None]
        q.imag = images[:, None]
        a = self.key.searchsorted(q[0], side="left")
        b = self.key.searchsorted(q[1], side="right")
        return gather_runs(a.ravel(), b.ravel(), images.shape[2])


def check_rows(objid: np.ndarray, ra: np.ndarray, dec: np.ndarray) -> None:
    """Raise ZoneError unless objid is unique, ra in [0, 360) and dec in
    [-90, 90]; the range tests are negated, so that NaN fails them."""
    if has_duplicates(objid):
        raise ZoneError("duplicate objID")
    if not ((ra >= 0.0) & (ra < 360.0)).all():
        raise ZoneError("ra must be normalized to [0, 360)")
    if not ((dec >= -90.0) & (dec <= 90.0)).all():
        raise ZoneError("dec must be within [-90, 90]")


def zone_column(dec: np.ndarray, height) -> np.ndarray:
    """Each row's zone, as zone_of gives it, for one zone height or one
    height per row."""
    top = np.ceil(180.0 / height).astype(np.int64) - 1
    return np.minimum(np.floor((dec + 90.0) / height).astype(np.int64), top)


def build_zone_table(catalog, cfg: ZoneConfig) -> ZoneTable:
    """Bucket rows into zones: one table row per input row.

    catalog: any object with array columns objid, ra, dec, x, y, z, such
    as a Catalog.
    """
    check_rows(catalog.objid, catalog.ra, catalog.dec)
    order = np.lexsort((catalog.objid, catalog.ra, zone_column(catalog.dec, cfg.zone_height)))
    return ZoneTable(cfg, catalog, order)


def nearby_objects(
    table: ZoneTable,
    center: SkyPoint,
    radius,
    stats: dict | None = None,
) -> list[tuple[int, float]]:
    """All catalog objects strictly within the radius of center, for a
    radius in [0, 180].

    Scan order: one scan of the zone band over the circle's ra window, the
    dec band filter, then cone_matches' exact chord test. Results are
    sorted by (distance, objid).
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
    _, idx = table.scan_ra(zmin, zmax, center.ra - alpha, center.ra + alpha)
    cat, rows = table.catalog, table.row[idx]
    rows = rows[np.abs(cat.dec[rows] - center.dec) <= r]
    ra, dec = math.radians(center.ra), math.radians(center.dec)
    cd = math.cos(dec)  # the centre as sky_to_vec computes it
    found = cone_matches(cat, rows, cd * math.cos(ra), cd * math.sin(ra), math.sin(dec), r)
    if stats is not None:
        stats.update(
            zones=zmax - zmin + 1, ra_candidates=len(idx), dec_filtered=len(rows), matched=len(found)
        )
    return found


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


def check_neighbors(t: NeighborsTable) -> None:
    """Raise ZoneError unless t could come from build_neighbors: a radius
    in (0, 180], candidate_pairs >= 0, distances in [0, 180] (NaN fails)
    and rows in the (objid, neighbor) order neighbors_of searches."""
    if not (0.0 < t.radius <= 180.0 and t.candidate_pairs >= 0):
        raise ZoneError("neighbors radius outside (0, 180] or candidate_pairs below 0")
    if not ((t.distance >= 0.0) & (t.distance <= 180.0)).all():
        raise ZoneError("neighbor distance outside [0, 180]")
    a, b = t.objid, t.neighbor
    if not ((a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1]))).all():
        raise ZoneError("neighbor rows not sorted by (objid, neighbor)")


def build_neighbors(catalog, radius, zone_height: float | None = None) -> NeighborsTable:
    """Materialize all object pairs strictly within a radius in (0, 180].

    Scans the zone band around each populated zone with one ra window per
    row of the zone, keeping objid1 < objid2 to do half the work, then
    mirroring.
    zone_height defaults to the radius, which minimizes the candidate area
    of the join, or to the least height MAX_ZONE_COUNT allows if that is
    larger.
    """
    r = as_degrees(radius)
    if not 0 < r <= 180:
        raise ZoneError(f"neighbors radius out of (0, 180] degrees: {r!r}")
    zh = zone_height if zone_height is not None else max(r, 180.0 / MAX_ZONE_COUNT)
    cfg = ZoneConfig(zone_height=zh)
    table = build_zone_table(catalog, cfg)
    # the join's columns, gathered once in zone order
    objid, ra, dec, x, y, z = (getattr(catalog, c)[table.row] for c in ("objid", "ra", "dec", "x", "y", "z"))
    deltas = int(math.ceil(r / zh - 1e-12))
    chord2_limit = 4.0 * math.sin(math.radians(r) / 2.0) ** 2
    nz = cfg.zone_count
    pairs_a = [np.empty(0, dtype=np.int64)]
    pairs_b = [np.empty(0, dtype=np.int64)]
    pair_d2 = [np.empty(0, dtype=float)]
    candidates = 0
    for zone in np.flatnonzero(np.diff(table.zone_bounds)).tolist():  # the populated zones
        s = table.zone_slice(zone)
        alpha = _ra_windows_arr(r, dec[s])
        window, right = table.scan_ra(
            max(0, zone - deltas), min(nz - 1, zone + deltas), ra[s] - alpha, ra[s] + alpha
        )
        candidates += len(right)
        left = s.start + window
        keep = objid[left] < objid[right]
        left, right = left[keep], right[keep]
        keep = np.abs(dec[left] - dec[right]) <= r
        left, right = left[keep], right[keep]
        dx = x[left] - x[right]
        dy = y[left] - y[right]
        dz = z[left] - z[right]
        d2 = dx * dx + dy * dy + dz * dz
        hit = d2 < chord2_limit
        pairs_a.append(objid[left][hit])
        pairs_b.append(objid[right][hit])
        pair_d2.append(d2[hit])
    # both orders of every pair; the table and columns are freed before the sort, which sets peak memory
    a = np.concatenate(pairs_a + pairs_b)
    b = np.concatenate(pairs_b + pairs_a)
    d2 = np.concatenate(pair_d2 * 2)
    del table, objid, ra, dec, x, y, z, pairs_a, pairs_b, pair_d2
    order = np.lexsort((b, a))
    return NeighborsTable(
        radius=r,
        objid=a[order],
        neighbor=b[order],
        distance=np.degrees(2.0 * np.arcsin(np.sqrt(d2[order]) / 2.0)),
        candidate_pairs=candidates,
    )
