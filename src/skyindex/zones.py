"""Zone bucketing: declination stripes with ordered (zone, ra) scans.

A catalog is bucketed into horizontal zones of fixed height; a ZoneTable
is an index over it, as in the zone papers: the catalog's rows in (zone,
ra, objid) order, one per object with ra in [0, 360), and no copied column.
ZoneTable.scan_ra scans many ra windows, each over its own band of zones
and at each of its ra images, at once with a binary search on an exact
(zone, ra) key: a cone search is one scan_ra of its dec band, where a
first search on a float key took twice as long. The all-pairs neighbor
join, many windows per search, takes the float key first (build_neighbors).
The pyramid's bands are sparse, where a binary search per zone costs
more than a look at every row, so pyramid.overlap_search masks its
bands' contiguous rows instead (the choice between an index seek and a
range scan that the zone papers leave to the SQL optimizer). All test
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
from dataclasses import dataclass
from typing import Any

import numpy as np

from .geom import SkyPoint


class ZoneError(ValueError):
    """Bad zone configuration or query arguments."""


# The most zones a height may give: 180 / 2^20 degrees (0.62 arcsec) is
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


@dataclass(eq=False)
class ZoneTable:
    """An index over a catalog (any object with array columns objid, ra,
    dec, x, y, z), immutable after build: row lists the catalog's rows in
    (zone, ra, objid) order. key is the (zone, ra) search key scan_ra runs
    on, zone + 1j * ra of each row, derived and never stored: numpy orders
    and searches complex values lexicographically by (real, imag), and
    both parts are exact, so key orders rows exactly by (zone, ra).
    build_zone_table makes both in order; from_columns checks a loaded row."""

    cfg: ZoneConfig
    catalog: Any
    row: np.ndarray
    key: np.ndarray

    @classmethod
    def from_columns(cls, cfg: ZoneConfig, catalog, row: np.ndarray) -> "ZoneTable":
        """The table of a row column, as a snapshot stores it. A row that is
        not a permutation of the catalog's rows, or out of key order,
        raises ZoneError."""
        n = len(catalog.ra)
        # the range test keeps bincount from sizing by a bad row
        if not (len(row) == n and ((row >= 0) & (row < n)).all() and (np.bincount(row, minlength=n) == 1).all()):
            raise ZoneError("zone table rows are not a permutation of the catalog's rows")
        zone = zone_column(catalog.dec[row], cfg.zone_height)
        key = zone + 1j * catalog.ra[row]
        if not (key[1:] >= key[:-1]).all():  # all scan_ra relies on
            raise ZoneError("rows not sorted by (zone, ra)")
        return cls(cfg, catalog, row, key)

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

    def scan_ra(self, z0, height: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Rows of a band of zones whose ra (mod 360) falls in a window [lo, hi].

        lo and hi are scalars or equal-length non-empty arrays, one window
        per entry, with -360 < lo <= hi < 720. Window k's band is zones
        z0[k]..z0[k] + height - 1, for height >= 1 and one z0 >= 0 for all
        windows or one per window; no row lies past the top zone. Returns
        (window, row) index arrays: every row of its band in window k, once
        per window, paired with k (0 for scalar windows). Each window's
        rows come in ascending order; with several windows the pairs are
        grouped by zone offset, not by window. The rows are the table's;
        self.row maps them to the catalog's.

        A row is in a window when it is in one of the window's ra_images,
        whose three row ranges are disjoint and in ascending order.
        """
        images = ra_images(lo, hi)
        # search keys (lo or hi, zone offset, image, window): ascending ra
        # within a zone keeps each side's keys near-sorted, which numpy exploits
        q = np.empty((2, height) + images.shape[1:], dtype=complex)
        q.real = np.arange(height)[:, None, None] + z0
        q.imag = images[:, None]
        a = self.key.searchsorted(q[0], side="left")
        b = self.key.searchsorted(q[1], side="right")
        return gather_runs(a.ravel(), b.ravel(), images.shape[2])


def check_rows(objid: np.ndarray, ra: np.ndarray, dec: np.ndarray, error: type[ValueError]) -> None:
    """Raise error unless objid is unique, ra in [0, 360) and dec in
    [-90, 90]; the range tests are negated, so that NaN fails them."""
    s = np.sort(objid)  # a sort and a compare of neighbours, far cheaper than np.unique
    if (s[1:] == s[:-1]).any():
        raise error("duplicate objID")
    if not ((ra >= 0.0) & (ra < 360.0)).all():
        raise error("ra must be normalized to [0, 360)")
    if not ((dec >= -90.0) & (dec <= 90.0)).all():
        raise error("dec must be within [-90, 90]")


def zone_column(dec: np.ndarray, height) -> np.ndarray:
    """Each row's zone, as zone_of gives it, for one zone height or one
    height per row."""
    top = np.ceil(180.0 / height).astype(np.int64) - 1
    return np.minimum(np.floor((dec + 90.0) / height).astype(np.int64), top)


def build_zone_table(catalog, cfg: ZoneConfig) -> ZoneTable:
    """Bucket rows into zones: one table row per input row.

    catalog: any object with array columns objid, ra, dec, x, y, z. Its
    rows are checked here (check_rows) unless it is a Catalog, whose rows
    Catalog.from_columns has checked.

    The (zone, ra, objid) order comes from one float sort of zone * 512 +
    ra. zone * 512 is exact (below 2^29), and ra < 360 < 512, so the
    rounded sum never breaks (zone, ra) order and never mixes two zones:
    the sort is exact but for runs of equal sums, from equal ra values
    or from ra values that round together in high zones. A lexsort of
    those runs' rows alone puts each run in (zone, ra, objid) order, so
    the result is np.lexsort((objid, ra, zone)) bit for bit, ties and
    -0.0 included, in a quarter of its time or less.
    """
    from .catalog import Catalog  # a module-level import would be circular

    if not isinstance(catalog, Catalog):
        check_rows(catalog.objid, catalog.ra, catalog.dec, ZoneError)
    zone = zone_column(catalog.dec, cfg.zone_height)
    rough = zone * 512.0 + catalog.ra
    order = np.argsort(rough)
    rough = rough[order]
    tied = rough[1:] == rough[:-1]
    if tied.any():
        at = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
        rows = order[at]
        order[at] = rows[np.lexsort((catalog.objid[rows], catalog.ra[rows], zone[rows], rough[at]))]
    return ZoneTable(cfg, catalog, order, zone[order] + 1j * catalog.ra[order])  # the key from_columns derives, in order


def nearby_objects(
    table: ZoneTable,
    center: SkyPoint,
    radius,
    stats: dict | None = None,
) -> list[tuple[int, float]]:
    """All catalog objects strictly within the radius of center, for a
    radius in [0, 180].

    Scan order: one scan of the zone band over the circle's ra window,
    then cone_matches' exact chord test on every row it finds. Results
    are sorted by (distance, objid).
    """
    r = float(radius)
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
    _, idx = table.scan_ra(zmin, zmax - zmin + 1, center.ra - alpha, center.ra + alpha)
    cat, rows = table.catalog, table.row[idx]
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
    # the unordered pairs the build's ra-window scans found, each counted
    # once, that its chord test then examined
    candidate_pairs: int

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


# The most rows build_neighbors joins: its packed sort key rank_a * n +
# rank_b stays below 2^63 while n * n <= 2^63.
MAX_JOIN_ROWS = 3_037_000_499

# Rows times band height per join scan: each block's search keys and
# their two searchsorted results stay a few MiB at any zone height.
_JOIN_KEYS = 1 << 15


def _join_search(fkey, key, z, edge, side: str) -> np.ndarray:
    """key.searchsorted(z + 1j * edge, side), on fkey, the float key z * 512
    + ra of the same rows. Edges clamped to [-1, 361] keep each search key
    in its zone's float range; rounding is monotone, so only a search key
    equal to a row's can be placed wrong, and those are searched on key."""
    q = z * 512.0 + np.clip(edge, -1.0, 361.0)
    pos = fkey.searchsorted(q, side)
    tied = np.flatnonzero(fkey.take(pos if side == "left" else pos - 1, mode="clip") == q)
    pos[tied] = key.searchsorted(z[tied] + 1j * edge[tied], side)
    return pos


def _chord2(cols, a, b) -> np.ndarray:
    """The squared chords between rows a and b of the x, y, z columns,
    summed in one order, so that (a, b) and (b, a) give the same bits."""
    d2 = np.zeros(len(a))
    for col in cols:
        d = col[a]
        d -= col[b]
        d *= d
        d2 += d
    return d2


def _join_candidates(table: ZoneTable, dec, r: float, height: int, block: int):
    """(left, right) table rows of build_neighbors' candidate pairs, a
    block of left rows at a time; dec is in table order."""
    zone, ra = table.key.real, table.key.imag
    fkey = zone * 512.0 + ra  # the rough key build_zone_table sorted, bit for bit
    for start in range(0, len(table), block):
        s = slice(start, start + block)
        alpha = _ra_windows_arr(r, dec[s])
        images = ra_images(ra[s] - alpha, ra[s] + alpha)
        # each row's 0 image, then as extra windows its +360 and -360 images
        # if they can hold a stored ra (start below 360, end at or past 0)
        past0 = np.flatnonzero(images[0, 2] < 360.0)
        past360 = np.flatnonzero(images[1, 0] >= 0.0)
        edges = np.concatenate((images[:, 1], images[:, 2, past0], images[:, 0, past360]), axis=1)
        src = start + np.concatenate((np.arange(len(alpha)), past0, past360))
        # one run per window and zone offset, mapped to its row by run; the
        # own zone has no -360 runs, and its 0 image runs start at row + 1
        k, own = len(alpha), len(alpha) + len(past0)
        run = np.concatenate((src[:own], np.tile(src, height - 1)))
        zq = zone[run] + np.repeat(np.arange(height), [own] + [len(src)] * (height - 1))
        lo, hi = np.concatenate((edges[:, :own], np.tile(edges, height - 1)), axis=1)
        a = np.concatenate((run[:k] + 1, _join_search(fkey, table.key, zq[k:], lo[k:], "left")))
        b = _join_search(fkey, table.key, zq, hi, "right")
        label, right = gather_runs(a, b, len(run))
        yield run[label], right


def build_neighbors(catalog, radius, zone_height: float | None = None) -> NeighborsTable:
    """Materialize all object pairs strictly within a radius in (0, 180].

    The zones algorithm's join of each zone with itself and the zones
    above it: one search per block of rows of the zone-sorted table, each
    row with its own ra window over its own band of zones, zone..zone +
    ceil(r / zone_height), finding each unordered pair once, from the
    window of its earlier row, and no row it then drops. A block holds
    _JOIN_KEYS // band height rows, so its search keys take the same
    memory at any zone height. In its own zone a window's run starts at
    its row + 1, and its -360 image, holding only earlier rows, is left
    out; each pair there comes from the other row's 0 or +360 image. The
    zones above take each window's own image and, as extra windows, its
    +360 or -360 image if it passes ra 0 or 360. All search the float key
    first (_join_search). Each pair goes straight to the exact chord test:
    a dec-band prefilter saves no time there, and its rounding can drop a
    pair at distance r that the chord test keeps. The pairs found are
    mirrored and put in (objid, neighbor) order by one sort of a packed
    key, rank(objid) * n + rank(neighbor), unique per pair; it fits int64
    up to MAX_JOIN_ROWS rows, and more rows raise ZoneError. _chord2 then
    gives each pair's distance the chord test's bits again.
    zone_height defaults to the radius, which minimizes the candidate area
    of the join, or to the least height MAX_ZONE_COUNT allows if that is
    larger.
    """
    r = float(radius)
    if not 0 < r <= 180:
        raise ZoneError(f"neighbors radius out of (0, 180] degrees: {r!r}")
    n = len(catalog.objid)
    if n > MAX_JOIN_ROWS:
        raise ZoneError(f"neighbors join takes at most {MAX_JOIN_ROWS} rows, got {n}")
    zh = zone_height if zone_height is not None else max(r, 180.0 / MAX_ZONE_COUNT)
    table = build_zone_table(catalog, ZoneConfig(zone_height=zh))
    # the join's columns, gathered once in zone order
    objid, dec, x, y, z = (getattr(catalog, c)[table.row] for c in ("objid", "dec", "x", "y", "z"))
    by_objid = np.argsort(objid)
    rank = np.empty(n, dtype=np.int64)
    rank[by_objid] = np.arange(n)
    height = int(math.ceil(r / zh - 1e-12)) + 1
    block = max(1, _JOIN_KEYS // height)
    chord2_limit = 4.0 * math.sin(math.radians(r) / 2.0) ** 2
    keys_ab = [np.empty(0, dtype=np.int64)]
    keys_ba = [np.empty(0, dtype=np.int64)]
    candidates = 0
    for left, right in _join_candidates(table, dec, r, height, block):
        candidates += len(right)
        hit = _chord2((x, y, z), left, right) < chord2_limit
        rank_l, rank_r = rank[left[hit]], rank[right[hit]]
        keys_ab.append(rank_l * n + rank_r)
        keys_ba.append(rank_r * n + rank_l)
    # the pair tail sets peak memory, so the table and columns are freed
    # before it and each pair-sized array as soon as it is used
    by_rank = table.row[by_objid]
    del table, objid, dec, x, y, z, by_objid, rank
    key = np.concatenate(keys_ab + keys_ba)  # both orders of every pair
    del keys_ab, keys_ba
    key.sort()  # the keys are unique, so any sort gives this order
    a, b = np.divmod(key, n)
    del key
    d2 = _chord2((getattr(catalog, c)[by_rank] for c in "xyz"), a, b)
    objid = catalog.objid[by_rank]
    a, b = objid[a], objid[b]
    np.sqrt(d2, out=d2)
    d2 /= 2.0
    np.arcsin(d2, out=d2)
    d2 *= 2.0
    np.degrees(d2, out=d2)
    return NeighborsTable(
        radius=r,
        objid=a,
        neighbor=b,
        distance=d2,
        candidate_pairs=candidates,
    )
