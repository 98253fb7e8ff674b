"""Multi-scale zone pyramid for region-overlap search.

Regions are reduced to bounding circles and bucketed by radius into scale
levels whose zone heights grow in powers of two from a base height, so an
entry's radius never exceeds its scale's zone height. The pyramid is one
table of entry columns (objid, ra, dec, radius), stably sorted by (scale,
zone), the layout of one SQL table clustered on (scale, zone); both parts
of that key are derived from the radius and dec (scale_of,
zones.zone_column), and each row's unit vector x, y, z from its ra and
dec (geom.sky_to_xyz), never stored. An overlap query finds each populated
scale's narrow dec band, a run of contiguous rows, with two binary
searches on the key, and keeps the rows of every band that lie in their
scale's ra window with one mask over the edges zones.ra_images gives, so
wraparound at ra 0/360 follows the zone scan's one rule. Bands here are
sparse (many zones, few rows each), so this costs less than a binary
search per zone. One cascade then runs over the candidates of every
scale together: fine ra window, dec band, a sound planar-style circle
test, and finally the exact spherical test arc_distance(centers) <
query_radius + entry_radius. Per-stage candidate counts are exposed for
diagnostics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .geom import (
    Region,
    Row,
    SkyPoint,
    UnitVec3,
    Vec,
    arc_deg,
    convex_boundary_vertices,
    min_enclosing_cap,
    normalized_xyz,
    radius_deg,
    sky_to_vec,
    sky_to_xyz,
)
from .zones import (
    check_rows,
    check_zone_height,
    gather_runs,
    ra_images,
    ra_window_deg,
    zone_column,
)


class PyramidError(ValueError):
    """Bad pyramid configuration, duplicate ids, or invalid radii."""


@dataclass(frozen=True)
class PyramidConfig:
    base_zone_height: float = 0.5 / 60.0

    def __post_init__(self):
        check_zone_height(self.base_zone_height, "base_zone_height", PyramidError)

    @property
    def max_scale(self) -> int:
        """Smallest n with base_zone_height * 2^n >= 180 (one zone covers all)."""
        m = int(math.ceil(180.0 / self.base_zone_height))
        return max(0, (m - 1).bit_length())

    def zone_height(self, scale):
        """The zone height of a scale, or of each of an array of scales."""
        return self.base_zone_height * 2.0 ** scale


def scale_of(radius, cfg: PyramidConfig):
    """Smallest scale whose zone height accommodates a radius in (0, 180]
    degrees: an int for one radius, an int64 array for an array of radii.

    The scale is the bit length of m - 1 (0 for m = 0), m = ceil(r /
    base), which frexp gives as its exponent: exact, since m <= 180 / base
    <= MAX_ZONE_COUNT. No radius up to 180 lands past max_scale. One
    radius takes math's functions, an array numpy's, in one expression.
    """
    r = radius if isinstance(radius, np.ndarray) else float(radius)
    xp = np if isinstance(r, np.ndarray) else math
    ok = (r > 0.0) & (r <= 180.0)  # NaN fails too
    if not (ok.all() if xp is np else ok):
        bad = r[~ok][0] if xp is np else r
        raise PyramidError(f"bounding radius outside (0, 180] degrees: {float(bad)!r}")
    m = xp.ceil(r / cfg.base_zone_height - 1e-12)
    s = xp.frexp((m - 1) * (m >= 1))[1]
    return s.astype(np.int64) if xp is np else s


# the entry columns and their dtypes, in the order insert queues them
_ENTRY_COLUMNS = {"objid": np.int64, **dict.fromkeys(("ra", "dec", "radius"), np.float64)}


class PyramidIndex:
    """Bounding circles (objid, center, radius) bucketed by radius.

    One set of entry columns, stably sorted by (scale, zone): an entry's
    scale is scale_of(radius), its zone that of its dec at the scale's
    zone height, so its radius never exceeds its zone height. _cols also
    holds each row's x, y, z, derived as rows are sorted in. insert only
    queues an entry; the next query sorts the queue in.
    """

    def __init__(self, cfg: PyramidConfig | None = None):
        self.cfg = cfg or PyramidConfig()
        self._cols = {k: np.empty(0, _ENTRY_COLUMNS.get(k, np.float64)) for k in (*_ENTRY_COLUMNS, *"xyz")}
        self._key = np.empty(0, complex)  # scale + 1j * zone, row by row
        self._scales = np.empty(0, np.int64)  # the populated scales, ascending
        self._queued: list[tuple] = []
        self._ids: set[int] = set()

    @classmethod
    def from_columns(cls, cfg: PyramidConfig, cols: dict[str, np.ndarray]) -> "PyramidIndex":
        """An index of the entries in cols, named as columns() names them,
        in any row order.

        Raises PyramidError unless every row is one insert could have
        queued: a unique objid, ra in [0, 360), dec in [-90, 90] and a
        radius in (0, 180].
        """
        check_rows(cols["objid"], cols["ra"], cols["dec"], PyramidError)
        idx = cls(cfg)
        idx._sort_in(cols)
        idx._ids.update(cols["objid"].tolist())
        return idx

    def __len__(self) -> int:
        return len(self._ids)

    def insert(self, objid: int, center: SkyPoint, radius) -> int:
        """Add one bounding circle; returns the scale it lands on."""
        r = float(radius)
        try:
            objid = operator.index(objid)
        except TypeError:
            raise PyramidError(f"objId is not an integer: {objid!r}") from None
        if not -(1 << 63) <= objid < 1 << 63:  # the int64 objid column's range
            raise PyramidError(f"objId outside the int64 range: {objid}")
        if objid in self._ids:
            raise PyramidError(f"duplicate objId: {objid}")
        s = scale_of(r, self.cfg)
        self._queued.append((objid, center.ra, center.dec, r))
        self._ids.add(objid)
        return s

    def _sort_in(self, new: dict[str, np.ndarray]) -> None:
        """Add the rows of new entry columns, with their x, y, z, keeping the
        table stably sorted by (scale, zone): sorted rows keep their order."""
        scale = scale_of(new["radius"], self.cfg)
        zone = zone_column(new["dec"], self.cfg.zone_height(scale))
        new = {**new, **dict(zip("xyz", sky_to_xyz(new["ra"], new["dec"])))}
        # numpy orders and searches complex values by (real, imag), and
        # both parts are exact integers, so key orders rows by (scale, zone)
        key = np.concatenate([self._key, scale + 1j * zone])
        order = key.argsort(kind="stable")
        self._key = key[order]
        self._cols = {k: np.concatenate([c, new[k]])[order] for k, c in self._cols.items()}
        self._scales = np.union1d(self._scales, scale)

    def columns(self) -> dict[str, np.ndarray]:
        """The entry columns by name, rows sorted by (scale, zone), with
        the queued entries sorted in; the index's own arrays, not copies."""
        if self._queued:
            rows = zip(*self._queued)
            self._sort_in({k: np.array(c, t) for (k, t), c in zip(_ENTRY_COLUMNS.items(), rows)})
            self._queued = []
        return {k: self._cols[k] for k in _ENTRY_COLUMNS}

    def scales(self) -> list[int]:
        """The scales that hold an entry, ascending."""
        self.columns()
        return self._scales.tolist()


def _effective_ra_distance(dra, dec1, dec2) -> np.ndarray:
    """Compressed ra separation in radians: 2 asin(sqrt(cos d1 cos d2)
    |sin(dra/2)|). Never exceeds the arc distance (superadditivity of
    asin(sqrt(.))^2 across the haversine split), and the sin(dra/2) form
    absorbs any 360-degree wrap in stored ra."""
    cc = np.cos(np.radians(dec1)) * np.cos(np.radians(dec2))
    s = np.sqrt(np.maximum(cc, 0.0)) * np.abs(np.sin(np.radians(dra) / 2.0))
    return 2.0 * np.arcsin(np.minimum(1.0, s))


def scale_band(heights: np.ndarray, dec: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The first and last zone, at each zone height h, that can hold the
    center of an entry overlapping a circle of radius r at dec: an entry's
    radius is at most h, so its center is within dec +- (r + h). Zones
    come as integral floats."""
    lo_z = np.maximum(0.0, np.floor((dec + 90.0 - r - heights) / heights))
    hi_z = np.minimum(np.ceil(180.0 / heights) - 1.0, np.floor((dec + 90.0 + r + heights) / heights))
    return lo_z, hi_z


def overlap_search(
    index: PyramidIndex,
    center: SkyPoint,
    radius,
    stats: dict | None = None,
) -> list[int]:
    """Ids of entries whose bounding circles overlap the query circle, for
    a radius in [0, 180] (exact spherical test; the cascade stages only
    narrow candidates).

    Each populated scale's scale_band is one run of rows, kept where ra is
    in the window of a circle of radius + h (h the scale's zone height).
    One mask tests the rows of every band at once; the rows kept are
    gathered once and filtered once, by nested masks: fine ra, dec band,
    circle test, exact test.
    """
    r = float(radius)
    if not 0 <= r <= 180:
        raise PyramidError(f"radius out of [0, 180] degrees: {r!r}")
    qv = sky_to_vec(center)
    index.columns()  # sorts the queue in
    cols, scales = index._cols, index._scales
    heights = index.cfg.zone_height(scales)
    lo_z, hi_z = scale_band(heights, center.dec, r)
    starts = index._key.searchsorted(scales + 1j * lo_z, side="left")
    ends = index._key.searchsorted(scales + 1j * hi_z, side="right")
    band = starts < ends
    n_zone, rows = 0, np.empty(0, dtype=np.int64)
    if band.any():
        starts, ends = starts[band], ends[band]
        _, rows = gather_runs(starts, ends)
        n_zone = len(rows)
        # 180 for a reach past a pole, or of 180
        alpha = np.array([ra_window_deg(r + h, center.dec) for h in heights[band].tolist()])
        # every band row is tested against its own scale's window
        lo, hi = np.repeat(ra_images(center.ra - alpha, center.ra + alpha), ends - starts, axis=2)
        ra = cols["ra"][rows]
        rows = rows[((lo <= ra) & (ra <= hi)).any(axis=0)]
    ra, dec, radii, x, y, z, objid = (cols[k][rows] for k in ("ra", "dec", "radius", "x", "y", "z", "objid"))
    limit = r + radii
    limit_rad = np.radians(limit)
    dra_eff = _effective_ra_distance(ra - center.ra, dec, center.dec)
    ddec = np.radians(np.abs(dec - center.dec))
    dx = x - qv.x
    dy = y - qv.y
    dz = z - qv.z
    dist = np.degrees(
        2.0 * np.arcsin(np.minimum(1.0, np.sqrt(dx * dx + dy * dy + dz * dz) / 2.0))
    )
    fine_ok = dra_eff < limit_rad + 1e-9
    dec_ok = fine_ok & (ddec < limit_rad + 1e-9)
    # sound circle test: sqrt(ddec^2 + dra_eff^2) lower-bounds the arc
    # distance, so a reject can never lose a true overlap
    geom_ok = dec_ok & (ddec * ddec + dra_eff * dra_eff < (limit_rad + 1e-9) ** 2)
    matched = geom_ok & (dist < limit)
    # one id per entry, as from_columns and insert check
    ids = np.sort(objid[matched])
    if stats is not None:
        stats.update(
            zone_scale=n_zone,
            ra=len(ra),
            fine_ra=int(fine_ok.sum()),
            dec=int(dec_ok.sum()),
            geometry=int(geom_ok.sum()),
            matched=len(ids),
        )
    return ids.tolist()


# -- bounding circles --------------------------------------------------------


def _far_point_on_circle(c: Vec, h: Row) -> Vec | None:
    """The point of the circle {p . n = l} of row h farthest from c. At
    l = -1 the circle is the one point -n, which the cap's closure holds;
    at l = 1 the cap is empty."""
    nx, ny, nz, l = h
    s2 = 1.0 - l * l
    if s2 <= 0:
        return (-nx, -ny, -nz) if l < 0 else None
    cx, cy, cz = c
    d = cx * nx + cy * ny + cz * nz
    tx = cx - d * nx
    ty = cy - d * ny
    tz = cz - d * nz
    tn = math.sqrt(tx * tx + ty * ty + tz * tz)
    if tn < 1e-5:
        # t keeps a rounding part of ~1e-16 along n, which tilts t / |t|
        # by ~1e-16 / |t| off the circle's plane: project once more
        d = tx * nx + ty * ny + tz * nz
        tx -= d * nx
        ty -= d * ny
        tz -= d * nz
        tn = math.sqrt(tx * tx + ty * ty + tz * tz)
    s = math.sqrt(s2)
    if tn < 1e-14:
        # c on the circle's axis: every circle point is equidistant, so
        # any direction perpendicular to the axis will do
        if abs(nz) < 0.9:
            tx, ty, tz = ny, -nx, 0.0
        else:
            tx, ty, tz = -nz, 0.0, nx
        tn = math.sqrt(tx * tx + ty * ty + tz * tz)
    return normalized_xyz(l * nx - s * tx / tn, l * ny - s * ty / tn, l * nz - s * tz / tn)


def _convex_radius_about(c: Vec, rows: list[Row], verts: list[Vec]) -> float:
    """Tight sound covering radius of one convex's rows as seen from c."""
    if all(-c[0] * nx - c[1] * ny - c[2] * nz > l for nx, ny, nz, l in rows):
        return 180.0  # the convex holds c's antipode
    terms = [arc_deg(c, v) for v in verts]
    for i, h in enumerate(rows):
        f = _far_point_on_circle(c, h)
        if f is None:
            continue
        fx, fy, fz = f
        for k, (nx, ny, nz, l) in enumerate(rows):
            if k != i and fx * nx + fy * ny + fz * nz < l - 1e-9:
                break
        else:
            terms.append(arc_deg(c, f))
    if terms:
        return min(180.0, max(terms))
    # no boundary features survive: fall back to the smallest cap, which
    # always contains the convex
    return min(180.0, min(arc_deg(c, h) + radius_deg(h) for h in rows))


def bounding_circle_rows(convexes: list[list[Row]]) -> tuple[Vec, float]:
    """(center (x, y, z), radius degrees) covering every point of the
    region whose convexes hold these (nx, ny, nz, l) rows."""
    if not convexes:
        raise PyramidError("bounding circle of an empty region")
    if any(not rows for rows in convexes):
        return (0.0, 0.0, 1.0), 180.0
    if len(convexes) == 1 and len(convexes[0]) == 1:
        h = convexes[0][0]
        return h[:3], radius_deg(h)
    all_verts = [convex_boundary_vertices(rows) for rows in convexes]
    anchors: list[Vec] = []
    for rows, verts in zip(convexes, all_verts):
        anchors.extend(verts)
        if not verts:
            anchors.append(max(rows, key=lambda h: h[3])[:3])  # the smallest cap's normal
    center, _ = min_enclosing_cap(anchors)
    radius = max(_convex_radius_about(center, rows, verts) for rows, verts in zip(convexes, all_verts))
    return center, radius


def bounding_circle(region: Region) -> tuple[UnitVec3, float]:
    """(center, radius degrees) covering every point of the region."""
    rows = [[(h.normal.x, h.normal.y, h.normal.z, h.l) for h in c.constraints] for c in region.convexes]
    center, radius = bounding_circle_rows(rows)
    return UnitVec3(*center), radius
