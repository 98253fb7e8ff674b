"""Multi-scale zone pyramid for region-overlap search.

Regions are reduced to bounding circles and bucketed by radius into scale
levels whose zone heights grow in powers of two from a base height, so an
entry's radius never exceeds its scale's zone height. Each scale is a
zones.ZoneTable of its circles (zone height the scale's height, plus a
radius column), built and scanned by the same code as a catalog's zone
table, so wraparound at ra 0/360 is the scan's alone. An overlap query
scans each scale's narrow dec band over one ra window with a single
ZoneTable.scan_ra call and filters the candidates through a cascade:
zone bucket, ra window, dec band, a sound planar-style circle test, and
finally the exact spherical test arc_distance(centers) < query_radius +
entry_radius. Per-stage candidate counts are exposed for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .algebra import simplify_region_geometry
from .geom import (
    Convex,
    HalfSpace,
    Region,
    SkyPoint,
    UnitVec3,
    arc_distance_deg,
    as_degrees,
    convex_boundary_vertices,
    inside_convex,
    min_enclosing_cap,
    region_intersection,
    sky_to_vec,
)
from .zones import ZoneConfig, ZoneTable, build_zone_table, ra_window_deg


class PyramidError(ValueError):
    """Bad pyramid configuration, duplicate ids, or invalid radii."""


@dataclass(frozen=True)
class PyramidConfig:
    base_zone_height: float = 0.5 / 60.0

    def __post_init__(self):
        if self.base_zone_height <= 0:
            raise PyramidError("base_zone_height must be positive")

    @property
    def max_scale(self) -> int:
        """Smallest n with base_zone_height * 2^n >= 180 (one zone covers all)."""
        m = int(math.ceil(180.0 / self.base_zone_height))
        return max(0, (m - 1).bit_length())

    def zone_height(self, scale: int) -> float:
        return self.base_zone_height * (1 << scale)


def scale_of(radius, cfg: PyramidConfig) -> int:
    """Smallest scale whose zone height accommodates the radius."""
    r = as_degrees(radius)
    if r <= 0:
        raise PyramidError(f"radius must be positive: {r!r}")
    m = int(math.ceil(r / cfg.base_zone_height - 1e-12))
    return min((max(m, 1) - 1).bit_length(), cfg.max_scale)


# the columns of a queued entry, in the order insert queues them
_ENTRY_COLUMNS = ("objid", "ra", "dec", "x", "y", "z", "radius")


class PyramidIndex:
    """Bounding circles (objid, center, radius) bucketed by radius.

    Scale s is a ZoneTable of its entries, with a radius column, built
    with zone height cfg.zone_height(s): an entry's radius never exceeds
    its scale's zone height. insert only queues an entry; the next query
    rebuilds the scales that received entries.
    """

    def __init__(self, cfg: PyramidConfig | None = None):
        self.cfg = cfg or PyramidConfig()
        self._tables: dict[int, ZoneTable] = {}
        self._queued: dict[int, list[tuple]] = {}
        self._ids: set[int] = set()

    @classmethod
    def from_tables(cls, cfg: PyramidConfig, tables: dict[int, ZoneTable]) -> "PyramidIndex":
        """An index whose scale s is tables[s], as tables() returned them."""
        idx = cls(cfg)
        idx._tables = dict(sorted(tables.items()))
        for t in idx._tables.values():
            idx._ids.update(t.objid.tolist())
        return idx

    def __len__(self) -> int:
        return len(self._ids)

    def insert(self, objid: int, center: SkyPoint, radius) -> int:
        """Add one bounding circle; returns the scale it landed on."""
        r = as_degrees(radius)
        if objid in self._ids:
            raise PyramidError(f"duplicate objId: {objid}")
        if r > 180.0:
            raise PyramidError(f"bounding radius above 180 degrees: {r!r}")
        s = scale_of(r, self.cfg)
        v = sky_to_vec(center)
        self._queued.setdefault(s, []).append(
            (int(objid), center.ra, center.dec, v.x, v.y, v.z, r)
        )
        self._ids.add(int(objid))
        return s

    def tables(self) -> dict[int, ZoneTable]:
        """Scale -> its zone table, in ascending scale order."""
        if self._queued:
            for s, entries in self._queued.items():
                cols = dict(zip(_ENTRY_COLUMNS, (np.array(c) for c in zip(*entries))))
                old = self._tables.get(s)
                if old is not None:
                    cols = {k: np.concatenate([getattr(old, k), c]) for k, c in cols.items()}
                self._tables[s] = build_zone_table(
                    SimpleNamespace(**cols), ZoneConfig(zone_height=self.cfg.zone_height(s))
                )
            self._queued = {}
            self._tables = dict(sorted(self._tables.items()))
        return self._tables

    def scales(self) -> list[int]:
        return list(self.tables())


def _effective_ra_distance(dra, dec1, dec2) -> np.ndarray:
    """Compressed ra separation in radians: 2 asin(sqrt(cos d1 cos d2)
    |sin(dra/2)|). Never exceeds the arc distance (superadditivity of
    asin(sqrt(.))^2 across the haversine split), and the sin(dra/2) form
    absorbs any 360-degree wrap in stored ra."""
    cc = np.cos(np.radians(dec1)) * np.cos(np.radians(dec2))
    s = np.sqrt(np.maximum(cc, 0.0)) * np.abs(np.sin(np.radians(dra) / 2.0))
    return 2.0 * np.arcsin(np.minimum(1.0, s))


def overlap_search(
    index: PyramidIndex,
    center: SkyPoint,
    radius,
    stats: dict | None = None,
) -> list[int]:
    """Ids of entries whose bounding circles overlap the query circle
    (exact spherical test; the cascade stages only narrow candidates).

    At scale s an entry radius is at most the zone height h, so overlap
    confines entry centers to dec +- (radius + h): those zones are scanned
    over the ra window of a circle of radius + h.
    """
    r = as_degrees(radius)
    if r < 0:
        raise PyramidError(f"radius must be non-negative: {r!r}")
    qv = sky_to_vec(center)
    n_zone = n_ra = n_fine = n_dec = n_geom = 0
    hits: list[np.ndarray] = []
    for t in index.tables().values():
        h = t.cfg.zone_height
        lo_z = max(0, int(math.floor((center.dec + 90.0 - r - h) / h)))
        hi_z = min(t.cfg.zone_count - 1, int(math.floor((center.dec + 90.0 + r + h) / h)))
        in_band = int(t.zone_bounds[hi_z + 1] - t.zone_bounds[lo_z])
        if in_band == 0:
            continue
        n_zone += in_band
        reach = min(r + h, 180.0)
        alpha = ra_window_deg(reach, center.dec) if reach < 180.0 else 180.0
        _, idx = t.scan_ra(lo_z, hi_z, center.ra - alpha, center.ra + alpha)
        n_ra += len(idx)
        if len(idx) == 0:
            continue
        limit = r + t.radius[idx]
        limit_rad = np.radians(limit)
        dra_eff = _effective_ra_distance(
            t.ra[idx] - center.ra, t.dec[idx], center.dec
        )
        fine_ok = dra_eff < limit_rad + 1e-9
        idx, limit, limit_rad, dra_eff = (
            idx[fine_ok], limit[fine_ok], limit_rad[fine_ok], dra_eff[fine_ok]
        )
        n_fine += len(idx)
        if len(idx) == 0:
            continue
        ddec = np.radians(np.abs(t.dec[idx] - center.dec))
        dec_ok = ddec < limit_rad + 1e-9
        idx, limit, limit_rad, dra_eff, ddec = (
            idx[dec_ok], limit[dec_ok], limit_rad[dec_ok],
            dra_eff[dec_ok], ddec[dec_ok],
        )
        n_dec += len(idx)
        if len(idx) == 0:
            continue
        # sound circle test: sqrt(ddec^2 + dra_eff^2) lower-bounds the
        # arc distance, so a reject can never lose a true overlap
        geom_ok = ddec * ddec + dra_eff * dra_eff < (limit_rad + 1e-9) ** 2
        idx = idx[geom_ok]
        limit = limit[geom_ok]
        n_geom += len(idx)
        if len(idx) == 0:
            continue
        dx = t.x[idx] - qv.x
        dy = t.y[idx] - qv.y
        dz = t.z[idx] - qv.z
        dist = np.degrees(
            2.0 * np.arcsin(np.minimum(1.0, np.sqrt(dx * dx + dy * dy + dz * dz) / 2.0))
        )
        exact = dist < limit
        hits.append(t.objid[idx][exact])
    ids = np.unique(np.concatenate(hits)) if hits else np.empty(0, dtype=np.int64)
    if stats is not None:
        stats.update(
            zone_scale=n_zone,
            ra=n_ra,
            fine_ra=n_fine,
            dec=n_dec,
            geometry=n_geom,
            matched=len(ids),
        )
    return [int(i) for i in ids]


# -- bounding circles --------------------------------------------------------


def _far_point_on_circle(c: UnitVec3, normal: UnitVec3, l: float) -> UnitVec3 | None:
    """The point of the circle {p . normal = l} farthest from c."""
    s2 = 1.0 - l * l
    if s2 <= 0:
        return None
    d = c.dot(normal)
    tx = c.x - d * normal.x
    ty = c.y - d * normal.y
    tz = c.z - d * normal.z
    tn = math.sqrt(tx * tx + ty * ty + tz * tz)
    s = math.sqrt(s2)
    if tn < 1e-14:
        # c on the circle's axis: every circle point is equidistant
        if abs(normal.z) < 0.9:
            tx, ty, tz = -normal.y, normal.x, 0.0
        else:
            tx, ty, tz = normal.z, 0.0, -normal.x
        tn = math.sqrt(tx * tx + ty * ty + tz * tz)
        return UnitVec3.normalized(
            l * normal.x + s * tx / tn,
            l * normal.y + s * ty / tn,
            l * normal.z + s * tz / tn,
        )
    return UnitVec3.normalized(
        l * normal.x - s * tx / tn,
        l * normal.y - s * ty / tn,
        l * normal.z - s * tz / tn,
    )


def _convex_radius_about(c: UnitVec3, convex: Convex, verts: list[UnitVec3]) -> float:
    """Tight sound covering radius of one convex as seen from center c."""
    cons = convex.constraints
    if not cons:
        return 180.0
    if inside_convex(convex, c.negated()):
        return 180.0
    terms = [arc_distance_deg(c, v) for v in verts]
    for i, h in enumerate(cons):
        f = _far_point_on_circle(c, h.normal, h.l)
        if f is None:
            continue
        ok = True
        for k, other in enumerate(cons):
            if k != i and f.dot(other.normal) < other.l - 1e-9:
                ok = False
                break
        if ok:
            terms.append(arc_distance_deg(c, f))
    if terms:
        return min(180.0, max(terms))
    # no boundary features survive: fall back to the smallest cap, which
    # always contains the convex
    best = min(
        (arc_distance_deg(c, h.normal) + h.radius_deg() for h in cons),
    )
    return min(180.0, best)


def bounding_circle(region: Region) -> tuple[UnitVec3, float]:
    """(center, radius degrees) covering every point of the region."""
    if not region.convexes:
        raise PyramidError("bounding circle of an empty region")
    if any(not c.constraints for c in region.convexes):
        return UnitVec3(0.0, 0.0, 1.0), 180.0
    if len(region.convexes) == 1 and len(region.convexes[0].constraints) == 1:
        h = region.convexes[0].constraints[0]
        return h.normal, h.radius_deg()
    all_verts = [convex_boundary_vertices(c) for c in region.convexes]
    anchors: list[UnitVec3] = []
    for convex, verts in zip(region.convexes, all_verts):
        anchors.extend(verts)
        if not verts:
            smallest = max(convex.constraints, key=lambda h: h.l)
            anchors.append(smallest.normal)
    center, _ = min_enclosing_cap(anchors)
    radius = max(
        _convex_radius_about(center, convex, verts)
        for convex, verts in zip(region.convexes, all_verts)
    )
    return center, radius


# -- segmentation of elongated regions ---------------------------------------


def segment_elongated_region(
    region: Region, max_aspect: float, base_id: int = 0
) -> list[tuple[Region, int]]:
    """Split a long thin region into compact slices sharing one base id.

    The region is cut by planes perpendicular to its principal axis
    (estimated from boundary vertices); slice unions reproduce the region
    everywhere off the measure-zero cut circles. Compact regions (aspect
    within max_aspect) come back whole.
    """
    if not region.convexes:
        raise PyramidError("cannot segment an empty region")
    if max_aspect < 1.0:
        raise PyramidError("max_aspect must be >= 1")
    verts: list[UnitVec3] = []
    for convex in region.convexes:
        verts.extend(convex_boundary_vertices(convex))
    if len(verts) < 3:
        return [(region, base_id)]
    c, _ = min_enclosing_cap(verts)
    # orthographic tangent-plane components
    rel = np.array([v.as_tuple() for v in verts]) - np.outer(
        [v.dot(c) for v in verts], c.as_tuple()
    )
    cov = rel.T @ rel
    eigvals, eigvecs = np.linalg.eigh(cov)
    major = eigvecs[:, -1]
    minor = eigvecs[:, -2]
    t_major = rel @ major
    t_minor = rel @ minor
    extent_major = float(t_major.max() - t_major.min())
    extent_minor = float(t_minor.max() - t_minor.min())
    aspect = extent_major / max(extent_minor, 1e-9)
    if aspect <= max_aspect or extent_major <= 0:
        return [(region, base_id)]
    n_seg = min(int(math.ceil(aspect / max_aspect)), 64)
    u = UnitVec3.normalized(*major)
    t_all = np.array([v.dot(u) for v in verts])
    t_lo, t_hi = float(t_all.min()), float(t_all.max())
    cuts = np.linspace(t_lo, t_hi, n_seg + 1)[1:-1]
    segments = []
    for i in range(n_seg):
        constraints = []
        if i > 0:
            constraints.append(HalfSpace(u, float(cuts[i - 1])))
        if i < n_seg - 1:
            constraints.append(HalfSpace(u.negated(), -float(cuts[i])))
        if constraints:
            slab = Region((Convex(tuple(constraints)),))
            piece = region_intersection(region, slab)
        else:
            piece = region
        reduced = simplify_region_geometry(
            [list(cv.constraints) for cv in piece.convexes]
        )
        if reduced:
            segments.append(
                (Region(tuple(Convex(tuple(cl)) for cl in reduced)), base_id)
            )
    return segments if segments else [(region, base_id)]
