"""Spherical spatial search for sky catalogs.

Three complementary index structures over points and areas on the unit
sphere: a hierarchical triangular mesh with prefix-containment ids, zone
bucketing by declination stripe for cone searches and all-pairs neighbor
joins, and a DNF half-space region algebra with a multi-scale zone pyramid
for region-overlap queries. A small grammar describes regions as text.
"""

from .geom import (
    ArcAngle,
    Convex,
    GeometryError,
    HalfSpace,
    Region,
    SkyPoint,
    UnitVec3,
    arc_distance_deg,
    buffer_halfspace,
    buffer_region,
    circle_to_halfspace,
    inside_convex,
    inside_halfspace,
    inside_region,
    negate_halfspace,
    sky_to_vec,
    vec_to_sky,
)
from .regionspec import (
    RegionCompileError,
    RegionSyntaxError,
    compile_region_string,
    compile_to_region,
    parse_region_spec,
    serialize_region,
)
from .algebra import CompiledPredicate, RegionStore, RegionStoreError
from .catalog import Catalog, CatalogError, from_points, htm_cone_search, ingest_csv, random_catalog
from .pyramid import (
    PyramidConfig,
    PyramidError,
    PyramidIndex,
    bounding_circle,
    overlap_search,
    scale_of,
    segment_elongated_region,
)
from .snapshot import AppState, SnapshotError, load_state, save_state
from .zones import (
    NeighborsTable,
    ZoneConfig,
    ZoneError,
    ZoneTable,
    build_neighbors,
    build_zone_table,
    nearby_objects,
    zone_of,
)

__version__ = "0.1.0"
