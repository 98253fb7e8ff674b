"""Catalog ingestion: CSV parsing, derived unit vectors and mesh ids."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import htm
from .geom import (
    Convex,
    Region,
    SkyPoint,
    UnitVec3,
    as_degrees,
    buffer_halfspace,
    circle_to_halfspace,
    sky_to_vec,
    sky_to_xyz,
)
from .zones import check_rows, cone_matches, gather_runs


DEFAULT_HTM_DEPTH = 20

# The mesh cone search covers its circle grown by this much, in degrees,
# so that the cover holds every row the chord test accepts. A cap's
# l = cos(r) cannot tell a radius below ~1e-6 degrees from 0, and a row's
# trixel at depth d may lie up to ~6e-16 * 2^d radians from it (the
# -1e-15 tie tolerance of htm.point_to_id on an unnormalized edge dot),
# which stays below a fifth of this at the depth the search stops at.
COVER_PAD_DEG = 1e-5


class CatalogError(ValueError):
    """Ingest failure; message carries line/column context."""


@dataclass(eq=False)
class Catalog:
    """Point catalog columns objid, ra, dec; x, y, z and mesh ids derived on first use."""

    objid: np.ndarray
    ra: np.ndarray
    dec: np.ndarray
    htm_depth: int = DEFAULT_HTM_DEPTH

    def __len__(self) -> int:
        return len(self.objid)

    @cached_property
    def _xyz(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return sky_to_xyz(self.ra, self.dec)

    # each row's unit vector, all three derived together on the first read
    x = property(lambda self: self._xyz[0])
    y = property(lambda self: self._xyz[1])
    z = property(lambda self: self._xyz[2])

    @cached_property
    def htmid(self) -> np.ndarray:
        """Each row's mesh id at htm_depth, derived on the first read
        (uint64 at htm.MAX_DEPTH, int64 below)."""
        return htm.ids_for_points(self.x, self.y, self.z, self.htm_depth)

    @cached_property
    def _htm_index(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.htmid, kind="stable")
        return order, self.htmid[order]

    def htm_order(self) -> np.ndarray:
        """Row permutation sorting the catalog by mesh id (cached)."""
        return self._htm_index[0]

    def htm_sorted_ids(self) -> np.ndarray:
        """Mesh ids in htm_order(), ascending (cached)."""
        return self._htm_index[1]

    @classmethod
    def from_columns(cls, objid, ra, dec, htm_depth: int) -> "Catalog":
        """The catalog of the columns, the one check every catalog passes,
        built (from_arrays) or loaded. Raises CatalogError unless they are
        valid rows (zones.check_rows) and a depth in [0, htm.MAX_DEPTH]."""
        check_rows(objid, ra, dec, CatalogError)
        if not 0 <= htm_depth <= htm.MAX_DEPTH:
            raise CatalogError(f"mesh depth outside [0, {htm.MAX_DEPTH}]: {htm_depth!r}")
        return cls(objid, ra, dec, htm_depth)

    def points(self):
        """(objid, UnitVec3) pairs, one Python object per row. The region
        queries take the objid, x, y, z columns instead."""
        return [
            (int(i), UnitVec3(float(px), float(py), float(pz)))
            for i, px, py, pz in zip(self.objid, self.x, self.y, self.z)
        ]


def from_arrays(
    objid,
    ra,
    dec,
    htm_depth: int = DEFAULT_HTM_DEPTH,
    compute_htm: bool = False,
) -> Catalog:
    """int64 ids and finite ra, dec with ra put in [0, 360), then
    Catalog.from_columns. compute_htm reads the mesh ids at once instead of
    on first use; only the benchmark in perfbench/ still passes it."""
    try:
        objid = np.asarray(objid, dtype=np.int64)
    except OverflowError:  # a Python int outside int64
        raise CatalogError("objID outside the int64 range") from None
    ra = np.asarray(ra, dtype=float)
    dec = np.asarray(dec, dtype=float)
    if not (np.isfinite(ra).all() and np.isfinite(dec).all()):
        raise CatalogError("ra and dec must be finite (got NaN or inf)")
    ra = np.mod(ra, 360.0)
    ra[ra >= 360.0] = 0.0  # fmod of a negative epsilon can round to 360
    cat = Catalog.from_columns(objid, ra, dec, htm_depth)
    if compute_htm:
        cat.htmid
    return cat


def ingest_csv(path, htm_depth: int = DEFAULT_HTM_DEPTH) -> Catalog:
    """Read an objID,ra,dec CSV in UTF-8. ra is normalized into [0, 360); a
    dec outside [-90, 90], a malformed or non-finite number, a repeated
    objID or a byte not in UTF-8 is an error naming the line, and an
    unreadable file one naming the path."""
    try:
        ids, ras, decs = _read_csv(path)
    except OSError as exc:
        raise CatalogError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        # the first line, counted as _read_csv counts, with a byte escaped as U+DC80..U+DCFF
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            lineno = next(i for i, line in enumerate(fh, 1) if re.search("[\udc80-\udcff]", line))
        raise CatalogError(f"{path}:{lineno}: not valid UTF-8") from None
    return from_arrays(ids, ras, decs, htm_depth=htm_depth)


def _read_csv(path) -> tuple[list[int], list[float], list[float]]:
    """The objid, ra and dec columns of ingest_csv's file."""
    ids: list[int] = []
    ras: list[float] = []
    decs: list[float] = []
    seen: dict[int, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline()
        if header == "":
            raise CatalogError(f"{path}: empty file, expected objID,ra,dec header")
        cols = [c.strip().lower() for c in header.strip().split(",")]
        if cols != ["objid", "ra", "dec"]:
            raise CatalogError(
                f"{path}:1: expected header objID,ra,dec, got {header.strip()!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise CatalogError(
                    f"{path}:{lineno}: expected 3 comma-separated fields, got {len(parts)}"
                )
            try:
                objid = int(parts[0].strip())
            except ValueError:
                raise CatalogError(
                    f"{path}:{lineno}: column 1: invalid objID {parts[0].strip()!r}"
                ) from None
            if not -(1 << 63) <= objid < 1 << 63:
                raise CatalogError(f"{path}:{lineno}: column 1: objID outside the int64 range: {objid}")
            values = []
            for col, text in enumerate(parts[1:], start=2):
                try:
                    value = float(text.strip())
                except ValueError:
                    raise CatalogError(
                        f"{path}:{lineno}: column {col}: invalid number {text.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CatalogError(
                        f"{path}:{lineno}: column {col}: non-finite number {text.strip()!r}"
                    )
                values.append(value)
            ra, dec = values
            if not (-90.0 <= dec <= 90.0):
                raise CatalogError(
                    f"{path}:{lineno}: dec out of range [-90, 90]: {dec!r}"
                )
            if objid in seen:
                raise CatalogError(
                    f"{path}:{lineno}: duplicate objID {objid} (first at line {seen[objid]})"
                )
            seen[objid] = lineno
            ids.append(objid)
            ras.append(ra)  # from_arrays normalizes into [0, 360)
            decs.append(dec)
    return ids, ras, decs


def htm_cone_search(cat: Catalog, center: SkyPoint, radius) -> list[tuple[int, float]]:
    """Cone search through the mesh index: cover the circle with at most
    20 trixel ranges, search all of them at once in the id-sorted catalog,
    gather their rows with zones.gather_runs, then run zones.cone_matches'
    exact chord test. Gives what zones.nearby_objects gives, distances
    included.

    The cover is of the circle grown by COVER_PAD_DEG, and stops at depth
    ceil(log2(90 / (r + COVER_PAD_DEG))), where a trixel is about the
    circle's size, or at the catalog's depth if that is shallower: finer
    trixels would trim fewer rows than they cost to classify, and the
    chord test makes the answer exact at any depth. A zero radius matches
    nothing and covers nothing.

    The range bounds are shifted to the catalog's depth in the ids' own
    dtype: at htm.MAX_DEPTH that is uint64, where the last face's
    ((hi + 1) << shift) - 1 wraps through 2^64 to the right bound.
    """
    r = as_degrees(radius)
    v = sky_to_vec(center)
    h = circle_to_halfspace(v, r)
    if r == 0:
        return []
    region = Region((Convex((buffer_halfspace(h, COVER_PAD_DEG),)),))
    depth = min(cat.htm_depth, max(0, math.ceil(math.log2(90.0 / (r + COVER_PAD_DEG)))))
    ranges = htm.cover(region, max_ranges=20, max_depth=depth)
    if not ranges:
        return []
    sorted_ids = cat.htm_sorted_ids()
    bounds = np.array(ranges, dtype=sorted_ids.dtype)
    shift = 2 * (cat.htm_depth - htm.id_depth(ranges[0][0]))
    a = sorted_ids.searchsorted(bounds[:, 0] << shift, side="left")
    b = sorted_ids.searchsorted(((bounds[:, 1] + 1) << shift) - 1, side="right")
    _, rows = gather_runs(a, b)
    return cone_matches(cat, cat.htm_order()[rows], v.x, v.y, v.z, r)


def random_catalog(n: int, seed: int) -> Catalog:
    """The benchmark fixture: n points uniform on the sphere.

    Generator: numpy default_rng(seed); ra = uniform[0, 360),
    dec = degrees(arcsin(uniform[-1, 1])); objid = 0..n-1.
    """
    rng = np.random.default_rng(seed)
    ra = rng.uniform(0.0, 360.0, n)
    dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    return from_arrays(np.arange(n, dtype=np.int64), ra, dec)
