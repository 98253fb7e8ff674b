"""Catalog ingestion: CSV parsing, derived unit vectors and mesh ids."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import htm
from .geom import Convex, Region, SkyPoint, UnitVec3, as_degrees, circle_to_halfspace, sky_to_vec, sky_to_xyz
from .zones import check_rows, cone_matches, gather_runs, has_duplicates


DEFAULT_HTM_DEPTH = 20


class CatalogError(ValueError):
    """Ingest failure; message carries line/column context."""


@dataclass(eq=False)
class Catalog:
    """Column-oriented point catalog with derived (x, y, z) and mesh ids."""

    objid: np.ndarray
    ra: np.ndarray
    dec: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    htm_depth: int = DEFAULT_HTM_DEPTH
    htmid: np.ndarray = field(default=None)
    _htm_order: np.ndarray = field(default=None, repr=False, compare=False)
    _htm_sorted_ids: np.ndarray = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.objid)

    def ensure_htm(self) -> np.ndarray:
        if self.htmid is None:
            self.htmid = htm.ids_for_points(self.x, self.y, self.z, self.htm_depth)
        return self.htmid

    def htm_order(self) -> np.ndarray:
        """Row permutation sorting the catalog by mesh id (cached)."""
        if self._htm_order is None:
            self._htm_order = np.argsort(self.ensure_htm(), kind="stable")
        return self._htm_order

    def htm_sorted_ids(self) -> np.ndarray:
        """Mesh ids in htm_order(), ascending (cached)."""
        if self._htm_sorted_ids is None:
            self._htm_sorted_ids = self.ensure_htm()[self.htm_order()]
        return self._htm_sorted_ids

    @classmethod
    def from_columns(cls, objid, ra, dec, htm_depth: int, htmid=None) -> "Catalog":
        """The catalog of a snapshot's columns, x, y, z derived as from_arrays
        derives them. Raises CatalogError or zones.ZoneError unless from_arrays
        could have made them: valid rows (zones.check_rows), a depth in [0,
        htm.MAX_DEPTH] and one id per row at it (marker bit, face 8..15)."""
        check_rows(objid, ra, dec)
        if not 0 <= htm_depth <= htm.MAX_DEPTH:
            raise CatalogError(f"mesh depth outside [0, {htm.MAX_DEPTH}]: {htm_depth!r}")
        if htmid is not None:
            face = htmid >> htmid.dtype.type(2 * htm_depth)
            if len(htmid) != len(objid) or not ((face >= 8) & (face <= 15)).all():
                raise CatalogError(f"mesh ids not one per row at depth {htm_depth}")
        return cls(objid, ra, dec, *sky_to_xyz(ra, dec), htm_depth=htm_depth, htmid=htmid)

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
    compute_htm: bool = True,
) -> Catalog:
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
    if has_duplicates(objid):
        raise CatalogError("duplicate objID")
    if len(dec) and (dec.min() < -90.0 or dec.max() > 90.0):
        raise CatalogError("dec out of range [-90, 90]")
    cat = Catalog(objid, ra, dec, *sky_to_xyz(ra, dec), htm_depth=htm_depth)
    if compute_htm:
        cat.ensure_htm()
    return cat


def from_points(pairs, htm_depth: int = DEFAULT_HTM_DEPTH) -> Catalog:
    """pairs: iterable of (objid, SkyPoint-or-(ra, dec))."""
    ids, ras, decs = [], [], []
    for objid, p in pairs:
        if not isinstance(p, SkyPoint):
            p = SkyPoint(p[0], p[1])
        ids.append(int(objid))
        ras.append(p.ra)
        decs.append(p.dec)
    return from_arrays(ids, ras, decs, htm_depth=htm_depth)


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
    20 trixel ranges at no more than the catalog's depth, search all of
    them at once in the id-sorted catalog, gather their rows with
    zones.gather_runs, then run zones.cone_matches' exact chord test.
    Gives what zones.nearby_objects gives, distances included.

    The range bounds are shifted to the catalog's depth in the ids' own
    dtype: at htm.MAX_DEPTH that is uint64, where the last face's
    ((hi + 1) << shift) - 1 wraps through 2^64 to the right bound.
    """
    r = as_degrees(radius)
    v = sky_to_vec(center)
    region = Region((Convex((circle_to_halfspace(v, r),)),))
    ranges = htm.cover(region, max_ranges=20, max_depth=cat.htm_depth)
    if not ranges:
        return []
    sorted_ids = cat.htm_sorted_ids()
    bounds = np.array(ranges, dtype=sorted_ids.dtype)
    shift = 2 * (cat.htm_depth - htm.id_depth(ranges[0][0]))
    a = sorted_ids.searchsorted(bounds[:, 0] << shift, side="left")
    b = sorted_ids.searchsorted(((bounds[:, 1] + 1) << shift) - 1, side="right")
    _, rows = gather_runs(a, b)
    return cone_matches(cat, cat.htm_order()[rows], v.x, v.y, v.z, r)


def random_catalog(n: int, seed: int, compute_htm: bool = False) -> Catalog:
    """The benchmark fixture: n points uniform on the sphere.

    Generator: numpy default_rng(seed); ra = uniform[0, 360),
    dec = degrees(arcsin(uniform[-1, 1])); objid = 0..n-1.
    """
    rng = np.random.default_rng(seed)
    ra = rng.uniform(0.0, 360.0, n)
    dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    return from_arrays(np.arange(n, dtype=np.int64), ra, dec, compute_htm=compute_htm)
