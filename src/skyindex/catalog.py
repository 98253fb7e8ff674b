"""Catalog ingestion: CSV parsing, derived unit vectors and mesh ids."""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import htm
from .geom import SkyPoint, UnitVec3, circle_to_halfspace, sky_to_vec, sky_to_xyz
from .zones import check_rows, cone_matches, gather_runs


DEFAULT_HTM_DEPTH = 20

# The mesh cone search keeps the trixels that may meet its circle grown by
# this much, in degrees, as a region's points-in scan widens its dec band.
COVER_PAD_DEG = 1e-5

# The mesh cone search's trixel table is at the shallowest depth at which
# an average trixel holds at most this many rows. Sweeps of 20k, 200k and
# 1M uniform rows put the fastest depth at 100 to 600 rows per trixel.
ROWS_PER_TRIXEL = 256


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

    @cached_property
    def _trixel_table(self) -> tuple[np.ndarray, ...]:
        """htm_cone_search's columns of the trixels at _table_depth, in id
        order: htm._bounding_cap's centroid (rows of an array) and rho, the
        cosine and sine of rho + htm._CAP_MARGIN, and the run [start, end)
        of rows in htm_order(), the last ending at len(self): at
        htm.MAX_DEPTH the bound after it would wrap uint64."""
        depth = _table_depth(len(self), self.htm_depth)
        corners = htm.trixel_corners(depth)
        c = corners.sum(axis=0)  # the sums and products of _bounding_cap, in its order
        c /= np.sqrt((c * c).sum(axis=0))
        rho = np.arccos(np.minimum((c * corners).sum(axis=1).min(axis=0), 1.0))
        ids = self.htm_sorted_ids()
        start = ids.searchsorted(np.arange(8 << 2 * depth, 16 << 2 * depth, dtype=ids.dtype) << 2 * (self.htm_depth - depth))
        padded = rho + htm._CAP_MARGIN
        return c.T.copy(), rho, np.cos(padded), np.sin(padded), start, np.append(start[1:], len(self))

    @classmethod
    def from_columns(cls, objid, ra, dec, htm_depth: int) -> "Catalog":
        """The catalog of the columns, the one check every catalog passes,
        built (from_arrays) or loaded. Raises CatalogError unless they are
        valid rows (zones.check_rows) and a depth in [0, htm.MAX_DEPTH]."""
        check_rows(objid, ra, dec, CatalogError)
        _check_depth(htm_depth)
        return cls(objid, ra, dec, htm_depth)

    def points(self):
        """(objid, UnitVec3) pairs, one Python object per row. The region
        queries take the objid, x, y, z columns instead."""
        return [
            (int(i), UnitVec3(float(px), float(py), float(pz)))
            for i, px, py, pz in zip(self.objid, self.x, self.y, self.z)
        ]


def _check_depth(htm_depth: int) -> None:
    if not 0 <= htm_depth <= htm.MAX_DEPTH:
        raise CatalogError(f"mesh depth outside [0, {htm.MAX_DEPTH}]: {htm_depth!r}")


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
    unreadable file one naming the path. from_arrays checks the bulk
    columns; rows it refuses are read again by _read_csv_lines, the only
    source of row error messages, so each keeps its line and column. A
    depth outside [0, htm.MAX_DEPTH] is refused before the file is read."""
    _check_depth(htm_depth)
    try:
        ids, ras, decs = _read_csv(path)
    except OSError as exc:
        raise CatalogError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        # the first line, counted as _read_csv counts, with a byte escaped as U+DC80..U+DCFF
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            lineno = next(i for i, line in enumerate(fh, 1) if re.search("[\udc80-\udcff]", line))
        raise CatalogError(f"{path}:{lineno}: not valid UTF-8") from None
    try:
        return from_arrays(ids, ras, decs, htm_depth=htm_depth)
    except CatalogError:
        return from_arrays(*_read_csv_lines(path), htm_depth=htm_depth)


# the row type np.loadtxt reads: objID as int64, never through float64
_CSV_ROW = np.dtype([("objid", "<i8"), ("ra", "<f8"), ("dec", "<f8")])


def _read_csv(path) -> tuple:
    """The objid, ra and dec columns of ingest_csv's file, as arrays, or
    as lists where _read_csv_lines reads them.

    Bulk first: np.loadtxt parses the rows from the path, in chunks (from
    an open file it reads line by line), accepting a strict subset of what
    int() and float() accept, with the same values, and checks no row
    (from_arrays does). On a row it refuses or a warning (a file with no
    rows), the file is read by _read_csv_lines instead.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        _check_header(path, fh.readline())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # absolute, or numpy's DataSource would fetch a local http://host/c.csv
            rows = np.loadtxt(os.path.abspath(path), _CSV_ROW, delimiter=",", comments=None, ndmin=1, skiprows=1, encoding="utf-8")
    except Exception:  # whatever the bulk parse refuses, the per-line reader judges
        return _read_csv_lines(path)
    return tuple(np.ascontiguousarray(rows[c]) for c in _CSV_ROW.names)


def _check_header(path, header: str) -> None:
    if header == "":
        raise CatalogError(f"{path}: empty file, expected objID,ra,dec header")
    cols = [c.strip().lower() for c in header.strip().split(",")]
    if cols != ["objid", "ra", "dec"]:
        raise CatalogError(f"{path}:1: expected header objID,ra,dec, got {header.strip()!r}")


def _read_csv_lines(path) -> tuple[list[int], list[float], list[float]]:
    """_read_csv one line at a time, raising the first row's error."""
    ids: list[int] = []
    ras: list[float] = []
    decs: list[float] = []
    seen: dict[int, int] = {}

    def error(msg: str) -> CatalogError:  # names the line being read
        return CatalogError(f"{path}:{lineno}: {msg}")

    with open(path, "r", encoding="utf-8", newline="") as fh:
        _check_header(path, fh.readline())
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise error(f"expected 3 comma-separated fields, got {len(parts)}")
            try:
                objid = int(parts[0].strip())
            except ValueError:
                raise error(f"column 1: invalid objID {parts[0].strip()!r}") from None
            if not -(1 << 63) <= objid < 1 << 63:
                raise error(f"column 1: objID outside the int64 range: {objid}")
            values = []
            for col, text in enumerate(parts[1:], start=2):
                try:
                    value = float(text.strip())
                except ValueError:
                    raise error(f"column {col}: invalid number {text.strip()!r}") from None
                if not math.isfinite(value):
                    raise error(f"column {col}: non-finite number {text.strip()!r}")
                values.append(value)
            ra, dec = values
            if not (-90.0 <= dec <= 90.0):
                raise error(f"dec out of range [-90, 90]: {dec!r}")
            if objid in seen:
                raise error(f"duplicate objID {objid} (first at line {seen[objid]})")
            seen[objid] = lineno
            ids.append(objid)
            ras.append(ra)  # from_arrays normalizes into [0, 360)
            decs.append(dec)
    return ids, ras, decs


def htm_cone_search(cat: Catalog, center: SkyPoint, radius) -> list[tuple[int, float]]:
    """Cone search through the mesh index: keep each trixel of the
    catalog's _trixel_table whose centroid is within theta + rho +
    htm._CAP_MARGIN of the centre (every one once that reaches pi), theta =
    r + COVER_PAD_DEG, gather the kept runs (zones.gather_runs), then run
    zones.cone_matches' exact chord test. Gives what zones.nearby_objects
    gives, distances included; a zero radius matches nothing.

    The kept runs hold every hit: a row's id is its geometric trixel
    (htm.point_to_id), which lies in its cap, as the cap holds its corners
    and rho is under 90 degrees. The rounding of the dot, of the angle-sum
    cosine and of rho moves the compared angle by at most a few 1e-8
    radians, even near 0 or pi, far below _CAP_MARGIN. The centre's own
    trixel is always kept, so some run is."""
    r = float(radius)
    v = sky_to_vec(center)
    circle_to_halfspace(v, r)  # refuses a radius outside [0, 180]
    if r == 0:
        return []
    centroid, rho, cos_padded, sin_padded, start, end = cat._trixel_table
    theta = math.radians(r + COVER_PAD_DEG)
    bound = math.cos(theta) * cos_padded - math.sin(theta) * sin_padded
    keep = (centroid @ v.as_tuple() >= bound) | (rho >= math.pi - htm._CAP_MARGIN - theta)
    _, rows = gather_runs(start[keep], end[keep])
    return cone_matches(cat, cat.htm_order()[rows], v.x, v.y, v.z, r)


def _table_depth(rows: int, htm_depth: int) -> int:
    """The lesser of htm_depth and the shallowest depth d at which an average
    trixel, one of 8 * 4^d, holds at most ROWS_PER_TRIXEL of the rows."""
    per_face = -(-max(rows, 1) // (8 * ROWS_PER_TRIXEL))  # trixels each face needs
    return min(htm_depth, ((per_face - 1).bit_length() + 1) // 2)  # ceil(log4(per_face))


def random_catalog(n: int, seed: int) -> Catalog:
    """The benchmark fixture: n points uniform on the sphere.

    Generator: numpy default_rng(seed); ra = uniform[0, 360),
    dec = degrees(arcsin(uniform[-1, 1])); objid = 0..n-1.
    """
    rng = np.random.default_rng(seed)
    ra = rng.uniform(0.0, 360.0, n)
    dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    return from_arrays(np.arange(n, dtype=np.int64), ra, dec)
