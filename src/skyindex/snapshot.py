"""Binary snapshot of the full working state.

Layout: 8-byte magic, u32 format version, u64 payload length, u32 CRC32 of
the payload, then the payload: the sections catalog, zone table, neighbors
table, region store and pyramid. A section is absent (a u32 0xFFFFFFFF) or
a u32 column count and its columns; a column is its name, its numpy dtype
string and its shape, then its values. One schema per section gives each
column's name, its dtype and a name for each of its dimensions; the
columns that name one dimension (such as a catalog's rows) share its
length. A text column is UTF-8 bytes plus a length column. A save casts a
value to its column's dtype where numpy deems the cast safe (an int as
<f8). Values are little-endian and round-trip bit exactly. A version
mismatch, a failed length or CRC check, a column its schema does not
allow, or columns that do not make a valid structure raise SnapshotError;
no partial state is ever returned. Only source columns are stored: the
catalog section is its mesh depth, objid, ra and dec (a catalog derives
x, y, z and its mesh ids on first use, a pyramid x, y, z as it sorts rows
in), and the zone-table section is its zone height and row, the
permutation of the catalog's rows that is all a zones.ZoneTable holds.
Loading makes the table over the loaded catalog and gathers no column; a
save refuses a table over another catalog object than the state's. Every
table must hold what a build could have made of its rows. The pyramid
section is its base zone height and its entry columns, which loading
checks and sorts as inserts would. A save writes each column straight
from its array, with no joined copy of the payload, to a temporary file
beside the target and renames it over the target, so a failed save
leaves the previous snapshot intact; a save the file system refuses
raises SnapshotError.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import RegionStore
from .catalog import Catalog
from .pyramid import PyramidConfig, PyramidIndex
from .zones import NeighborsTable, ZoneConfig, ZoneTable, check_neighbors

MAGIC = b"SKYIDXSN"
VERSION = 8
_ABSENT = 0xFFFFFFFF


class SnapshotError(ValueError):
    """Unreadable, corrupt, or version-incompatible snapshot file."""


@dataclass
class AppState:
    """Everything the CLI persists between commands."""

    catalog: Catalog | None = None
    zone_table: ZoneTable | None = None
    neighbors: NeighborsTable | None = None
    regions: RegionStore = field(default_factory=RegionStore)
    pyramid: PyramidIndex | None = None


class _Col(NamedTuple):
    dtype: str  # the numpy dtype string
    dims: tuple[str, ...] = ("row",)  # a name per dimension; () for a scalar


_F8, _I8 = _Col("<f8"), _Col("<i8")
_F8_SCALAR, _I8_SCALAR = _Col("<f8", ()), _Col("<i8", ())
_REGION, _CONVEX = _Col("<i8", ("region",)), _Col("<i8", ("convex",))
_HALFSPACE = _Col("<f8", ("halfspace",))

_CATALOG = {"htm_depth": _I8_SCALAR, "objid": _I8, "ra": _F8, "dec": _F8}
_ZONES = {"zone_height": _F8_SCALAR, "row": _I8}
_NEIGHBORS = {
    "radius": _F8_SCALAR,
    "candidate_pairs": _I8_SCALAR,
    "objid": _I8,
    "neighbor": _I8,
    "distance": _F8,
}
# the config, then PyramidIndex.columns()
_PYRAMID = {"base_zone_height": _F8_SCALAR, "objid": _I8, "ra": _F8, "dec": _F8, "radius": _F8}
_REGIONS = {  # RegionStore.columns()
    "next_region_id": _I8_SCALAR,
    "region_id": _REGION,
    "next_convex_id": _REGION,
    "convexes": _REGION,
    "type_len": _REGION,
    "type_utf8": _Col("|u1", ("type_byte",)),
    "comment_len": _REGION,
    "comment_utf8": _Col("|u1", ("comment_byte",)),
    "convex_id": _CONVEX,
    "next_halfspace_id": _CONVEX,
    "halfspaces": _CONVEX,
    "hid": _Col("<i8", ("halfspace",)),
    "nx": _HALFSPACE,
    "ny": _HALFSPACE,
    "nz": _HALFSPACE,
    "l": _HALFSPACE,
}


_SECTIONS = ((_CATALOG, "catalog"), (_ZONES, "zone table"), (_NEIGHBORS, "neighbors"),
             (_REGIONS, "region store"), (_PYRAMID, "pyramid"))  # in file order


def _check_column(schema: dict, what: str, name: str, dtype: str, ndim: int) -> None:
    spec = schema.get(name)
    if spec is None:
        raise SnapshotError(f"{what} section: unknown column {name!r}")
    if dtype != spec.dtype or ndim != len(spec.dims):
        raise SnapshotError(
            f"{what} column {name!r}: {ndim}-d {dtype}, not {len(spec.dims)}-d {spec.dtype}"
        )


def _check_section(schema: dict, what: str, cols: dict[str, np.ndarray]) -> None:
    missing = [k for k in schema if k not in cols]
    if missing:
        raise SnapshotError(f"{what} section: missing column {missing[0]!r}")
    lengths: dict[str, int] = {}
    for name, a in cols.items():
        for dim, n in zip(schema[name].dims, a.shape):
            if lengths.setdefault(dim, n) != n:
                raise SnapshotError(f"{what} columns disagree on their {dim} count")


def _column(spec: _Col | None, value) -> np.ndarray:
    """value as an array, cast to spec's dtype when numpy deems that cast
    safe (an int as <f8)."""
    a = np.asarray(value)
    if spec is not None and np.can_cast(a.dtype, spec.dtype):
        return a.astype(spec.dtype, copy=False)
    return a


def _encode(schema: dict, what: str, cols: dict | None) -> list:
    """A section as byte chunks, each column's values a view of its array
    rather than a copy."""
    if cols is None:
        return [struct.pack("<I", _ABSENT)]
    arrays = {k: _column(schema.get(k), v) for k, v in cols.items()}
    for name, a in arrays.items():
        _check_column(schema, what, name, a.dtype.str, a.ndim)
    _check_section(schema, what, arrays)
    out = [struct.pack("<I", len(arrays))]
    for name, a in arrays.items():
        for text in (name, a.dtype.str):
            out.append(struct.pack("<B", len(text)) + text.encode("ascii"))
        out.append(struct.pack(f"<B{a.ndim}Q", a.ndim, *a.shape))
        out.append(memoryview(np.ascontiguousarray(a)).cast("B"))
    return out


class _Reader:
    """Sections of a payload, in the order they were written."""

    def __init__(self, payload: memoryview):
        self.payload = payload
        self.pos = 0

    def _take(self, n: int) -> int:
        """Start of the next n bytes."""
        start = self.pos
        if start + n > len(self.payload):
            raise SnapshotError("snapshot payload truncated")
        self.pos += n
        return start

    def _unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.payload, self._take(struct.calcsize(fmt)))

    def _text(self) -> str:
        start = self._take(*self._unpack("<B"))
        return bytes(self.payload[start : self.pos]).decode("ascii", "replace")

    def section(self, schema: dict, what: str) -> dict | None:
        """The section's columns by name, a scalar as a Python number; None if absent."""
        (count,) = self._unpack("<I")
        if count == _ABSENT:
            return None
        cols = {}
        for _ in range(count):
            name, dtype = self._text(), self._text()
            (ndim,) = self._unpack("<B")
            shape = self._unpack(f"<{ndim}Q")
            _check_column(schema, what, name, dtype, ndim)
            if name in cols:
                raise SnapshotError(f"{what} section: column {name!r} twice")
            n = shape[0] if shape else 1
            a = np.frombuffer(self.payload, dtype, n, self._take(n * np.dtype(dtype).itemsize))
            cols[name] = a.reshape(shape).copy()
        _check_section(schema, what, cols)
        return {k: a.item() if a.ndim == 0 else a for k, a in cols.items()}


def _fields(obj, schema: dict) -> dict | None:
    """obj's attributes that the schema names; None for no obj."""
    return None if obj is None else {k: getattr(obj, k) for k in schema}


def _zone_section(state: AppState) -> dict | None:
    t = state.zone_table
    if t is None:
        return None
    if t.catalog is not state.catalog:
        raise SnapshotError("zone table indexes a catalog object other than the state's")
    return {"zone_height": t.cfg.zone_height, "row": t.row}


def save_state(state: AppState, path) -> None:
    pyr = state.pyramid
    values = (
        _fields(state.catalog, _CATALOG),
        _zone_section(state),
        _fields(state.neighbors, _NEIGHBORS),
        state.regions.columns(),
        None if pyr is None else {"base_zone_height": pyr.cfg.base_zone_height, **pyr.columns()},
    )
    chunks = [chunk for (schema, what), cols in zip(_SECTIONS, values) for chunk in _encode(schema, what, cols)]
    length = crc = 0
    for chunk in chunks:
        length += len(chunk)
        crc = zlib.crc32(chunk, crc)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<IQI", VERSION, length, crc))
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise SnapshotError(f"cannot write snapshot {path}: {exc.strerror or exc}") from exc
        raise


def load_state(path) -> AppState:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 16 or blob[: len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file (bad magic)")
    version, length, crc = struct.unpack(
        "<IQI", blob[len(MAGIC) : len(MAGIC) + 16]
    )
    if version != VERSION:
        raise SnapshotError(
            f"{path}: snapshot format version {version} != supported {VERSION}"
        )
    payload = memoryview(blob)[len(MAGIC) + 16 :]
    if len(payload) != length:
        raise SnapshotError(f"{path}: truncated snapshot (checksum context missing)")
    if zlib.crc32(payload) != crc:
        raise SnapshotError(f"{path}: checksum mismatch, snapshot is corrupt")
    r = _Reader(payload)
    # a constructor or check refusing decoded columns raises its module's ValueError
    try:
        cat, zone_table, neighbors, regions, pyr = [r.section(schema, what) for schema, what in _SECTIONS]
        if r.pos != len(payload):
            raise SnapshotError("trailing bytes after payload")
        if regions is None:
            raise SnapshotError("region store section absent")
        del blob, payload, r  # the columns are copies: free the file's bytes before building
        if cat is not None:
            cat = Catalog.from_columns(**cat)
        if zone_table is not None:
            if cat is None:
                raise SnapshotError("zone table without a catalog")
            zone_table = ZoneTable(ZoneConfig(zone_table["zone_height"]), cat, zone_table["row"])
        if neighbors is not None:
            neighbors = NeighborsTable(**neighbors)
            check_neighbors(neighbors)
        regions = RegionStore.from_columns(regions)
        if pyr is not None:
            pyr = PyramidIndex.from_columns(PyramidConfig(pyr.pop("base_zone_height")), pyr)
        return AppState(cat, zone_table, neighbors, regions, pyr)
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc
