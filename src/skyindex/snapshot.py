"""Binary snapshot of the full working state.

Layout: 8-byte magic, u32 format version, u64 payload length, u32 CRC32 of
the payload, then the payload. Floats and ints are little-endian 64-bit,
so ingest-derived values round-trip bit exactly. Every section is written
as columns: the zone table section also holds each pyramid scale, and the
region store is one array per field at each level (region, convex,
half-space). A version mismatch or a failed length/CRC check raises; no
partial state is ever returned. A save writes a temporary file beside the
target and renames it over the target, so a failed save leaves the
previous snapshot intact.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from io import BytesIO
from itertools import islice

import numpy as np

from .algebra import RegionStore
from .catalog import Catalog
from .htm import MAX_DEPTH
from .pyramid import PyramidConfig, PyramidIndex
from .zones import NeighborsTable, ZoneConfig, ZoneTable

MAGIC = b"SKYIDXSN"
VERSION = 2


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


class _Writer:
    def __init__(self):
        self.buf = BytesIO()

    def u8(self, v):
        self.buf.write(struct.pack("<B", v))

    def i64(self, v):
        self.buf.write(struct.pack("<q", int(v)))

    def u64(self, v):
        self.buf.write(struct.pack("<Q", int(v)))

    def f64(self, v):
        self.buf.write(struct.pack("<d", float(v)))

    def arr(self, a: np.ndarray, dtype):
        a = np.ascontiguousarray(a, dtype=dtype)
        self.u64(a.size)
        self.buf.write(a.tobytes())

    def texts(self, items: list[str]):
        raw = [s.encode("utf-8") for s in items]
        self.arr([len(b) for b in raw], "<u8")
        self.arr(np.frombuffer(b"".join(raw), dtype=np.uint8), "<u1")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SnapshotError("snapshot payload truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return struct.unpack("<B", self._take(1))[0]

    def i64(self):
        return struct.unpack("<q", self._take(8))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self):
        return struct.unpack("<d", self._take(8))[0]

    def arr(self, dtype) -> np.ndarray:
        n = self.u64()
        item = np.dtype(dtype).itemsize
        return np.frombuffer(self._take(n * item), dtype=dtype).copy()

    def texts(self) -> list[str]:
        ends = np.cumsum(self.arr("<u8")).tolist()
        blob = self.arr("<u1").tobytes()
        return [blob[a:b].decode("utf-8") for a, b in zip([0] + ends[:-1], ends)]


def _write_catalog(w: _Writer, cat: Catalog | None):
    w.u8(0 if cat is None else 1)
    if cat is None:
        return
    w.i64(cat.htm_depth)
    w.arr(cat.objid, "<i8")
    w.arr(cat.ra, "<f8")
    w.arr(cat.dec, "<f8")
    w.arr(cat.x, "<f8")
    w.arr(cat.y, "<f8")
    w.arr(cat.z, "<f8")
    w.u8(0 if cat.htmid is None else 1)
    if cat.htmid is not None:
        w.arr(cat.htmid, "<i8")


def _read_catalog(r: _Reader) -> Catalog | None:
    if not r.u8():
        return None
    depth = r.i64()
    objid = r.arr("<i8")
    ra = r.arr("<f8")
    dec = r.arr("<f8")
    x = r.arr("<f8")
    y = r.arr("<f8")
    z = r.arr("<f8")
    htmid = r.arr("<i8") if r.u8() else None
    if htmid is not None and depth == MAX_DEPTH:
        htmid = htmid.view(np.uint64)  # ids at MAX_DEPTH use all 64 bits
    return Catalog(objid, ra, dec, x, y, z, htm_depth=depth, htmid=htmid)


def _write_zone_table(w: _Writer, t: ZoneTable | None):
    w.u8(0 if t is None else 1)
    if t is None:
        return
    w.f64(t.cfg.zone_height)
    w.f64(t.cfg.max_radius)
    w.f64(t.cfg.epsilon)
    w.arr(t.zone, "<i8")
    w.arr(t.ra, "<f8")
    w.arr(t.objid, "<i8")
    w.arr(t.dec, "<f8")
    w.arr(t.x, "<f8")
    w.arr(t.y, "<f8")
    w.arr(t.z, "<f8")
    w.arr(t.is_main.astype(np.uint8), "<u1")
    w.u8(0 if t.radius is None else 1)
    if t.radius is not None:
        w.arr(t.radius, "<f8")


def _read_zone_table(r: _Reader) -> ZoneTable | None:
    if not r.u8():
        return None
    cfg = ZoneConfig(zone_height=r.f64(), max_radius=r.f64(), epsilon=r.f64())
    zone = r.arr("<i8")
    ra = r.arr("<f8")
    objid = r.arr("<i8")
    dec = r.arr("<f8")
    x = r.arr("<f8")
    y = r.arr("<f8")
    z = r.arr("<f8")
    is_main = r.arr("<u1").astype(bool)
    radius = r.arr("<f8") if r.u8() else None
    return ZoneTable(cfg, zone, ra, objid, dec, x, y, z, is_main, radius)


def _write_neighbors(w: _Writer, t: NeighborsTable | None):
    w.u8(0 if t is None else 1)
    if t is None:
        return
    w.f64(t.radius)
    w.u64(t.candidate_pairs)
    w.arr(t.objid, "<i8")
    w.arr(t.neighbor, "<i8")
    w.arr(t.distance, "<f8")


def _read_neighbors(r: _Reader) -> NeighborsTable | None:
    if not r.u8():
        return None
    radius = r.f64()
    candidates = r.u64()
    objid = r.arr("<i8")
    neighbor = r.arr("<i8")
    distance = r.arr("<f8")
    return NeighborsTable(radius, objid, neighbor, distance, candidates)


def _write_regions(w: _Writer, store: RegionStore):
    next_rid, records, counters = store.export_state()
    convexes = [cvx for rec in records for cvx in rec[3]]
    halfspaces = [h for _, constraints in convexes for h in constraints]
    w.u64(next_rid)
    w.arr([rec[0] for rec in records], "<u8")
    w.texts([rec[1] for rec in records])
    w.texts([rec[2] for rec in records])
    w.arr([counters[rec[0]][0] for rec in records], "<u8")
    w.arr([len(rec[3]) for rec in records], "<u8")
    w.arr([cid for cid, _ in convexes], "<u8")
    w.arr([n for rec in records for n in counters[rec[0]][1]], "<u8")
    w.arr([len(constraints) for _, constraints in convexes], "<u8")
    w.arr([h[0] for h in halfspaces], "<u8")
    w.arr([h[1:] for h in halfspaces], "<f8")


def _read_regions(r: _Reader) -> RegionStore:
    next_rid = r.u64()
    rids = r.arr("<u8").tolist()
    rtypes = r.texts()
    comments = r.texts()
    next_cids = r.arr("<u8").tolist()
    ncvx = r.arr("<u8").tolist()
    cids = r.arr("<u8").tolist()
    next_hids = r.arr("<u8").tolist()
    ncon = r.arr("<u8").tolist()
    hids = r.arr("<u8").tolist()
    xyzl = r.arr("<f8")
    if not (
        len(rids) == len(rtypes) == len(comments) == len(next_cids) == len(ncvx)
        and sum(ncvx) == len(cids) == len(next_hids) == len(ncon)
        and sum(ncon) == len(hids) == len(xyzl) / 4
    ):
        raise SnapshotError("region columns disagree with their counts")
    halfspaces = zip(hids, *xyzl.reshape(-1, 4).T.tolist())
    convexes = iter([(cid, list(islice(halfspaces, n))) for cid, n in zip(cids, ncon)])
    hid_counters = iter(next_hids)
    records = [
        (rid, rtype, comment, list(islice(convexes, n)))
        for rid, rtype, comment, n in zip(rids, rtypes, comments, ncvx)
    ]
    counters = {
        rid: (next_cid, list(islice(hid_counters, n)))
        for rid, next_cid, n in zip(rids, next_cids, ncvx)
    }
    return RegionStore.import_state((next_rid, records, counters))


def _write_pyramid(w: _Writer, idx: PyramidIndex | None):
    w.u8(0 if idx is None else 1)
    if idx is None:
        return
    w.f64(idx.cfg.base_zone_height)
    w.f64(idx.cfg.epsilon)
    tables = idx.tables()
    w.u64(len(tables))
    for s, table in tables.items():
        w.u64(s)
        _write_zone_table(w, table)


def _read_pyramid(r: _Reader) -> PyramidIndex | None:
    if not r.u8():
        return None
    cfg = PyramidConfig(base_zone_height=r.f64(), epsilon=r.f64())
    tables = {}
    for _ in range(r.u64()):
        s = r.u64()
        tables[s] = _read_zone_table(r)
    return PyramidIndex.from_tables(cfg, tables)


def save_state(state: AppState, path) -> None:
    w = _Writer()
    _write_catalog(w, state.catalog)
    _write_zone_table(w, state.zone_table)
    _write_neighbors(w, state.neighbors)
    _write_regions(w, state.regions)
    _write_pyramid(w, state.pyramid)
    payload = w.buf.getvalue()
    header = MAGIC + struct.pack("<IQI", VERSION, len(payload), zlib.crc32(payload))
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
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
    payload = blob[len(MAGIC) + 16 :]
    if len(payload) != length:
        raise SnapshotError(f"{path}: truncated snapshot (checksum context missing)")
    if zlib.crc32(payload) != crc:
        raise SnapshotError(f"{path}: checksum mismatch, snapshot is corrupt")
    r = _Reader(payload)
    state = AppState(
        catalog=_read_catalog(r),
        zone_table=_read_zone_table(r),
        neighbors=_read_neighbors(r),
        regions=_read_regions(r),
        pyramid=_read_pyramid(r),
    )
    if r.pos != len(payload):
        raise SnapshotError(f"{path}: trailing bytes after payload")
    return state
