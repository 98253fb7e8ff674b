"""Binary snapshot of the full working state.

Layout: 8-byte magic, u32 format version, u64 payload length, u32 CRC32 of
the payload, then the payload. Floats and ints are little-endian 64-bit,
so ingest-derived values round-trip bit exactly. A version mismatch or a
failed length/CRC check raises; no partial state is ever returned.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from io import BytesIO

import numpy as np

from .algebra import RegionStore
from .catalog import Catalog
from .htm import MAX_DEPTH
from .pyramid import PyramidConfig, PyramidIndex
from .zones import NeighborsTable, ZoneConfig, ZoneTable

MAGIC = b"SKYIDXSN"
VERSION = 1


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

    def text(self, s: str):
        raw = s.encode("utf-8")
        self.u64(len(raw))
        self.buf.write(raw)

    def arr(self, a: np.ndarray, dtype):
        a = np.ascontiguousarray(a, dtype=dtype)
        self.u64(a.size)
        self.buf.write(a.tobytes())


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

    def text(self) -> str:
        n = self.u64()
        return self._take(n).decode("utf-8")

    def arr(self, dtype) -> np.ndarray:
        n = self.u64()
        item = np.dtype(dtype).itemsize
        return np.frombuffer(self._take(n * item), dtype=dtype).copy()


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
    return ZoneTable(cfg, zone, ra, objid, dec, x, y, z, is_main)


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
    w.u64(next_rid)
    w.u64(len(records))
    for rid, rtype, comment, convexes in records:
        w.u64(rid)
        w.text(rtype)
        w.text(comment)
        next_cid, hid_counters = counters[rid]
        w.u64(next_cid)
        w.u64(len(convexes))
        for (cid, constraints), next_hid in zip(convexes, hid_counters):
            w.u64(cid)
            w.u64(next_hid)
            w.u64(len(constraints))
            for hid, x, y, z, l in constraints:
                w.u64(hid)
                w.f64(x)
                w.f64(y)
                w.f64(z)
                w.f64(l)


def _read_regions(r: _Reader) -> RegionStore:
    next_rid = r.u64()
    nreg = r.u64()
    records = []
    counters = {}
    for _ in range(nreg):
        rid = r.u64()
        rtype = r.text()
        comment = r.text()
        next_cid = r.u64()
        ncvx = r.u64()
        convexes = []
        hid_counters = []
        for _ in range(ncvx):
            cid = r.u64()
            next_hid = r.u64()
            ncon = r.u64()
            constraints = []
            for _ in range(ncon):
                hid = r.u64()
                x = r.f64()
                y = r.f64()
                z = r.f64()
                l = r.f64()
                constraints.append((hid, x, y, z, l))
            convexes.append((cid, constraints))
            hid_counters.append(next_hid)
        records.append((rid, rtype, comment, convexes))
        counters[rid] = (next_cid, hid_counters)
    return RegionStore.import_state((next_rid, records, counters))


def _write_pyramid(w: _Writer, idx: PyramidIndex | None):
    w.u8(0 if idx is None else 1)
    if idx is None:
        return
    idx._finalize()
    w.f64(idx.cfg.base_zone_height)
    w.f64(idx.cfg.epsilon)
    w.u64(len(idx._scales))
    for s in sorted(idx._scales):
        cols = idx._scales[s]
        w.u64(s)
        w.arr(cols["zone"], "<i8")
        w.arr(cols["ra"], "<f8")
        w.arr(cols["dec"], "<f8")
        w.arr(cols["radius"], "<f8")
        w.arr(cols["objid"], "<i8")
        w.arr(cols["x"], "<f8")
        w.arr(cols["y"], "<f8")
        w.arr(cols["z"], "<f8")
        w.arr(cols["main"].astype(np.uint8), "<u1")


def _read_pyramid(r: _Reader) -> PyramidIndex | None:
    if not r.u8():
        return None
    cfg = PyramidConfig(base_zone_height=r.f64(), epsilon=r.f64())
    idx = PyramidIndex(cfg)
    nscales = r.u64()
    for _ in range(nscales):
        s = r.u64()
        cols = {
            "zone": r.arr("<i8"),
            "ra": r.arr("<f8"),
            "dec": r.arr("<f8"),
            "radius": r.arr("<f8"),
            "objid": r.arr("<i8"),
            "x": r.arr("<f8"),
            "y": r.arr("<f8"),
            "z": r.arr("<f8"),
            "main": None,
        }
        cols["main"] = r.arr("<u1").astype(bool)
        nz = cfg.zone_count(s)
        cols["bounds"] = np.searchsorted(cols["zone"], np.arange(nz + 1))
        idx._scales[s] = cols
        idx._ids.update(int(i) for i in cols["objid"][cols["main"]])
    return idx


def save_state(state: AppState, path) -> None:
    w = _Writer()
    _write_catalog(w, state.catalog)
    _write_zone_table(w, state.zone_table)
    _write_neighbors(w, state.neighbors)
    _write_regions(w, state.regions)
    _write_pyramid(w, state.pyramid)
    payload = w.buf.getvalue()
    header = MAGIC + struct.pack("<IQI", VERSION, len(payload), zlib.crc32(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


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
