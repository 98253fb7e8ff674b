"""Region store and boolean algebra over half-space constraint tables.

Regions live in a store as numbered sets of convexes, each convex a
numbered set of half-space constraints; region ids are never reused. The
store keeps them as the paper's Region, Convex and HalfSpace tables of
columns, which a snapshot's columns become as they are. The boolean
operations work structurally: OR concatenates convex lists, AND
forms the NxM pairwise constraint union, NOT expands a convex's complement
into disjoint convexes (prefix-conjunction form) and folds multi-convex
complements through the AND product.

Simplification rests on two exact cap relations. A constraint is the open
cap of angular radius acos(l) about its normal, so for caps A and B:
A contains B iff angle(centers) + radius(B) <= radius(A), and A, B are
disjoint iff angle(centers) >= radius(A) + radius(B). Contained-cap
constraints are redundant, a disjoint pair empties its convex, and the
same relations decide convex-in-convex containment and the
(A and B) or (A and not B) merge.

Every half-space, stored or in flight through the algebra, is one plain
row (nx, ny, nz, l): a unit normal and a cut length in [-1, 1], as the
paper's HalfSpace table holds it. A half-space's id is its position in
its convex, from 1: rows are only ever appended to a convex, so the id is
derived and never stored.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .catalog import COVER_PAD_DEG
from .geom import _NORM2_TOL, Convex, GeometryError, HalfSpace, Region, Row, UnitVec3, arc_deg, normalized_xyz, radius_deg, sky_to_xyz
from .pyramid import bounding_circle_rows

_TOL_DEG = 1e-9
_MAX_TYPE_LEN = 16


class RegionStoreError(ValueError):
    """Unknown ids, bad arguments, or constraint-table violations."""


class StoredConvex(NamedTuple):
    """A stored convex as read from the store: a row (nx, ny, nz, l) per
    half-space, whose id is its index + 1; halfspaces() builds objects."""

    convex_id: int
    constraints: list[Row]

    def halfspaces(self) -> list[HalfSpace]:
        return [HalfSpace(UnitVec3(x, y, z), l) for x, y, z, l in self.constraints]


class StoredRegion(NamedTuple):
    """A stored region as read from the store (`RegionStore.regions`)."""

    region_id: int
    rtype: str
    comment: str
    convexes: list[StoredConvex]
    next_convex_id: int


def _dot(x, y, z, nx, ny, nz):
    """p . n in `UnitVec3.dot`'s operation order, on floats or elementwise.

    Every containment path goes through this one expression (no BLAS
    product, which may sum in another order), so all of them agree with
    `inside_convex` bit for bit, also for points on a cap boundary.
    """
    return x * nx + y * ny + z * nz


@dataclass(frozen=True)
class CompiledPredicate:
    """Store-independent, immutable containment test for one region."""

    convexes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]  # (nx, ny, nz, l)

    def evaluate_columns(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Unit vectors as three (n,) columns -> boolean mask."""
        out = np.zeros(len(x), dtype=bool)
        for nx, ny, nz, l in self.convexes:
            inside = np.ones(len(x), dtype=bool)
            for j in range(len(l)):
                inside &= _dot(x, y, z, nx[j], ny[j], nz[j]) > l[j]
            out |= inside
        return out

    def evaluate_batch(self, xyz: np.ndarray) -> np.ndarray:
        """xyz: (n, 3) unit vectors -> boolean mask."""
        return self.evaluate_columns(xyz[:, 0], xyz[:, 1], xyz[:, 2])

    @property
    def text(self) -> str:
        if not self.convexes:
            return "false"
        parts = []
        for nx, ny, nz, ls in self.convexes:
            if len(ls) == 0:
                parts.append("true")
                continue
            terms = [
                f"(p.x*{float(a)!r} + p.y*{float(b)!r} + p.z*{float(c)!r} > {float(l)!r})"
                for a, b, c, l in zip(nx, ny, nz, ls)
            ]
            parts.append("and(" + ", ".join(terms) + ")")
        return "or(" + ", ".join(parts) + ")"


# -- geometric simplification on rows (shared by the store and NOT) ---------


def _contains_cap(outer: Row, inner: Row) -> bool:
    return arc_deg(outer, inner) + radius_deg(inner) <= radius_deg(outer) + _TOL_DEG


def _disjoint_caps(a: Row, b: Row) -> bool:
    return arc_deg(a, b) >= radius_deg(a) + radius_deg(b) - _TOL_DEG


def simplify_convex(rows: list[Row]) -> list[Row] | None:
    """Drop implied constraints, detect provable emptiness (None)."""
    kept = [h for h in rows if h[3] > -1.0]
    n = len(kept)
    if any(h[3] >= 1.0 for h in kept):
        return None
    for i in range(n):
        for j in range(i + 1, n):
            if _disjoint_caps(kept[i], kept[j]):
                return None
    # weakest-first removal so mutual (equal) caps keep exactly one
    alive = [True] * n
    for j in range(n):
        for i in range(n):
            if i != j and alive[i] and _contains_cap(kept[j], kept[i]):
                alive[j] = False
                break
    return [h for h, ok in zip(kept, alive) if ok]


def _constraints_equal(a: Row, b: Row) -> bool:
    return _dot(a[0], a[1], a[2], b[0], b[1], b[2]) >= 1.0 - 1e-12 and abs(a[3] - b[3]) <= 1e-12


def _constraints_negated(a: Row, b: Row) -> bool:
    return _dot(a[0], a[1], a[2], b[0], b[1], b[2]) <= -1.0 + 1e-12 and abs(a[3] + b[3]) <= 1e-12


def _convex_in_convex(inner: list[Row], outer: list[Row]) -> bool:
    """Sufficient test: every outer constraint is implied by some inner one."""
    return all(any(_contains_cap(b, a) for a in inner) for b in outer)


def _try_merge(ca: list[Row], cb: list[Row]) -> list[Row] | None:
    """(A and b) or (A and not b) -> A, for convexes differing in one
    negated constraint."""
    if len(ca) != len(cb) or not ca:
        return None
    used = [False] * len(cb)
    odd_a = None  # the index of ca's one unmatched row
    for i, a in enumerate(ca):
        for j, b in enumerate(cb):
            if not used[j] and _constraints_equal(a, b):
                used[j] = True
                break
        else:
            if odd_a is not None:
                return None
            odd_a = i
    if odd_a is None:
        return None  # identical convexes; containment rule handles them
    odd_b = [b for j, b in enumerate(cb) if not used[j]]
    if len(odd_b) != 1 or not _constraints_negated(ca[odd_a], odd_b[0]):
        return None
    return ca[:odd_a] + ca[odd_a + 1 :]


def simplify_region_geometry(convex_lists: list[list[Row]]) -> list[list[Row]]:
    """Full membership-preserving reduction, run to a fixpoint."""
    convexes = [s for s in (simplify_convex(list(cl)) for cl in convex_lists) if s is not None]
    while True:
        n = len(convexes)
        # merge the first pair (A and b) | (A and not b)
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
        merge = next(((i, j, m) for i, j in pairs if (m := _try_merge(convexes[i], convexes[j])) is not None), None)
        if merge is not None:
            i, j, merged = merge
            merged = simplify_convex(merged)
            convexes = [c for k, c in enumerate(convexes) if k != i and k != j] + ([] if merged is None else [merged])
            continue
        # drop the first convex contained in another; of two equal ones,
        # the later
        inner = next((i for i in range(n) for j in range(n) if i != j and _convex_in_convex(convexes[i], convexes[j])
                      and not (i < j and _convex_in_convex(convexes[j], convexes[i]))), None)
        if inner is None:
            return convexes
        convexes.pop(inner)


def complement_convex_lists(rows: list[Row]) -> list[list[Row]]:
    """Disjoint complement of one convex: the j-th output keeps constraints
    1..j-1 and negates the j-th (all four components), so outputs are
    pairwise disjoint."""
    return [rows[:j] + [tuple(-v for v in rows[j])] for j in range(len(rows))]


# -- the store's tables ------------------------------------------------------


class _Table:
    """Equal-length numpy columns, of which the first n entries are in use.
    append writes after entry n, moving a full column into a new array of
    twice the capacity; it never rewrites an entry in use, so a slice taken
    before it still holds the same values."""

    def __init__(self, **cols: np.ndarray):
        self.names = tuple(cols)
        self.__dict__.update(cols)
        self.n = len(cols[self.names[0]])

    def append(self, entries: list[tuple]) -> None:
        """Write entries, each a tuple of a value per column."""
        start, end = self.n, self.n + len(entries)
        for name, values in zip(self.names, zip(*entries)):
            arr = self.__dict__[name]
            if end > len(arr):
                grown = np.empty(max(end, 2 * len(arr)), dtype=arr.dtype)
                grown[:start] = arr[:start]
                self.__dict__[name] = arr = grown
            arr[start:end] = values
        self.n = end


@dataclass
class _Region:
    """A region table row; slots lists its convexes' slots in convex order."""

    rtype: str
    comment: str
    next_convex_id: int = 1
    slots: Sequence[int] = range(0)  # not (): numpy reads () as "every entry"


class _RegionsView(Mapping):
    """regionID -> StoredRegion, each record built when read and not kept."""

    def __init__(self, store: "RegionStore"):
        self._store = store

    def __getitem__(self, rid: int) -> StoredRegion:
        store, reg = self._store, self._store._regions[rid]
        convexes = [StoredConvex(store._cid(slot), store._rows_of(slot)) for slot in reg.slots]
        return StoredRegion(rid, reg.rtype, reg.comment, convexes, reg.next_convex_id)

    def __iter__(self):
        return iter(self._store._regions)

    def __len__(self) -> int:
        return len(self._store._regions)


# -- the store ---------------------------------------------------------------


class RegionStore:
    """Mutable catalog of named regions. Single-writer, multi-reader.

    The paper's three tables: half-spaces as columns nx, ny, nz, l; per
    convex slot, its regionID, convexID, first row, row count (a convex's
    rows are contiguous) and whether it is stored; per region, its type,
    comment, convexID counter and slots. A new convex is pending, its rows
    a list, until a query writes all pending convexes at the tables' end
    with one assignment per column (a numpy write costs several list
    appends), so each half-space is held once. A constraint added to a
    convex in the tables moves it to the end, pending again. Once dead
    entries outnumber live ones, the next write rebuilds the tables from
    columns() into new arrays: no slice a CompiledPredicate holds is ever
    rewritten.
    """

    def __init__(self):
        self._regions: dict[int, _Region] = {}  # in id order, as ids only rise
        self._next_region_id = 1
        none, no_ids = np.empty(0), np.empty(0, dtype=np.int64)
        self._adopt({"region_id": no_ids, "convexes": no_ids, "convex_id": no_ids,
                     "halfspaces": no_ids, "nx": none, "ny": none, "nz": none, "l": none})

    @property
    def regions(self) -> Mapping[int, StoredRegion]:
        """A read-only view of the stored regions."""
        return _RegionsView(self)

    def _adopt(self, cols: dict) -> None:
        """Make columns in columns()' layout the tables, taking the arrays
        as they are; the regions, in id order, get consecutive slots."""
        counts, per_region = cols["halfspaces"], cols["convexes"]
        self._rows = _Table(**{k: np.asarray(cols[k], dtype=np.float64) for k in ("nx", "ny", "nz", "l")})
        self._convexes = _Table(
            rid=np.repeat(cols["region_id"], per_region),
            cid=np.asarray(cols["convex_id"], dtype=np.int64),
            first=np.cumsum(counts) - counts,
            count=np.asarray(counts, dtype=np.int64),
            alive=np.ones(len(counts), dtype=bool),
        )
        ends = np.cumsum(per_region).tolist()
        for reg, start, end in zip(self._regions.values(), [0] + ends[:-1], ends):
            reg.slots = range(start, end)
        self._pending: list[list] = []  # [rid, cid, rows, alive] of slot self._convexes.n + index
        self._dead = 0  # dead slots plus dead rows

    def _flush(self) -> None:
        """Write the pending convexes, and the live ones' rows, at the end of
        the tables; rebuild them once dead entries outnumber live ones."""
        if self._pending:
            counts = [len(rows) if alive else 0 for _, _, rows, alive in self._pending]
            firsts = accumulate(counts[:-1], initial=self._rows.n)
            self._convexes.append([(rid, cid, first, count, alive) for (rid, cid, _, alive), first, count
                                   in zip(self._pending, firsts, counts)])
            self._rows.append([row for _, _, rows, alive in self._pending if alive for row in rows])
            self._pending = []
        if 2 * self._dead > self._rows.n + self._convexes.n:
            self._dead = 0  # before columns(), which flushes again
            self._adopt(self.columns())

    def _pending_of(self, slot: int) -> list | None:
        i = slot - self._convexes.n
        return self._pending[i] if i >= 0 else None

    def _cid(self, slot: int) -> int:
        pending = self._pending_of(slot)
        return self._convexes.cid.item(slot) if pending is None else pending[1]

    # construction

    def region_new(self, rtype: str, comment: str = "") -> int:
        if len(rtype) > _MAX_TYPE_LEN:
            raise RegionStoreError(
                f"region type longer than {_MAX_TYPE_LEN} chars: {rtype!r}"
            )
        try:
            rtype.encode(), comment.encode()
        except UnicodeEncodeError as exc:
            raise RegionStoreError(f"region text is not valid UTF-8: {exc.object!r}") from None
        rid = self._next_region_id
        self._next_region_id += 1
        self._regions[rid] = _Region(rtype, comment)
        return rid

    def _get(self, rid: int) -> _Region:
        try:
            return self._regions[rid]
        except KeyError:
            raise RegionStoreError(f"unknown regionID: {rid}") from None

    def region_new_convex(self, rid: int) -> int:
        self._add_convexes(rid, [[]])
        return self._regions[rid].next_convex_id - 1

    def region_new_convex_constraint(
        self, rid: int, cid: int, x: float, y: float, z: float, l: float
    ) -> int:
        reg = self._get(rid)
        for k, slot in enumerate(reg.slots):
            if self._cid(slot) == cid:
                break
        else:
            raise RegionStoreError(f"unknown convexID {cid} in region {rid}")
        if not (-1.0 <= l <= 1.0):
            raise RegionStoreError(f"constraint length outside [-1, 1]: {l!r}")
        try:
            normal = normalized_xyz(x, y, z)
        except GeometryError as exc:
            raise RegionStoreError(f"constraint normal: {exc}") from None
        pending = self._pending_of(slot)
        if pending is None:  # in the tables: the convex moves to the end, pending again
            pending = [rid, cid, self._rows_of(slot), True]
            self._retire([slot])
            self._pending.append(pending)
            reg.slots = [*reg.slots[:k], self._convexes.n + len(self._pending) - 1, *reg.slots[k + 1 :]]
        pending[2].append((*normal, float(l)))
        return len(pending[2])

    def region_drop(self, rid: int) -> None:
        reg = self._get(rid)
        del self._regions[rid]
        self._retire(reg.slots)

    def _retire(self, slots: Sequence[int]) -> None:
        """Mark convexes dead; a pending one's rows are never written."""
        for slot in slots:
            pending = self._pending_of(slot)
            if pending is None:
                self._convexes.alive[slot] = False
                self._dead += 1 + self._convexes.count.item(slot)
            else:
                pending[3] = False
                self._dead += 1

    # boolean algebra

    def _add_convexes(self, rid: int, lists: list[list[Row]]) -> None:
        """Store each list as a new convex of region rid, every row kept
        bit for bit: they are valid already, so none is normalized
        again."""
        reg = self._get(rid)
        start = self._convexes.n + len(self._pending)
        self._pending += [[rid, reg.next_convex_id + i, list(rows), True] for i, rows in enumerate(lists)]
        reg.next_convex_id += len(lists)
        reg.slots = [*reg.slots, *range(start, start + len(lists))]

    def region_new_from_convexes(self, lists: list[list[Row]], rtype: str, comment: str) -> int:
        """A new region whose convexes are the lists of rows, stored as given."""
        rid = self.region_new(rtype, comment)
        self._add_convexes(rid, lists)
        return rid

    def _slices(self, slot: int) -> tuple[np.ndarray, ...]:
        """The rows of a slot in the tables, as slices of nx, ny, nz, l."""
        a = self._convexes.first.item(slot)
        b = a + self._convexes.count.item(slot)
        t = self._rows
        return t.nx[a:b], t.ny[a:b], t.nz[a:b], t.l[a:b]

    def _rows_of(self, slot: int) -> list[Row]:
        pending = self._pending_of(slot)
        if pending is not None:
            return list(pending[2])
        nx, ny, nz, l = self._slices(slot)
        return list(zip(nx.tolist(), ny.tolist(), nz.tolist(), l.tolist()))

    def _convex_lists(self, rid: int) -> list[list[Row]]:
        """The rows of region rid's convexes, in convex order."""
        return [self._rows_of(slot) for slot in self._get(rid).slots]

    def region_or(self, id1: int, id2: int, rtype: str, comment: str = "") -> int:
        lists = self._convex_lists(id1) + self._convex_lists(id2)
        return self.region_new_from_convexes(lists, rtype, comment)

    def region_and(self, id1: int, id2: int, rtype: str, comment: str = "") -> int:
        lists = [
            a + b for a in self._convex_lists(id1) for b in self._convex_lists(id2)
        ]
        return self.region_new_from_convexes(lists, rtype, comment)

    def region_not(self, id1: int, rtype: str, comment: str = "") -> int:
        acc: list[list[Row]] = [[]]  # the complement of the empty region is the sphere
        for k, cvx in enumerate(self._convex_lists(id1)):
            acc = [a + c for a in acc for c in complement_convex_lists(cvx)]
            if k:
                acc = simplify_region_geometry(acc)
        return self.region_new_from_convexes(acc, rtype, comment)

    def region_simplify(self, rid: int) -> None:
        reg = self._get(rid)
        reduced = simplify_region_geometry(self._convex_lists(rid))
        old, reg.slots = reg.slots, range(0)
        self._retire(old)
        self._add_convexes(rid, reduced)

    # queries

    def geometry(self, rid: int) -> Region:
        return Region(tuple(
            Convex(tuple(HalfSpace(UnitVec3(x, y, z), l) for x, y, z, l in rows)) for rows in self._convex_lists(rid)
        ))

    def regions_on_point(self, p: UnitVec3) -> list[tuple[int, int]]:
        """(regionID, convexID) for every convex containing p, sorted.

        The paper's regions-containing-point query: for each convex, count
        the half-spaces that exclude p (p . n <= l); the convex contains p
        when that count is 0, so a convex with no constraints contains
        every point. One pass over the half-space table answers it, with
        the dot taken in `UnitVec3.dot`'s order, so the hits are exactly
        those of `inside_convex`. Dead rows are scanned too; their slots
        are masked out.
        """
        self._flush()
        t, c = self._rows, self._convexes
        n, m = t.n, c.n
        outside = _dot(p.x, p.y, p.z, t.nx[:n], t.ny[:n], t.nz[:n]) <= t.l[:n]
        before = np.concatenate(([0], np.cumsum(outside)))  # rows excluding p before each row
        first = c.first[:m]
        hit = np.flatnonzero((before[first + c.count[:m]] == before[first]) & c.alive[:m])
        rid, cid = c.rid[hit], c.cid[hit]
        order = np.lexsort((cid, rid))
        return list(zip(rid[order].tolist(), cid[order].tolist()))

    def points_in_region(
        self, rid: int, objid: np.ndarray, ra: np.ndarray, dec: np.ndarray
    ) -> list[int]:
        """objids of the catalog rows (objid, ra, dec) that lie in region
        rid, in row order.

        The paper's zone idea: the region's bounding circle of radius r
        about dec_c bounds its dec, so only the rows with
        |dec - dec_c| <= r + COVER_PAD_DEG can be inside. Those rows alone
        get unit vectors (`sky_to_xyz`, which gives a row the same bits as
        the catalog's x, y, z columns) and the exact half-space test, so
        the answer is that of `evaluate_columns` over the whole catalog.
        The pad is above the circle's slack (<= 1e-7 degrees) and the
        rounding of p . n > l (a few 1e-6 degrees near l = 1). dec_c comes
        from atan2, which keeps its precision next to the poles.
        """
        convexes = self._convex_lists(rid)
        if not convexes:
            return []
        (cx, cy, cz), radius = bounding_circle_rows(convexes)
        dec_c = math.degrees(math.atan2(cz, math.hypot(cx, cy)))
        rows = np.flatnonzero(np.abs(dec - dec_c) <= radius + COVER_PAD_DEG)
        x, y, z = sky_to_xyz(ra[rows], dec[rows])
        mask = self.region_predicate(rid).evaluate_columns(x, y, z)
        return objid[rows[mask]].tolist()

    def region_predicate(self, rid: int) -> CompiledPredicate:
        """The region's test, made of slices of the half-space table."""
        self._flush()
        return CompiledPredicate(tuple(self._slices(slot) for slot in self._get(rid).slots))

    # introspection / persistence

    def contains(self, rid: int, p: UnitVec3) -> bool:
        """Whether p is in region rid: its rows tested one by one, in the
        predicate's arithmetic."""
        x, y, z = p.as_tuple()
        return any(
            all(_dot(x, y, z, nx, ny, nz) > l for nx, ny, nz, l in rows)
            for rows in self._convex_lists(rid)
        )

    def columns(self) -> dict[str, np.ndarray]:
        """The store as named columns: a row per region (in id order), per
        convex and per half-space, with each parent's count of children,
        and the id counters. A text is UTF-8 bytes plus a length column."""
        self._flush()
        regs, c, hs = self._regions.values(), self._convexes, self._rows
        slots = np.array([s for reg in regs for s in reg.slots], dtype=np.int64)
        counts = c.count[slots]
        first = np.cumsum(counts) - counts  # each convex's first row in the output
        rows = np.repeat(c.first[slots] - first, counts) + np.arange(counts.sum())
        types = [reg.rtype.encode() for reg in regs]
        comments = [reg.comment.encode() for reg in regs]

        def ints(values):
            return np.array(values, dtype=np.int64)

        return {
            "next_region_id": np.int64(self._next_region_id),
            "region_id": ints(list(self._regions)),
            "next_convex_id": ints([reg.next_convex_id for reg in regs]),
            "convexes": ints([len(reg.slots) for reg in regs]),
            "type_len": ints([len(t) for t in types]),
            "type_utf8": np.frombuffer(b"".join(types), dtype=np.uint8),
            "comment_len": ints([len(t) for t in comments]),
            "comment_utf8": np.frombuffer(b"".join(comments), dtype=np.uint8),
            "convex_id": c.cid[slots],
            "halfspaces": counts,
            **{name: getattr(hs, name)[rows] for name in ("nx", "ny", "nz", "l")},
        }

    @classmethod
    def from_columns(cls, cols: dict) -> "RegionStore":
        """The store columns() gave, from columns whose levels each share
        one length. Raises RegionStoreError unless each count matches the
        rows it nests, the region and convex ids rise within their parent
        from 1 to below its counter, and each half-space row holds a
        finite normal with |n|^2 within _NORM2_TOL of 1 and a length in
        [-1, 1]; a text that is not UTF-8 raises UnicodeDecodeError. The
        columns become the tables as they are, with no object per row."""
        nesting = (
            (cols["convexes"], cols["convex_id"]),
            (cols["halfspaces"], cols["nx"]),
            (cols["type_len"], cols["type_utf8"]),
            (cols["comment_len"], cols["comment_utf8"]),
        )
        for counts, nested in nesting:
            n = len(nested)  # counts within [0, n] cannot wrap their sum
            if len(counts) and (counts.min() < 0 or counts.max() > n) or counts.sum() != n:
                raise RegionStoreError("region columns disagree with their counts")
        region_ids = cols["region_id"]
        ids = (
            (region_ids, [len(region_ids)], [cols["next_region_id"]]),
            (cols["convex_id"], cols["convexes"], cols["next_convex_id"]),
        )
        for level_ids, counts, counters in ids:
            if not _ids_rise(level_ids, counts, counters):
                raise RegionStoreError(
                    "region columns hold an id out of order or past its counter"
                )
        nx, ny, nz, l = cols["nx"], cols["ny"], cols["nz"], cols["l"]
        with np.errstate(over="ignore"):
            n2 = nx * nx + ny * ny + nz * nz  # in UnitVec3's order; NaN or inf fails below
        if not ((np.abs(n2 - 1.0) <= _NORM2_TOL) & (-1.0 <= l) & (l <= 1.0)).all():
            raise RegionStoreError(
                "region columns hold a non-unit normal or a length outside [-1, 1]"
            )

        types = _split(cols["type_utf8"].tobytes(), cols["type_len"])
        comments = _split(cols["comment_utf8"].tobytes(), cols["comment_len"])
        store = cls()
        store._next_region_id = int(cols["next_region_id"])
        store._regions = {
            rid: _Region(rtype.decode(), comment.decode(), next_cid)
            for rid, rtype, comment, next_cid in zip(
                region_ids.tolist(), types, comments, cols["next_convex_id"].tolist()
            )
        }
        store._adopt(cols)
        return store


def _ids_rise(ids: np.ndarray, counts, counters) -> bool:
    """Whether ids, cut into consecutive runs of the given lengths, rise
    strictly within each run, from at least 1 to below the run's counter."""
    if len(ids) == 0:
        return True
    counts = np.asarray(counts)
    starts = (np.cumsum(counts) - counts)[(counts > 0)][1:]  # runs after the first
    rises = np.diff(ids) > 0
    rises[starts - 1] = True  # a run's first id is not compared with the run before
    below = ids < np.repeat(np.asarray(counters, dtype=np.int64), counts)
    return bool(ids.min() >= 1 and below.all() and rises.all())


def _split(items, counts) -> list:
    """items cut into consecutive runs of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [items[a:b] for a, b in zip([0] + ends[:-1], ends)]
