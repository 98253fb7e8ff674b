"""Region store and boolean algebra over half-space constraint tables.

Regions live in a store as numbered sets of convexes, each convex a
numbered set of half-space constraints; region ids are never reused. The
boolean operations work structurally: OR concatenates convex lists, AND
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
from dataclasses import dataclass, field

import numpy as np

from .catalog import COVER_PAD_DEG
from .geom import Convex, GeometryError, HalfSpace, Region, UnitVec3, sky_to_xyz
from .pyramid import bounding_circle

_TOL_DEG = 1e-9
_MAX_TYPE_LEN = 16
# How far |n|^2 of a loaded normal may lie from 1. The store writes normals
# within 2.5 ulps (measured over 200k `UnitVec3.normalized` and
# `sky_to_vec` vectors). A normal 16 ulps long widens its cap by at most
# 3.4e-6 degrees (at l = 1), which with the 2.6e-6 degree rounding of
# p . n > l stays inside points_in_region's COVER_PAD_DEG of 1e-5 degrees.
_NORM2_TOL = 16 * 2.0**-52

Row = tuple[float, float, float, float]  # one half-space: (nx, ny, nz, l)


class RegionStoreError(ValueError):
    """Unknown ids, bad arguments, or constraint-table violations."""


@dataclass
class StoredConvex:
    """A stored convex. constraints holds one row (nx, ny, nz, l) per
    half-space, in the layout of the snapshot's half-space columns and of
    the store's half-space table; a row's id is its index + 1.
    halfspaces() builds the geometry objects."""

    convex_id: int
    constraints: list[Row] = field(default_factory=list)

    def halfspaces(self) -> list[HalfSpace]:
        return [HalfSpace(UnitVec3(x, y, z), l) for x, y, z, l in self.constraints]


@dataclass
class StoredRegion:
    region_id: int
    rtype: str
    comment: str
    convexes: list[StoredConvex] = field(default_factory=list)
    next_convex_id: int = 1

    def geometry(self) -> Region:
        return Region(tuple(Convex(tuple(c.halfspaces())) for c in self.convexes))


def _dot(x, y, z, nx, ny, nz):
    """p . n in `UnitVec3.dot`'s operation order, elementwise over arrays.

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


def _radius_deg(h: Row) -> float:
    """`HalfSpace.radius_deg` of a row."""
    return math.degrees(math.acos(h[3]))


def _arc_deg(a: Row, b: Row) -> float:
    """`geom.arc_distance_deg` between two rows' normals, in its operation
    order."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    half_chord = 0.5 * math.sqrt(dx * dx + dy * dy + dz * dz)
    return math.degrees(2.0 * math.asin(min(1.0, half_chord)))


def _contains_cap(outer: Row, inner: Row) -> bool:
    return _arc_deg(outer, inner) + _radius_deg(inner) <= _radius_deg(outer) + _TOL_DEG


def _disjoint_caps(a: Row, b: Row) -> bool:
    return _arc_deg(a, b) >= _radius_deg(a) + _radius_deg(b) - _TOL_DEG


def simplify_convex(rows: list[Row]) -> list[Row] | None:
    """Drop implied constraints, detect provable emptiness (None)."""
    kept = [h for h in rows if h[3] > -1.0]
    for h in kept:
        if h[3] >= 1.0:
            return None
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            if _disjoint_caps(kept[i], kept[j]):
                return None
    # weakest-first removal so mutual (equal) caps keep exactly one
    alive = [True] * len(kept)
    for j in range(len(kept)):
        for i in range(len(kept)):
            if i == j or not alive[i] or not alive[j]:
                continue
            if _contains_cap(kept[j], kept[i]):
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
        hit = False
        for j, b in enumerate(cb):
            if not used[j] and _constraints_equal(a, b):
                used[j] = True
                hit = True
                break
        if not hit:
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
    convexes = []
    for cl in convex_lists:
        s = simplify_convex(list(cl))
        if s is not None:
            convexes.append(s)
    changed = True
    while changed:
        changed = False
        # merge (A and b) | (A and not b)
        for i in range(len(convexes)):
            for j in range(i + 1, len(convexes)):
                merged = _try_merge(convexes[i], convexes[j])
                if merged is not None:
                    merged = simplify_convex(merged)
                    keep = [
                        c for k, c in enumerate(convexes) if k != i and k != j
                    ]
                    if merged is not None:
                        keep.append(merged)
                    convexes = keep
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        # drop convexes contained in another
        for i in range(len(convexes)):
            for j in range(len(convexes)):
                if i != j and _convex_in_convex(convexes[i], convexes[j]):
                    # i is inside j: i is redundant; on mutual containment
                    # (equal convexes) keep the earlier index
                    if i < j and _convex_in_convex(convexes[j], convexes[i]):
                        continue
                    convexes.pop(i)
                    changed = True
                    break
            if changed:
                break
    return convexes


def complement_convex_lists(rows: list[Row]) -> list[list[Row]]:
    """Disjoint complement of one convex: the j-th output keeps constraints
    1..j-1 and negates the j-th (all four components), so outputs are
    pairwise disjoint."""
    return [rows[:j] + [tuple(-v for v in rows[j])] for j in range(len(rows))]


# -- the half-space table ----------------------------------------------------


class _HalfSpaceTable:
    """Every stored half-space as one row of columns nx, ny, nz, l, tagged
    with its convex's slot; each slot records (regionID, convexID) and
    whether the convex is still stored.

    Rows and slots are only appended, and dropped convexes are only marked
    dead; the store discards the table for a full rebuild once dead
    entries outnumber live ones. Appends and deaths queue in Python lists
    (cheap per edit) and reach the arrays at the next query.
    """

    def __init__(self, regions: dict[int, StoredRegion]):
        self.slot_of: dict[tuple[int, int], int] = {}
        self.slots = self.rows = 0  # in the arrays
        self.slot_rid = np.empty(0, dtype=np.int64)
        self.slot_cid = np.empty(0, dtype=np.int64)
        self.alive = np.empty(0, dtype=bool)
        self.row_slot = np.empty(0, dtype=np.int64)
        self.nx, self.ny, self.nz, self.l = (np.empty(0) for _ in range(4))
        self.new_slots: tuple[list, ...] = ([], [], [])  # rid, cid, alive
        self.new_rows: tuple[list, ...] = ([], [], [], [], [])  # slot, nx, ny, nz, l
        self.new_dead: list[int] = []
        self.live = self.dead = 0  # entries (slots plus rows)
        for rid, reg in regions.items():
            for convex in reg.convexes:
                self.add_convex(rid, convex)

    def add_convex(self, rid: int, convex: StoredConvex) -> None:
        rids, cids, alive = self.new_slots
        self.slot_of[(rid, convex.convex_id)] = self.slots + len(rids)
        rids.append(rid)
        cids.append(convex.convex_id)
        alive.append(True)
        self.live += 1
        for row in convex.constraints:
            self.add_halfspace(rid, convex.convex_id, row)

    def add_halfspace(self, rid: int, cid: int, row: Row) -> None:
        """Queue one stored row (nx, ny, nz, l)."""
        self.new_rows[0].append(self.slot_of[(rid, cid)])
        for col, value in zip(self.new_rows[1:], row):
            col.append(value)
        self.live += 1

    def retire(self, rid: int, convexes: list[StoredConvex]) -> None:
        """Mark the slots of convexes that left region rid dead."""
        for convex in convexes:
            self.new_dead.append(self.slot_of.pop((rid, convex.convex_id)))
            entries = 1 + len(convex.constraints)
            self.live -= entries
            self.dead += entries

    def _append(self, names: tuple[str, ...], start: int, cols: tuple[list, ...]) -> int:
        """Move queued column values into the arrays after index start,
        doubling an array's capacity when it is full."""
        end = start + len(cols[0])
        for name, col in zip(names, cols):
            arr = getattr(self, name)
            if end > len(arr):
                grown = np.empty(max(end, 2 * len(arr)), dtype=arr.dtype)
                grown[:start] = arr[:start]
                arr = grown
                setattr(self, name, arr)
            arr[start:end] = col
            col.clear()
        return end

    def _flush(self) -> None:
        if self.new_slots[0]:
            self.slots = self._append(("slot_rid", "slot_cid", "alive"), self.slots, self.new_slots)
        if self.new_rows[0]:
            self.rows = self._append(("row_slot", "nx", "ny", "nz", "l"), self.rows, self.new_rows)
        if self.new_dead:
            self.alive[self.new_dead] = False
            self.new_dead = []

    def on_point(self, p: UnitVec3) -> list[tuple[int, int]]:
        self._flush()
        n, m = self.rows, self.slots
        d = _dot(p.x, p.y, p.z, self.nx[:n], self.ny[:n], self.nz[:n])
        excluded = np.bincount(self.row_slot[:n][d <= self.l[:n]], minlength=m)
        hit = np.flatnonzero((excluded == 0) & self.alive[:m])
        rid, cid = self.slot_rid[hit], self.slot_cid[hit]
        order = np.lexsort((cid, rid))
        return list(zip(rid[order].tolist(), cid[order].tolist()))


# -- the store ---------------------------------------------------------------


class RegionStore:
    """Mutable catalog of named regions. Single-writer, multi-reader."""

    def __init__(self):
        self.regions: dict[int, StoredRegion] = {}
        self._next_region_id = 1
        self._table: _HalfSpaceTable | None = None  # built by regions_on_point

    # construction

    def region_new(self, rtype: str, comment: str = "") -> int:
        if len(rtype) > _MAX_TYPE_LEN:
            raise RegionStoreError(
                f"region type longer than {_MAX_TYPE_LEN} chars: {rtype!r}"
            )
        rid = self._next_region_id
        self._next_region_id += 1
        self.regions[rid] = StoredRegion(rid, rtype, comment)
        return rid

    def _get(self, rid: int) -> StoredRegion:
        try:
            return self.regions[rid]
        except KeyError:
            raise RegionStoreError(f"unknown regionID: {rid}") from None

    def region_new_convex(self, rid: int) -> int:
        self._add_convexes(rid, [[]])
        return self.regions[rid].convexes[-1].convex_id

    def region_new_convex_constraint(
        self, rid: int, cid: int, x: float, y: float, z: float, l: float
    ) -> int:
        reg = self._get(rid)
        for convex in reg.convexes:
            if convex.convex_id == cid:
                break
        else:
            raise RegionStoreError(f"unknown convexID {cid} in region {rid}")
        if not (-1.0 <= l <= 1.0):
            raise RegionStoreError(f"constraint length outside [-1, 1]: {l!r}")
        try:
            normal = UnitVec3.normalized(x, y, z)
        except GeometryError as exc:
            raise RegionStoreError(f"constraint normal: {exc}") from None
        row = (normal.x, normal.y, normal.z, float(l))
        convex.constraints.append(row)
        if self._table is not None:
            self._table.add_halfspace(rid, cid, row)
        return len(convex.constraints)

    def region_drop(self, rid: int) -> None:
        reg = self._get(rid)
        del self.regions[rid]
        self._retire(rid, reg.convexes)

    def _retire(self, rid: int, convexes: list[StoredConvex]) -> None:
        """Keep a built table current when convexes leave region rid."""
        if self._table is None:
            return
        self._table.retire(rid, convexes)
        if self._table.dead > self._table.live:
            self._table = None  # compacted by the next query's full rebuild

    # boolean algebra

    def _add_convexes(self, rid: int, lists: list[list[Row]]) -> None:
        """Store a copy of each list as a new convex of region rid, every
        row kept bit for bit: they are valid already, so none is
        normalized again."""
        reg = self._get(rid)
        for rows in lists:
            convex = StoredConvex(reg.next_convex_id, list(rows))
            reg.next_convex_id += 1
            reg.convexes.append(convex)
            if self._table is not None:
                self._table.add_convex(rid, convex)

    def region_new_from_convexes(self, lists: list[list[Row]], rtype: str, comment: str) -> int:
        """A new region whose convexes are the lists of rows, stored as given."""
        rid = self.region_new(rtype, comment)
        self._add_convexes(rid, lists)
        return rid

    def _convex_lists(self, rid: int) -> list[list[Row]]:
        """The stored row lists of region rid's convexes, not copies: no
        caller may mutate them."""
        return [c.constraints for c in self._get(rid).convexes]

    def region_or(self, id1: int, id2: int, rtype: str, comment: str = "") -> int:
        lists = self._convex_lists(id1) + self._convex_lists(id2)
        return self.region_new_from_convexes(lists, rtype, comment)

    def region_and(self, id1: int, id2: int, rtype: str, comment: str = "") -> int:
        lists = [
            a + b for a in self._convex_lists(id1) for b in self._convex_lists(id2)
        ]
        return self.region_new_from_convexes(lists, rtype, comment)

    def region_not(self, id1: int, rtype: str, comment: str = "") -> int:
        sources = self._convex_lists(id1)
        if not sources:
            acc: list[list[Row]] = [[]]  # complement of empty is the sphere
        else:
            acc = complement_convex_lists(sources[0])
            for cvx in sources[1:]:
                comp = complement_convex_lists(cvx)
                acc = [a + c for a in acc for c in comp]
                acc = simplify_region_geometry(acc)
        return self.region_new_from_convexes(acc, rtype, comment)

    def region_simplify(self, rid: int) -> None:
        reg = self._get(rid)
        reduced = simplify_region_geometry(self._convex_lists(rid))
        self._retire(rid, reg.convexes)
        reg.convexes = []
        self._add_convexes(rid, reduced)

    # queries

    def geometry(self, rid: int) -> Region:
        return self._get(rid).geometry()

    def regions_on_point(self, p: UnitVec3) -> list[tuple[int, int]]:
        """(regionID, convexID) for every convex containing p, sorted.

        The paper's regions-containing-point query: for each convex, count
        the half-spaces that exclude p (p . n <= l); the convex contains p
        when that count is 0, so a convex with no constraints contains
        every point. One pass over a table of every stored half-space
        answers it, with the dot taken in `UnitVec3.dot`'s order, so the
        hits are exactly those of `inside_convex`.

        The table is built from `regions` on the first call, so loading or
        importing a store costs nothing for it. From then on every mutator
        keeps it current: new convexes and constraints append rows; drop
        and simplify mark the old convexes dead (simplify then appends its
        result). Edits queue these changes, and the next call moves them
        into the arrays. Once dead entries outnumber live ones the table is
        discarded and the next call rebuilds it.
        """
        if self._table is None:
            self._table = _HalfSpaceTable(self.regions)
        return self._table.on_point(p)

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
        geometry = self.geometry(rid)
        if not geometry.convexes:
            return []
        center, radius = bounding_circle(geometry)
        dec_c = math.degrees(math.atan2(center.z, math.hypot(center.x, center.y)))
        rows = np.flatnonzero(np.abs(dec - dec_c) <= radius + COVER_PAD_DEG)
        x, y, z = sky_to_xyz(ra[rows], dec[rows])
        mask = self.region_predicate(rid).evaluate_columns(x, y, z)
        return objid[rows[mask]].tolist()

    def region_predicate(self, rid: int) -> CompiledPredicate:
        reg = self._get(rid)
        compiled = []
        for convex in reg.convexes:
            compiled.append(tuple(np.array(convex.constraints, dtype=np.float64).reshape(-1, 4).T))
        return CompiledPredicate(tuple(compiled))

    # introspection / persistence

    def contains(self, rid: int, p: UnitVec3) -> bool:
        """Whether p is in region rid, by its compiled predicate."""
        point = (np.array([c]) for c in p.as_tuple())
        return bool(self.region_predicate(rid).evaluate_columns(*point)[0])

    def columns(self) -> dict[str, np.ndarray]:
        """The store as named columns: a row per region (in id order), per
        convex and per half-space, with each parent's count of children,
        and the id counters. A text is UTF-8 bytes plus a length column."""
        regs = [self.regions[rid] for rid in sorted(self.regions)]
        convexes = [c for reg in regs for c in reg.convexes]
        rows = [row for c in convexes for row in c.constraints]
        nx, ny, nz, l = np.array(rows, dtype=np.float64).reshape(-1, 4).T.copy()
        types = [reg.rtype.encode() for reg in regs]
        comments = [reg.comment.encode() for reg in regs]

        def ints(values):
            return np.array(values, dtype=np.int64)

        return {
            "next_region_id": np.int64(self._next_region_id),
            "region_id": ints([reg.region_id for reg in regs]),
            "next_convex_id": ints([reg.next_convex_id for reg in regs]),
            "convexes": ints([len(reg.convexes) for reg in regs]),
            "type_len": ints([len(t) for t in types]),
            "type_utf8": np.frombuffer(b"".join(types), dtype=np.uint8),
            "comment_len": ints([len(t) for t in comments]),
            "comment_utf8": np.frombuffer(b"".join(comments), dtype=np.uint8),
            "convex_id": ints([c.convex_id for c in convexes]),
            "halfspaces": ints([len(c.constraints) for c in convexes]),
            "nx": nx,
            "ny": ny,
            "nz": nz,
            "l": l,
        }

    @classmethod
    def from_columns(cls, cols: dict) -> "RegionStore":
        """The store columns() gave, from columns whose levels each share
        one length. Raises RegionStoreError unless each count matches the
        rows it nests, the region and convex ids rise within their parent
        from 1 to below its counter, and each half-space row holds a
        finite normal with |n|^2 within _NORM2_TOL of 1 and a length in
        [-1, 1]. Builds no geometry objects."""
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

        rows = list(zip(nx.tolist(), ny.tolist(), nz.tolist(), l.tolist()))
        convexes = [
            StoredConvex(cid, constraints)
            for cid, constraints in zip(cols["convex_id"].tolist(), _split(rows, cols["halfspaces"]))
        ]
        types = _split(cols["type_utf8"].tobytes(), cols["type_len"])
        comments = _split(cols["comment_utf8"].tobytes(), cols["comment_len"])
        store = cls()
        store._next_region_id = int(cols["next_region_id"])
        store.regions = {
            rid: StoredRegion(rid, rtype.decode(), comment.decode(), region_convexes, next_cid)
            for rid, rtype, comment, region_convexes, next_cid in zip(
                region_ids.tolist(),
                types,
                comments,
                _split(convexes, cols["convexes"]),
                cols["next_convex_id"].tolist(),
            )
        }
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
