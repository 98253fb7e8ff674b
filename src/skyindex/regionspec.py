"""Textual region grammar: parse, compile to geometry, serialize.

The accepted shapes:

    CIRCLE J2000 ra dec radArcMin
    CIRCLE CARTESIAN x y z radArcMin
    RECT J2000 ra dec ra dec
    POLY J2000 {ra dec}3+          | POLY CARTESIAN {x y z}3+
    CHULL J2000 {ra dec}3+         | CHULL CARTESIAN {x y z}3+
    CONVEX {x y z d}+
    REGION {CONVEX {x y z d}+}*

Keywords are case-insensitive, whitespace is free-form, and numbers are
plain decimal reals (optional sign, decimal point, exponent). Point lists
run to the next keyword or end of input; inside REGION the CONVEX keyword
delimits each convex. Serialization always emits the lossless CONVEX
encoding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .geom import (
    Convex,
    GeometryError,
    HalfSpace,
    Region,
    SkyPoint,
    UnitVec3,
    circle_to_halfspace,
    closed_hemisphere_witness,
    sky_to_vec,
)

KEYWORDS = {"CIRCLE", "RECT", "POLY", "CHULL", "CONVEX", "REGION", "J2000", "CARTESIAN"}
FRAMES = ("J2000", "CARTESIAN")

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<word>[A-Za-z][A-Za-z0-9_]*)
      | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    """,
    re.VERBOSE,
)


class RegionSyntaxError(ValueError):
    """Parse failure; carries the byte offset and what was expected."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")


@dataclass(frozen=True)
class _Token:
    kind: str  # "word" | "number" | "eof"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RegionSyntaxError(pos, "keyword or number", repr(text[pos]))
        if m.lastgroup == "word":
            tokens.append(_Token("word", m.group().upper(), pos))
        elif m.lastgroup == "number":
            tokens.append(_Token("number", m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class CircleSpec:
    frame: str
    center: tuple[float, ...]  # (ra, dec) or (x, y, z)
    radius_arcmin: float


@dataclass(frozen=True)
class RectSpec:
    frame: str
    corner1: tuple[float, float]
    corner2: tuple[float, float]


@dataclass(frozen=True)
class PolySpec:
    frame: str
    points: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class HullSpec:
    frame: str
    points: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ConvexSpec:
    constraints: tuple[tuple[float, float, float, float], ...]


@dataclass(frozen=True)
class RegionSpec:
    convexes: tuple[ConvexSpec, ...]


AreaSpec = CircleSpec | RectSpec | PolySpec | HullSpec | ConvexSpec | RegionSpec


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise RegionSyntaxError(tok.offset, expected, found)

    def expect_word(self, *words: str) -> str:
        tok = self.peek()
        if tok.kind != "word" or tok.text not in words:
            self.fail(" or ".join(words))
        return self.advance().text

    def number(self) -> float:
        tok = self.peek()
        if tok.kind != "number":
            self.fail("a number")
        return float(self.advance().text)

    def numbers_until_keyword(self) -> list[float]:
        out = []
        while self.peek().kind == "number":
            out.append(self.number())
        return out

    def frame(self) -> str:
        tok = self.peek()
        if tok.kind != "word":
            self.fail("a frame keyword (J2000 or CARTESIAN)")
        if tok.text not in FRAMES:
            raise RegionSyntaxError(
                tok.offset, "frame keyword J2000 or CARTESIAN", repr(tok.text)
            )
        return self.advance().text

    def parse(self) -> AreaSpec:
        kw = self.expect_word("CIRCLE", "RECT", "POLY", "CHULL", "CONVEX", "REGION")
        node = getattr(self, "_parse_" + kw.lower())()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail("end of input")
        return node

    def _group(self, values: list[float], width: int, what: str, minimum: int):
        tok = self.peek()
        if len(values) % width != 0:
            raise RegionSyntaxError(
                tok.offset,
                f"a multiple of {width} numbers for {what}",
                f"{len(values)} numbers",
            )
        groups = tuple(
            tuple(values[k : k + width]) for k in range(0, len(values), width)
        )
        if len(groups) < minimum:
            raise RegionSyntaxError(
                tok.offset,
                f"at least {minimum} {what}",
                f"{len(groups)}",
            )
        return groups

    def _parse_circle(self) -> CircleSpec:
        frame = self.frame()
        vals = self.numbers_until_keyword()
        want = 3 if frame == "J2000" else 4
        if len(vals) != want:
            self.fail(f"{want} numbers after CIRCLE {frame}")
        return CircleSpec(frame, tuple(vals[:-1]), vals[-1])

    def _parse_rect(self) -> RectSpec:
        frame_tok = self.peek()
        frame = self.frame()
        if frame != "J2000":
            raise RegionSyntaxError(frame_tok.offset, "J2000 (RECT is J2000-only)", frame)
        vals = self.numbers_until_keyword()
        if len(vals) != 4:
            self.fail("4 numbers (two ra dec corners) after RECT J2000")
        return RectSpec(frame, (vals[0], vals[1]), (vals[2], vals[3]))

    def _parse_poly(self) -> PolySpec:
        frame = self.frame()
        width = 2 if frame == "J2000" else 3
        vals = self.numbers_until_keyword()
        return PolySpec(frame, self._group(vals, width, "polygon points", 3))

    def _parse_chull(self) -> HullSpec:
        frame = self.frame()
        width = 2 if frame == "J2000" else 3
        vals = self.numbers_until_keyword()
        return HullSpec(frame, self._group(vals, width, "hull points", 3))

    def _parse_convex(self) -> ConvexSpec:
        vals = self.numbers_until_keyword()
        return ConvexSpec(self._group(vals, 4, "constraint 4-tuples (x y z d)", 1))

    def _parse_region(self) -> RegionSpec:
        convexes = []
        while self.peek().kind == "word" and self.peek().text == "CONVEX":
            self.advance()
            convexes.append(self._parse_convex())
        return RegionSpec(tuple(convexes))


def parse_region_spec(text: str) -> AreaSpec:
    """Parse a region grammar string into its AST. Raises RegionSyntaxError."""
    return _Parser(text).parse()


# -- compilation -----------------------------------------------------------


class RegionCompileError(ValueError):
    """The parsed spec cannot be realized as a convex geometry."""


def _point_to_vec(frame: str, values: tuple[float, ...]) -> UnitVec3:
    if frame == "J2000":
        ra, dec = values
        try:
            return sky_to_vec(SkyPoint(ra, dec))
        except GeometryError as exc:
            raise RegionCompileError(str(exc)) from exc
    x, y, z = values
    try:
        return UnitVec3.normalized(x, y, z)
    except GeometryError as exc:
        raise RegionCompileError(str(exc)) from exc


def _hemisphere_witness(vecs: list[UnitVec3]) -> UnitVec3:
    """A unit vector w with w . v comfortably positive for every input,
    or raise. Gnomonic projection about w needs the strict margin."""
    w = closed_hemisphere_witness(vecs, margin=1e-7)
    if w is None:
        raise RegionCompileError("points span more than a hemisphere")
    return w


def _canonical_sign(v: UnitVec3) -> UnitVec3:
    """Flip so the first nonzero component is positive (order-independent)."""
    for comp in (v.x, v.y, v.z):
        if comp > 1e-12:
            return v
        if comp < -1e-12:
            return v.negated()
    return v


def _compile_poly(vecs: list[UnitVec3]) -> Convex:
    """One half-space per edge, each through the sphere center (l = 0).

    Planes are auto-oriented so the normalized vertex centroid is inside,
    which makes the result independent of traversal direction. Every vertex
    must then satisfy every edge plane; that rejects self-intersecting
    orderings. Two degenerate situations get deterministic treatment so
    that hemisphere-boundary triangles (equator-pole-equator) compile:
    antipodal adjacent vertices take the plane spanned by the edge axis and
    the centroid, and an edge plane containing the centroid is oriented by
    canonical sign.
    """
    sx = sum(v.x for v in vecs)
    sy = sum(v.y for v in vecs)
    sz = sum(v.z for v in vecs)
    try:
        centroid = UnitVec3.normalized(sx, sy, sz)
    except GeometryError:
        raise RegionCompileError("non-convex or over-wide polygon: degenerate vertex centroid")
    if closed_hemisphere_witness(vecs) is None:
        raise RegionCompileError("non-convex or over-wide polygon: vertices span more than a hemisphere")
    halves = []
    n = len(vecs)
    for i in range(n):
        a, b = vecs[i], vecs[(i + 1) % n]
        cx, cy, cz = a.cross(b)
        norm = math.sqrt(cx * cx + cy * cy + cz * cz)
        if norm < 1e-12:
            if a.dot(b) > 0.0:
                raise RegionCompileError(f"degenerate polygon edge {i}: duplicate adjacent vertices")
            # antipodal endpoints: any plane through them works; take the
            # one holding the centroid on its boundary-normal side
            px = centroid.x - centroid.dot(a) * a.x
            py = centroid.y - centroid.dot(a) * a.y
            pz = centroid.z - centroid.dot(a) * a.z
            pn = math.sqrt(px * px + py * py + pz * pz)
            if pn < 1e-12:
                raise RegionCompileError(
                    f"degenerate polygon edge {i}: antipodal vertices with no resolvable plane"
                )
            normal = UnitVec3(px / pn, py / pn, pz / pn)
        else:
            normal = UnitVec3(cx / norm, cy / norm, cz / norm)
            d = centroid.dot(normal)
            if d < -1e-12:
                normal = normal.negated()
            elif d <= 1e-12:
                normal = _canonical_sign(normal)
        halves.append(HalfSpace(normal, 0.0))
    for v in vecs:
        for h in halves:
            if v.dot(h.normal) < -1e-9:
                raise RegionCompileError("non-convex or over-wide polygon")
    return Convex(tuple(halves))


def _monotone_chain(points2d: list[tuple[float, float, int]]) -> list[int]:
    """Indices of the 2D convex hull, counterclockwise. Input (u, v, index)."""
    pts = sorted(points2d)
    if len(pts) < 3:
        raise RegionCompileError("hull needs at least 3 distinct points")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise RegionCompileError("hull is degenerate (collinear points)")
    return [p[2] for p in hull]


def _compile_chull(vecs: list[UnitVec3]) -> Convex:
    w = _hemisphere_witness(vecs)
    # Gnomonic projection onto the tangent plane at the witness: great
    # circles map to straight lines, so the planar hull gives the
    # spherical hull's extreme points in order.
    if abs(w.x) <= abs(w.y) and abs(w.x) <= abs(w.z):
        seed = UnitVec3(1.0, 0.0, 0.0)
    elif abs(w.y) <= abs(w.z):
        seed = UnitVec3(0.0, 1.0, 0.0)
    else:
        seed = UnitVec3(0.0, 0.0, 1.0)
    ux, uy, uz = w.cross(seed)
    u = UnitVec3.normalized(ux, uy, uz)
    vx, vy, vz = w.cross(u)
    vaxis = UnitVec3.normalized(vx, vy, vz)
    projected = []
    for idx, p in enumerate(vecs):
        t = p.dot(w)
        projected.append((p.dot(u) / t, p.dot(vaxis) / t, idx))
    hull_idx = _monotone_chain(projected)
    hull = [vecs[i] for i in hull_idx]
    halves = []
    m = len(hull)
    for i in range(m):
        a, b = hull[i], hull[(i + 1) % m]
        cx, cy, cz = a.cross(b)
        normal = UnitVec3.normalized(cx, cy, cz)
        if w.dot(normal) < 0.0:
            normal = normal.negated()
        halves.append(HalfSpace(normal, 0.0))
    for p in vecs:
        for h in halves:
            if p.dot(h.normal) < -1e-9:
                raise RegionCompileError("hull construction failed to contain an input point")
    return Convex(tuple(halves))


def _compile_rect(spec: RectSpec) -> Convex:
    ra1, dec1 = spec.corner1
    ra2, dec2 = spec.corner2
    ra_min, ra_max = sorted((ra1, ra2))
    dec_min, dec_max = sorted((dec1, dec2))
    if not (-90.0 <= dec_min and dec_max <= 90.0):
        raise RegionCompileError("RECT dec corner out of [-90, 90]")
    if ra_max - ra_min >= 180.0:
        raise RegionCompileError("RECT ra width must be < 180 degrees")
    if ra_max == ra_min or dec_max == dec_min:
        raise RegionCompileError("RECT corners must span a nonzero area")
    rmin = math.radians(ra_min)
    rmax = math.radians(ra_max)
    halves = (
        # dec >= dec_min and dec <= dec_max as small circles about the poles
        HalfSpace(UnitVec3(0.0, 0.0, 1.0), math.sin(math.radians(dec_min))),
        HalfSpace(UnitVec3(0.0, 0.0, -1.0), -math.sin(math.radians(dec_max))),
        # meridian half-planes: sin(ra - ra_min) > 0 and sin(ra_max - ra) > 0
        HalfSpace(UnitVec3.normalized(-math.sin(rmin), math.cos(rmin), 0.0), 0.0),
        HalfSpace(UnitVec3.normalized(math.sin(rmax), -math.cos(rmax), 0.0), 0.0),
    )
    return Convex(halves)


def _compile_convex_spec(spec: ConvexSpec) -> Convex:
    halves = []
    for x, y, z, d in spec.constraints:
        if not (-1.0 <= d <= 1.0):
            raise RegionCompileError(f"constraint length {d!r} outside [-1, 1]")
        try:
            normal = UnitVec3.normalized(x, y, z)
        except GeometryError as exc:
            raise RegionCompileError(f"constraint normal: {exc}") from exc
        halves.append(HalfSpace(normal, d))
    return Convex(tuple(halves))


def compile_to_region(ast: AreaSpec) -> Region:
    """Compile a parsed spec into a geometry Region."""
    if isinstance(ast, CircleSpec):
        center = _point_to_vec(ast.frame, ast.center)
        if not 0.0 <= ast.radius_arcmin <= 180.0 * 60.0:
            raise RegionCompileError(
                f"circle radius must be within [0, 10800] arcmin: {ast.radius_arcmin!r}"
            )
        h = circle_to_halfspace(center, ast.radius_arcmin / 60.0)
        return Region((Convex((h,)),))
    if isinstance(ast, RectSpec):
        return Region((_compile_rect(ast),))
    if isinstance(ast, PolySpec):
        vecs = [_point_to_vec(ast.frame, p) for p in ast.points]
        return Region((_compile_poly(vecs),))
    if isinstance(ast, HullSpec):
        vecs = [_point_to_vec(ast.frame, p) for p in ast.points]
        return Region((_compile_chull(vecs),))
    if isinstance(ast, ConvexSpec):
        return Region((_compile_convex_spec(ast),))
    if isinstance(ast, RegionSpec):
        return Region(tuple(_compile_convex_spec(c) for c in ast.convexes))
    raise TypeError(f"not a region spec AST: {ast!r}")


def compile_region_string(text: str) -> Region:
    """parse + compile in one step."""
    return compile_to_region(parse_region_spec(text))


# -- serialization ---------------------------------------------------------


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def serialize_region(r: Region) -> str:
    """Canonical lossless form: REGION {CONVEX {x y z d}+}*.

    A convex with no constraints means the whole sphere, which a single
    CONVEX group cannot express (the grammar requires one constraint, and
    any single cap excludes at least a point). It is emitted as the union
    of two complementary near-full caps, which is membership-exact.
    """
    parts = ["REGION"]
    for c in r.convexes:
        if not c.constraints:
            parts.extend(["CONVEX", "0", "0", "1", "-1", "CONVEX", "0", "0", "-1", "-1"])
            continue
        parts.append("CONVEX")
        for h in c.constraints:
            parts.append(_fmt(h.normal.x))
            parts.append(_fmt(h.normal.y))
            parts.append(_fmt(h.normal.z))
            parts.append(_fmt(h.l))
    return " ".join(parts)
