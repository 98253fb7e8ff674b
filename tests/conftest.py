"""Shared fixtures: seeded samplers and the grammar test corpus."""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from skyindex.geom import SkyPoint, UnitVec3, sky_to_vec

# `pytest --hypothesis-profile=ci` replays the same examples on every run
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


def edge_ra(reach: float = 2.0):
    """ra in [0, 360), biased to 0 and to just under 360, where scan
    windows wrap."""
    return st.one_of(
        st.floats(0.0, 360.0, exclude_max=True),
        st.floats(0.0, reach),
        st.floats(360.0 - reach, 360.0, exclude_max=True),
        st.sampled_from([0.0, 1e-12, 180.0, 360.0 - 1e-12, math.nextafter(360.0, 0.0)]),
    )


def edge_dec(zone_height: float):
    """dec in [-90, 90], biased to the poles and to the zone edges."""
    edges = int(math.ceil(180.0 / zone_height))
    return st.one_of(
        st.floats(-90.0, 90.0),
        st.floats(89.0, 90.0),
        st.floats(-90.0, -89.0),
        st.sampled_from([-90.0, 90.0, 0.0]),
        st.integers(0, edges).map(lambda k: min(90.0, -90.0 + k * zone_height)),
    )


def near_max_radius(max_radius: float):
    """Radii in (0, max_radius], biased to max_radius itself."""
    return st.one_of(
        st.floats(0.0, max_radius, exclude_min=True),
        st.floats(0.9 * max_radius, max_radius),
        st.just(max_radius),
        st.just(math.nextafter(max_radius, 0.0)),
    )


@st.composite
def edge_sky(draw, zone_height: float, max_rows: int = 40):
    """(ra, dec) arrays of a small catalog biased to the zone-scan edges."""
    n = draw(st.integers(1, max_rows))
    ra = draw(st.lists(edge_ra(), min_size=n, max_size=n))
    dec = draw(st.lists(edge_dec(zone_height), min_size=n, max_size=n))
    return np.array(ra), np.array(dec)


def unit_vec_from(z: float, az: float) -> UnitVec3:
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return UnitVec3.normalized(s * math.cos(az), s * math.sin(az), z)


def sample_sphere(rng, n: int) -> list[UnitVec3]:
    zs = rng.uniform(-1.0, 1.0, n)
    azs = rng.uniform(0.0, 2.0 * math.pi, n)
    return [unit_vec_from(float(z), float(az)) for z, az in zip(zs, azs)]


def sample_cap(rng, center: UnitVec3, radius_deg: float, n: int) -> list[UnitVec3]:
    """Uniform points within the cap of the given angular radius."""
    t1, t2 = tangent_basis(center)
    cos_r = math.cos(math.radians(min(radius_deg, 180.0)))
    out = []
    for _ in range(n):
        z = float(rng.uniform(cos_r, 1.0))
        az = float(rng.uniform(0.0, 2.0 * math.pi))
        s = math.sqrt(max(0.0, 1.0 - z * z))
        out.append(
            UnitVec3.normalized(
                center.x * z + s * (t1.x * math.cos(az) + t2.x * math.sin(az)),
                center.y * z + s * (t1.y * math.cos(az) + t2.y * math.sin(az)),
                center.z * z + s * (t1.z * math.cos(az) + t2.z * math.sin(az)),
            )
        )
    return out


def tangent_basis(v: UnitVec3) -> tuple[UnitVec3, UnitVec3]:
    if abs(v.z) < 0.9:
        t1 = UnitVec3.normalized(-v.y, v.x, 0.0)
    else:
        t1 = UnitVec3.normalized(v.z, 0.0, -v.x)
    c = np.cross(v.as_tuple(), t1.as_tuple())
    return t1, UnitVec3.normalized(*c)


def rotate_toward(center: UnitVec3, angle_deg: float, az: float) -> UnitVec3:
    t1, t2 = tangent_basis(center)
    a = math.radians(angle_deg)
    s, c = math.sin(a), math.cos(a)
    return UnitVec3.normalized(
        center.x * c + s * (t1.x * math.cos(az) + t2.x * math.sin(az)),
        center.y * c + s * (t1.y * math.cos(az) + t2.y * math.sin(az)),
        center.z * c + s * (t1.z * math.cos(az) + t2.z * math.sin(az)),
    )


CANONICAL_SPECS = [
    "CIRCLE J2000 30 20 3",
    "POLY J2000 0 0 0 90 180 0",
    "CIRCLE CARTESIAN 1 0 0 3",
]


def _fmt(v: float) -> str:
    return repr(float(v))


def _convex_poly_points(rng, k: int, spread_deg: float):
    """Vertices on a small circle around a random center: always convex."""
    z = rng.uniform(-0.95, 0.95)
    center = unit_vec_from(float(z), float(rng.uniform(0, 2 * math.pi)))
    rho = rng.uniform(1.0, spread_deg)
    azs = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
    if np.max(np.diff(np.concatenate([azs, [azs[0] + 2 * math.pi]]))) >= math.pi:
        azs = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False) + azs[0]
    return [rotate_toward(center, rho, float(a)) for a in azs]


def generate_corpus_specs(seed: int, count: int) -> list[str]:
    """>= count generated grammar strings plus the canonical examples."""
    rng = np.random.default_rng(seed)
    specs = list(CANONICAL_SPECS)
    kinds = ["circle_eq", "circle_xyz", "rect", "poly_eq", "poly_xyz", "chull", "convex", "region"]
    while len(specs) < count + len(CANONICAL_SPECS):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "circle_eq":
            specs.append(
                f"CIRCLE J2000 {_fmt(rng.uniform(0, 360))} "
                f"{_fmt(math.degrees(math.asin(rng.uniform(-1, 1))))} "
                f"{_fmt(rng.uniform(0.5, 5400))}"
            )
        elif kind == "circle_xyz":
            v = sample_sphere(rng, 1)[0]
            specs.append(
                f"CIRCLE CARTESIAN {_fmt(v.x)} {_fmt(v.y)} {_fmt(v.z)} "
                f"{_fmt(rng.uniform(0.5, 5400))}"
            )
        elif kind == "rect":
            ra1 = rng.uniform(0, 340)
            ra2 = ra1 + rng.uniform(0.5, min(170.0, 359.0 - ra1))
            dec1 = rng.uniform(-89, 88)
            dec2 = dec1 + rng.uniform(0.5, 89 - dec1 if dec1 < 88 else 1)
            specs.append(
                f"RECT J2000 {_fmt(ra1)} {_fmt(dec1)} {_fmt(ra2)} {_fmt(dec2)}"
            )
        elif kind in ("poly_eq", "poly_xyz"):
            pts = _convex_poly_points(rng, int(rng.integers(3, 9)), 55.0)
            if kind == "poly_eq":
                from skyindex.geom import vec_to_sky

                body = " ".join(
                    f"{_fmt(vec_to_sky(p).ra)} {_fmt(vec_to_sky(p).dec)}" for p in pts
                )
                specs.append(f"POLY J2000 {body}")
            else:
                body = " ".join(f"{_fmt(p.x)} {_fmt(p.y)} {_fmt(p.z)}" for p in pts)
                specs.append(f"POLY CARTESIAN {body}")
        elif kind == "chull":
            z = rng.uniform(-0.9, 0.9)
            center = unit_vec_from(float(z), float(rng.uniform(0, 2 * math.pi)))
            cloud = sample_cap(rng, center, float(rng.uniform(2, 55)), int(rng.integers(3, 13)))
            body = " ".join(f"{_fmt(p.x)} {_fmt(p.y)} {_fmt(p.z)}" for p in cloud)
            specs.append(f"CHULL CARTESIAN {body}")
        elif kind == "convex":
            k = int(rng.integers(1, 5))
            parts = []
            for _ in range(k):
                v = sample_sphere(rng, 1)[0]
                parts.append(
                    f"{_fmt(v.x)} {_fmt(v.y)} {_fmt(v.z)} {_fmt(rng.uniform(-0.9, 0.95))}"
                )
            specs.append("CONVEX " + " ".join(parts))
        else:
            groups = []
            for _ in range(int(rng.integers(1, 4))):
                k = int(rng.integers(1, 4))
                parts = []
                for _ in range(k):
                    v = sample_sphere(rng, 1)[0]
                    parts.append(
                        f"{_fmt(v.x)} {_fmt(v.y)} {_fmt(v.z)} {_fmt(rng.uniform(-0.9, 0.95))}"
                    )
                groups.append("CONVEX " + " ".join(parts))
            specs.append("REGION " + " ".join(groups))
    return specs


def add_region(store, region, rtype="r", comment=""):
    """Store a compiled Region's constraints as a new region; its id."""
    rid = store.region_new(rtype, comment)
    for convex in region.convexes:
        cid = store.region_new_convex(rid)
        for h in convex.constraints:
            store.region_new_convex_constraint(
                rid, cid, h.normal.x, h.normal.y, h.normal.z, h.l
            )
    return rid


def membership_with_guard(region, p, guard=1e-11):
    """inside_region, or None when p sits within the guard band of any
    constraint boundary (strict-inequality edges are legitimately unstable)."""
    from skyindex.geom import inside_region

    for convex in region.convexes:
        for h in convex.constraints:
            if abs(p.dot(h.normal) - h.l) < guard:
                return None
    return inside_region(region, p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def corpus_specs():
    return generate_corpus_specs(seed=1234, count=32)


@pytest.fixture(scope="session")
def corpus_regions(corpus_specs):
    from skyindex.regionspec import compile_region_string

    return [(s, compile_region_string(s)) for s in corpus_specs]
