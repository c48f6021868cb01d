"""Geometry layer: footprint predicates checked against independent oracles.

``geometry.overlaps`` and ``geometry.contains`` take ``Bounds``; the ``Rect``
forms and ``translate``, ``sweep`` and ``axis_extent`` are the test suite's
own references in ``oracles`` and are property-tested here too.
"""

import dataclasses
import inspect
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import axis_extent, sweep, translate
from pushplan.geometry import (
    HalfDims,
    Rect,
    Side,
    Vec2,
    axis_coord,
    bounds_extent,
    contains,
    overlaps,
    perp_coord,
    rect_from_center,
)
from pushplan.metrics import CostBreakdown
from pushplan.scene import PickPlace

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
extents = st.floats(min_value=1e-3, max_value=3.0, allow_nan=False, allow_infinity=False)
sides = st.sampled_from(list(Side))


@st.composite
def rects(draw):
    cx, cy = draw(coords), draw(coords)
    w, h = draw(extents), draw(extents)
    return Rect(Vec2(cx - w / 2, cy - h / 2), Vec2(cx + w / 2, cy + h / 2))


def intersection_area(r1: Rect, r2: Rect) -> float:
    # independent oracle: clip widths on each axis separately
    w = min(r1.hi.x, r2.hi.x) - max(r1.lo.x, r2.lo.x)
    h = min(r1.hi.y, r2.hi.y) - max(r1.lo.y, r2.lo.y)
    return max(0.0, w) * max(0.0, h)


class TestVec2:
    def test_arithmetic(self):
        a, b = Vec2(1.0, 2.0), Vec2(-3.0, 0.5)
        assert a + b == Vec2(-2.0, 2.5)
        assert a - b == Vec2(4.0, 1.5)
        assert a * 2.0 == Vec2(2.0, 4.0)
        assert 2.0 * a == Vec2(2.0, 4.0)

    @given(coords, coords)
    def test_norm_matches_hypot(self, x, y):
        assert Vec2(x, y).norm() == math.hypot(x, y)


def _generated_twin(cls):
    """A dataclass with ``cls``'s name and fields whose ``__init__`` the
    dataclass machinery generates."""
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, slots=True)


class TestSlotBuiltValueTypes:
    """``Vec2``, ``PickPlace`` and ``CostBreakdown`` set their slots in a
    hand-written ``__init__``.  Each still behaves as the same dataclass with
    a generated one: equality, hash, repr, pickling, keyword construction,
    ``dataclasses.replace``, signature and frozenness."""

    CASES = [
        (Vec2, (0.25, -1.5), {"y": 3.0}),
        (PickPlace, (3, Vec2(0.5, 0.1)), {"destination": Vec2(0.2, 0.7)}),
        (CostBreakdown, (0.1, 0.2, 0.3), {"lam": 2.5}),
        (CostBreakdown, (0.1, 0.2, 0.3, 0.5), {"approach": 0.7}),
    ]

    @pytest.mark.parametrize("cls, args, change", CASES, ids=["Vec2", "PickPlace", "CostBreakdown", "CostBreakdown-lam"])
    def test_behaves_like_a_generated_dataclass(self, cls, args, change):
        twin = _generated_twin(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        obj, generated = cls(*args), twin(*args)
        by_name = cls(**dict(zip(names, args)))
        assert obj == by_name and hash(obj) == hash(by_name)
        assert dataclasses.astuple(obj) == dataclasses.astuple(generated)
        assert hash(obj) == hash(generated)
        assert repr(obj) == repr(generated)
        assert cls.__match_args__ == twin.__match_args__ == tuple(names)
        assert not hasattr(obj, "__dict__")

        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is cls and back == obj and hash(back) == hash(obj)

        moved = dataclasses.replace(obj, **change)
        assert type(moved) is cls and moved != obj
        assert moved == cls(**{name: getattr(obj, name) for name in names} | change)

        def params(c):
            return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

        assert params(cls) == params(twin)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 0)
        with pytest.raises(TypeError):
            cls(*args, *args)


class TestValidation:
    def test_half_dims_must_be_positive(self):
        with pytest.raises(ValueError):
            HalfDims(0.0, 0.1)
        with pytest.raises(ValueError):
            HalfDims(0.1, -0.2)
        with pytest.raises(ValueError):
            HalfDims(math.inf, 0.1)

    def test_rect_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Rect(Vec2(0, 0), Vec2(-1, 1))
        with pytest.raises(ValueError):
            Rect(Vec2(0, 0), Vec2(1, -1))

    def test_zero_area_rect_is_legal_but_never_overlaps(self):
        line = Rect(Vec2(0, 0), Vec2(0, 1))
        assert not overlaps(line.bounds, line.bounds)
        assert not oracles.overlaps(line, line)

    def test_sweep_rejects_negative_distance(self):
        r = Rect(Vec2(0, 0), Vec2(1, 1))
        with pytest.raises(ValueError):
            sweep(r, Side.LEFT, -0.1)


# The side pushing the other way.
OPPOSITE = {Side.LEFT: Side.RIGHT, Side.RIGHT: Side.LEFT, Side.UP: Side.DOWN, Side.DOWN: Side.UP}


class TestSides:
    def test_direction_table(self):
        assert Side.LEFT.unit == Vec2(-1.0, 0.0)
        assert Side.RIGHT.unit == Vec2(1.0, 0.0)
        assert Side.UP.unit == Vec2(0.0, 1.0)
        assert Side.DOWN.unit == Vec2(0.0, -1.0)

    def test_horizontal(self):
        assert Side.LEFT.horizontal and Side.RIGHT.horizontal
        assert not Side.UP.horizontal and not Side.DOWN.horizontal

    def test_member_attributes_match_the_tables_they_replace(self):
        """``unit`` and ``horizontal`` are plain attributes of each
        member, equal to the former lookup tables and the former
        ``self in (LEFT, RIGHT)`` rule; the serialized form is unchanged."""
        units = {
            Side.LEFT: Vec2(-1.0, 0.0),
            Side.RIGHT: Vec2(1.0, 0.0),
            Side.UP: Vec2(0.0, 1.0),
            Side.DOWN: Vec2(0.0, -1.0),
        }
        for name in ("unit", "horizontal"):
            assert not isinstance(vars(Side).get(name), property), name
        for s in Side:
            assert vars(s)["unit"] == units[s]
            assert vars(s)["horizontal"] is (s in (Side.LEFT, Side.RIGHT))
            assert Side(s.value) is s
        assert [s.value for s in Side] == ["left", "right", "up", "down"]

    @given(rects(), sides)
    def test_axis_extent_flip(self, r, s):
        assert axis_extent(r, s) == bounds_extent(r.bounds, s)
        near, far = axis_extent(r, s)
        o_near, o_far = axis_extent(r, OPPOSITE[s])
        assert far == -o_near
        assert near == -o_far
        assert near < far

    @given(rects())
    def test_axis_extent_explicit(self, r):
        assert axis_extent(r, Side.RIGHT) == (r.lo.x, r.hi.x)
        assert axis_extent(r, Side.LEFT) == (-r.hi.x, -r.lo.x)
        assert axis_extent(r, Side.UP) == (r.lo.y, r.hi.y)
        assert axis_extent(r, Side.DOWN) == (-r.hi.y, -r.lo.y)

    @given(coords, coords, sides)
    def test_coord_projections(self, x, y, s):
        p = Vec2(x, y)
        assert axis_coord(p, s) == p.x * s.unit.x + p.y * s.unit.y
        assert perp_coord(p, s) == (y if s.horizontal else x)


class TestOverlaps:
    @given(rects(), rects())
    @settings(max_examples=1000)
    def test_agrees_with_area_oracle(self, r1, r2):
        want = intersection_area(r1, r2) > 0.0
        assert overlaps(r1.bounds, r2.bounds) == want
        assert oracles.overlaps(r1, r2) == want

    @given(rects(), rects())
    @settings(max_examples=1000)
    def test_symmetric(self, r1, r2):
        assert overlaps(r1.bounds, r2.bounds) == overlaps(r2.bounds, r1.bounds)

    @given(rects())
    def test_self_overlap(self, r):
        assert overlaps(r.bounds, r.bounds)

    def test_touching_edges_do_not_overlap(self):
        a = (0.0, 0.0, 1.0, 1.0)
        assert not overlaps(a, (1.0, 0.0, 2.0, 1.0))
        assert not overlaps(a, (0.0, 1.0, 1.0, 2.0))
        assert not overlaps(a, (1.0, 1.0, 2.0, 2.0))
        assert overlaps(a, (0.999999, 0.999999, 2.0, 2.0))


class TestContains:
    def test_boundary_contact_is_contained(self):
        w = (0.0, 0.0, 1.0, 1.0)
        assert contains(w, (0.0, 0.0, 0.2, 0.2))
        assert contains(w, w)
        assert not contains(w, (-1e-9, 0.0, 0.2, 0.2))
        assert not contains(w, (0.9, 0.9, 1.0 + 1e-9, 1.0))

    @given(rects(), rects())
    def test_contains_implies_overlap_or_equal(self, r1, r2):
        assert contains(r1.bounds, r2.bounds) == oracles.contains(r1, r2)
        if contains(r1.bounds, r2.bounds):
            assert overlaps(r1.bounds, r2.bounds)


def _point_in(r: Rect, p: Vec2) -> bool:
    return r.lo.x <= p.x <= r.hi.x and r.lo.y <= p.y <= r.hi.y


def _union_membership(r: Rect, side: Side, d: float, p: Vec2) -> bool:
    """Oracle: is p covered by some translate r + t*u, t in [0, d]?

    Solved as an interval intersection on t, axis by axis, with no reuse of
    the sweep implementation.
    """
    u = side.unit
    # axis with motion
    if u.x != 0.0:
        lo_t = (p.x - r.hi.x) / u.x
        hi_t = (p.x - r.lo.x) / u.x
        if u.x < 0:
            lo_t, hi_t = hi_t, lo_t
        band_ok = r.lo.y <= p.y <= r.hi.y
    else:
        lo_t = (p.y - r.hi.y) / u.y
        hi_t = (p.y - r.lo.y) / u.y
        if u.y < 0:
            lo_t, hi_t = hi_t, lo_t
        band_ok = r.lo.x <= p.x <= r.hi.x
    return band_ok and max(lo_t, 0.0) <= min(hi_t, d)


def test_sweep_equals_union_of_translates_point_oracle():
    rng = random.Random(20240817)
    cases = 0
    for _ in range(250):
        cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
        w, h = rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0)
        r = Rect(Vec2(cx - w / 2, cy - h / 2), Vec2(cx + w / 2, cy + h / 2))
        side = rng.choice(list(Side))
        d = rng.uniform(0.0, 3.0)
        swept = sweep(r, side, d)
        for _ in range(48):
            # sample around the swept region so hits and misses both occur
            p = Vec2(
                rng.uniform(swept.lo.x - 0.5, swept.hi.x + 0.5),
                rng.uniform(swept.lo.y - 0.5, swept.hi.y + 0.5),
            )
            assert _point_in(swept, p) == _union_membership(r, side, d, p)
            cases += 1
    assert cases >= 10_000


@given(rects(), sides, st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=1000)
def test_sweep_covers_endpoints(r, side, d):
    swept = sweep(r, side, d)
    assert oracles.contains(swept, r)
    end = translate(r, side.unit * d)
    assert oracles.contains(swept, end)
    # projected length grows by exactly d
    near0, far0 = axis_extent(r, side)
    near1, far1 = axis_extent(swept, side)
    assert near1 == pytest.approx(near0, abs=1e-12)
    assert far1 == pytest.approx(far0 + d, abs=1e-12)


def test_inside_translates_have_inside_sweep_bounds():
    # workspace containment of start and end poses bounds the whole sweep
    rng = random.Random(7)
    w = Rect(Vec2(0, 0), Vec2(1, 1))
    for _ in range(1000):
        a, b = rng.uniform(0.01, 0.2), rng.uniform(0.01, 0.2)
        cx = rng.uniform(a, 1 - a)
        cy = rng.uniform(b, 1 - b)
        r = rect_from_center(Vec2(cx, cy), HalfDims(a, b))
        side = rng.choice(list(Side))
        # the longest forward travel that keeps the end pose inside
        _, far = axis_extent(r, side)
        _, wfar = axis_extent(w, side)
        d = rng.uniform(0.0, max(wfar - far, 0.0))
        end = translate(r, side.unit * d)
        assert oracles.contains(w, r) and oracles.contains(w, end)
        assert oracles.contains(w, sweep(r, side, d))


class TestRectHelpers:
    @given(coords, coords, extents, extents)
    def test_rect_from_center_round_trip(self, cx, cy, a, b):
        r = rect_from_center(Vec2(cx, cy), HalfDims(a / 2, b / 2))
        assert r.center.x == pytest.approx(cx, abs=1e-9)
        assert r.center.y == pytest.approx(cy, abs=1e-9)
        assert r.width == pytest.approx(a, abs=1e-9)
        assert r.height == pytest.approx(b, abs=1e-9)

    @given(rects(), coords, coords)
    def test_translate_shifts_corners(self, r, dx, dy):
        t = translate(r, Vec2(dx, dy))
        assert t.lo.x == r.lo.x + dx and t.hi.y == r.hi.y + dy
        assert t.width == pytest.approx(r.width)
        assert t.height == pytest.approx(r.height)
