"""Axis-aligned planar geometry used throughout the planner.

All objects on the table are axis-aligned rectangles that never rotate, so
every geometric question reduces to interval arithmetic on the two axes.
Lengths are meters.  Footprints are ``Bounds``, plain float tuples
(lo.x, lo.y, hi.x, hi.y); ``Rect`` is the workspace's type.  Two conventions
matter and are relied on everywhere:

* ``overlaps`` tests *interior* intersection: footprints that merely share
  an edge or a corner do not overlap.
* ``contains`` is closed: an inner footprint may touch the outer boundary.

The search tests footprints by the hundred thousand, so its scans write
these two tests out inline, with the same comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# A rectangle as plain floats: (lo.x, lo.y, hi.x, hi.y).
Bounds = tuple[float, float, float, float]


@dataclass(frozen=True, slots=True)
class Vec2:
    """A point or displacement in the plane."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True, slots=True)
class HalfDims:
    """Half extents of a rectangular footprint along x (``a``) and y (``b``)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"half dims must be positive and finite, got a={self.a} b={self.b}")


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle given by min and max corners."""

    lo: Vec2
    hi: Vec2

    def __post_init__(self) -> None:
        if self.lo.x > self.hi.x or self.lo.y > self.hi.y:
            raise ValueError(f"degenerate rect: lo={self.lo} hi={self.hi}")

    @property
    def bounds(self) -> Bounds:
        return (self.lo.x, self.lo.y, self.hi.x, self.hi.y)

    @property
    def center(self) -> Vec2:
        return Vec2((self.lo.x + self.hi.x) / 2.0, (self.lo.y + self.hi.y) / 2.0)

    @property
    def width(self) -> float:
        return self.hi.x - self.lo.x

    @property
    def height(self) -> float:
        return self.hi.y - self.lo.y


class Side(Enum):
    """A push travel direction, named for where the pusher comes in from.

    The value doubles as the serialized form.  ``unit`` is the direction the
    pusher (and anything it shoves) moves: LEFT travels in -x, RIGHT in +x,
    UP in +y, DOWN in -y.  ``horizontal`` is True for LEFT and RIGHT, and
    ``opposite`` is the side pushing the other way.  All three are plain
    attributes of each member, set once below: the search reads them on
    every push it scans.
    """

    LEFT = "left"
    RIGHT = "right"
    UP = "up"
    DOWN = "down"

    unit: Vec2
    horizontal: bool
    opposite: "Side"


for _side, _unit, _opposite in (
    (Side.LEFT, Vec2(-1.0, 0.0), Side.RIGHT),
    (Side.RIGHT, Vec2(1.0, 0.0), Side.LEFT),
    (Side.UP, Vec2(0.0, 1.0), Side.DOWN),
    (Side.DOWN, Vec2(0.0, -1.0), Side.UP),
):
    _side.unit = _unit
    _side.horizontal = _unit.y == 0.0
    _side.opposite = _opposite
del _side, _unit, _opposite


def rect_from_center(center: Vec2, half: HalfDims) -> Rect:
    """Footprint of an object centered at ``center``."""
    return Rect(
        Vec2(center.x - half.a, center.y - half.b),
        Vec2(center.x + half.a, center.y + half.b),
    )


def bounds_from_center(center: Vec2, half: HalfDims) -> Bounds:
    """``rect_from_center(center, half).bounds``, without building the Rect."""
    return (center.x - half.a, center.y - half.b, center.x + half.a, center.y + half.b)


def overlaps(b1: Bounds, b2: Bounds) -> bool:
    """True iff the interiors of footprints ``b1`` and ``b2`` intersect
    (touching is not overlap)."""
    return b1[0] < b2[2] and b2[0] < b1[2] and b1[1] < b2[3] and b2[1] < b1[3]


def contains(outer: Bounds, inner: Bounds) -> bool:
    """True iff ``inner`` lies within ``outer``; boundary contact allowed."""
    return outer[0] <= inner[0] and outer[1] <= inner[1] and inner[2] <= outer[2] and inner[3] <= outer[3]


def axis_coord(p: Vec2, side: Side) -> float:
    """Coordinate of ``p`` along the travel axis, oriented so travel increases it."""
    u = side.unit
    return p.x * u.x + p.y * u.y


def perp_coord(p: Vec2, side: Side) -> float:
    """Coordinate of ``p`` across the travel axis."""
    return p.y if side.horizontal else p.x


def bounds_extent(b: Bounds, side: Side) -> tuple[float, float]:
    """Projection (near, far) of footprint ``b`` onto the travel axis of ``side``.

    Oriented so that far > near in the direction of travel; hence
    ``bounds_extent(b, s)[1] == -bounds_extent(b, s.opposite)[0]``.
    """
    u = side.unit
    c1 = b[0] * u.x + b[1] * u.y
    c2 = b[2] * u.x + b[3] * u.y
    return (c1, c2) if c1 <= c2 else (c2, c1)
