"""Shared fixtures: canonical layouts, random-proposal streams and cache checks."""

import itertools
import random

import pytest
from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None, max_examples=250)
settings.load_profile("suite")

from pushplan.bench import generate_scene
from pushplan.geometry import HalfDims, Rect, Vec2, rect_from_center
from pushplan.primitives import select_push
from pushplan.scene import ObjectSpec, Scene, blockers_of, is_at_goal, satisfied_count
from pushplan.seeding import derive_seed


# An offset, non-square table (1.2 m x 0.9 m): no coordinate of its corners
# or its center is 0 or 1, and its axes differ.
OFFSET_TABLE = Rect(Vec2(-2.3, 1.7), Vec2(-1.1, 2.6))


class ZeroRandom(random.Random):
    """``random()`` always returns 0.0: every draw is the lowest center."""

    def random(self):
        return 0.0


def make_swap_scene() -> Scene:
    """Two equal cubes that must trade places; each goal is blocked by the other."""
    ws = Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
    objs = (ObjectSpec(HalfDims(0.05, 0.05)), ObjectSpec(HalfDims(0.05, 0.05)))
    return Scene(
        workspace=ws,
        objects=objs,
        current=(Vec2(0.35, 0.5), Vec2(0.65, 0.5)),
        goal=(Vec2(0.65, 0.5), Vec2(0.35, 0.5)),
        tolerance=0.005,
    )


def make_chained_push_scene() -> Scene:
    """A blocker whose escape corridor is occupied by a second, innocent object.

    Object 0 wants the center; object 1 sits on that goal; object 2 sits just
    beyond object 1 in every escape direction short enough to matter, so any
    push of object 1 would shove object 2 too (a contact chain).
    """
    ws = Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
    objs = tuple(ObjectSpec(HalfDims(0.05, 0.05)) for _ in range(5))
    current = (
        Vec2(0.2, 0.2),   # target, out of the way
        Vec2(0.5, 0.5),   # blocker on the goal
        Vec2(0.34, 0.5),  # left neighbor hugging the blocker corridor
        Vec2(0.66, 0.5),  # right neighbor
        Vec2(0.5, 0.66),  # upper neighbor
    )
    goal = (
        Vec2(0.5, 0.5),
        Vec2(0.9, 0.9),
        Vec2(0.34, 0.5),
        Vec2(0.66, 0.5),
        Vec2(0.5, 0.66),
    )
    return Scene(ws, objs, current, goal, 0.005)


def make_edge_push_scene() -> Scene:
    """A blocker so close to the table edge that every push runs out of room.

    The goal sits in a corner pocket: pushing the blocker outward on either
    axis would leave it within the edge margin (or off the table), and the
    inward directions are walled off by parked objects.
    """
    ws = Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
    objs = tuple(ObjectSpec(HalfDims(0.05, 0.05)) for _ in range(4))
    current = (
        Vec2(0.5, 0.2),    # target, elsewhere
        Vec2(0.93, 0.93),  # blocker in the corner, on the goal
        Vec2(0.75, 0.93),  # wall blocking a push toward the interior (left)
        Vec2(0.93, 0.75),  # wall blocking a push toward the interior (down)
    )
    goal = (
        Vec2(0.93, 0.93),
        Vec2(0.2, 0.5),
        Vec2(0.75, 0.93),
        Vec2(0.93, 0.75),
    )
    return Scene(ws, objs, current, goal, 0.005)


@pytest.fixture
def swap_scene() -> Scene:
    return make_swap_scene()


@pytest.fixture
def chained_push_scene() -> Scene:
    return make_chained_push_scene()


@pytest.fixture
def edge_push_scene() -> Scene:
    return make_edge_push_scene()


def iter_admissible_proposals(tag: str):
    """Yield (scene, proposal) pairs mined from random scenes, indefinitely."""
    for k in itertools.count():
        n = 3 + (k % 6)
        scene = generate_scene(n, derive_seed("proposal-stream", tag, k))
        for target in scene.unsatisfied:
            if not blockers_of(scene, target):
                continue
            proposal = select_push(scene, target)
            if proposal is not None:
                yield scene, proposal


def take_proposals(tag: str, count: int):
    return list(itertools.islice(iter_admissible_proposals(tag), count))


def rebuilt(scene: Scene) -> Scene:
    """The scene the constructor builds from ``scene``'s fields."""
    return Scene(scene.workspace, scene.objects, scene.current, scene.goal, scene.tolerance)


def corners(r: Rect) -> tuple[float, float, float, float]:
    return (r.lo.x, r.lo.y, r.hi.x, r.hi.y)


def cost_bits(costs) -> list[tuple[str, ...]]:
    """Every field of each ``CostBreakdown`` in ``costs`` as its exact hex form."""
    return [tuple(v.hex() for v in (c.approach, c.pick, c.transfer, c.lam)) for c in costs]


def assert_cache_exact(scene: Scene) -> None:
    """Every cached float tuple is ``rect_from_center``'s corners, exactly,
    and ``unsatisfied`` holds the ids of the objects ``is_at_goal`` rejects,
    ascending."""
    assert len(scene.footprints) == len(scene.goal_footprints) == scene.n
    for i in range(scene.n):
        want = rect_from_center(scene.current[i], scene.objects[i].half)
        want_goal = rect_from_center(scene.goal[i], scene.objects[i].half)
        assert scene.footprints[i] == corners(want)
        assert scene.goal_footprints[i] == corners(want_goal)
    pending = tuple(i for i in range(scene.n) if not is_at_goal(scene, i))
    assert scene.unsatisfied == pending
    assert satisfied_count(scene) == scene.n - len(pending)
