"""Push-assisted placement: side selection, admissibility, and buffer poses.

A push proposal sweeps the grasped target in a straight line through its goal
region, shoving every blocker ahead of its leading face until the region is
clear, then sets the target down on the goal.  A side is admissible only when
the maneuver provably touches nothing but the blockers and strands nothing
near a table edge:

* each blocker, shifted along the side, stays on the table with a margin;
* the corridor each blocker sweeps is empty, so no contact chains form;
* the target fits at the pre-push pose and its own approach corridor is
  empty of everything except the blockers it is about to push.

Sides are tried in a fixed order and the first admissible one wins, so at
most four sides are ever evaluated and each side does work linear in the
number of blockers.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .geometry import (
    Side,
    Vec2,
    axis_coord,
    axis_extent,
    overlaps,
    rect_from_center,
    sweep,
    translate,
)
from .scene import (
    DEFAULT_CLEARANCE,
    InfeasibleActionError,
    PushPlace,
    Scene,
    blockers_of,
    placement_conflict,
    unsatisfied_ids,
)

# The push geometry is fixed, not configured, so a plan replays as it was planned.
# Planning keeps every pushed blocker this far from the table edges (meters);
# validation waives the margin, since feasibility only needs the table.
DEFAULT_EDGE_MARGIN = 0.01
# Sides are tried in this order; the first admissible one wins.
DEFAULT_SIDE_ORDER = (Side.LEFT, Side.RIGHT, Side.UP, Side.DOWN)
# Buffer sampling gives up after this many rejected draws.
BUFFER_MAX_ATTEMPTS = 100


@dataclass(slots=True)
class PushStats:
    """Work counters for the admissibility scan, for complexity assertions."""

    sides_evaluated: int = 0
    pair_checks: int = 0
    p0_checks: int = 0


@dataclass(frozen=True, slots=True)
class PushProposal:
    """An admissible push: where to start, which way to sweep, who moves how far."""

    target: int
    side: Side
    pre_push: Vec2
    blocker_moves: tuple[tuple[int, float], ...]

    def as_action(self) -> PushPlace:
        return PushPlace(self.target, self.side, self.pre_push)


def corridor_clear(
    scene: Scene,
    blocker: int,
    side: Side,
    displacement: float,
    exclude: frozenset[int] = frozenset(),
) -> bool:
    """True iff the region ``blocker`` sweeps while displaced is empty.

    The blocker itself is always ignored; callers additionally pass the
    grasped target in ``exclude`` since it is held above the table.  Other
    blockers are *not* excluded: a blocker in another's path is exactly the
    contact chain this check exists to reject.
    """
    region = sweep(scene.footprint(blocker), side, displacement)
    for j in range(scene.n):
        if j == blocker or j in exclude:
            continue
        if overlaps(region, scene.footprint(j)):
            return False
    return True


def edge_safe(scene: Scene, blocker: int, side: Side, displacement: float, margin: float) -> bool:
    """True iff the blocker's post-push footprint keeps ``margin`` from every table edge."""
    r = translate(scene.footprint(blocker), side.unit * displacement)
    w = scene.workspace
    return (
        r.lo.x >= w.lo.x + margin
        and r.lo.y >= w.lo.y + margin
        and r.hi.x <= w.hi.x - margin
        and r.hi.y <= w.hi.y - margin
    )


def _half_along(scene: Scene, obj: int, side: Side) -> float:
    half = scene.objects[obj].half
    return half.a if side.horizontal else half.b


def _evaluate_side(
    scene: Scene,
    target: int,
    blockers: Sequence[int],
    side: Side,
    edge_margin: float,
    stats: Optional[PushStats],
) -> tuple[Optional[PushProposal], str]:
    """Try one side with ``blockers`` (``target``'s, ascending) kept
    ``edge_margin`` from the table edges; return (proposal, "") or (None, reason)."""
    if stats is not None:
        stats.sides_evaluated += 1
    goal_pose = scene.goal[target]
    goal_far = axis_extent(scene.goal_footprint(target), side)[1]
    grasped = frozenset((target,))

    moves: list[tuple[int, float]] = []
    for b in blockers:
        # Travel that puts the blocker's trailing face one clearance past the
        # goal region's far edge: strictly positive, since ``b`` overlaps it.
        near = axis_extent(scene.footprint(b), side)[0]
        d = goal_far - near + DEFAULT_CLEARANCE
        if stats is not None:
            stats.pair_checks += 1
        if not edge_safe(scene, b, side, d, edge_margin):
            return None, f"blocker {b} would end within {edge_margin} m of a table edge"
        if not corridor_clear(scene, b, side, d, exclude=grasped):
            return None, f"push corridor of blocker {b} is not empty"
        moves.append((b, d))

    # Post-push footprints need no pairwise check: every trailing face ends at
    # ``goal_far`` plus the clearance, so two blockers could only collide if
    # they overlap laterally, and then the rear one's corridor met the front one.

    # Pre-push pose: leading face one clearance behind the outermost blocker,
    # i.e. the one protruding farthest toward the approach.  That puts the
    # target behind every blocker so a single sweep collects them all.
    min_near = min(axis_extent(scene.footprint(b), side)[0] for b, _ in moves)
    h = _half_along(scene, target, side)
    p0_axis = (min_near - DEFAULT_CLEARANCE) - h
    goal_axis = axis_coord(goal_pose, side)
    p0 = goal_pose + side.unit * (p0_axis - goal_axis)

    if stats is not None:
        stats.p0_checks += 1
    p0_rect = rect_from_center(p0, scene.objects[target].half)
    why = placement_conflict(scene, target, p0_rect)
    if why:
        return None, f"pre-push footprint {why}"

    # The target's own sweep (through the goal plus the clearance overshoot)
    # may touch blockers only.
    travel = (goal_axis - p0_axis) + DEFAULT_CLEARANCE
    approach = sweep(p0_rect, side, travel)
    blocker_set = frozenset(b for b, _ in moves)
    for j in range(scene.n):
        if j == target or j in blocker_set:
            continue
        if overlaps(approach, scene.footprint(j)):
            return None, f"approach corridor is blocked by non-blocker object {j}"

    return PushProposal(target, side, p0, tuple(moves)), ""


def push_on_side(
    scene: Scene,
    target: int,
    blockers: Sequence[int],
    side: Side,
    stats: Optional[PushStats] = None,
) -> Optional[PushProposal]:
    """The push of ``target`` along ``side`` as planning admits it, or None.

    ``blockers`` are ``target``'s, ascending and not empty.  Every pushed
    blocker must end ``DEFAULT_EDGE_MARGIN`` from the table edges.
    """
    proposal, _ = _evaluate_side(scene, target, blockers, side, DEFAULT_EDGE_MARGIN, stats)
    return proposal


def select_push(
    scene: Scene,
    target: int,
    stats: Optional[PushStats] = None,
    *,
    blockers: Optional[Sequence[int]] = None,
) -> Optional[PushProposal]:
    """First admissible push for ``target``, trying sides in ``DEFAULT_SIDE_ORDER``.

    ``blockers`` are ``target``'s, ascending, for a caller that has them
    already; they are derived from ``scene`` when omitted.  Returns None when
    no side is admissible.  Raises ValueError when the target's goal region
    has no blockers (there is nothing to push).
    """
    if blockers is None:
        blockers = sorted(blockers_of(scene, target))
    if not blockers:
        raise ValueError(f"object {target} has no blockers; a plain placement suffices")
    for side in DEFAULT_SIDE_ORDER:
        proposal = push_on_side(scene, target, blockers, side, stats)
        if proposal is not None:
            return proposal
    return None


def validate_push_action(scene: Scene, action: PushPlace) -> PushProposal:
    """Re-derive the proposal for an action and check the action matches it.

    Validation uses a zero edge margin: the margin is a planning-time safety
    buffer, while feasibility only requires everything to stay on the table.
    Raises InfeasibleActionError naming the violated condition.
    """
    blockers = sorted(blockers_of(scene, action.object))
    if not blockers:
        raise InfeasibleActionError(
            f"push of object {action.object} with no blockers in its goal region"
        )
    proposal, reason = _evaluate_side(scene, action.object, blockers, action.side, 0.0, None)
    if proposal is None:
        raise InfeasibleActionError(
            f"push of object {action.object} along side '{action.side.value}' is inadmissible: {reason}"
        )
    if (proposal.pre_push - action.pre_push).norm() > 1e-9:
        raise InfeasibleActionError(
            f"pre-push pose {action.pre_push} does not match the admissible pose "
            f"{proposal.pre_push} for side '{action.side.value}'"
        )
    return proposal


def sample_buffer_pose(scene: Scene, obj: int, rng: random.Random) -> Optional[Vec2]:
    """Uniformly sample a parking pose for ``obj`` by rejection.

    The pose must keep the footprint on the table, overlap no other object's
    current footprint, and overlap no goal footprint of an object that still
    has somewhere to be (parking on top of pending goals just creates new
    blockers).  Returns None after ``BUFFER_MAX_ATTEMPTS`` rejections.
    """
    half = scene.objects[obj].half
    a, b = half.a, half.b
    w = scene.workspace
    xlo, xhi = w.lo.x + a, w.hi.x - a
    ylo, yhi = w.lo.y + b, w.hi.y - b
    if xlo > xhi or ylo > yhi:
        return None
    # Obstacles as (lo.x, hi.x, lo.y, hi.y); a pose is rejected when its
    # footprint's interior meets one, exactly as ``overlaps`` decides.
    rects = [scene.footprint(j) for j in range(scene.n) if j != obj]
    rects += [scene.goal_footprint(j) for j in unsatisfied_ids(scene)]
    obstacles = [(r.lo.x, r.hi.x, r.lo.y, r.hi.y) for r in rects]
    uniform = rng.uniform
    for _ in range(BUFFER_MAX_ATTEMPTS):
        x = uniform(xlo, xhi)
        y = uniform(ylo, yhi)
        lx, hx, ly, hy = x - a, x + a, y - b, y + b
        for olx, ohx, oly, ohy in obstacles:
            if lx < ohx and olx < hx and ly < ohy and oly < hy:
                break
        else:
            return Vec2(x, y)
    return None
