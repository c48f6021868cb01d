"""Push-assisted placement: side selection, admissibility, and free poses.

A push proposal sweeps the grasped target in a straight line through its goal
region, shoving every blocker ahead of its leading face until the region is
clear, then sets the target down on the goal.  A side is admissible only when
the maneuver provably touches nothing but the blockers and strands nothing
near a table edge:

* each blocker's footprint where it lands (``scene.landing``, as
  ``transition`` places it) stays on the table with a margin;
* the corridor each blocker sweeps, from its footprint to that one, is
  empty, so no contact chains form;
* the target fits at the pre-push pose and its own approach corridor, to
  one clearance past the goal, is empty of everything but the blockers.

Sides are tried in a fixed order and the first admissible one wins, so at
most four sides are ever evaluated.  Each side does O(|B|·n) overlap tests
for its |B| blockers among n objects: one corridor scan per blocker, plus
the approach scan.

Every scan here, buffer sampling included, reads footprints as ``Bounds``
(plain floats lo.x, lo.y, hi.x, hi.y) from ``Scene.footprints`` and
``Scene.goal_footprints``, and tests overlap inline on them, with the
comparisons ``geometry.overlaps`` makes.  No ``Rect`` or ``Vec2`` is built
per object scanned.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .geometry import Bounds, HalfDims, Rect, Side, Vec2, axis_coord
# ``overlaps`` and ``rect_from_center`` are not called here: the scans below
# work on ``Bounds``.  Both stay bound because perfbench's tracer and its
# tests look them up in this module.
from .geometry import overlaps, rect_from_center  # noqa: F401
from .scene import (
    DEFAULT_CLEARANCE,
    InfeasibleActionError,
    PushPlace,
    Scene,
    blockers_of,
    placement_conflict,
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


def _first_overlap(
    rects: Sequence[Bounds],
    start: Bounds,
    end: Bounds,
    own: int,
    skip: frozenset[int],
) -> Optional[int]:
    """The lowest j, neither ``own`` nor in ``skip``, whose bounds in ``rects``
    overlap the union of footprints ``start`` and ``end``, the region swept
    between them on one axis; None if none do."""
    slx, sly, shx, shy = start
    elx, ely, ehx, ehy = end
    lx = elx if elx < slx else slx
    ly = ely if ely < sly else sly
    hx = ehx if ehx > shx else shx
    hy = ehy if ehy > shy else shy
    # ``overlaps``, inlined: this runs for every object, for every blocker of
    # every side the search evaluates.
    for j, (olx, oly, ohx, ohy) in enumerate(rects):
        if lx < ohx and olx < hx and ly < ohy and oly < hy and j != own and j not in skip:
            return j
    return None


def corridor_clear(
    scene: Scene,
    blocker: int,
    end: Bounds,
    exclude: frozenset[int] = frozenset(),
) -> bool:
    """True iff the region ``blocker`` sweeps to landing footprint ``end`` is empty.

    The blocker itself is always ignored; callers additionally pass the
    grasped target in ``exclude`` since it is held above the table.  Other
    blockers are *not* excluded: a blocker in another's path is exactly the
    contact chain this check exists to reject.
    """
    rects = scene.footprints
    return _first_overlap(rects, rects[blocker], end, blocker, exclude) is None


def edge_safe(scene: Scene, end: Bounds, margin: float) -> bool:
    """True iff landing footprint ``end`` keeps ``margin`` from every table edge."""
    lx, ly, hx, hy = end
    w = scene.workspace
    return (
        lx >= w.lo.x + margin
        and ly >= w.lo.y + margin
        and hx <= w.hi.x - margin
        and hy <= w.hi.y - margin
    )


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
    rects = scene.footprints
    current, objects = scene.current, scene.objects
    u = side.unit
    ux, uy = u.x, u.y
    goal_pose = scene.goal[target]
    # ``bounds_extent(goal_footprints[target], side)[1]``, inlined.
    glx, gly, ghx, ghy = scene.goal_footprints[target]
    c1 = glx * ux + gly * uy
    c2 = ghx * ux + ghy * uy
    goal_far = c2 if c1 <= c2 else c1
    grasped = frozenset((target,))

    moves: list[tuple[int, float]] = []
    min_near = math.inf
    for b in blockers:
        # ``bounds_extent(rects[b], side)[0]``, inlined: the blocker's face
        # nearest the approach.
        lx, ly, hx, hy = rects[b]
        c1 = lx * ux + ly * uy
        c2 = hx * ux + hy * uy
        near = c1 if c1 <= c2 else c2
        # Travel that puts the blocker's trailing face one clearance past the
        # goal region's far edge: strictly positive, since ``b`` overlaps it.
        d = goal_far - near + DEFAULT_CLEARANCE
        if stats is not None:
            stats.pair_checks += 1
        # ``bounds_from_center(landing(scene, b, side, d), half)``, inlined:
        # the footprint ``transition`` gives the blocker, float for float.
        c, half = current[b], objects[b].half
        x, y = c.x + ux * d, c.y + uy * d
        end = (x - half.a, y - half.b, x + half.a, y + half.b)
        if not edge_safe(scene, end, edge_margin):
            return None, f"blocker {b} would end within {edge_margin} m of a table edge"
        if not corridor_clear(scene, b, end, exclude=grasped):
            return None, f"push corridor of blocker {b} is not empty"
        moves.append((b, d))
        if near < min_near:
            min_near = near

    # Post-push footprints need no pairwise check: every trailing face ends at
    # ``goal_far`` plus the clearance, so two blockers could only collide if
    # they overlap laterally, and then the rear one's corridor met the front one.

    # Pre-push pose: leading face one clearance behind the outermost blocker,
    # i.e. the one protruding farthest toward the approach (``min_near``).
    # That puts the target behind every blocker so a single sweep collects
    # them all.
    half = objects[target].half
    h = half.a if side.horizontal else half.b
    p0_axis = (min_near - DEFAULT_CLEARANCE) - h
    goal_axis = axis_coord(goal_pose, side)
    p0 = goal_pose + u * (p0_axis - goal_axis)

    if stats is not None:
        stats.p0_checks += 1
    # ``bounds_from_center(p0, half)``, inlined.
    p0_bounds = (p0.x - half.a, p0.y - half.b, p0.x + half.a, p0.y + half.b)
    why = placement_conflict(scene, target, p0_bounds)
    if why:
        return None, f"pre-push footprint {why}"

    # The target's own sweep may touch blockers only.  It ends one clearance
    # past the goal, at ``goal + side.unit * DEFAULT_CLEARANCE``, where
    # ``simulate`` ends it.
    x, y = goal_pose.x + ux * DEFAULT_CLEARANCE, goal_pose.y + uy * DEFAULT_CLEARANCE
    end = (x - half.a, y - half.b, x + half.a, y + half.b)
    j = _first_overlap(rects, p0_bounds, end, target, frozenset(blockers))
    if j is not None:
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
        blockers = blockers_of(scene, target)
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
    blockers = blockers_of(scene, action.object)
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


def free_pose(rng: random.Random, half: HalfDims, workspace: Rect, obstacles: Sequence[Bounds],
              attempts: int) -> Optional[Vec2]:
    """A uniform center for a footprint of half extents ``half`` that lies in
    ``workspace`` and overlaps no footprint of ``obstacles``, or None when it
    cannot fit or all ``attempts`` draws are rejected.

    Centers are drawn x then y as ``xlo + (xhi - xlo) * rng.random()`` (what
    ``rng.uniform`` computes) over the workspace shrunk by ``half``.  ``x - a``
    can round one ulp past an edge that is not 0, so each draw's footprint
    ``(x - a, y - b, x + a, y + b)`` must also pass ``contains``.
    """
    a, b = half.a, half.b
    wlx, wly, whx, why = workspace.bounds
    xlo, xhi, ylo, yhi = wlx + a, whx - a, wly + b, why - b
    if xlo > xhi or ylo > yhi:
        return None
    draw = rng.random
    width, depth = xhi - xlo, yhi - ylo
    for _ in range(attempts):
        x = xlo + width * draw()
        y = ylo + depth * draw()
        lx, ly, hx, hy = x - a, y - b, x + a, y + b
        for olx, oly, ohx, ohy in obstacles:
            if lx < ohx and olx < hx and ly < ohy and oly < hy:
                break
        else:
            if wlx <= lx and wly <= ly and hx <= whx and hy <= why:
                return Vec2(x, y)
    return None


def sample_buffer_pose(scene: Scene, obj: int, rng: random.Random) -> Optional[Vec2]:
    """A parking pose for ``obj``: ``free_pose`` with ``BUFFER_MAX_ATTEMPTS``.

    The pose must keep the footprint on the table, overlap no other object's
    current footprint, and overlap no goal footprint of an object that still
    has somewhere to be (parking on top of pending goals just creates new
    blockers).
    """
    current, goals = scene.footprints, scene.goal_footprints
    obstacles = [*current[:obj], *current[obj + 1 :], *[goals[j] for j in scene.unsatisfied]]
    return free_pose(rng, scene.objects[obj].half, scene.workspace, obstacles, BUFFER_MAX_ATTEMPTS)
