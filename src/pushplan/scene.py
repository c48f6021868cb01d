"""Scene model: rectangular objects on a table, goal poses, and transitions.

A scene is immutable; applying an action returns a new scene.  The planner's
transition model lives here (``transition``, and ``apply_action``, which
validates first) so that search, cost accounting, the executor and the
physics layer all share one notion of what an action is supposed to do.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .geometry import Bounds, HalfDims, Rect, Side, Vec2, bounds_from_center, contains
# ``overlaps`` and ``rect_from_center`` are not called here: the pair and
# placement scans test ``Bounds`` inline.  Both stay bound because
# perfbench's tracer and its tests look them up in this module.
from .geometry import overlaps, rect_from_center  # noqa: F401

if TYPE_CHECKING:
    from .primitives import PushProposal

# Gap left between a pushed blocker and the goal region it was cleared from,
# and between the pre-push pose and the first blocker.  Meters.
DEFAULT_CLEARANCE = 0.005

# Default goal tolerance (meters): an object is at its goal when its center
# lies within this distance of the goal center.
DEFAULT_TOLERANCE = 0.005


class InvalidSceneError(ValueError):
    """The scene violates a structural invariant."""


class InfeasibleActionError(ValueError):
    """The action cannot be applied in the given scene."""


@dataclass(frozen=True, slots=True)
class ObjectSpec:
    """Identity and fixed shape of one object."""

    id: int
    half: HalfDims
    color: Optional[str] = None


Arrangement = tuple[Vec2, ...]


@dataclass(frozen=True, slots=True)
class PickPlace:
    """Grasp an object, lift it, and set it down at ``destination``."""

    object: int
    destination: Vec2


@dataclass(frozen=True, slots=True)
class PushPlace:
    """Grasp an object and sweep it to its goal from ``pre_push`` along ``side``,
    shoving everything that overlaps the goal region out of the way, then set
    it down exactly at the goal."""

    object: int
    side: Side
    pre_push: Vec2


# A ``|`` union, not ``typing.Union``: typing caches the latter, and the cache
# would keep this module alive after pushplan is unloaded and imported again.
Action = PickPlace | PushPlace


@dataclass(frozen=True, slots=True)
class Scene:
    """Workspace, object shapes, current poses, and goal poses.

    Construction validates the invariants every scene must satisfy: dense ids,
    matching lengths, all footprints inside the workspace, and no two current
    (or two goal) footprints overlapping.  Touching footprints are legal.

    Derived scenes also carry their current and goal footprints and the
    ascending ids of the objects not at their goals (``with_footprints``,
    ``with_moved``, and so ``apply_action``, ``simulate`` and the planner's
    search tree).  The cache takes no part in equality, hashing or repr.
    Scenes built by the constructor or by loading have none, and neither do
    the scenes an execution report holds (``without_cache``).

    The footprints are cached as ``Bounds``, plain float tuples
    (lo.x, lo.y, hi.x, hi.y) computed as ``rect_from_center`` computes its
    corners.  Every reader takes them from ``bounds`` and ``goal_bounds``,
    which build the same tuples for a scene without a cache.
    """

    workspace: Rect
    objects: tuple[ObjectSpec, ...]
    current: Arrangement
    goal: Arrangement
    tolerance: float = DEFAULT_TOLERANCE
    _footprints: Optional[tuple[Bounds, ...]] = field(default=None, init=False, repr=False, compare=False)
    _goal_footprints: Optional[tuple[Bounds, ...]] = field(default=None, init=False, repr=False, compare=False)
    _unsatisfied: Optional[tuple[int, ...]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.objects)
        if len(self.current) != n or len(self.goal) != n:
            raise InvalidSceneError(
                f"pose counts (current={len(self.current)}, goal={len(self.goal)}) "
                f"must match object count {n}"
            )
        if not self.tolerance > 0.0:
            raise InvalidSceneError(f"tolerance must be positive, got {self.tolerance}")
        for i, spec in enumerate(self.objects):
            if spec.id != i:
                raise InvalidSceneError(f"object ids must be dense 0..n-1; index {i} has id {spec.id}")
        w = self.workspace.bounds
        for label, poses in (("current", self.current), ("goal", self.goal)):
            rects = _all_bounds(poses, self.objects)
            for i, r in enumerate(rects):
                if not contains(w, r):
                    raise InvalidSceneError(f"{label} footprint of object {i} leaves the workspace")
            # ``overlaps`` of each pair in ascending (i, j) order, inlined:
            # this runs for every scene built by the constructor.
            for i, (lx, ly, hx, hy) in enumerate(rects):
                for j in range(i + 1, n):
                    olx, oly, ohx, ohy = rects[j]
                    if lx < ohx and olx < hx and ly < ohy and oly < hy:
                        raise InvalidSceneError(f"{label} footprints of objects {i} and {j} overlap")

    @property
    def n(self) -> int:
        return len(self.objects)

    def bounds(self) -> Sequence[Bounds]:
        """Every current footprint as ``Bounds``, indexed by object id."""
        return self._footprints or _all_bounds(self.current, self.objects)

    def goal_bounds(self) -> Sequence[Bounds]:
        """Every goal footprint as ``Bounds``, indexed by object id."""
        return self._goal_footprints or _all_bounds(self.goal, self.objects)

    def with_footprints(self) -> "Scene":
        """An equal scene whose footprints and unsatisfied ids are computed once.

        A scene that already carries them is returned as it is.
        """
        if self._unsatisfied is not None:
            return self
        return self.with_moved(())

    def without_cache(self) -> "Scene":
        """An equal scene without a cache that shares every field with this one.

        A scene without a cache is returned as it is.
        """
        if self._unsatisfied is None:
            return self
        return _unchecked(self.workspace, self.objects, self.current, self.goal, self.tolerance)

    def with_moved(self, moves: Sequence[tuple[int, Vec2]]) -> "Scene":
        """This scene with each ``(object, pose)`` of ``moves`` relocated.

        The result caches its footprints and shares every unmoved object's
        footprint, and all goal footprints, with this scene.  Only the moved
        objects are checked, each by ``placement_conflict`` in the result.
        Pairs of unmoved objects were checked when this scene was built, so
        the result satisfies the same invariant as construction.  Raises
        InfeasibleActionError otherwise.

        The result also caches its unsatisfied ids.  When this scene has
        them, only the moved objects are tested against their goals, and
        each is inserted into or removed from this scene's ascending ids.
        """
        poses = list(self.current)
        cached = self._footprints
        rects = list(_all_bounds(self.current, self.objects) if cached is None else cached)
        objects = self.objects
        for i, pose in moves:
            poses[i] = pose
            # bounds_from_center, inlined: this runs for every successor made.
            half = objects[i].half
            rects[i] = (pose.x - half.a, pose.y - half.b, pose.x + half.a, pose.y + half.b)
        goal_rects = self._goal_footprints
        if goal_rects is None:
            goal_rects = tuple(_all_bounds(self.goal, objects))
        # Bypass __post_init__: the checks below establish its invariant.
        out = _unchecked(
            self.workspace, objects, tuple(poses), self.goal, self.tolerance, tuple(rects), goal_rects
        )
        for i, _ in moves:
            why = placement_conflict(out, i, rects[i])
            if why:
                raise InfeasibleActionError(f"moved object {i} {why}")
        if self._unsatisfied is None:
            pending = [i for i in range(self.n) if not is_at_goal(out, i)]
        else:
            pending = list(self._unsatisfied)
            for i, _ in moves:
                k = bisect_left(pending, i)
                listed = k < len(pending) and pending[k] == i
                if is_at_goal(out, i):
                    if listed:
                        del pending[k]
                elif not listed:
                    pending.insert(k, i)
        _SET_UNSATISFIED(out, tuple(pending))
        return out


# Each slot's own setter, for ``_unchecked`` and ``with_moved``: a new scene's
# fields are set through them, not through the frozen ``__setattr__``.
_new = object.__new__
_SET_WORKSPACE = Scene.workspace.__set__
_SET_OBJECTS = Scene.objects.__set__
_SET_CURRENT = Scene.current.__set__
_SET_GOAL = Scene.goal.__set__
_SET_TOLERANCE = Scene.tolerance.__set__
_SET_FOOTPRINTS = Scene._footprints.__set__
_SET_GOAL_FOOTPRINTS = Scene._goal_footprints.__set__
_SET_UNSATISFIED = Scene._unsatisfied.__set__


def _all_bounds(poses: Arrangement, objects: tuple[ObjectSpec, ...]) -> list[Bounds]:
    """The footprints of ``objects`` at ``poses``, for a scene without a cache."""
    return [bounds_from_center(p, objects[i].half) for i, p in enumerate(poses)]


def _unchecked(
    workspace: Rect,
    objects: tuple[ObjectSpec, ...],
    current: Arrangement,
    goal: Arrangement,
    tolerance: float,
    footprints: Optional[tuple[Bounds, ...]] = None,
    goal_footprints: Optional[tuple[Bounds, ...]] = None,
) -> Scene:
    """A Scene of these fields, built without ``__post_init__``'s checks.

    Its unsatisfied ids are None until the caller sets them.  Each field is
    set through its slot's descriptor (``_SET_*``), which skips the frozen
    ``__setattr__`` and its attribute lookup by name: this runs once per
    search expansion.
    """
    out = _new(Scene)
    _SET_WORKSPACE(out, workspace)
    _SET_OBJECTS(out, objects)
    _SET_CURRENT(out, current)
    _SET_GOAL(out, goal)
    _SET_TOLERANCE(out, tolerance)
    _SET_FOOTPRINTS(out, footprints)
    _SET_GOAL_FOOTPRINTS(out, goal_footprints)
    _SET_UNSATISFIED(out, None)
    return out


def is_at_goal(scene: Scene, i: int) -> bool:
    """True iff object ``i``'s center is within tolerance of its goal center."""
    p, g = scene.current[i], scene.goal[i]
    return math.hypot(p.x - g.x, p.y - g.y) <= scene.tolerance


def satisfied_count(scene: Scene) -> int:
    if scene._unsatisfied is not None:
        return scene.n - len(scene._unsatisfied)
    return sum(1 for i in range(scene.n) if is_at_goal(scene, i))


def unsatisfied_ids(scene: Scene) -> list[int]:
    """Ascending ids of the objects not at their goals."""
    if scene._unsatisfied is not None:
        return list(scene._unsatisfied)
    return [i for i in range(scene.n) if not is_at_goal(scene, i)]


def blockers_of(scene: Scene, target: int) -> tuple[int, ...]:
    """Ascending ids of objects whose current footprint overlaps ``target``'s goal footprint."""
    glx, gly, ghx, ghy = scene.goal_bounds()[target]
    # ``overlaps(bounds()[j], goal_bounds()[target])``, inlined.
    return tuple([
        j
        for j, (lx, ly, hx, hy) in enumerate(scene.bounds())
        if lx < ghx and glx < hx and ly < ghy and gly < hy and j != target
    ])


def placement_conflict(scene: Scene, obj: int, b: Bounds) -> Optional[str]:
    """Why ``obj`` cannot rest with footprint bounds ``b`` in ``scene``, or
    None if it can.

    The footprint must lie inside the workspace, touching its edge allowed,
    and overlap no other object's current footprint; ``obj``'s own is
    skipped.  The reason names the lowest-numbered object hit.
    """
    lx, ly, hx, hy = b
    w = scene.workspace
    # ``contains(w.bounds, b)`` and ``overlaps(b, rects[j])``, inlined: this
    # runs for every moved object.
    if not (w.lo.x <= lx and w.lo.y <= ly and hx <= w.hi.x and hy <= w.hi.y):
        return "leaves the workspace"
    rects = scene._footprints
    if rects is None:
        rects = _all_bounds(scene.current, scene.objects)
    for j, (olx, oly, ohx, ohy) in enumerate(rects):
        if lx < ohx and olx < hx and ly < ohy and oly < hy and j != obj:
            return f"overlaps object {j}"
    return None


def validate_action(scene: Scene, action: Action) -> PickPlace | PushProposal:
    """Check feasibility; return the move that ``transition`` builds.

    That is the PickPlace itself, or for a push the ``PushProposal`` that
    ``primitives.validate_push_action`` re-derives from the scene.  Raises
    InfeasibleActionError naming the violated condition.
    """
    if not (0 <= action.object < scene.n):
        raise InfeasibleActionError(f"action references unknown object {action.object}")
    if isinstance(action, PickPlace):
        b = bounds_from_center(action.destination, scene.objects[action.object].half)
        why = placement_conflict(scene, action.object, b)
        if why:
            raise InfeasibleActionError(f"destination footprint of object {action.object} {why}")
        return action
    from . import primitives  # deferred: primitives builds on this module

    return primitives.validate_push_action(scene, action)


def landing(scene: Scene, blocker: int, side: Side, d: float) -> Vec2:
    """Where ``blocker`` lands when pushed ``d`` along ``side``: ``transition``
    moves it here, and the push scan tests its footprint here."""
    return scene.current[blocker] + side.unit * d


def transition(scene: Scene, move: PickPlace | PushProposal) -> tuple[Action, Scene]:
    """The action and successor scene of a move admitted in ``scene``.

    ``move`` is a placement or a push's derivation (from ``validate_action``,
    the planner's recommender or ``primitives.push_on_side``), trusted, not
    derived again.  A PickPlace teleports its object; a push sets the target
    on its goal and moves each blocker to its ``landing``.  Only the moved
    objects are checked (``Scene.with_moved``); one that would leave the table
    or overlap another raises InfeasibleActionError, which no admitted move does.
    """
    if isinstance(move, PickPlace):
        return move, scene.with_moved(((move.object, move.destination),))
    moves = ((move.target, scene.goal[move.target]),) + tuple(
        (b, landing(scene, b, move.side, d)) for b, d in move.blocker_moves
    )
    return move.as_action(), scene.with_moved(moves)


def apply_action(scene: Scene, action: Action) -> Scene:
    """Deterministic transition model: the planner's prediction of an action.

    The action is validated first; infeasible actions raise
    InfeasibleActionError.  The result is ``transition``'s successor of the
    admitted move, so it carries a cache and only the moved objects are
    checked again.
    """
    return transition(scene, validate_action(scene, action))[1]
