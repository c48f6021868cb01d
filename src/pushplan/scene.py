"""Scene model: rectangular objects on a table, goal poses, and transitions.

A scene is immutable; applying an action returns a new scene.  The planner's
transition model lives here (``apply_action``) so that search, cost
accounting, and the physics layer all share one notion of what an action is
supposed to do.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from .geometry import (
    HalfDims,
    Rect,
    Side,
    Vec2,
    contains,
    overlaps,
    rect_from_center,
)

# Gap left between a pushed blocker and the goal region it was cleared from,
# and between the pre-push pose and the first blocker.  Meters.
DEFAULT_CLEARANCE = 0.005

# Sets a field of a frozen dataclass.
_set = object.__setattr__

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
    """

    workspace: Rect
    objects: tuple[ObjectSpec, ...]
    current: Arrangement
    goal: Arrangement
    tolerance: float = DEFAULT_TOLERANCE
    _footprints: Optional[tuple[Rect, ...]] = field(default=None, init=False, repr=False, compare=False)
    _goal_footprints: Optional[tuple[Rect, ...]] = field(default=None, init=False, repr=False, compare=False)
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
        for label, poses in (("current", self.current), ("goal", self.goal)):
            rects = [rect_from_center(poses[i], self.objects[i].half) for i in range(n)]
            for i, r in enumerate(rects):
                if not contains(self.workspace, r):
                    raise InvalidSceneError(f"{label} footprint of object {i} leaves the workspace")
            for i in range(n):
                for j in range(i + 1, n):
                    if overlaps(rects[i], rects[j]):
                        raise InvalidSceneError(f"{label} footprints of objects {i} and {j} overlap")

    @property
    def n(self) -> int:
        return len(self.objects)

    def footprint(self, i: int) -> Rect:
        if self._footprints is not None:
            return self._footprints[i]
        return rect_from_center(self.current[i], self.objects[i].half)

    def goal_footprint(self, i: int) -> Rect:
        if self._goal_footprints is not None:
            return self._goal_footprints[i]
        return rect_from_center(self.goal[i], self.objects[i].half)

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
        rects = list(self._footprints or (self.footprint(i) for i in range(self.n)))
        objects = self.objects
        for i, pose in moves:
            poses[i] = pose
            # rect_from_center, inlined: this runs for every successor made.
            half = objects[i].half
            rects[i] = Rect(Vec2(pose.x - half.a, pose.y - half.b), Vec2(pose.x + half.a, pose.y + half.b))
        goal_rects = self._goal_footprints or tuple(self.goal_footprint(i) for i in range(self.n))
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
        _set(out, "_unsatisfied", tuple(pending))
        return out


def _unchecked(
    workspace: Rect,
    objects: tuple[ObjectSpec, ...],
    current: Arrangement,
    goal: Arrangement,
    tolerance: float,
    footprints: Optional[tuple[Rect, ...]] = None,
    goal_footprints: Optional[tuple[Rect, ...]] = None,
) -> Scene:
    """A Scene of these fields, built without ``__post_init__``'s checks.

    Its unsatisfied ids are None until the caller sets them.  The fields are
    set one by one, not in a loop: this runs once per search expansion.
    """
    out = object.__new__(Scene)
    _set(out, "workspace", workspace)
    _set(out, "objects", objects)
    _set(out, "current", current)
    _set(out, "goal", goal)
    _set(out, "tolerance", tolerance)
    _set(out, "_footprints", footprints)
    _set(out, "_goal_footprints", goal_footprints)
    _set(out, "_unsatisfied", None)
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


def blockers_of(scene: Scene, target: int) -> frozenset[int]:
    """Ids of objects whose current footprint overlaps ``target``'s goal footprint."""
    goal_rect = scene.goal_footprint(target)
    rects = scene._footprints or [scene.footprint(j) for j in range(scene.n)]
    return frozenset(j for j, r in enumerate(rects) if j != target and overlaps(r, goal_rect))


def goal_region_free(scene: Scene, target: int) -> bool:
    return not blockers_of(scene, target)


def placement_conflict(scene: Scene, obj: int, r: Rect) -> Optional[str]:
    """Why ``obj`` cannot rest with footprint ``r`` in ``scene``, or None if it can.

    The footprint must lie inside the workspace, touching its edge allowed,
    and overlap no other object's current footprint; ``obj``'s own is
    skipped.  The reason names the lowest-numbered object hit.
    """
    if not contains(scene.workspace, r):
        return "leaves the workspace"
    rects = scene._footprints or [scene.footprint(j) for j in range(scene.n)]
    lx, ly, hx, hy = r.lo.x, r.lo.y, r.hi.x, r.hi.y
    # ``overlaps(r, rects[j])``, inlined: this runs for every moved object.
    for j, o in enumerate(rects):
        if lx < o.hi.x and o.lo.x < hx and ly < o.hi.y and o.lo.y < hy and j != obj:
            return f"overlaps object {j}"
    return None


def validate_action(scene: Scene, action: Action) -> Optional[tuple[tuple[int, float], ...]]:
    """Check feasibility; return blocker displacements for a push, else None.

    Raises InfeasibleActionError naming the violated condition.  Push
    validation delegates to the primitive's admissibility checks.
    """
    if not (0 <= action.object < scene.n):
        raise InfeasibleActionError(f"action references unknown object {action.object}")
    if isinstance(action, PickPlace):
        r = rect_from_center(action.destination, scene.objects[action.object].half)
        why = placement_conflict(scene, action.object, r)
        if why:
            raise InfeasibleActionError(f"destination footprint of object {action.object} {why}")
        return None
    from . import primitives  # deferred: primitives builds on this module

    return primitives.validate_push_action(scene, action).blocker_moves


def moved_poses(
    scene: Scene, action: Action, blocker_moves: tuple[tuple[int, float], ...]
) -> tuple[tuple[int, Vec2], ...]:
    """``(object, new pose)`` for every object a feasible ``action`` moves.

    PickPlace teleports the object to its destination.  PushPlace puts the
    target exactly on its goal and advances every blocker along the push
    direction by its displacement in ``blocker_moves``.
    """
    if isinstance(action, PickPlace):
        return ((action.object, action.destination),)
    u = action.side.unit
    return ((action.object, scene.goal[action.object]),) + tuple(
        (b, scene.current[b] + u * d) for b, d in blocker_moves
    )


def apply_action(scene: Scene, action: Action) -> Scene:
    """Deterministic transition model: the planner's prediction of an action.

    The action is validated first; infeasible actions raise
    InfeasibleActionError.  The result is built by ``Scene.with_moved`` (see
    ``moved_poses`` for the motion), so it carries a cache and only the moved
    objects are checked again.  A result that fails that check raises
    InvalidSceneError, as construction would.
    """
    moves = validate_action(scene, action)
    try:
        return scene.with_moved(moved_poses(scene, action, moves or ()))
    except InfeasibleActionError as e:
        raise InvalidSceneError(f"the outcome of a validated action is invalid: {e}") from None
