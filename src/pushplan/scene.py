"""Scene model: rectangular objects on a table, goal poses, and transitions.

A scene is immutable; applying an action returns a new scene.  The planner's
transition model lives here (``apply_action``) so that search, cost
accounting, and the physics layer all share one notion of what an action is
supposed to do.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
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

# Default goal tolerance (meters): an object is at its goal when its center
# lies within this distance of the goal center.
DEFAULT_TOLERANCE = 0.005


class InvalidSceneError(ValueError):
    """The scene violates a structural invariant."""


class InfeasibleActionError(ValueError):
    """The action cannot be applied in the given scene."""


class SceneFormatError(ValueError):
    """A scene/plan document is malformed; the message names the field."""


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

    Scenes inside the planner's search tree also carry their current and goal
    footprints (``with_footprints``, ``with_moved``).  The cache takes no part
    in equality, hashing or repr, and scenes built by the constructor, by
    ``apply_action`` or by loading have none.
    """

    workspace: Rect
    objects: tuple[ObjectSpec, ...]
    current: Arrangement
    goal: Arrangement
    tolerance: float = DEFAULT_TOLERANCE
    _footprints: Optional[tuple[Rect, ...]] = field(default=None, init=False, repr=False, compare=False)
    _goal_footprints: Optional[tuple[Rect, ...]] = field(default=None, init=False, repr=False, compare=False)

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
        """An equal scene whose current and goal footprints are computed once."""
        return self.with_moved(())

    def with_moved(self, moves: Sequence[tuple[int, Vec2]]) -> "Scene":
        """This scene with each ``(object, pose)`` of ``moves`` relocated.

        The result caches its footprints and shares every unmoved object's
        footprint, and all goal footprints, with this scene.  Only the moved
        objects are checked: each must lie inside the workspace and overlap
        no other current footprint.  Pairs of unmoved objects were checked
        when this scene was built, so the result satisfies the same
        invariant as construction.  Raises InfeasibleActionError otherwise.
        """
        poses = list(self.current)
        rects = list(self._footprints or (self.footprint(i) for i in range(self.n)))
        for i, pose in moves:
            poses[i] = pose
            rects[i] = rect_from_center(pose, self.objects[i].half)
        for i, _ in moves:
            if not contains(self.workspace, rects[i]):
                raise InfeasibleActionError(f"moved object {i} leaves the workspace")
            for j, r in enumerate(rects):
                if j != i and overlaps(rects[i], r):
                    raise InfeasibleActionError(f"moved object {i} overlaps object {j}")
        goal_rects = self._goal_footprints or tuple(self.goal_footprint(i) for i in range(self.n))
        # Bypass __post_init__: the checks above establish its invariant.
        out = object.__new__(Scene)
        for name, value in (
            ("workspace", self.workspace),
            ("objects", self.objects),
            ("current", tuple(poses)),
            ("goal", self.goal),
            ("tolerance", self.tolerance),
            ("_footprints", tuple(rects)),
            ("_goal_footprints", goal_rects),
        ):
            object.__setattr__(out, name, value)
        return out


def is_at_goal(scene: Scene, i: int) -> bool:
    """True iff object ``i``'s center is within tolerance of its goal center."""
    return (scene.current[i] - scene.goal[i]).norm() <= scene.tolerance


def satisfied_count(scene: Scene) -> int:
    return sum(1 for i in range(scene.n) if is_at_goal(scene, i))


def unsatisfied_ids(scene: Scene) -> list[int]:
    return [i for i in range(scene.n) if not is_at_goal(scene, i)]


def blockers_of(scene: Scene, target: int) -> frozenset[int]:
    """Ids of objects whose current footprint overlaps ``target``'s goal footprint."""
    goal_rect = scene.goal_footprint(target)
    return frozenset(
        j for j in range(scene.n) if j != target and overlaps(scene.footprint(j), goal_rect)
    )


def goal_region_free(scene: Scene, target: int) -> bool:
    return not blockers_of(scene, target)


def placement_free(scene: Scene, obj: int, dest: Vec2) -> bool:
    """True iff ``obj`` set down at ``dest`` stays on the table and hits nothing.

    The object's own current footprint is ignored: it is in the gripper while
    the placement happens.
    """
    r = rect_from_center(dest, scene.objects[obj].half)
    if not contains(scene.workspace, r):
        return False
    return not any(overlaps(r, scene.footprint(j)) for j in range(scene.n) if j != obj)


def validate_action(
    scene: Scene, action: Action, clearance: float = DEFAULT_CLEARANCE
) -> Optional[tuple[tuple[int, float], ...]]:
    """Check feasibility; return blocker displacements for a push, else None.

    Raises InfeasibleActionError naming the violated condition.  Push
    validation delegates to the primitive's admissibility checks.
    """
    if not (0 <= _action_object(action) < scene.n):
        raise InfeasibleActionError(f"action references unknown object {_action_object(action)}")
    if isinstance(action, PickPlace):
        r = rect_from_center(action.destination, scene.objects[action.object].half)
        if not contains(scene.workspace, r):
            raise InfeasibleActionError(
                f"destination footprint of object {action.object} leaves the workspace"
            )
        for j in range(scene.n):
            if j != action.object and overlaps(r, scene.footprint(j)):
                raise InfeasibleActionError(
                    f"destination of object {action.object} overlaps object {j}"
                )
        return None
    from . import primitives  # deferred: primitives builds on this module

    proposal = primitives.validate_push_action(scene, action, clearance)
    return proposal.blocker_moves


def _action_object(action: Action) -> int:
    return action.object


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


def apply_action(scene: Scene, action: Action, clearance: float = DEFAULT_CLEARANCE) -> Scene:
    """Deterministic transition model: the planner's prediction of an action.

    The action is validated first, and the result is a fully validated
    scene without a footprint cache (see ``moved_poses`` for the motion).
    Infeasible actions raise instead.
    """
    moves = validate_action(scene, action, clearance)
    poses = list(scene.current)
    for i, pose in moved_poses(scene, action, moves or ()):
        poses[i] = pose
    return replace(scene, current=tuple(poses))


# --- serialization ---------------------------------------------------------


def scene_to_dict(scene: Scene) -> dict:
    objs = []
    for spec in scene.objects:
        entry: dict = {"a": spec.half.a, "b": spec.half.b}
        if spec.color is not None:
            entry["color"] = spec.color
        objs.append(entry)
    return {
        "workspace": [scene.workspace.lo.x, scene.workspace.lo.y, scene.workspace.hi.x, scene.workspace.hi.y],
        "objects": objs,
        "start": [[p.x, p.y] for p in scene.current],
        "goal": [[p.x, p.y] for p in scene.goal],
        "epsilon": scene.tolerance,
    }


def _finite(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise SceneFormatError(f"field '{name}' must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise SceneFormatError(f"field '{name}' must be finite, got {value!r}")
    return x


def _list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise SceneFormatError(f"field '{name}' must be a list, got {type(value).__name__}")
    return value


def scene_from_dict(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise SceneFormatError(f"scene document must be an object, got {type(doc).__name__}")

    def need(key: str):
        if key not in doc:
            raise SceneFormatError(f"scene document is missing field '{key}'")
        return doc[key]

    ws = need("workspace")
    if not (isinstance(ws, (list, tuple)) and len(ws) == 4):
        raise SceneFormatError("field 'workspace' must be [x0, y0, x1, y1]")
    x0, y0, x1, y1 = (_finite(v, f"workspace[{k}]") for k, v in enumerate(ws))
    try:
        workspace = Rect(Vec2(x0, y0), Vec2(x1, y1))
    except ValueError as e:
        raise SceneFormatError(f"field 'workspace' is invalid: {e}") from e

    specs = []
    for i, entry in enumerate(_list(need("objects"), "objects")):
        if not isinstance(entry, dict):
            raise SceneFormatError(f"field 'objects[{i}]' must be an object with keys 'a' and 'b'")
        for key in ("a", "b"):
            if key not in entry:
                raise SceneFormatError(f"field 'objects[{i}]' is missing key '{key}'")
        a, b = _finite(entry["a"], f"objects[{i}].a"), _finite(entry["b"], f"objects[{i}].b")
        try:
            half = HalfDims(a, b)
        except ValueError as e:
            raise SceneFormatError(f"field 'objects[{i}]' is invalid: {e}") from e
        color = entry.get("color")
        if color is not None and not isinstance(color, str):
            raise SceneFormatError(f"field 'objects[{i}].color' must be a string")
        specs.append(ObjectSpec(i, half, color))

    def poses(key: str) -> Arrangement:
        out = []
        for i, p in enumerate(_list(need(key), key)):
            if not (isinstance(p, (list, tuple)) and len(p) == 2):
                raise SceneFormatError(f"field '{key}[{i}]' must be [x, y]")
            out.append(Vec2(_finite(p[0], f"{key}[{i}][0]"), _finite(p[1], f"{key}[{i}][1]")))
        return tuple(out)

    tolerance = _finite(doc.get("epsilon", DEFAULT_TOLERANCE), "epsilon")
    try:
        return Scene(workspace, tuple(specs), poses("start"), poses("goal"), tolerance)
    except InvalidSceneError as e:
        raise SceneFormatError(str(e)) from e


def scene_to_json(scene: Scene) -> str:
    return json.dumps(scene_to_dict(scene), indent=2)


def scene_from_json(text: str) -> Scene:
    return scene_from_dict(json.loads(text))


def action_to_dict(action: Action) -> dict:
    if isinstance(action, PickPlace):
        return {
            "type": "pick_place",
            "object": action.object,
            "destination": [action.destination.x, action.destination.y],
        }
    return {
        "type": "push_place",
        "object": action.object,
        "side": action.side.value,
        "pre_push": [action.pre_push.x, action.pre_push.y],
    }


def action_from_dict(doc: dict) -> Action:
    if not isinstance(doc, dict):
        raise SceneFormatError(f"action document must be an object, got {type(doc).__name__}")
    kind = doc.get("type")
    try:
        if kind == "pick_place":
            d = doc["destination"]
            return PickPlace(int(doc["object"]), Vec2(float(d[0]), float(d[1])))
        if kind == "push_place":
            p = doc["pre_push"]
            return PushPlace(int(doc["object"]), Side(doc["side"]), Vec2(float(p[0]), float(p[1])))
    except (KeyError, TypeError, ValueError) as e:
        raise SceneFormatError(f"action document of type '{kind}' is invalid: {e}") from e
    raise SceneFormatError(f"action document has unknown type '{kind}'")
