"""Independent push-admissibility oracle for the test suite, and the loop
reference for buffer sampling.

Re-derives the push maneuver from scratch with its own arithmetic: the target
footprint marches from the pre-push pose through the goal region in small
steps, carried objects ride its leading face at exact contact, and every
configuration along the way is screened for illegal contact.  No code from
pushplan.primitives or pushplan.simulator is reused; only raw scene data.

Rects are (lox, loy, hix, hiy) tuples.  The push axis is handled in signed
coordinates: sc = sign * coord, so "forward" is always increasing sc.

``oracle_buffer_pose`` is the original, loop-based buffer sampler, kept as
written: one ``Rect`` and one ``overlaps`` call per obstacle and draw.
``placement_free`` is the original placement rule, the reference every
caller of ``scene.placement_conflict`` is held to.
``replace_successor`` is the original transition model, which rebuilds the
successor through ``Scene.__post_init__``'s full check of every pair; the
incremental successors of ``apply_action`` and ``simulate`` are held to it.
``replace_moved`` is its rebuilding step alone, for any set of moves; the
incremental ``Scene.with_moved`` is held to it.
"""

import random
from dataclasses import replace
from typing import Optional

from pushplan.geometry import Side, Vec2, contains, overlaps, rect_from_center
from pushplan.scene import Action, Scene, moved_poses, unsatisfied_ids, validate_action

STEP = 0.001
MARGIN = 0.01
CLEARANCE = 0.005

_AXES = {"left": (0, -1.0), "right": (0, 1.0), "up": (1, 1.0), "down": (1, -1.0)}


def _foot(scene: Scene, i: int, pose: Optional[Vec2] = None) -> tuple:
    p = scene.current[i] if pose is None else pose
    h = scene.objects[i].half
    return (p.x - h.a, p.y - h.b, p.x + h.a, p.y + h.b)


def _goal_foot(scene: Scene, i: int) -> tuple:
    return _foot(scene, i, scene.goal[i])


def _soverlap(a: tuple, b: tuple) -> bool:
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def _near(r: tuple, axis: int, sign: float) -> float:
    return sign * r[axis] if sign > 0 else sign * r[axis + 2]


def _far(r: tuple, axis: int, sign: float) -> float:
    return sign * r[axis + 2] if sign > 0 else sign * r[axis]


def _shift(r: tuple, axis: int, amount: float) -> tuple:
    if axis == 0:
        return (r[0] + amount, r[1], r[2] + amount, r[3])
    return (r[0], r[1] + amount, r[2], r[3] + amount)


def _inside(r: tuple, w: tuple, margin: float = 0.0) -> bool:
    return (
        r[0] >= w[0] + margin
        and r[1] >= w[1] + margin
        and r[2] <= w[2] - margin
        and r[3] <= w[3] - margin
    )


def oracle_blockers(scene: Scene, target: int) -> list[int]:
    g = _goal_foot(scene, target)
    return [j for j in range(scene.n) if j != target and _soverlap(g, _foot(scene, j))]


def oracle_p0(scene: Scene, target: int, side: Side, clearance: float = CLEARANCE) -> Optional[Vec2]:
    """Canonical pre-push center: leading face one clearance behind every blocker."""
    blockers = oracle_blockers(scene, target)
    if not blockers:
        return None
    axis, sign = _AXES[side.value]
    min_near = min(_near(_foot(scene, j), axis, sign) for j in blockers)
    h = scene.objects[target].half
    half_along = h.a if axis == 0 else h.b
    center_sc = min_near - clearance - half_along
    gp = scene.goal[target]
    if axis == 0:
        return Vec2(sign * center_sc, gp.y)
    return Vec2(gp.x, sign * center_sc)


def check_push(
    scene: Scene,
    target: int,
    side: Side,
    clearance: float = CLEARANCE,
    margin: float = MARGIN,
    step: float = STEP,
    pre_push: Optional[Vec2] = None,
    expected_moves: Optional[tuple] = None,
) -> list[str]:
    """Sweep the push in ``step`` increments; return all violations found ([] = admissible)."""
    w = (scene.workspace.lo.x, scene.workspace.lo.y, scene.workspace.hi.x, scene.workspace.hi.y)
    axis, sign = _AXES[side.value]
    blockers = oracle_blockers(scene, target)
    if not blockers:
        return ["target has no blockers"]

    canonical = oracle_p0(scene, target, side, clearance)
    p0 = pre_push if pre_push is not None else canonical
    if pre_push is not None and (
        abs(pre_push.x - canonical.x) > 1e-9 or abs(pre_push.y - canonical.y) > 1e-9
    ):
        return ["pre-push pose differs from the canonical pose"]

    p0_rect = _foot(scene, target, p0)
    if not _inside(p0_rect, w):
        return ["pre-push pose leaves the table"]
    for j in range(scene.n):
        if j != target and _soverlap(p0_rect, _foot(scene, j)):
            return [f"pre-push pose overlaps object {j}"]

    goal_sc = sign * (scene.goal[target].x if axis == 0 else scene.goal[target].y)
    p0_sc = sign * (p0.x if axis == 0 else p0.y)
    total = (goal_sc + clearance) - p0_sc
    if total < 0.0:
        return ["pre-push pose is ahead of the goal"]

    rects = {j: _foot(scene, j) for j in range(scene.n) if j != target}
    start = {j: r for j, r in rects.items()}

    t = 0.0
    while True:
        # +t in signed coords is +sign*t in world coords
        tgt = _shift(p0_rect, axis, sign * t)
        front = _far(tgt, axis, sign)
        order = sorted(rects, key=lambda j: (_near(rects[j], axis, sign), j))
        for j in order:
            if not _soverlap(tgt, rects[j]):
                continue
            if j not in blockers:
                return [f"target contacts non-blocker object {j}"]
            push_to = front - _near(rects[j], axis, sign)
            if push_to <= 0.0:
                continue
            rects[j] = _shift(rects[j], axis, sign * push_to)
            if not _inside(rects[j], w):
                return [f"blocker {j} is pushed past the table edge"]
            for m, rm in rects.items():
                if m != j and _soverlap(rects[j], rm):
                    return [f"blocker {j} chain-contacts object {m}"]
        if t >= total:
            break
        t = min(t + step, total)

    violations = []
    for j in blockers:
        if not _inside(rects[j], w, margin):
            violations.append(f"blocker {j} rests within {margin} m of a table edge")
    moved = {j: _near(rects[j], axis, sign) - _near(start[j], axis, sign) for j in rects}
    for j, d in moved.items():
        if j not in blockers and d != 0.0:
            violations.append(f"non-blocker object {j} moved")
    for j in blockers:
        if moved[j] <= 0.0:
            violations.append(f"blocker {j} was never pushed")
    if expected_moves is not None:
        got = {j: moved[j] for j in blockers}
        want = dict(expected_moves)
        if set(got) != set(want):
            violations.append(f"moved set {sorted(got)} differs from declared {sorted(want)}")
        else:
            for j, d in want.items():
                if abs(got[j] - d) > 1e-9:
                    violations.append(
                        f"blocker {j} moved {got[j]:.9f}, declared {d:.9f}"
                    )
    return violations


def side_fails(scene: Scene, target: int, side: Side, **kw) -> bool:
    return bool(check_push(scene, target, side, **kw))


def oracle_buffer_pose(
    scene: Scene, obj: int, rng: random.Random, max_attempts: int = 100
) -> Optional[Vec2]:
    half = scene.objects[obj].half
    w = scene.workspace
    xlo, xhi = w.lo.x + half.a, w.hi.x - half.a
    ylo, yhi = w.lo.y + half.b, w.hi.y - half.b
    if xlo > xhi or ylo > yhi:
        return None
    pending = unsatisfied_ids(scene)
    for _ in range(max_attempts):
        pose = Vec2(rng.uniform(xlo, xhi), rng.uniform(ylo, yhi))
        r = rect_from_center(pose, half)
        if any(overlaps(r, scene.footprint(j)) for j in range(scene.n) if j != obj):
            continue
        if any(overlaps(r, scene.goal_footprint(j)) for j in pending):
            continue
        return pose
    return None


def placement_free(scene: Scene, obj: int, dest: Vec2) -> bool:
    """True iff ``obj`` set down at ``dest`` stays on the table and hits nothing.

    The object's own current footprint is ignored: it is in the gripper while
    the placement happens.
    """
    r = rect_from_center(dest, scene.objects[obj].half)
    if not contains(scene.workspace, r):
        return False
    return not any(overlaps(r, scene.footprint(j)) for j in range(scene.n) if j != obj)


def replace_moved(scene: Scene, moves) -> Scene:
    """``scene`` with each ``(object, pose)`` of ``moves`` relocated, rebuilt with ``replace``."""
    poses = list(scene.current)
    for i, pose in moves:
        poses[i] = pose
    return replace(scene, current=tuple(poses))


def replace_successor(scene: Scene, action: Action) -> Scene:
    """``apply_action`` as first written: validate, move, rebuild with ``replace``."""
    moves = validate_action(scene, action)
    return replace_moved(scene, moved_poses(scene, action, moves or ()))
