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
written: one ``Rect`` and one ``overlaps`` call per obstacle and draw.  It
also rejects a draw whose ``Rect`` the workspace does not ``contains``.
``placement_free`` is the original placement rule, the reference every
caller of ``scene.placement_conflict`` is held to.
``replace_successor`` is the original transition model, which rebuilds the
successor through ``Scene.__post_init__``'s full check of every pair; the
incremental successors of ``apply_action`` and ``simulate`` are held to it.
``replace_moved`` is its rebuilding step alone, for any set of moves; the
incremental ``Scene.with_moved`` is held to it.
``object_evaluate_side`` is the original, object-based side evaluation of
``primitives``, kept as written but for the landing rule: a ``Rect`` per
landing or swept blocker and one ``overlaps`` call per object scanned.  A
pushed blocker's landing footprint is ``rect_from_center`` at
``current[b] + side.unit * d``, the center the transition model moves it to,
and each swept region is the union of a start and an end footprint.  Its
pre-push check is its own (``contains`` and ``overlaps``), not
``scene.placement_conflict``, so that a fault there shows.  The float-based
scan is held to it exactly.
``object_generate_scene`` is the original, object-based ``bench.generate_scene``,
kept as written: a ``Rect`` per candidate pose and per placed object, and one
``overlaps`` call per pair.  It reads ``bench.PLACEMENT_ATTEMPTS`` at call
time, as the library does.  ``object_validate_scene`` is the original body of
``Scene.__post_init__``: ``contains`` and ``overlaps`` on ``Rect`` footprints.
``overlaps``, ``contains``, ``translate``, ``sweep`` and ``axis_extent``
are the ``Rect`` forms of the footprint rules, and ``footprint`` and
``goal_footprint`` build an object's ``Rect``; every object-based reference
here is written on them.
``reference_plan`` is the search as first written: it tests "solved" with
``satisfied_count``, counts its expansion budget down in a closure, samples
from a list of the objects ``is_at_goal`` rejects, and costs the plan by
chaining ``action_cost`` through ``EEState``.  It proposes moves with
``_reference_recommend``, the recommender as first written, which draws its
blocker with ``randrange`` and calls the library's ``blockers_of``,
``select_push`` and ``sample_buffer_pose``, and applies them with the
library's ``transition``.  So ``plan`` is held to it draw for draw, action
for action and cost for cost.
"""

import math
import random
import time
from collections.abc import Sequence
from dataclasses import replace
from typing import Optional

import pushplan.bench as bench
from pushplan.bench import MAX_AREA_FRACTION, BenchError
from pushplan.geometry import HalfDims, Rect, Side, Vec2, axis_coord, rect_from_center
from pushplan.metrics import EEState, action_cost
from pushplan.planner import EXPLORATION_C, Plan, PlannerConfig
from pushplan.primitives import PushProposal, PushStats, sample_buffer_pose, select_push
from pushplan.scene import (
    DEFAULT_CLEARANCE,
    DEFAULT_TOLERANCE,
    Action,
    InvalidSceneError,
    ObjectSpec,
    PickPlace,
    Scene,
    blockers_of,
    is_at_goal,
    satisfied_count,
    transition,
    validate_action,
)

STEP = 0.001
MARGIN = 0.01
CLEARANCE = 0.005

_AXES = {"left": (0, -1.0), "right": (0, 1.0), "up": (1, 1.0), "down": (1, -1.0)}


def overlaps(r1: Rect, r2: Rect) -> bool:
    """True iff the rectangle interiors intersect (touching is not overlap)."""
    return r1.lo.x < r2.hi.x and r2.lo.x < r1.hi.x and r1.lo.y < r2.hi.y and r2.lo.y < r1.hi.y


def contains(outer: Rect, inner: Rect) -> bool:
    """True iff ``inner`` lies within ``outer``; boundary contact allowed."""
    return (
        outer.lo.x <= inner.lo.x
        and outer.lo.y <= inner.lo.y
        and inner.hi.x <= outer.hi.x
        and inner.hi.y <= outer.hi.y
    )


def translate(r: Rect, v: Vec2) -> Rect:
    return Rect(r.lo + v, r.hi + v)


def sweep(r: Rect, side: Side, distance: float) -> Rect:
    """Region ``r`` covers while translated along ``side`` by up to ``distance``:
    the union of the start and end footprints, a rectangle."""
    if distance < 0.0:
        raise ValueError(f"sweep distance must be non-negative, got {distance}")
    end = translate(r, side.unit * distance)
    return Rect(
        Vec2(min(r.lo.x, end.lo.x), min(r.lo.y, end.lo.y)),
        Vec2(max(r.hi.x, end.hi.x), max(r.hi.y, end.hi.y)),
    )


def axis_extent(r: Rect, side: Side) -> tuple[float, float]:
    """Projection (near, far) of ``r`` onto the travel axis of ``side``,
    oriented so that far > near in the direction of travel."""
    u = side.unit
    c1 = r.lo.x * u.x + r.lo.y * u.y
    c2 = r.hi.x * u.x + r.hi.y * u.y
    return (c1, c2) if c1 <= c2 else (c2, c1)


def footprint(scene: Scene, i: int) -> Rect:
    """Object ``i``'s current footprint as a ``Rect``."""
    return rect_from_center(scene.current[i], scene.objects[i].half)


def goal_footprint(scene: Scene, i: int) -> Rect:
    """Object ``i``'s goal footprint as a ``Rect``."""
    return rect_from_center(scene.goal[i], scene.objects[i].half)


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
    pending = scene.unsatisfied
    for _ in range(max_attempts):
        pose = Vec2(rng.uniform(xlo, xhi), rng.uniform(ylo, yhi))
        r = rect_from_center(pose, half)
        if not contains(w, r):
            continue
        if any(overlaps(r, footprint(scene, j)) for j in range(scene.n) if j != obj):
            continue
        if any(overlaps(r, goal_footprint(scene, j)) for j in pending):
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
    return not any(overlaps(r, footprint(scene, j)) for j in range(scene.n) if j != obj)


def replace_moved(scene: Scene, moves) -> Scene:
    """``scene`` with each ``(object, pose)`` of ``moves`` relocated, rebuilt with ``replace``."""
    poses = list(scene.current)
    for i, pose in moves:
        poses[i] = pose
    return replace(scene, current=tuple(poses))


def replace_successor(scene: Scene, action: Action) -> Scene:
    """``apply_action`` as first written: validate, move, rebuild with ``replace``.

    A placement moves its object to the destination.  A push moves its
    target to the goal and each validated blocker displacement along the
    side.
    """
    move = validate_action(scene, action)
    if isinstance(action, PickPlace):
        moves = [(action.object, action.destination)]
    else:
        u = action.side.unit
        moves = [(action.object, scene.goal[action.object])]
        moves += [(b, scene.current[b] + u * d) for b, d in move.blocker_moves]
    return replace_moved(scene, moves)


def _object_union(r1: Rect, r2: Rect) -> Rect:
    """The bounding rectangle of ``r1`` and ``r2``: the region swept between
    two footprints on one axis."""
    return Rect(
        Vec2(min(r1.lo.x, r2.lo.x), min(r1.lo.y, r2.lo.y)),
        Vec2(max(r1.hi.x, r2.hi.x), max(r1.hi.y, r2.hi.y)),
    )


def _object_landing(scene: Scene, blocker: int, side: Side, displacement: float) -> Rect:
    """The footprint of ``blocker`` pushed ``displacement`` along ``side``,
    at the center the transition model moves it to."""
    return rect_from_center(scene.current[blocker] + side.unit * displacement, scene.objects[blocker].half)


def _object_corridor_clear(scene: Scene, blocker: int, side: Side, displacement: float, exclude) -> bool:
    region = _object_union(footprint(scene, blocker), _object_landing(scene, blocker, side, displacement))
    for j in range(scene.n):
        if j == blocker or j in exclude:
            continue
        if overlaps(region, footprint(scene, j)):
            return False
    return True


def _object_edge_safe(scene: Scene, blocker: int, side: Side, displacement: float, margin: float) -> bool:
    r = _object_landing(scene, blocker, side, displacement)
    w = scene.workspace
    return (
        r.lo.x >= w.lo.x + margin
        and r.lo.y >= w.lo.y + margin
        and r.hi.x <= w.hi.x - margin
        and r.hi.y <= w.hi.y - margin
    )


def _object_placement_conflict(scene: Scene, obj: int, r: Rect) -> Optional[str]:
    """``scene.placement_conflict`` as first written, on a ``Rect``: the same
    rule and the same reason strings."""
    if not contains(scene.workspace, r):
        return "leaves the workspace"
    for j in range(scene.n):
        if j != obj and overlaps(r, footprint(scene, j)):
            return f"overlaps object {j}"
    return None


def object_evaluate_side(
    scene: Scene,
    target: int,
    blockers: Sequence[int],
    side: Side,
    edge_margin: float,
    stats: Optional[PushStats],
) -> tuple[Optional[PushProposal], str]:
    """``primitives._evaluate_side`` as first written, on ``Rect`` and ``Vec2`` objects."""
    if stats is not None:
        stats.sides_evaluated += 1
    goal_pose = scene.goal[target]
    goal_far = axis_extent(goal_footprint(scene, target), side)[1]
    grasped = frozenset((target,))

    moves: list[tuple[int, float]] = []
    for b in blockers:
        near = axis_extent(footprint(scene, b), side)[0]
        d = goal_far - near + DEFAULT_CLEARANCE
        if stats is not None:
            stats.pair_checks += 1
        if not _object_edge_safe(scene, b, side, d, edge_margin):
            return None, f"blocker {b} would end within {edge_margin} m of a table edge"
        if not _object_corridor_clear(scene, b, side, d, grasped):
            return None, f"push corridor of blocker {b} is not empty"
        moves.append((b, d))

    min_near = min(axis_extent(footprint(scene, b), side)[0] for b, _ in moves)
    half = scene.objects[target].half
    h = half.a if side.horizontal else half.b
    p0_axis = (min_near - DEFAULT_CLEARANCE) - h
    goal_axis = axis_coord(goal_pose, side)
    p0 = goal_pose + side.unit * (p0_axis - goal_axis)

    if stats is not None:
        stats.p0_checks += 1
    p0_rect = rect_from_center(p0, half)
    why = _object_placement_conflict(scene, target, p0_rect)
    if why:
        return None, f"pre-push footprint {why}"

    # The target's sweep ends one clearance past its goal.
    approach = _object_union(p0_rect, rect_from_center(goal_pose + side.unit * DEFAULT_CLEARANCE, half))
    blocker_set = frozenset(b for b, _ in moves)
    for j in range(scene.n):
        if j == target or j in blocker_set:
            continue
        if overlaps(approach, footprint(scene, j)):
            return None, f"approach corridor is blocked by non-blocker object {j}"

    return PushProposal(target, side, p0, tuple(moves)), ""


def object_generate_scene(
    n: int,
    seed: int,
    workspace: Optional[Rect] = None,
    size_range: tuple[float, float] = (0.03, 0.07),
    tolerance: float = DEFAULT_TOLERANCE,
) -> Scene:
    """``bench.generate_scene`` as first written, on ``Rect`` and ``Vec2`` objects."""
    if workspace is None:
        workspace = Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
    lo, hi = size_range
    if not 0.0 < lo <= hi:
        raise ValueError(f"invalid size range ({lo}, {hi})")
    area = workspace.width * workspace.height
    if n * (2.0 * hi) ** 2 > MAX_AREA_FRACTION * area:
        raise BenchError(
            f"{n} objects of max footprint {2 * hi:.3f} m square exceed "
            f"{MAX_AREA_FRACTION:.0%} of the table area"
        )
    rng = random.Random(seed)
    objects = tuple(
        ObjectSpec(HalfDims(rng.uniform(lo, hi), rng.uniform(lo, hi))) for _ in range(n)
    )

    def sample_arrangement(label: str) -> tuple[Vec2, ...]:
        poses: list[Vec2] = []
        for i, spec in enumerate(objects):
            a, b = spec.half.a, spec.half.b
            placed = None
            for _ in range(bench.PLACEMENT_ATTEMPTS):
                c = Vec2(
                    rng.uniform(workspace.lo.x + a, workspace.hi.x - a),
                    rng.uniform(workspace.lo.y + b, workspace.hi.y - b),
                )
                r = rect_from_center(c, spec.half)
                if any(
                    overlaps(r, rect_from_center(p, objects[j].half))
                    for j, p in enumerate(poses)
                ):
                    continue
                placed = c
                break
            if placed is None:
                raise BenchError(
                    f"could not place object {i} in the {label} arrangement "
                    f"after {bench.PLACEMENT_ATTEMPTS} attempts (seed {seed})"
                )
            poses.append(placed)
        return tuple(poses)

    current = sample_arrangement("start")
    goal = sample_arrangement("goal")
    return Scene(workspace, objects, current, goal, tolerance)


def object_validate_scene(
    workspace: Rect,
    objects: tuple[ObjectSpec, ...],
    current: tuple[Vec2, ...],
    goal: tuple[Vec2, ...],
    tolerance: float = DEFAULT_TOLERANCE,
) -> None:
    """``Scene.__post_init__`` as first written: raises InvalidSceneError, or
    returns None for a valid scene."""
    n = len(objects)
    if len(current) != n or len(goal) != n:
        raise InvalidSceneError(
            f"pose counts (current={len(current)}, goal={len(goal)}) "
            f"must match object count {n}"
        )
    if not 0.0 < tolerance < math.inf:
        raise InvalidSceneError(f"tolerance must be finite and positive, got {tolerance}")
    for label, poses in (("current", current), ("goal", goal)):
        rects = [rect_from_center(poses[i], objects[i].half) for i in range(n)]
        for i, r in enumerate(rects):
            if not contains(workspace, r):
                raise InvalidSceneError(f"{label} footprint of object {i} leaves the workspace")
        for i in range(n):
            for j in range(i + 1, n):
                if overlaps(rects[i], rects[j]):
                    raise InvalidSceneError(f"{label} footprints of objects {i} and {j} overlap")


class _ReferenceNode:
    __slots__ = ("state", "action", "children", "visits", "reward_sum")

    def __init__(self, state: Scene, action: Optional[Action]) -> None:
        self.state = state
        self.action = action
        self.children: list[_ReferenceNode] = []
        self.visits = 0
        self.reward_sum = 0.0


def _reference_backprop(path: list, reward: float) -> None:
    for node in path:
        node.visits += 1
        node.reward_sum += reward


def _reference_recommend(
    scene: Scene, obj: int, cfg: PlannerConfig, rng: random.Random
) -> Optional[PickPlace | PushProposal]:
    """``planner.recommend_action`` as first written."""
    blockers = blockers_of(scene, obj)
    if not blockers:
        return PickPlace(obj, scene.goal[obj])
    if cfg.push_enabled:
        proposal = select_push(scene, obj)
        if proposal is not None:
            return proposal
    b = blockers[rng.randrange(len(blockers))]
    if not blockers_of(scene, b):
        return PickPlace(b, scene.goal[b])
    buffer = sample_buffer_pose(scene, b, rng)
    if buffer is None:
        return None
    return PickPlace(b, buffer)


def _reference_step(root: _ReferenceNode, cfg: PlannerConfig, rng: random.Random) -> Optional[list]:
    """``planner.tree_search_step`` as first written."""
    n = root.state.n
    depth_cap = 4 * n
    node = root
    path = [root]
    while True:
        can_widen = len(path) <= depth_cap and len(node.children) < max(1, math.isqrt(node.visits))
        if can_widen:
            break
        if not node.children:
            _reference_backprop(path, float(satisfied_count(node.state)))
            return None
        log_visits = math.log(node.visits)
        best, best_score = node, -math.inf
        for child in node.children:
            visits = child.visits
            score = (child.reward_sum / visits) / n + EXPLORATION_C * math.sqrt(log_visits / visits) / n
            if score > best_score:
                best, best_score = child, score
        node = best
        path.append(node)

    ids = [i for i in range(n) if not is_at_goal(node.state, i)]
    obj = ids[rng.randrange(len(ids))]
    rec = _reference_recommend(node.state, obj, cfg, rng)
    if rec is None:
        _reference_backprop(path, float(satisfied_count(node.state)))
        return None
    action, new_state = transition(node.state, rec)
    child = _ReferenceNode(new_state, action)
    node.children.append(child)
    path.append(child)
    _reference_backprop(path, float(satisfied_count(new_state)))
    return path


def _reference_extract(path: list) -> Plan:
    """The actions along ``path``, each costed by ``action_cost`` with the
    end-effector state chained from the workspace center."""
    actions, costs = [], []
    center = path[0].state.workspace.center
    ee = EEState(center, center)
    for parent, child in zip(path, path[1:]):
        bd, ee = action_cost(parent.state, child.action, ee)
        actions.append(child.action)
        costs.append(bd)
    return Plan(tuple(actions), tuple(costs))


def reference_plan(scene: Scene, cfg: PlannerConfig) -> Optional[Plan]:
    """``planner.plan`` as first written."""
    if satisfied_count(scene) == scene.n:
        return Plan((), ())
    rng = random.Random(cfg.seed)
    root = _ReferenceNode(scene, None)

    if cfg.max_expansions is not None:
        remaining = cfg.max_expansions

        def budget_left() -> bool:
            nonlocal remaining
            remaining -= 1
            return remaining >= 0

    else:
        deadline = time.monotonic() + cfg.time_budget_s

        def budget_left() -> bool:
            return time.monotonic() < deadline

    while budget_left():
        path = _reference_step(root, cfg, rng)
        if path is not None and satisfied_count(path[-1].state) == scene.n:
            return _reference_extract(path)
    return None
