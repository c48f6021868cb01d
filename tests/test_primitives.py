"""Push-assisted placement: displacement math, admissibility, side selection,
buffer sampling, and the placement rule every caller shares."""

import math
import random
from collections import Counter
from typing import Optional

import pytest

from conftest import assert_cache_exact, make_chained_push_scene, make_swap_scene, take_proposals
from oracles import (
    check_push,
    object_evaluate_side,
    oracle_blockers,
    oracle_buffer_pose,
    footprint,
    goal_footprint,
    oracle_p0,
    overlaps,
    placement_free,
    side_fails,
    translate,
)
from pushplan import primitives
from pushplan.bench import generate_scene
from pushplan.geometry import (
    HalfDims,
    Rect,
    Side,
    Vec2,
    axis_coord,
    bounds_from_center,
    perp_coord,
)
from pushplan.planner import PlannerConfig, recommend_action, sample_unsatisfied_object
from pushplan.primitives import (
    DEFAULT_EDGE_MARGIN,
    PushStats,
    corridor_clear,
    edge_safe,
    sample_buffer_pose,
    select_push,
    validate_push_action,
)
from pushplan.scene import (
    InfeasibleActionError,
    InvalidSceneError,
    ObjectSpec,
    PickPlace,
    PushPlace,
    Scene,
    apply_action,
    blockers_of,
    is_at_goal,
    landing,
    placement_conflict,
    satisfied_count,
    transition,
    unsatisfied_ids,
    validate_action,
)
from pushplan.seeding import derive_seed
from pushplan.simulator import simulate

WS = Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
DENSE_SIZES = (0.05, 0.079)


def square(i: int, half: float = 0.05) -> ObjectSpec:
    return ObjectSpec(i, HalfDims(half, half))


def bisect_displacement(scene: Scene, blocker: int, target: int, side: Side) -> float:
    """Oracle: smallest travel that clears the goal region, found by bisection."""
    goal = goal_footprint(scene, target)
    foot = footprint(scene, blocker)
    lo, hi = 0.0, 5.0
    assert overlaps(foot, goal)
    assert not overlaps(translate(foot, side.unit * hi), goal)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if overlaps(translate(foot, side.unit * mid), goal):
            lo = mid
        else:
            hi = mid
    return hi


def landing_bounds(scene: Scene, blocker: int, side: Side, d: float):
    """The footprint bounds of ``blocker`` at its ``landing`` after a push of ``d``."""
    return bounds_from_center(landing(scene, blocker, side, d), scene.objects[blocker].half)


def displacements(scene: Scene, target: int, side: Side) -> tuple[tuple[int, float], ...]:
    """Blocker moves of the validated push of ``target`` from the oracle's pre-push pose."""
    action = PushPlace(target, side, oracle_p0(scene, target, side))
    return validate_push_action(scene, action).blocker_moves


class TestBlockerDisplacement:
    def test_swap_fixture_value(self):
        s = make_swap_scene()
        for side in (Side.LEFT, Side.RIGHT):
            (b, d), = displacements(s, 0, side)
            assert b == 1 and d == pytest.approx(0.105, abs=1e-12)

    def test_partial_overlap_value(self):
        # blocker straddles the goal's right edge by 0.04, so a RIGHT push
        # needs that penetration plus the clearance
        s = Scene(WS, (square(0), square(1)),
                  (Vec2(0.2, 0.2), Vec2(0.56, 0.5)),
                  (Vec2(0.5, 0.5), Vec2(0.8, 0.8)))
        (_, d), = displacements(s, 0, Side.RIGHT)
        assert d == pytest.approx(0.04 + 0.005, abs=1e-12)  # 0.045
        (_, d_left), = displacements(s, 0, Side.LEFT)
        assert d_left == pytest.approx(0.16 + 0.005, abs=1e-12)

    def test_matches_bisection_oracle_plus_clearance(self):
        for scene, prop in take_proposals("disp-oracle", 250):
            for b, d in prop.blocker_moves:
                want = bisect_displacement(scene, b, prop.target, prop.side) + 0.005
                assert d == pytest.approx(want, abs=1e-9)

    def test_always_positive(self):
        for scene, prop in take_proposals("disp-positive", 150):
            for _, d in prop.blocker_moves:
                assert d > 0.005 - 1e-12  # at least the clearance


class TestCorridorAndEdge:
    def test_corridor_blocked_by_third_object(self):
        s = make_chained_push_scene()
        d = bisect_displacement(s, 1, 0, Side.LEFT) + 0.005
        assert not corridor_clear(s, 1, landing_bounds(s, 1, Side.LEFT, d), exclude=frozenset({0}))

    def test_corridor_open_when_neighbor_removed(self):
        s = make_chained_push_scene()
        opened = apply_action(s, PickPlace(2, Vec2(0.2, 0.8)))
        d = bisect_displacement(opened, 1, 0, Side.LEFT) + 0.005
        assert corridor_clear(opened, 1, landing_bounds(opened, 1, Side.LEFT, d), exclude=frozenset({0}))

    def test_edge_safe_boundary(self):
        s = Scene(WS, (square(0), square(1)),
                  (Vec2(0.2, 0.2), Vec2(0.8, 0.5)),
                  (Vec2(0.76, 0.5), Vec2(0.2, 0.8)))
        # a RIGHT displacement of 0.09 rests the blocker at x=0.89,
        # footprint up to 0.94: a clear 0.06 from the edge
        assert edge_safe(s, landing_bounds(s, 1, Side.RIGHT, 0.09), DEFAULT_EDGE_MARGIN)
        # 0.8 + 0.145 + 0.05 = 0.995, inside the margin band
        assert not edge_safe(s, landing_bounds(s, 1, Side.RIGHT, 0.145), DEFAULT_EDGE_MARGIN)
        # with margin waived the same rest pose is fine (still on the table)
        assert edge_safe(s, landing_bounds(s, 1, Side.RIGHT, 0.145), 0.0)
        # past the physical edge fails even at zero margin
        assert not edge_safe(s, landing_bounds(s, 1, Side.RIGHT, 0.16), 0.0)


class TestSelectPush:
    def test_swap_picks_first_side_in_order(self, swap_scene):
        prop = select_push(swap_scene, 0)
        assert prop is not None
        assert prop.side is Side.LEFT  # RIGHT is admissible too, LEFT comes first

    def test_raises_on_free_goal(self, swap_scene):
        cleared = apply_action(swap_scene, PickPlace(1, Vec2(0.8, 0.8)))
        with pytest.raises(ValueError, match="no blockers"):
            select_push(cleared, 0)

    def test_chained_push_scene_rejected(self, chained_push_scene):
        assert select_push(chained_push_scene, 0) is None

    def test_edge_push_scene_rejected(self, edge_push_scene):
        assert select_push(edge_push_scene, 0) is None

    def test_rejections_match_oracle_on_fixtures(self, chained_push_scene, edge_push_scene):
        for s in (chained_push_scene, edge_push_scene):
            assert all(side_fails(s, 0, side) for side in Side)

    def test_deterministic(self, swap_scene):
        a = select_push(swap_scene, 0)
        b = select_push(swap_scene, 0)
        assert a == b

    def test_counter_budget(self):
        for scene, _ in take_proposals("counters", 100):
            for target in range(scene.n):
                blockers = blockers_of(scene, target)
                if not blockers:
                    continue
                stats = PushStats()
                select_push(scene, target, stats=stats)
                assert stats.sides_evaluated <= 4
                assert stats.p0_checks <= stats.sides_evaluated
                assert stats.pair_checks <= 4 * len(blockers)


class TestProposalPostconditions:
    def test_thousand_random_proposals(self):
        # quantified invariant: admissible proposals transition to valid,
        # goal-satisfying scenes
        count = 0
        for scene, prop in take_proposals("postconditions", 1000):
            assert prop.target in range(scene.n)
            assert set(b for b, _ in prop.blocker_moves) == set(blockers_of(scene, prop.target))
            # pre-push pose is laterally aligned with the goal
            assert perp_coord(prop.pre_push, prop.side) == pytest.approx(
                perp_coord(scene.goal[prop.target], prop.side), abs=1e-12
            )
            # and strictly behind it along the travel direction
            assert axis_coord(prop.pre_push, prop.side) < axis_coord(
                scene.goal[prop.target], prop.side
            )
            nxt = apply_action(scene, prop.as_action())
            assert nxt.current[prop.target] == scene.goal[prop.target]
            assert is_at_goal(nxt, prop.target)
            assert satisfied_count(nxt) >= 1
            count += 1
        assert count == 1000

    def test_sweep_oracle_agrees_on_accepted(self):
        for scene, prop in take_proposals("sweep-agree", 300):
            violations = check_push(
                scene, prop.target, prop.side,
                pre_push=prop.pre_push, expected_moves=prop.blocker_moves,
            )
            assert violations == []

    @pytest.mark.parametrize("n, sizes", [(8, (0.03, 0.07)), (14, (0.05, 0.079))])
    def test_post_push_footprints_are_pairwise_disjoint(self, n, sizes):
        # Admissibility has no pairwise check of the blockers' end poses: the
        # per-blocker corridor checks already imply it, on every side of every
        # blocked target, at the planning margin and the validation margin.
        # The end footprints are read from the successor ``transition`` builds.
        accepted = multi = 0
        for k in range(60):
            scene = generate_scene(n, derive_seed("post-push-disjoint", n, k), size_range=sizes)
            for target in range(n):
                blockers = blockers_of(scene, target)
                if not blockers:
                    continue
                for side in Side:
                    for margin in (0.0, DEFAULT_EDGE_MARGIN):
                        prop, _ = primitives._evaluate_side(scene, target, blockers, side, margin, None)
                        if prop is None:
                            continue
                        _, nxt = transition(scene, prop)
                        post = [footprint(nxt, b) for b, _ in prop.blocker_moves]
                        for i in range(len(post)):
                            for j in range(i + 1, len(post)):
                                assert not overlaps(post[i], post[j]), (k, target, side, margin)
                        accepted += 1
                        multi += len(post) > 1
        assert accepted >= 500 and multi >= 15, (accepted, multi)

    def test_oracle_p0_matches_implementation(self):
        for scene, prop in take_proposals("p0-agree", 200):
            want = oracle_p0(scene, prop.target, prop.side)
            assert prop.pre_push.x == pytest.approx(want.x, abs=1e-9)
            assert prop.pre_push.y == pytest.approx(want.y, abs=1e-9)


class TestValidatePushAction:
    def test_accepts_canonical_action(self, swap_scene):
        prop = select_push(swap_scene, 0)
        got = validate_push_action(swap_scene, prop.as_action())
        assert got.blocker_moves == prop.blocker_moves

    def test_rejects_perturbed_pre_push(self, swap_scene):
        prop = select_push(swap_scene, 0)
        off = PushPlace(0, prop.side, prop.pre_push + Vec2(1e-6, 0.0))
        with pytest.raises(InfeasibleActionError, match="pre-push"):
            validate_push_action(swap_scene, off)

    def test_rejects_free_goal(self, swap_scene):
        prop = select_push(swap_scene, 0)
        cleared = apply_action(swap_scene, PickPlace(1, Vec2(0.8, 0.8)))
        with pytest.raises(InfeasibleActionError):
            validate_push_action(cleared, prop.as_action())

    def test_margin_zero_accepts_tight_pushes(self):
        # blocker rests 6 mm from the edge: planner rejects (10 mm margin),
        # but the action itself is legal physics and applies cleanly
        s = Scene(WS, (square(0), square(1)),
                  (Vec2(0.2, 0.5), Vec2(0.88, 0.5)),
                  (Vec2(0.835, 0.5), Vec2(0.2, 0.8)))
        assert select_push(s, 0) is None or select_push(s, 0).side not in (Side.RIGHT,)
        action = PushPlace(0, Side.RIGHT, oracle_p0(s, 0, Side.RIGHT))
        prop = validate_push_action(s, action)
        assert prop.side is Side.RIGHT
        nxt = apply_action(s, action)
        assert is_at_goal(nxt, 0)

    def test_rejects_blocked_corridor(self, chained_push_scene):
        # every side of the chained scene shoves a second object along
        s = chained_push_scene
        action = PushPlace(0, Side.RIGHT, oracle_p0(s, 0, Side.RIGHT))
        with pytest.raises(InfeasibleActionError, match="inadmissible: push corridor of blocker 1"):
            validate_push_action(s, action)


class TestBufferSampling:
    def test_postconditions(self, swap_scene):
        rng = random.Random(42)
        for _ in range(200):
            pose = sample_buffer_pose(swap_scene, 0, rng)
            assert pose is not None
            assert placement_free(swap_scene, 0, pose)
            # must not squat on the unsatisfied objects' goals
            from pushplan.geometry import rect_from_center

            r = rect_from_center(pose, swap_scene.objects[0].half)
            for j in (0, 1):
                assert not overlaps(r, goal_footprint(swap_scene, j))

    def test_deterministic_under_seed(self, swap_scene):
        a = sample_buffer_pose(swap_scene, 0, random.Random(7))
        b = sample_buffer_pose(swap_scene, 0, random.Random(7))
        assert a == b

    def test_returns_none_when_crowded(self, monkeypatch):
        # four big objects tile a small table; nothing else fits anywhere
        # (all coordinates picked binary-exact so the tiles touch, not overlap)
        ws = Rect(Vec2(0.0, 0.0), Vec2(0.5, 0.5))
        objs = tuple(ObjectSpec(i, HalfDims(0.125, 0.125)) for i in range(4))
        poses = (Vec2(0.125, 0.125), Vec2(0.375, 0.125), Vec2(0.125, 0.375), Vec2(0.375, 0.375))
        s = Scene(ws, objs, poses, poses)
        monkeypatch.setattr(primitives, "BUFFER_MAX_ATTEMPTS", 200)
        assert sample_buffer_pose(s, 0, random.Random(1)) is None


def plain_and_cached_scenes(n: int, sizes: tuple[float, float], count: int):
    """Random scenes, each followed by its cached copy and a few cached
    descendants, whose unsatisfied ids were updated move by move."""
    cfg = PlannerConfig(max_expansions=1)
    for k in range(count):
        plain = generate_scene(n, derive_seed("loop-oracles", n, k), size_range=sizes)
        yield plain
        state = plain.with_footprints()
        yield state
        rng = random.Random(k)
        for _ in range(3):
            if not unsatisfied_ids(state):
                break
            rec = recommend_action(state, sample_unsatisfied_object(state, rng), cfg, rng)
            if rec is None:
                break
            _, state = transition(state, rec)
            yield state


def column_scene(goal_y: float, transpose: bool = False) -> Scene:
    """A one-object-wide table where object 0 fits only at y = 0.375.

    Object 1 sits just below that pose and object 2 just above, both face to
    face with it.  Object 0's own goal is pending at ``goal_y``: at 0.625 its
    footprint starts exactly at the pose's top face.  All coordinates are
    binary-exact, so touching means touching.  ``transpose`` swaps x and y,
    making the same scene a row.
    """

    def v(x: float, y: float) -> Vec2:
        return Vec2(y, x) if transpose else Vec2(x, y)

    def h(a: float, b: float) -> HalfDims:
        return HalfDims(b, a) if transpose else HalfDims(a, b)

    ws = Rect(v(0.0, 0.0), v(0.25, 0.75))
    objs = (ObjectSpec(0, h(0.125, 0.125)), ObjectSpec(1, h(0.125, 0.0625)), ObjectSpec(2, h(0.125, 0.0625)))
    current = (v(0.125, 0.375), v(0.125, 0.1875), v(0.125, 0.5625))
    goal = (v(0.125, goal_y), v(0.125, 0.1875), v(0.125, 0.0625))
    return Scene(ws, objs, current, goal)


class ScriptedRandom(random.Random):
    """Returns the given ``random()`` values in order."""

    def __init__(self, values):
        super().__init__(0)
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def assert_buffer_sampling_matches(scenes, runs, monkeypatch) -> None:
    """``sample_buffer_pose`` gives the loop oracle's pose and RNG state for
    every pending object of ``scenes``, for each ``(seed, attempts)`` of
    ``runs``; both an accepted pose and an exhausted budget occur."""
    outcomes = {"accepted": 0, "exhausted": 0}
    for scene in scenes:
        for obj in unsatisfied_ids(scene):
            for seed, attempts in runs:
                rng, ref_rng = random.Random(seed), random.Random(seed)
                monkeypatch.setattr(primitives, "BUFFER_MAX_ATTEMPTS", attempts)
                pose = sample_buffer_pose(scene, obj, rng)
                assert pose == oracle_buffer_pose(scene, obj, ref_rng, attempts)
                assert rng.getstate() == ref_rng.getstate()
                outcomes["accepted" if pose is not None else "exhausted"] += 1
    assert all(outcomes.values()), outcomes


class TestBufferSamplingMatchesLoopOracle:
    @pytest.mark.parametrize("n, sizes", [(8, (0.03, 0.07)), (14, DENSE_SIZES)])
    def test_same_pose_and_rng_state(self, n, sizes, monkeypatch):
        runs = ((0, 100), (1, 100), (2, 4), (3, 1))
        assert_buffer_sampling_matches(plain_and_cached_scenes(n, sizes, 6), runs, monkeypatch)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_pose_touching_obstacles_is_accepted(self, transpose):
        scene = column_scene(0.625, transpose)
        # Across the column the pose is pinned at 0.125; along it, 0.175
        # overlaps object 1 and 0.375 touches.
        script = (0.1, 0.9, 0.5, 0.3) if transpose else (0.9, 0.1, 0.3, 0.5)
        want = Vec2(0.375, 0.125) if transpose else Vec2(0.125, 0.375)
        for s in (scene, scene.with_footprints()):
            assert sample_buffer_pose(s, 0, ScriptedRandom(script)) == want
            assert oracle_buffer_pose(s, 0, ScriptedRandom(script)) == want

    @pytest.mark.parametrize("transpose", [False, True])
    def test_pose_overlapping_by_1e_9_is_rejected(self, transpose, monkeypatch):
        scene = column_scene(0.625 - 1e-9, transpose)
        for s in (scene, scene.with_footprints()):
            monkeypatch.setattr(primitives, "BUFFER_MAX_ATTEMPTS", 1)
            assert sample_buffer_pose(s, 0, ScriptedRandom((0.5, 0.5))) is None
            assert oracle_buffer_pose(s, 0, ScriptedRandom((0.5, 0.5)), max_attempts=1) is None
            monkeypatch.setattr(primitives, "BUFFER_MAX_ATTEMPTS", 100)
            assert sample_buffer_pose(s, 0, random.Random(5)) is None


class ZeroRandom(random.Random):
    """``random()`` always returns 0.0: every draw is the lowest center."""

    def random(self):
        return 0.0


class TestBufferPoseOnOffsetWorkspaces:
    def test_lowest_draw_stays_on_the_table(self):
        # On [lo, lo + 1]², the lowest center ``(lo + a) + width * 0.0`` can
        # give ``x - a`` one ulp below ``lo``.  Such a draw must be rejected:
        # every pose returned must be a legal move for ``Scene.with_moved``.
        cases = random.Random(2024)
        returned = rejected = 0
        for _ in range(2000):
            lo = cases.uniform(0.05, 0.5)
            a, b = cases.uniform(0.01, 0.05), cases.uniform(0.01, 0.05)
            ws = Rect(Vec2(lo, lo), Vec2(lo + 1.0, lo + 1.0))
            center = Vec2(lo + 0.5, lo + 0.5)
            scene = Scene(ws, (ObjectSpec(0, HalfDims(a, b)),), (center,), (center,))
            pose = sample_buffer_pose(scene, 0, ZeroRandom())
            assert pose == oracle_buffer_pose(scene, 0, ZeroRandom())
            if pose is None:
                rejected += 1
                continue
            returned += 1
            assert placement_free(scene, 0, pose)
            assert scene.with_footprints().with_moved(((0, pose),)).current[0] == pose
        assert returned and rejected, (returned, rejected)


class TestBlockersMatchOracle:
    @pytest.mark.parametrize("n, sizes", [(8, (0.03, 0.07)), (14, DENSE_SIZES)])
    def test_random_scenes(self, n, sizes):
        for scene in plain_and_cached_scenes(n, sizes, 6):
            for i in range(scene.n):
                assert list(blockers_of(scene, i)) == oracle_blockers(scene, i)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_touching_edges_do_not_block(self, transpose):
        scene = column_scene(0.625, transpose)
        child = scene.with_footprints().with_moved(((1, scene.current[1]),))
        for s in (scene, scene.with_footprints(), child):
            # object 2's goal [0, 0.125] touches object 1's footprint [0.125, 0.25]
            assert blockers_of(s, 2) == () and oracle_blockers(s, 2) == []
            assert blockers_of(s, 0) == (2,) and oracle_blockers(s, 0) == [2]


def side_scan_outcomes(scenes) -> dict[str, int]:
    """Hold the float-based side scan to the object-based original on every
    blocked target, side and edge margin of ``scenes``: the same proposal or
    rejection reason, and the same work counters.  Returns how often each
    kind of outcome occurred."""
    outcomes = dict.fromkeys(("accepted", "blocker", "push corridor", "pre-push", "approach"), 0)
    for s in scenes:
        for target in range(s.n):
            blockers = blockers_of(s, target)
            if not blockers:
                continue
            for side in Side:
                for margin in (0.0, DEFAULT_EDGE_MARGIN):
                    got_stats, want_stats = PushStats(), PushStats()
                    got = primitives._evaluate_side(s, target, blockers, side, margin, got_stats)
                    want = object_evaluate_side(s, target, blockers, side, margin, want_stats)
                    assert got == want
                    assert got_stats == want_stats
                    proposal, reason = got
                    kind = "accepted" if proposal else next(o for o in outcomes if reason.startswith(o))
                    outcomes[kind] += 1
    return outcomes


class TestSideScanMatchesObjectOracle:
    @pytest.mark.parametrize("n, sizes", [(8, (0.03, 0.07)), (14, DENSE_SIZES)])
    def test_every_blocked_target_side_and_margin(self, n, sizes):
        roots = (generate_scene(n, derive_seed("side-scan", n, k), size_range=sizes) for k in range(60))
        outcomes = side_scan_outcomes(s for scene in roots for s in (scene, scene.with_footprints()))
        assert all(outcomes.values()), outcomes


def refusal(call, *args) -> Optional[str]:
    """The message of the InfeasibleActionError ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except InfeasibleActionError as e:
        return str(e)
    return None


def accepted(prefix: str, call, *args) -> bool:
    """Whether ``call(*args)`` passes its placement check, whose rejection
    message starts with ``prefix``."""
    why = refusal(call, *args)
    assert why is None or why.startswith(prefix), why
    return why is None


def push_validation_accepts(scene: Scene, obj: int, side: Side) -> Optional[bool]:
    """Whether push validation passes its pre-push check at the oracle's pose;
    None when the push is rejected before that check."""
    try:
        validate_push_action(scene, PushPlace(obj, side, oracle_p0(scene, obj, side)))
    except InfeasibleActionError as e:
        if "pre-push footprint" in str(e):
            return False
        return True if "approach corridor" in str(e) else None
    return True


def placement_cases(scene: Scene, obj: int, rng: random.Random) -> list[Vec2]:
    """Random poses, some off the table, and poses whose footprint touches a
    table edge or another object's face, exactly and 1e-9 past it."""
    half, w = scene.objects[obj].half, scene.workspace
    poses = [
        Vec2(rng.uniform(w.lo.x - half.a, w.hi.x + half.a), rng.uniform(w.lo.y - half.b, w.hi.y + half.b))
        for _ in range(4)
    ]
    f = footprint(scene, rng.randrange(scene.n))
    y = rng.uniform(w.lo.y + half.b, w.hi.y - half.b)
    for eps in (0.0, 1e-9):
        poses += [
            Vec2(w.lo.x + half.a - eps, y),
            Vec2(f.hi.x + half.a - eps, f.center.y),
            Vec2(f.center.x, f.lo.y - half.b + eps),
        ]
    return poses


def column_cases(transpose: bool):
    """Column scenes, cached and a cached descendant, with poses of object 0
    touching both walls and both neighbours, and 1e-9 past each."""

    def v(x: float, y: float) -> Vec2:
        return Vec2(y, x) if transpose else Vec2(x, y)

    side = Side.RIGHT if transpose else Side.UP
    poses = [v(0.125, 0.375), v(0.125, 0.375 + 1e-9), v(0.125, 0.375 - 1e-9), v(0.125 + 1e-9, 0.375)]
    for goal_y in (0.625, 0.625 - 1e-9):
        scene = column_scene(goal_y, transpose)
        cached = scene.with_footprints()
        for s in (scene, cached, cached.with_moved(((1, scene.current[1]),))):
            yield s, side, poses


def pre_push_cases(transpose: bool):
    """Scenes where object 0's push passes every check before the one on its
    canonical pre-push footprint, so that check alone decides.

    Object 1 blocks object 0's goal and lands edge-safe with an empty
    corridor.  Then either object 2, a non-blocker, touches the pre-push
    footprint behind it or beside it, or the table's trailing edge does;
    each exactly, and 1e-9 into it.  The footprint is the library's own
    (from the push validated with object 2 out of the way), and each touching
    face is placed on it float for float.  ``transpose`` swaps x and y.
    Yields (scene, side, pre_push), for each scene plain and cached.
    """

    def v(x: float, y: float) -> Vec2:
        return Vec2(y, x) if transpose else Vec2(x, y)

    side = Side.RIGHT if transpose else Side.UP
    half = HalfDims(0.0625, 0.0625)
    objs = tuple(ObjectSpec(i, half) for i in range(3))
    goal = (v(0.25, 0.5), v(0.75, 0.75), v(0.75, 0.5))

    def scene(neighbour: Vec2, trailing_edge: float = 0.0) -> Scene:
        current = (v(0.75, 0.5), v(0.25, 0.53125), neighbour)
        return Scene(Rect(v(0.0, trailing_edge), v(1.0, 1.0)), objs, current, goal)

    away = v(0.75, 0.875)
    p0 = validate_push_action(scene(away), PushPlace(0, side, oracle_p0(scene(away), 0, side))).pre_push
    trailing = bounds_from_center(p0, half)[0 if transpose else 1]
    # The center whose footprint's leading face is exactly ``trailing``.
    behind = trailing - half.b
    assert behind + half.b == trailing
    for eps in (0.0, 1e-9):
        for s in (scene(v(0.25, behind + eps)), scene(v(0.125 + eps, 0.34)), scene(away, trailing + eps)):
            yield s, side, p0
            yield s.with_footprints(), side, p0


class TestPlacementMatchesOracle:
    """Every caller of ``placement_conflict`` accepts exactly the poses the
    reference rule accepts."""

    def check(self, scene: Scene, obj: int, poses: list[Vec2], side: Side, back: list[float], seen: dict):
        for pose in poses:
            want = placement_free(scene, obj, pose)
            assert accepted(f"destination footprint of object {obj} ", validate_action,
                            scene, PickPlace(obj, pose)) == want, (obj, pose)
            assert accepted(f"moved object {obj} ", scene.with_moved, ((obj, pose),)) == want, (obj, pose)
            seen["free"][want] += 1
        for d in back:
            # ``d`` behind the goal along ``side``: ``simulate`` refuses the
            # push exactly when ``validate_action`` does, with its message,
            # and admits it only from a free pre-push footprint.
            pose = scene.goal[obj] - side.unit * d
            action = PushPlace(obj, side, pose)
            verdict = refusal(validate_action, scene, action)
            assert refusal(simulate, scene, action) == verdict, (obj, side, pose)
            want = placement_free(scene, obj, pose)
            assert verdict is not None or want, (obj, side, pose)
            seen["pre-push"][want] += 1

    @pytest.mark.parametrize("n, sizes", [(8, (0.03, 0.07)), (14, DENSE_SIZES)])
    def test_random_scenes(self, n, sizes):
        seen = {"free": [0, 0], "pre-push": [0, 0], "push": [0, 0]}
        rng = random.Random(n)
        for scene in plain_and_cached_scenes(n, sizes, 4):
            for obj in range(scene.n):
                side = rng.choice(list(Side))
                self.check(scene, obj, placement_cases(scene, obj, rng), side,
                           [rng.uniform(0.0, 0.4) for _ in range(3)], seen)
            for obj in unsatisfied_ids(scene):
                if not blockers_of(scene, obj):
                    continue
                for side in Side:
                    # The canonical pre-push pose: the one aligned pose ``simulate`` can admit.
                    p0 = oracle_p0(scene, obj, side)
                    self.check(scene, obj, [], side, [axis_coord(scene.goal[obj] - p0, side)], seen)
                    got = push_validation_accepts(scene, obj, side)
                    if got is not None:
                        assert got == placement_free(scene, obj, oracle_p0(scene, obj, side)), (obj, side)
                        seen["push"][got] += 1
        assert all(all(counts) for counts in seen.values()), seen

    @pytest.mark.parametrize("transpose", [False, True])
    def test_touching_and_1e_9_overlaps(self, transpose):
        seen = {"free": [0, 0], "pre-push": [0, 0]}
        for scene, side, poses in column_cases(transpose):
            # About 0.25 back from object 0's goal, the pre-push pose is its
            # touching pose or overlaps a neighbour by about 1e-9.
            self.check(scene, 0, poses, side, [0.25 - 1e-9, 0.25, 0.25 + 1e-9], seen)
            for obj in (1, 2):
                self.check(scene, obj, [scene.current[obj]], side, [], seen)
        assert all(all(counts) for counts in seen.values()), seen

    @pytest.mark.parametrize("transpose", [False, True])
    def test_pre_push_footprint_touching_and_1e_9(self, transpose):
        seen = [0, 0]
        for scene, side, p0 in pre_push_cases(transpose):
            action = PushPlace(0, side, p0)
            verdict = refusal(validate_action, scene, action)
            want = placement_free(scene, 0, p0)
            assert (verdict is None) == want, (side, verdict)
            if verdict is not None:
                assert verdict.startswith(
                    f"push of object 0 along side '{side.value}' is inadmissible: pre-push footprint "
                ), verdict
            assert refusal(simulate, scene, action) == verdict
            seen[want] += 1
        assert seen == [6, 6], seen


def walk_successors(n: int, sizes: tuple[float, float], walks: int, steps: int) -> list[Scene]:
    """Search successors: the scenes ``transition`` builds along seeded random
    walks from cached roots.  Each step either applies the recommender's move
    for a random pending object, as an expansion does, or parks a random
    object at a buffer pose, which can take an object off its goal again.
    Every successor's cache is checked against ``rect_from_center``."""
    cfg = PlannerConfig(max_expansions=1)
    out = []
    for k in range(walks):
        state = generate_scene(n, derive_seed("successor-walk", n, k), size_range=sizes).with_footprints()
        rng = random.Random(derive_seed("successor-walk-rng", n, k))
        for _ in range(steps):
            if not unsatisfied_ids(state):
                break
            if rng.random() < 0.25:
                obj = rng.randrange(state.n)
                pose = sample_buffer_pose(state, obj, rng)
                move = None if pose is None else PickPlace(obj, pose)
            else:
                move = recommend_action(state, sample_unsatisfied_object(state, rng), cfg, rng)
            if move is None:
                continue
            _, state = transition(state, move)
            assert_cache_exact(state)
            out.append(state)
    return out


@pytest.fixture(scope="module", params=[(8, (0.03, 0.07)), (14, DENSE_SIZES)], ids=["8-default", "14-large"])
def successors(request) -> list[Scene]:
    n, sizes = request.param
    states = walk_successors(n, sizes, 16, 12)
    assert len(states) >= 150
    return states


class TestSuccessorsMatchOracles:
    """The float scans read the cache ``Scene.with_moved`` builds for each
    successor, so they are held to the object-based oracles on successors
    along search walks, not only on root scenes."""

    def test_blockers(self, successors):
        blocked = 0
        for s in successors:
            for i in range(s.n):
                got = blockers_of(s, i)
                assert list(got) == oracle_blockers(s, i)
                blocked += bool(got)
        assert blocked

    def test_placement_conflict(self, successors):
        seen = [0, 0]
        rng = random.Random(0)
        for s in successors:
            for obj in range(s.n):
                for pose in placement_cases(s, obj, rng):
                    want = placement_free(s, obj, pose)
                    got = placement_conflict(s, obj, bounds_from_center(pose, s.objects[obj].half))
                    assert (got is None) == want, (obj, pose, got)
                    seen[want] += 1
        assert all(seen), seen

    def test_buffer_pose(self, successors, monkeypatch):
        assert_buffer_sampling_matches(successors, ((0, 100), (1, 2)), monkeypatch)

    def test_side_scan(self, successors):
        outcomes = side_scan_outcomes(successors)
        # An approach corridor blocked past a free pre-push pose is rare: 2 of
        # 1128 side evaluations on the N = 8 roots above, and none along these
        # N = 8 walks, so only the N = 14 walks must show it.
        if successors[0].n == 8:
            del outcomes["approach"]
        assert all(outcomes.values()), outcomes


# Half extent of the neighbour ``touching_neighbours`` adds: a power of two,
# so that its near face can be set to most floats exactly.
NEIGHBOUR_HALF = 2.0**-7


def touching_neighbours(scene: Scene, side: Side, moves: tuple[tuple[int, float], ...]):
    """``scene`` with one more object, a small square at its own goal, whose
    near face lies on a pushed blocker's landing far face (offset 0), one ulp
    short of it, overlapping the landing (offset -1), or one ulp past it
    (offset 1).  Yields ``(scene, blocker, offset)`` for each blocker of
    ``moves`` and each offset at which that face is reachable and the
    scene is valid."""
    axis = 0 if side.horizontal else 1
    sign = side.unit.x + side.unit.y
    half = HalfDims(NEIGHBOUR_HALF, NEIGHBOUR_HALF)
    spec = ObjectSpec(scene.n, half)
    for b, d in moves:
        end = landing_bounds(scene, b, side, d)
        far = end[axis + 2] if sign > 0 else end[axis]
        lateral = landing(scene, b, side, d)
        for offset in (-1, 0, 1):
            face = far if offset == 0 else math.nextafter(far, offset * sign * math.inf)
            # A center whose near face is ``face``: ``c - sign * h == face``.
            center = face + sign * NEIGHBOUR_HALF
            for _ in range(8):
                near = center - sign * NEIGHBOUR_HALF
                if near == face:
                    break
                center = math.nextafter(center, math.inf if near < face else -math.inf)
            else:
                continue
            pose = Vec2(center, lateral.y) if axis == 0 else Vec2(lateral.x, center)
            try:
                out = Scene(scene.workspace, scene.objects + (spec,), scene.current + (pose,),
                            scene.goal + (pose,), scene.tolerance)
            except InvalidSceneError:
                continue
            yield out, b, offset


class TestAdmissionMatchesTransition:
    """The push scan tests each blocker at the footprint ``transition``
    builds, so every push it admits has a successor.  On search successors
    and on a touching corpus built from them (a neighbour face to face with
    a blocker's landing, and one ulp either side), every push the scan
    admits, every action ``validate_action`` admits and every move
    ``recommend_action`` returns is accepted by ``transition``, and the
    footprint the scan tested for each blocker is the successor's cached
    one, bit for bit."""

    def test_touching_corpus(self, successors, monkeypatch):
        tested = []
        edge_safe_of_scan = primitives.edge_safe

        def recording_edge_safe(scene, end, margin):
            tested.append(end)
            return edge_safe_of_scan(scene, end, margin)

        monkeypatch.setattr(primitives, "edge_safe", recording_edge_safe)
        cfg = PlannerConfig(max_expansions=1)
        seen = Counter()

        def check_scan(scene, target, blockers, side, margin):
            tested.clear()
            prop, reason = primitives._evaluate_side(scene, target, blockers, side, margin, None)
            if prop is not None:
                _, nxt = transition(scene, prop)
                assert [nxt._footprints[b] for b, _ in prop.blocker_moves] == tested
                seen["admitted"] += 1
            return prop, reason

        def check_moves(scene, target, side, k):
            try:
                move = validate_action(scene, PushPlace(target, side, oracle_p0(scene, target, side)))
            except InfeasibleActionError:
                pass
            else:
                transition(scene, move)
                seen["validated"] += 1
            rec = recommend_action(scene, target, cfg, random.Random(k))
            if rec is not None:
                transition(scene, rec)
                seen["recommended"] += 1

        for k, s in enumerate(successors):
            for target in unsatisfied_ids(s):
                blockers = blockers_of(s, target)
                if not blockers:
                    continue
                for side in Side:
                    check_moves(s, target, side, k)
                    for margin in (0.0, DEFAULT_EDGE_MARGIN):
                        prop, _ = check_scan(s, target, blockers, side, margin)
                        if prop is None:
                            continue
                        for v, b, offset in touching_neighbours(s, side, prop.blocker_moves):
                            got, reason = check_scan(v, target, blockers, side, margin)
                            # The scan's landing far face is the successor's: one
                            # ulp of overlap is a collision, a touch is not.
                            if offset < 0:
                                assert got is None, (k, target, side, margin, b)
                            else:
                                assert reason != f"push corridor of blocker {b} is not empty"
                            seen[f"touching {offset}"] += 1
                            seen[f"touching {offset} admitted"] += got is not None
                            check_moves(v, target, side, k)
        assert seen["touching 0 admitted"] >= 100 and seen["touching 1 admitted"] >= 100, seen
        assert seen["touching -1"] >= 100 and seen["recommended"] and seen["validated"], seen
