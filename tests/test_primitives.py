"""Push-assisted placement: displacement math, admissibility, side selection,
buffer sampling, and the placement rule every caller shares."""

import random
from typing import Optional

import pytest

from conftest import assert_cache_exact, make_chained_push_scene, make_swap_scene, take_proposals
from oracles import (
    check_push,
    object_evaluate_side,
    oracle_blockers,
    oracle_buffer_pose,
    oracle_p0,
    placement_free,
    side_fails,
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
    overlaps,
    perp_coord,
    translate,
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
    ObjectSpec,
    PickPlace,
    PushPlace,
    Scene,
    apply_action,
    blockers_of,
    is_at_goal,
    placement_conflict,
    satisfied_count,
    transition,
    unsatisfied_ids,
    validate_action,
)
from pushplan.seeding import derive_seed
from pushplan.simulator import SimulationError, simulate

WS = Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
DENSE_SIZES = (0.05, 0.079)


def square(i: int, half: float = 0.05) -> ObjectSpec:
    return ObjectSpec(i, HalfDims(half, half))


def bisect_displacement(scene: Scene, blocker: int, target: int, side: Side) -> float:
    """Oracle: smallest travel that clears the goal region, found by bisection."""
    goal = scene.goal_footprint(target)
    foot = scene.footprint(blocker)
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
        assert not corridor_clear(s, 1, Side.LEFT, d, exclude=frozenset({0}))

    def test_corridor_open_when_neighbor_removed(self):
        s = make_chained_push_scene()
        opened = apply_action(s, PickPlace(2, Vec2(0.2, 0.8)))
        d = bisect_displacement(opened, 1, 0, Side.LEFT) + 0.005
        assert corridor_clear(opened, 1, Side.LEFT, d, exclude=frozenset({0}))

    def test_edge_safe_boundary(self):
        s = Scene(WS, (square(0), square(1)),
                  (Vec2(0.2, 0.2), Vec2(0.8, 0.5)),
                  (Vec2(0.76, 0.5), Vec2(0.2, 0.8)))
        # a RIGHT displacement of 0.09 rests the blocker at x=0.89,
        # footprint up to 0.94: a clear 0.06 from the edge
        assert edge_safe(s, 1, Side.RIGHT, 0.09, DEFAULT_EDGE_MARGIN)
        # 0.8 + 0.145 + 0.05 = 0.995, inside the margin band
        assert not edge_safe(s, 1, Side.RIGHT, 0.145, DEFAULT_EDGE_MARGIN)
        # with margin waived the same rest pose is fine (still on the table)
        assert edge_safe(s, 1, Side.RIGHT, 0.145, 0.0)
        # past the physical edge fails even at zero margin
        assert not edge_safe(s, 1, Side.RIGHT, 0.16, 0.0)


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
                        post = [translate(scene.footprint(b), side.unit * d) for b, d in prop.blocker_moves]
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
                assert not overlaps(r, swap_scene.goal_footprint(j))

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


def accepted(prefix: str, call, *args) -> bool:
    """Whether ``call(*args)`` passes its placement check, whose rejection
    message starts with ``prefix``."""
    try:
        call(*args)
    except InfeasibleActionError as e:
        assert str(e).startswith(prefix), e
        return False
    except SimulationError:
        pass  # simulate's sweep failed after its pre-push check passed
    return True


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
    f = scene.footprint(rng.randrange(scene.n))
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
            # ``d`` behind the goal along ``side``: aligned, so only the placement rule can reject it
            pose = scene.goal[obj] - side.unit * d
            want = placement_free(scene, obj, pose)
            assert accepted(f"pre-push footprint of object {obj} ", simulate,
                            scene, PushPlace(obj, side, pose)) == want, (obj, side, pose)
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
