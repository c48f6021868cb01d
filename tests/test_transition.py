"""The search's one-shot transition against the validated public path.

``planner.transition`` trusts a fresh recommendation and checks only the
objects it moves; ``apply_action`` plus ``action_cost`` validate everything.
These tests hold the two to the same scenes and costs, confine the footprint
cache to search-tree scenes, and keep the cache invisible to equality,
hashing, repr and pickling.
"""

import pickle
import random

import pytest

from conftest import make_swap_scene, take_proposals
from pushplan.bench import generate_scene
from pushplan.executor import execute
from pushplan.geometry import HalfDims, Rect, Vec2, rect_from_center
from pushplan.metrics import EEState, action_cost, plan_cost
from pushplan.planner import PlannerConfig, plan, recommend_action, transition
from pushplan.primitives import PushConfig, PushProposal, select_push
from pushplan.scene import (
    InfeasibleActionError,
    ObjectSpec,
    PickPlace,
    PushPlace,
    Scene,
    apply_action,
    scene_from_dict,
    scene_to_dict,
    unsatisfied_ids,
    validate_action,
)
from pushplan.seeding import derive_seed
from pushplan.simulator import NoiseConfig, simulate

TOL = 1e-12
DENSE_SIZES = (0.05, 0.079)


def has_cache(scene: Scene) -> bool:
    return scene._footprints is not None or scene._goal_footprints is not None


def assert_cache_exact(scene: Scene) -> None:
    assert scene._footprints is not None and scene._goal_footprints is not None
    for i in range(scene.n):
        assert scene.footprint(i) == rect_from_center(scene.current[i], scene.objects[i].half)
        assert scene.goal_footprint(i) == rect_from_center(scene.goal[i], scene.objects[i].half)


def home(scene: Scene) -> EEState:
    return EEState(scene.workspace.center, scene.workspace.center)


def check_step(scene: Scene, rec, ee: EEState, clearance: float):
    """Run one transition and compare it with the validated path; return its result."""
    action, child, bd, ee_after = transition(scene, rec, ee)
    assert action == (rec.as_action() if isinstance(rec, PushProposal) else rec)
    # Every recommended action passes validation: the InfeasibleActionError
    # that tree_search_step swallows never fires on a fresh recommendation.
    validate_action(scene, action, clearance)
    ref = apply_action(scene, action, clearance)
    ref_bd, ref_ee = action_cost(scene, action, ee, 1.0, clearance)

    assert (child.workspace, child.objects, child.goal, child.tolerance) == (
        ref.workspace, ref.objects, ref.goal, ref.tolerance
    )
    for p, q in zip(child.current, ref.current, strict=True):
        assert abs(p.x - q.x) <= TOL and abs(p.y - q.y) <= TOL
    for got, want in ((bd.approach, ref_bd.approach), (bd.pick, ref_bd.pick),
                      (bd.transfer, ref_bd.transfer), (bd.lam, ref_bd.lam), (bd.total, ref_bd.total)):
        assert abs(got - want) <= TOL
    assert (ee_after.pose - ref_ee.pose).norm() <= TOL and ee_after.home == ref_ee.home
    assert_cache_exact(child)
    return action, child, ee_after


class TestEquivalence:
    def test_every_mined_proposal(self):
        cases = 0
        for scene, prop in take_proposals("transition", 400):
            check_step(scene.with_footprints(), prop, home(scene), PushConfig().clearance)
            cases += 1
        assert cases == 400

    @pytest.mark.parametrize(
        "n, sizes, clearance",
        [(8, (0.03, 0.07), 0.005), (8, DENSE_SIZES, 0.01), (14, DENSE_SIZES, 0.005)],
    )
    def test_recommendations_along_random_walks(self, n, sizes, clearance):
        # Walk several generations deep so children of cached children are
        # covered, and try every unsatisfied object at every step.
        cfg = PlannerConfig(max_expansions=1, push_cfg=PushConfig(clearance=clearance))
        kinds = {"goal": 0, "buffer": 0, "push": 0}
        for k in range(12):
            scene = generate_scene(n, derive_seed("transition-walk", n, k), size_range=sizes)
            rng = random.Random(k)
            state, ee = scene.with_footprints(), home(scene)
            assert_cache_exact(state)
            for _ in range(6):
                steps = []
                for obj in unsatisfied_ids(state):
                    rec = recommend_action(state, obj, cfg, rng)
                    if rec is None:
                        continue
                    if isinstance(rec, PushProposal):
                        kinds["push"] += 1
                    else:
                        kinds["goal" if rec.destination == state.goal[rec.object] else "buffer"] += 1
                    steps.append(check_step(state, rec, ee, clearance))
                if not steps:
                    break
                _, state, ee = steps[rng.randrange(len(steps))]
        assert all(count > 0 for count in kinds.values()), kinds

    def test_children_share_unmoved_footprints(self):
        scene = make_swap_scene().with_footprints()
        child = scene.with_moved(((0, Vec2(0.2, 0.2)),))
        assert child._footprints[1] is scene._footprints[1]
        assert child._goal_footprints is scene._goal_footprints
        assert_cache_exact(child)


class TestIncrementalCheck:
    def test_move_off_the_table_raises(self):
        scene = make_swap_scene().with_footprints()
        with pytest.raises(InfeasibleActionError, match="object 0 leaves the workspace"):
            scene.with_moved(((0, Vec2(0.02, 0.5)),))
        with pytest.raises(InfeasibleActionError, match="leaves the workspace"):
            transition(scene, PickPlace(1, Vec2(0.5, 0.99)), home(scene))

    def test_move_onto_another_object_raises(self):
        scene = make_swap_scene().with_footprints()
        with pytest.raises(InfeasibleActionError, match="object 0 overlaps object 1"):
            scene.with_moved(((0, Vec2(0.6, 0.52)),))
        with pytest.raises(InfeasibleActionError, match="overlaps"):
            transition(scene, PickPlace(1, Vec2(0.4, 0.5)), home(scene))

    def test_moved_objects_checked_against_each_other(self):
        scene = make_swap_scene().with_footprints()
        with pytest.raises(InfeasibleActionError, match="overlaps"):
            scene.with_moved(((0, Vec2(0.2, 0.2)), (1, Vec2(0.25, 0.2))))

    def test_touching_is_legal(self):
        objs = tuple(ObjectSpec(i, HalfDims(0.125, 0.125)) for i in range(2))
        poses = (Vec2(0.25, 0.25), Vec2(0.75, 0.75))
        scene = Scene(Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0)), objs, poses, poses)
        touching = (Vec2(0.5, 0.75), Vec2(0.75, 0.75))  # face contact at x = 0.625
        child = scene.with_footprints().with_moved(((0, touching[0]),))
        assert child == Scene(scene.workspace, objs, touching, poses)


class TestCacheScope:
    def test_public_entry_points_return_plain_scenes(self):
        scene = make_swap_scene()
        cached = scene.with_footprints()
        push = select_push(scene, 0).as_action()
        assert not has_cache(scene)
        assert not has_cache(apply_action(cached, push))
        assert not has_cache(apply_action(scene, push))
        assert not has_cache(simulate(cached, push)[0])
        assert not has_cache(simulate(cached, push, NoiseConfig(enabled=True), random.Random(3))[0])
        assert not has_cache(scene_from_dict(scene_to_dict(cached)))

    def test_execution_reports_hold_plain_scenes(self):
        scene = generate_scene(6, derive_seed("cache-scope", "exec"))
        report = execute(scene, PlannerConfig(max_expansions=300), NoiseConfig(enabled=True),
                         rng=random.Random(1))
        assert report.steps
        for step in report.steps:
            assert not has_cache(step.pre_scene) and not has_cache(step.post_scene)
        assert not has_cache(report.final_scene)

    def test_cached_scene_is_indistinguishable(self):
        for k in range(20):
            plain = generate_scene(3 + k % 10, derive_seed("cache-scope", k))
            cached = plain.with_footprints()
            assert cached == plain and plain == cached
            assert hash(cached) == hash(plain)
            assert repr(cached) == repr(plain)
            assert len({plain, cached}) == 1

    def test_cached_child_equals_validated_child(self):
        for scene, prop in take_proposals("cache-child", 50):
            _, child, _, _ = transition(scene.with_footprints(), prop, home(scene))
            ref = apply_action(scene, prop.as_action())
            assert child == ref and hash(child) == hash(ref) and repr(child) == repr(ref)

    def test_pickle_round_trip(self):
        scene, prop = take_proposals("cache-pickle", 1)[0]
        _, child, _, _ = transition(scene.with_footprints(), prop, home(scene))
        for s in (scene.with_footprints(), child):
            back = pickle.loads(pickle.dumps(s))
            assert back == s and hash(back) == hash(s) and repr(back) == repr(s)
            for i in range(back.n):
                assert back.footprint(i) == rect_from_center(back.current[i], back.objects[i].half)


class TestClearance:
    def test_non_default_clearance_plans_replays_and_executes(self):
        scene = make_swap_scene()
        cfg = PlannerConfig(max_expansions=200, push_cfg=PushConfig(clearance=0.01))
        p = plan(scene, cfg)
        assert p is not None and len(p.actions) == 2
        assert isinstance(p.actions[0], PushPlace)
        assert plan_cost(p, scene, clearance=0.01) == pytest.approx(p.total, abs=1e-12)
        report = execute(scene, cfg)
        assert report.total_actions == 2 and report.success_rate == 1.0
