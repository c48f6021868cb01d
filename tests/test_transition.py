"""The search's one-shot transition against the validated public path.

``scene.transition`` trusts a fresh recommendation and checks only the
objects it moves; ``apply_action`` validates the action first.  These
tests hold the two to the same scenes, hold the cached unsatisfied ids to a
recount, hold the cache of the scene from every entry point to the
footprints and ids it stands for, and keep the cache invisible to equality,
hashing and repr.  Plan costs, made once from the solution path, are tested
in ``test_planner.py``.
"""

import pickle
import random
from dataclasses import replace

import pytest

from conftest import OFFSET_TABLE, assert_cache_exact, make_swap_scene, take_proposals
from pushplan.bench import DEFAULT_SIZE_RANGE, DEFAULT_WORKSPACE, generate_scene
from pushplan.executor import execute
from pushplan.geometry import HalfDims, Rect, Vec2
from pushplan.io import scene_from_dict, scene_to_dict
from pushplan.planner import PlannerConfig, plan, recommend_action
from pushplan.primitives import PushProposal, select_push
from pushplan.scene import (
    InfeasibleActionError,
    ObjectSpec,
    PickPlace,
    Scene,
    apply_action,
    satisfied_count,
    transition,
    validate_action,
)
from pushplan.seeding import derive_seed
from pushplan.simulator import NoiseConfig, simulate

import pushplan.planner as planner_mod

TOL = 1e-12
DENSE_SIZES = (0.05, 0.079)


def check_step(scene: Scene, rec):
    """Run one transition and compare it with the validated path; return its result."""
    action, child = transition(scene, rec)
    assert action == (rec.as_action() if isinstance(rec, PushProposal) else rec)
    # Every recommended action passes validation, and ``transition`` accepts
    # it: ``tree_search_step`` catches no InfeasibleActionError.
    validate_action(scene, action)
    ref = apply_action(scene, action)

    assert (child.workspace, child.objects, child.goal, child.tolerance) == (
        ref.workspace, ref.objects, ref.goal, ref.tolerance
    )
    for p, q in zip(child.current, ref.current, strict=True):
        assert abs(p.x - q.x) <= TOL and abs(p.y - q.y) <= TOL
    assert_cache_exact(child)
    return action, child


class TestEquivalence:
    def test_every_mined_proposal(self):
        cases = 0
        for scene, prop in take_proposals("transition", 400):
            check_step(scene, prop)
            cases += 1
        assert cases == 400

    @pytest.mark.parametrize(
        "n, sizes", [(8, (0.03, 0.07)), (8, DENSE_SIZES), (14, DENSE_SIZES)],
    )
    def test_recommendations_along_random_walks(self, n, sizes):
        # Walk several generations deep so children of cached children are
        # covered, and try every unsatisfied object at every step.
        cfg = PlannerConfig(max_expansions=1)
        kinds = {"goal": 0, "buffer": 0, "push": 0}
        for k in range(12):
            scene = generate_scene(n, derive_seed("transition-walk", n, k), size_range=sizes)
            rng = random.Random(k)
            state = scene
            assert_cache_exact(state)
            for _ in range(6):
                steps = []
                for obj in state.unsatisfied:
                    rec = recommend_action(state, obj, cfg, rng)
                    if rec is None:
                        continue
                    if isinstance(rec, PushProposal):
                        kinds["push"] += 1
                    else:
                        kinds["goal" if rec.destination == state.goal[rec.object] else "buffer"] += 1
                    steps.append(check_step(state, rec))
                if not steps:
                    break
                _, state = steps[rng.randrange(len(steps))]
        assert all(count > 0 for count in kinds.values()), kinds

    def test_children_share_unmoved_footprints(self):
        scene = make_swap_scene()
        child = scene.with_moved(((0, Vec2(0.2, 0.2)),))
        assert child.footprints[1] is scene.footprints[1]
        assert child.goal_footprints is scene.goal_footprints
        assert_cache_exact(child)


class TestUnsatisfiedCache:
    def test_moves_update_only_the_moved_objects(self):
        # Three objects, each blocking nothing; moves in and out of goals keep
        # the ids ascending whichever object changes.
        objs = tuple(ObjectSpec(HalfDims(0.05, 0.05)) for _ in range(3))
        current = (Vec2(0.2, 0.2), Vec2(0.5, 0.2), Vec2(0.8, 0.2))
        goal = (Vec2(0.2, 0.8), Vec2(0.5, 0.8), Vec2(0.8, 0.8))
        root = Scene(Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0)), objs, current, goal)
        assert root.unsatisfied == (0, 1, 2)
        one = root.with_moved(((1, goal[1]),))
        assert one.unsatisfied == (0, 2)
        two = one.with_moved(((0, goal[0]), (2, goal[2])))
        assert two.unsatisfied == ()
        back = two.with_moved(((1, Vec2(0.5, 0.5)),))
        assert back.unsatisfied == (1,)
        assert satisfied_count(back) == 2
        within = back.with_moved(((0, goal[0] + Vec2(0.004, 0.0)),))
        assert within.unsatisfied == (1,)
        for s in (root, one, two, back, within):
            assert_cache_exact(s)


class TestIncrementalCheck:
    def test_move_off_the_table_raises(self):
        scene = make_swap_scene()
        with pytest.raises(InfeasibleActionError, match="object 0 leaves the workspace"):
            scene.with_moved(((0, Vec2(0.02, 0.5)),))
        with pytest.raises(InfeasibleActionError, match="leaves the workspace"):
            transition(scene, PickPlace(1, Vec2(0.5, 0.99)))

    def test_move_onto_another_object_raises(self):
        scene = make_swap_scene()
        with pytest.raises(InfeasibleActionError, match="object 0 overlaps object 1"):
            scene.with_moved(((0, Vec2(0.6, 0.52)),))
        with pytest.raises(InfeasibleActionError, match="overlaps"):
            transition(scene, PickPlace(1, Vec2(0.4, 0.5)))

    def test_moved_objects_checked_against_each_other(self):
        scene = make_swap_scene()
        with pytest.raises(InfeasibleActionError, match="overlaps"):
            scene.with_moved(((0, Vec2(0.2, 0.2)), (1, Vec2(0.25, 0.2))))

    def test_touching_is_legal(self):
        objs = tuple(ObjectSpec(HalfDims(0.125, 0.125)) for _ in range(2))
        poses = (Vec2(0.25, 0.25), Vec2(0.75, 0.75))
        scene = Scene(Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0)), objs, poses, poses)
        touching = (Vec2(0.5, 0.75), Vec2(0.75, 0.75))  # face contact at x = 0.625
        child = scene.with_moved(((0, touching[0]),))
        assert child == Scene(scene.workspace, objs, touching, poses)


class TestCacheScope:
    def test_public_entry_points_carry_exact_caches(self):
        # Constructor, loader, pickle, replace and successor scenes all carry exact caches.
        scene = make_swap_scene()
        push = select_push(scene, 0).as_action()
        child = apply_action(scene, push)
        noise = NoiseConfig(enabled=True)
        entries = [
            scene,
            scene_from_dict(scene_to_dict(scene)),
            pickle.loads(pickle.dumps(scene)),
            pickle.loads(pickle.dumps(child)),
            replace(scene),
            replace(scene, current=scene.goal),
            child,
            simulate(scene, push)[0],
            simulate(scene, push, noise, random.Random(3))[0],
        ]
        for s in entries:
            assert_cache_exact(s)
        assert scene.unsatisfied == (0, 1) and entries[5].unsatisfied == ()

    def test_execution_reports_hold_cached_scenes(self):
        scene = generate_scene(6, derive_seed("cache-scope", "exec"))
        report = execute(scene, PlannerConfig(max_expansions=300), NoiseConfig(enabled=True),
                         rng=random.Random(1))
        assert report.steps
        for step in report.steps:
            assert_cache_exact(step.pre_scene)
            assert_cache_exact(step.post_scene)
        assert_cache_exact(report.final_scene)

    def test_cached_scene_is_indistinguishable(self):
        # A cache ``with_moved`` built and one the constructor built: equal scenes.
        for k in range(20):
            built = generate_scene(3 + k % 10, derive_seed("cache-scope", k))
            moved = built.with_moved(((0, built.current[0]),))
            assert moved.footprints is not built.footprints
            assert moved == built and built == moved
            assert hash(moved) == hash(built)
            assert repr(moved) == repr(built)
            assert len({built, moved}) == 1

    def test_unsatisfied_field_takes_no_part_in_identity(self):
        scene = generate_scene(6, derive_seed("cache-scope", "identity"))
        other = replace(scene)
        object.__setattr__(other, "unsatisfied", ())
        assert other == scene and hash(other) == hash(scene) and repr(other) == repr(scene)
        assert "unsatisfied" not in repr(other)

    def test_cached_child_equals_validated_child(self):
        for scene, prop in take_proposals("cache-child", 50):
            _, child = transition(scene, prop)
            ref = apply_action(scene, prop.as_action())
            assert child == ref and hash(child) == hash(ref) and repr(child) == repr(ref)

    def test_pickle_round_trip(self):
        scene, prop = take_proposals("cache-pickle", 1)[0]
        _, child = transition(scene, prop)
        for s in (scene, child):
            back = pickle.loads(pickle.dumps(s))
            assert back == s and hash(back) == hash(s) and repr(back) == repr(s)
            assert back.unsatisfied == s.unsatisfied
            assert_cache_exact(back)


class TestSearchNeverRaises:
    # (object count, size range, scenes, table): dense N = 14 as in
    # sweep-dense, the default N = 8 grid cell, crowded N = 10 scenes, and
    # N = 12 on an offset, non-square table.
    CORPUS = (
        (14, DENSE_SIZES, 40, DEFAULT_WORKSPACE),
        (8, DEFAULT_SIZE_RANGE, 60, DEFAULT_WORKSPACE),
        (10, (0.05, 0.099), 30, DEFAULT_WORKSPACE),
        (12, DEFAULT_SIZE_RANGE, 30, OFFSET_TABLE),
    )

    def test_no_recommended_move_is_infeasible(self, monkeypatch):
        """``tree_search_step`` has no handler for an InfeasibleActionError
        from ``transition``: one would end the search.  Over this corpus none
        is raised.  The search reads the cache the constructor or the loader
        built for its start scene, so each start scene's cache is checked
        first."""
        calls, raised = 0, []

        def counted(scene, rec):
            nonlocal calls
            calls += 1
            try:
                return transition(scene, rec)
            except InfeasibleActionError as e:
                raised.append((case, str(e)))
                raise

        monkeypatch.setattr(planner_mod, "transition", counted)
        for n, size_range, count, workspace in self.CORPUS:
            for k in range(count):
                seed = derive_seed("search-never-raises", n, k)
                scene = generate_scene(n, seed, workspace, size_range)
                loaded = scene_from_dict(scene_to_dict(scene))
                for push, start in ((False, scene), (True, loaded)):
                    assert_cache_exact(start)
                    case = f"N={n} scene seed {seed} push={push}"
                    plan(start, PlannerConfig(max_expansions=1500, push_enabled=push, seed=seed))
        assert calls > 10_000
        assert raised == []
