"""Incremental successors against the replace-based oracle.

``apply_action``, ``scene.transition`` and ``simulate`` build their result
with ``Scene.with_moved``: only the objects whose pose changed are checked,
and every other footprint is shared with the input.
``oracles.replace_successor`` rebuilds the successor through the
constructor's check of every pair.  These tests hold the two to equal,
hash-equal and repr-equal scenes with exact caches, on inputs whose cache
the constructor built and on successors whose cache ``with_moved`` updated,
with and without noise, along noisy executions (where the executor's tail
replay calls ``transition``) and dense random walks.  ``Scene.with_moved``
itself is held to ``oracles.replace_moved`` and ``oracles.placement_free``
on random move sets.  They also check that a physics outcome that fails the
check still raises InvalidSceneError, and that execution reports keep one
scene, with an exact cache, per observed state.
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_cache_exact, make_swap_scene, rebuilt
from oracles import placement_free, replace_moved, replace_successor
from pushplan.bench import generate_scene
from pushplan.executor import execute
from pushplan.geometry import Vec2
from pushplan.planner import Plan, PlannerConfig, recommend_action
from pushplan.primitives import PushProposal, select_push
from pushplan.scene import (
    InfeasibleActionError,
    InvalidSceneError,
    PushPlace,
    Scene,
    apply_action,
    transition,
    validate_action,
)
from pushplan.seeding import derive_seed
from pushplan.simulator import NO_NOISE, NoiseConfig, simulate

import pushplan.executor as executor_mod
import pushplan.simulator as simulator_mod

NOISE = NoiseConfig(enabled=True)
TOL = 1e-12
DENSE_SIZES = (0.05, 0.079)


def assert_same(got: Scene, ref: Scene) -> None:
    assert got == ref and hash(got) == hash(ref) and repr(got) == repr(ref)
    assert_cache_exact(got)


def check_apply(scene: Scene, action) -> Scene:
    """``apply_action`` on ``scene`` and on its ``rebuilt`` twin against the oracle.

    Returns the oracle's successor.
    """
    twin = rebuilt(scene)
    ref = replace_successor(twin, action)
    for s in (twin, scene):
        assert_same(apply_action(s, action), ref)
    return ref


def check_simulate(scene: Scene, action, noise: NoiseConfig, rng_state) -> Scene:
    """``simulate`` on ``scene`` and on its ``rebuilt`` twin with the same draws.

    Both give the same events and the scene the constructor builds from the
    outcome's poses.  Those poses are the oracle's to float noise, each moved
    at most one noise half-width along either axis.  Returns the outcome of
    ``scene`` itself.
    """
    twin = rebuilt(scene)
    results = []
    for s in (twin, scene):
        rng = random.Random()
        rng.setstate(rng_state)
        results.append(simulate(s, action, noise, rng))
    ref = replace(twin, current=results[0][0].current)
    reach = max(noise.depth_sigma, noise.lateral_sigma) if noise.enabled else 0.0
    for p, q in zip(ref.current, replace_successor(twin, action).current, strict=True):
        assert abs(p.x - q.x) <= reach + TOL and abs(p.y - q.y) <= reach + TOL
    for out, events in results:
        assert_same(out, ref)
        assert events == results[0][1]
    return results[1][0]


class TestSuccessorsMatchTheOracle:
    def test_every_step_of_noisy_executions(self, monkeypatch):
        seen = {"simulate": set(), "transition": set()}

        def checked_simulate(scene, action, noise, rng):
            state = rng.getstate()
            out, events = simulate(scene, action, noise, rng)
            assert check_simulate(scene, action, noise, state) == out
            seen["simulate"].add(type(action).__name__)
            return out, events

        def checked_transition(scene, move):
            # Each successor of a re-derived tail is the oracle's.
            action, out = transition(scene, move)
            assert_same(out, check_apply(scene, action))
            seen["transition"].add(type(action).__name__)
            return action, out

        monkeypatch.setattr(executor_mod, "simulate", checked_simulate)
        monkeypatch.setattr(executor_mod, "transition", checked_transition)
        steps = 0
        for k in range(8):
            scene = generate_scene(8, derive_seed("successor-exec", k))
            report = execute(scene, PlannerConfig(max_expansions=1500, seed=k), NOISE, rng=random.Random(k))
            steps += report.total_actions
        assert steps >= 40
        assert seen["simulate"] == seen["transition"] == {"PickPlace", "PushPlace"}

    @pytest.mark.parametrize("noise", [NO_NOISE, NOISE], ids=["exact", "noisy"])
    def test_every_step_of_dense_random_walks(self, noise):
        # Each walk follows the outcomes of the physics, so successors of
        # successors are covered; every step also starts once from a rebuilt scene.
        cfg = PlannerConfig(max_expansions=1)
        kinds = {"PickPlace": 0, "PushPlace": 0}
        for k in range(14):
            scene = generate_scene(14, derive_seed("successor-walk", k), size_range=DENSE_SIZES)
            rng = random.Random(k)
            state = scene
            for _ in range(8):
                ids = state.unsatisfied
                if not ids:
                    break
                rec = recommend_action(state, ids[rng.randrange(len(ids))], cfg, rng)
                if rec is None:
                    continue
                action = rec.as_action() if isinstance(rec, PushProposal) else rec
                kinds[type(action).__name__] += 1
                check_apply(state, action)
                draws = random.Random(rng.getrandbits(32)).getstate()
                state = check_simulate(state, action, noise, draws)
        assert all(count >= 5 for count in kinds.values()), kinds


@st.composite
def parents_and_moves(draw):
    """A valid scene and moves of distinct objects.

    The parent is either generated, so the constructor built its cache, or
    the successor of up to three accepted moves to goals, so its unsatisfied
    ids are the ones ``with_moved`` itself left, and some moves take an
    object off its goal.  Each move goes to the object's goal, a small
    nudge off its pose, another object's pose, or anywhere in a box a
    little larger than the table.
    """
    n = draw(st.integers(2, 10))
    sizes = draw(st.sampled_from([(0.03, 0.07), DENSE_SIZES]))
    scene = generate_scene(n, draw(st.integers(0, 2**32 - 1)), size_range=sizes)
    if draw(st.booleans()):
        left = draw(st.integers(1, 3))
        for i in draw(st.permutations(range(n))):
            try:
                scene = scene.with_moved(((i, scene.goal[i]),))
            except InfeasibleActionError:
                continue
            left -= 1
            if not left:
                break
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True))
    moves = []
    for i in ids:
        how = draw(st.sampled_from(["goal", "nudge", "other", "anywhere"]))
        if how == "goal":
            pose = scene.goal[i]
        elif how == "nudge":
            d = st.floats(-0.02, 0.02)
            pose = scene.current[i] + Vec2(draw(d), draw(d))
        elif how == "other":
            pose = scene.current[(i + draw(st.integers(1, n - 1))) % n]
        else:
            pose = Vec2(draw(st.floats(-0.05, 1.05)), draw(st.floats(-0.05, 1.05)))
        moves.append((i, pose))
    return scene, tuple(moves)


class TestWithMoved:
    @given(parents_and_moves())
    def test_random_moves_match_the_oracles(self, case):
        parent, moves = case
        poses = list(parent.current)
        for i, pose in moves:
            poses[i] = pose
        # The moved arrangement, unchecked, for the reference placement rule.
        after = SimpleNamespace(workspace=parent.workspace, objects=parent.objects, current=tuple(poses),
                                n=parent.n)
        free = all(placement_free(after, i, pose) for i, pose in moves)
        try:
            out = parent.with_moved(moves)
        except InfeasibleActionError:
            assert not free
            with pytest.raises(InvalidSceneError):
                replace_moved(parent, moves)
            return
        assert free
        assert_same(out, replace_moved(parent, moves))
        moved = {i for i, _ in moves}
        assert all(out.footprints[j] is parent.footprints[j] for j in range(parent.n) if j not in moved)
        assert out.goal_footprints is parent.goal_footprints


def _stuck_blocker(monkeypatch) -> tuple[Scene, PushPlace]:
    """An admissible push whose physics is patched to leave the blocker on
    the target's goal: only the target moves, onto object 1."""
    scene = make_swap_scene()
    action = select_push(scene, 0).as_action()
    monkeypatch.setattr(simulator_mod, "push_forward", lambda s, target, side, start, end: (s.current, []))
    return scene, action


class TestInvalidOutcome:
    def test_unresolved_overlap_raises_invalid_scene(self, monkeypatch):
        scene, action = _stuck_blocker(monkeypatch)
        validate_action(scene, action)  # admitted: the fault is the physics'
        with pytest.raises(InvalidSceneError, match="object 0 overlaps object 1"):
            simulate(scene, action)

    def test_execute_lets_it_propagate(self, monkeypatch):
        scene, action = _stuck_blocker(monkeypatch)
        monkeypatch.setattr(executor_mod, "plan", lambda s, cfg: Plan((action,), ()))
        with pytest.raises(InvalidSceneError):
            execute(scene, PlannerConfig(max_expansions=10))


class TestReportScenes:
    def test_one_scene_per_observed_state(self):
        for k in range(6):
            scene = generate_scene(8, derive_seed("report-scenes", k))
            report = execute(scene, PlannerConfig(max_expansions=1500), NOISE, rng=random.Random(k))
            assert report.steps
            assert report.steps[0].pre_scene is scene
            for a, b in zip(report.steps, report.steps[1:]):
                assert a.post_scene is b.pre_scene
            assert report.final_scene is report.steps[-1].post_scene
            for step in report.steps:
                assert_cache_exact(step.post_scene)
