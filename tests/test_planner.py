"""Planner tests.

These check soundness (plans replay to a solved scene), determinism under
expansion budgets, and the headline behaviour on the two-object swap: the
push-enabled planner solves it in two actions where the pick-only variant
needs at least three.  Nothing here asserts cost optimality; the search is
anytime and returns the first full solution.
"""

import gc
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pushplan import (
    NoiseConfig,
    PickPlace,
    Plan,
    PlannerConfig,
    PushPlace,
    Side,
    Vec2,
    apply_action,
    execute,
    plan,
    plan_cost,
)
from conftest import make_swap_scene
from pushplan.io import SceneFormatError, plan_from_dict, plan_to_dict
from pushplan.metrics import EEState, action_cost
import pushplan.planner as planner_mod
from pushplan.planner import EXPLORATION_C, SearchNode, recommend_action, tree_search_step
from pushplan.primitives import PushProposal, select_push
from pushplan.scene import InfeasibleActionError, blockers_of, satisfied_count
from pushplan.bench import generate_scene
from pushplan.seeding import derive_seed

DENSE_SIZES = (0.05, 0.079)


def _replay(scene, p):
    for action in p.actions:
        scene = apply_action(scene, action)
    return scene


def _solved_scenes(tag, count, n_range=(3, 7)):
    made = 0
    k = 0
    while made < count:
        n = n_range[0] + k % (n_range[1] - n_range[0] + 1)
        scene = generate_scene(n, derive_seed("planner-suite", tag, k))
        k += 1
        if satisfied_count(scene) == scene.n:
            continue
        yield scene
        made += 1


class TestSwap:
    def test_push_planner_solves_swap_in_two_actions(self, swap_scene):
        for seed in range(5):
            cfg = PlannerConfig(max_expansions=3000, seed=seed)
            p = plan(swap_scene, cfg)
            assert p is not None
            assert len(p.actions) == 2
            assert any(isinstance(a, PushPlace) for a in p.actions)
            final = _replay(swap_scene, p)
            assert satisfied_count(final) == final.n

    def test_pick_only_needs_at_least_three(self, swap_scene):
        for seed in range(5):
            cfg = PlannerConfig(max_expansions=3000, push_enabled=False, seed=seed)
            p = plan(swap_scene, cfg)
            assert p is not None
            assert len(p.actions) >= 3
            assert all(isinstance(a, PickPlace) for a in p.actions)
            final = _replay(swap_scene, p)
            assert satisfied_count(final) == final.n


class TestSoundness:
    def test_plans_replay_to_solved_scenes(self):
        solved = 0
        for scene in _solved_scenes("sound", 25):
            p = plan(scene, PlannerConfig(max_expansions=2000, seed=11))
            if p is None:
                continue
            final = _replay(scene, p)
            assert satisfied_count(final) == final.n
            solved += 1
        assert solved >= 20, f"planner solved only {solved}/25 generated scenes"

    def test_reported_total_matches_replayed_cost(self):
        # A plan is costed once, from its path; every entry must equal what the
        # validated ``action_cost`` gives along the validated replay, bit for bit.
        scenes = list(_solved_scenes("totals", 15))
        scenes += [generate_scene(14, derive_seed("planner-suite", "dense-totals", k), size_range=DENSE_SIZES)
                   for k in range(6)]
        checked = {True: 0, False: 0}
        for push in (True, False):
            for scene in scenes:
                p = plan(scene, PlannerConfig(max_expansions=2000, push_enabled=push, seed=3))
                if p is None:
                    continue
                center = scene.workspace.center
                ee, state, want = EEState(center, center), scene, []
                for action in p.actions:
                    bd, ee = action_cost(state, action, ee)
                    want.append(bd)
                    state = apply_action(state, action)
                assert p.costs == tuple(want)
                assert p.total == plan_cost(p, scene)
                checked[push] += 1
        assert min(checked.values()) >= 15, checked

    def test_pick_only_mode_never_emits_pushes(self):
        cfg = PlannerConfig(max_expansions=1500, push_enabled=False, seed=7)
        for scene in _solved_scenes("pickonly", 10):
            p = plan(scene, cfg)
            if p is None:
                continue
            assert all(isinstance(a, PickPlace) for a in p.actions)


class TestRecommendation:
    def test_an_accepted_push_derives_the_blockers_once(self, swap_scene, monkeypatch):
        import pushplan.planner as planner_mod
        import pushplan.primitives as primitives_mod
        import pushplan.scene as scene_mod

        real = scene_mod.blockers_of
        calls = []

        def counting(scene, target):
            calls.append(target)
            return real(scene, target)

        for module in (planner_mod, primitives_mod, scene_mod):
            monkeypatch.setattr(module, "blockers_of", counting)
        rec = recommend_action(swap_scene, 0, PlannerConfig(max_expansions=10), random.Random(0))
        assert isinstance(rec, PushProposal)
        assert calls == [0]
        monkeypatch.undo()
        assert rec == select_push(swap_scene, 0)

    def test_select_push_with_given_blockers_matches_derived(self):
        checked = 0
        for scene in _solved_scenes("given-blockers", 20, (6, 9)):
            for target in range(scene.n):
                blockers = blockers_of(scene, target)
                if blockers:
                    assert select_push(scene, target, blockers=blockers) == select_push(scene, target)
                    checked += 1
        assert checked > 0


def _uct_reference(child, parent_visits, n):
    """UCT on the per-object scale, as the planner's selection documents it."""
    exploit = (child.reward_sum / child.visits) / n
    return exploit + EXPLORATION_C * math.sqrt(math.log(parent_visits) / child.visits) / n


class TestSelection:
    """Selection descends through the child ``max`` picks under the UCT formula."""

    def selected(self, scene, stats, root_visits):
        """The child of a hand-built root that one ``tree_search_step`` visits.

        The root already has as many children as widening allows, so the
        step must select one of them; each node on the path gains a visit.
        """
        root = SearchNode(scene, None)
        root.visits = root_visits
        for visits, reward_sum in stats:
            child = SearchNode(scene, None)
            child.visits, child.reward_sum = visits, reward_sum
            root.children.append(child)
        assert len(root.children) >= max(1, math.isqrt(root_visits))
        scores = [_uct_reference(ch, root_visits, scene.n) for ch in root.children]
        expected = max(root.children, key=lambda ch: _uct_reference(ch, root_visits, scene.n))
        tree_search_step(root, PlannerConfig(max_expansions=1), random.Random(0))
        visited = [ch for ch, (v, _) in zip(root.children, stats) if ch.visits == v + 1]
        assert len(visited) == 1
        return visited[0], expected, root.children, scores

    @given(st.data())
    def test_random_statistics(self, data):
        scene = make_swap_scene().with_footprints()
        k = data.draw(st.integers(1, 6), label="children")
        stats = []
        for _ in range(k):
            visits = data.draw(st.integers(1, 60))
            stats.append((visits, float(data.draw(st.integers(0, visits * scene.n)))))
        root_visits = data.draw(st.integers(1, (k + 1) ** 2 - 1))
        got, expected, _, _ = self.selected(scene, stats, root_visits)
        assert got is expected

    def test_exact_tie_goes_to_the_first_child(self):
        scene = make_swap_scene().with_footprints()
        stats = [(4, 3.0), (9, 16.0), (3, 1.0), (9, 16.0), (2, 0.0)]
        got, expected, children, scores = self.selected(scene, stats, 30)
        assert scores[1] == scores[3] > max(scores[0], scores[2], scores[4])
        assert got is expected is children[1]


class TestUnexpandedStep:
    """The two exits of ``tree_search_step`` that add no child: a selected
    node past the depth cap, and a move that ``transition`` rejects.  Both
    return None and still count the visit along the whole path."""

    def test_leaf_past_the_depth_cap(self, swap_scene):
        # A chain of single children down to depth 4 * N, each node already
        # as wide as its visits allow, so selection must descend to the leaf.
        solved_one = apply_action(swap_scene, PushPlace(0, Side.LEFT, Vec2(0.755, 0.5)))
        assert satisfied_count(solved_one) == 1
        path = [SearchNode(swap_scene.with_footprints(), None)]
        for _ in range(4 * swap_scene.n):
            child = SearchNode(solved_one, None)
            path[-1].children.append(child)
            path.append(child)
        for node in path:
            node.visits, node.reward_sum = 3, 2.0
        assert tree_search_step(path[0], PlannerConfig(max_expansions=1), random.Random(0)) is None
        assert path[-1].children == []
        assert all(len(node.children) == 1 for node in path[:-1])
        assert [(node.visits, node.reward_sum) for node in path] == [(4, 3.0)] * len(path)

    def test_rejected_transition(self, swap_scene, monkeypatch):
        moves = []

        def reject(scene, move):
            moves.append(move)
            raise InfeasibleActionError("rejected")

        monkeypatch.setattr(planner_mod, "transition", reject)
        root = SearchNode(swap_scene.with_footprints(), None)
        leaf = SearchNode(apply_action(swap_scene, PushPlace(0, Side.LEFT, Vec2(0.755, 0.5))), None)
        root.children.append(leaf)
        root.visits, leaf.visits = 2, 1
        assert tree_search_step(root, PlannerConfig(max_expansions=1), random.Random(0)) is None
        assert len(moves) == 1
        assert root.children == [leaf] and leaf.children == []
        assert (root.visits, root.reward_sum) == (3, 1.0)
        assert (leaf.visits, leaf.reward_sum) == (2, 1.0)


def cyclic_garbage(call) -> int:
    """Objects the cyclic collector finds after two runs of ``call`` made
    with the collector off; 0 when reference counting freed everything."""
    gc.collect()
    gc.disable()
    try:
        call()
        call()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCycles:
    """A search tree holds no reference cycle, so reference counting frees it
    when ``plan`` returns, and the cyclic collector finds nothing to do."""

    def test_plan(self):
        scene = generate_scene(14, 5, size_range=DENSE_SIZES)
        cfg = PlannerConfig(max_expansions=1500, seed=0)
        assert cyclic_garbage(lambda: plan(scene, cfg)) == 0

    def test_noisy_execution(self):
        scene = generate_scene(8, 4)
        cfg = PlannerConfig(max_expansions=1500, seed=0)
        noise = NoiseConfig(enabled=True)
        assert cyclic_garbage(lambda: execute(scene, cfg, noise, rng=random.Random(0))) == 0


class TestDeterminism:
    def test_expansion_budget_is_reproducible(self):
        for scene in _solved_scenes("det", 8):
            cfg = PlannerConfig(max_expansions=1200, seed=42)
            a = plan(scene, cfg)
            b = plan(scene, cfg)
            if a is None:
                assert b is None
                continue
            assert a.actions == b.actions
            assert a.total == b.total

    def test_seed_changes_can_change_the_plan(self):
        # not guaranteed per scene, but across a handful of scenes at least
        # one pair of seeds should disagree; a constant search would be a bug
        differs = False
        for scene in _solved_scenes("seeds", 6):
            plans = [plan(scene, PlannerConfig(max_expansions=800, seed=s)) for s in (0, 1, 2)]
            acts = {p.actions for p in plans if p is not None}
            if len(acts) > 1:
                differs = True
                break
        assert differs


class TestEdgeCases:
    def test_already_solved_scene_gives_empty_plan(self, swap_scene):
        solved = _replay(
            swap_scene,
            Plan(
                (
                    PushPlace(1, Side.LEFT, Vec2(0.455, 0.5)),
                    PickPlace(0, Vec2(0.65, 0.5)),
                ),
                (),
            ),
        )
        p = plan(solved, PlannerConfig(max_expansions=10))
        assert p is not None
        assert p.actions == ()
        assert p.total == 0.0

    def test_budget_exclusivity(self):
        with pytest.raises(ValueError, match="not both"):
            PlannerConfig(time_budget_s=1.0, max_expansions=100)

    def test_default_budget_is_wall_clock(self):
        cfg = PlannerConfig()
        assert cfg.time_budget_s is not None
        assert cfg.max_expansions is None

    def test_insufficient_budget_returns_none(self, swap_scene):
        assert plan(swap_scene, PlannerConfig(max_expansions=1, seed=0)) is None


class TestSerialization:
    def test_round_trip(self, swap_scene):
        p = plan(swap_scene, PlannerConfig(max_expansions=3000, seed=0))
        assert p is not None
        doc = plan_to_dict(p)
        assert set(doc) == {"actions", "costs", "total"}
        for c in doc["costs"]:
            assert "lambda" in c
        back = plan_from_dict(doc)
        assert back.actions == p.actions
        assert back.total == p.total
        assert back.costs == p.costs

    def test_invalid_document_raises(self):
        with pytest.raises(SceneFormatError, match="invalid"):
            plan_from_dict({"costs": []})

    def test_non_object_action_entry_raises(self):
        with pytest.raises(SceneFormatError, match="action document must be an object"):
            plan_from_dict({"actions": [5], "total": 0.0})
