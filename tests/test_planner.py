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
from dataclasses import replace

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
from conftest import cost_bits, make_swap_scene, rebuilt
from pushplan.io import SceneFormatError, plan_from_dict, plan_to_dict
from pushplan.metrics import EEState, action_cost
import pushplan.planner as planner_mod
from pushplan.planner import EXPLORATION_C, SearchNode, recommend_action, tree_search_step
from pushplan.primitives import PushProposal, select_push
from pushplan.scene import InfeasibleActionError, blockers_of, satisfied_count
from pushplan.bench import generate_scene
from pushplan.seeding import derive_seed
from oracles import reference_plan

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

    def random_case(self, data, max_visits):
        scene = make_swap_scene()
        k = data.draw(st.integers(1, 6), label="children")
        stats = []
        for _ in range(k):
            visits = data.draw(st.integers(1, max_visits))
            stats.append((visits, float(data.draw(st.integers(0, visits * scene.n)))))
        root_visits = data.draw(st.integers(1, (k + 1) ** 2 - 1))
        got, expected, _, _ = self.selected(scene, stats, root_visits)
        assert got is expected

    @given(st.data())
    def test_random_statistics(self, data):
        self.random_case(data, 60)

    @given(st.data())
    def test_random_statistics_sharing_visit_counts(self, data):
        # Visits of 1 to 3 make siblings share counts, in runs and apart.
        self.random_case(data, 3)

    def test_exact_tie_goes_to_the_first_child(self):
        scene = make_swap_scene()
        stats = [(4, 3.0), (9, 16.0), (3, 1.0), (9, 16.0), (2, 0.0)]
        got, expected, children, scores = self.selected(scene, stats, 30)
        assert scores[1] == scores[3] > max(scores[0], scores[2], scores[4])
        assert got is expected is children[1]

    @pytest.mark.parametrize("stats, winner", [
        # Equal counts apart, with different rewards; the tied maximum comes first at 2.
        ([(4, 3.0), (9, 8.0), (4, 7.0), (3, 1.0), (4, 7.0), (9, 8.0)], 2),
        # The same counts in runs of three and two.
        ([(4, 3.0), (4, 7.0), (4, 7.0), (9, 8.0), (9, 8.0), (3, 1.0)], 1),
    ])
    def test_siblings_sharing_a_visit_count(self, stats, winner):
        scene = make_swap_scene()
        got, expected, children, scores = self.selected(scene, stats, 40)
        assert scores[winner] == max(scores) and scores.index(max(scores)) == winner
        assert scores.count(max(scores)) == 2
        assert got is expected is children[winner]

    def test_a_one_child_level_below_the_root_is_crossed_unscored(self, monkeypatch):
        # root (5 children, full) -> only child (visits 3, so no widening)
        # -> a full level of 2 -> a leaf, which the step expands.
        scene = make_swap_scene()

        def node(visits, reward_sum, children=()):
            made = SearchNode(scene, None)
            made.visits, made.reward_sum = visits, reward_sum
            made.children.extend(children)
            return made

        leaves = [node(2, 1.0), node(1, 2.0)]
        lone = node(3, 3.0, [node(8, 10.0, leaves)])
        root = node(25, 20.0, [node(6, 3.0), lone, node(6, 8.0), node(5, 2.0), node(4, 1.0)])
        expected, at = [root], root
        while at.children and len(at.children) >= max(1, math.isqrt(at.visits)):
            at = max(at.children, key=lambda ch: _uct_reference(ch, expected[-1].visits, scene.n))
            expected.append(at)
        assert expected[1:] == [lone, lone.children[0], leaves[1]]
        before = {id(n): n.visits for n in expected}
        logged = []
        monkeypatch.setattr(planner_mod, "_log", lambda x: logged.append(x) or math.log(x))
        path = tree_search_step(root, PlannerConfig(max_expansions=1), random.Random(0))
        assert logged == [25, 8]
        assert path[:-1] == expected and path[-1] in leaves[1].children
        assert all(n.visits == before[id(n)] + 1 for n in expected)
        assert [n.visits for n in root.children if n is not lone] == [6, 6, 5, 4]


class TestDrawForDraw:
    """The search's widening test and its uniform picks are rewrites of the
    expressions they replaced, and equal them for every input tried:
    ``c < max(1, math.isqrt(visits))`` and ``rng.choice(seq)``."""

    def test_pick_is_choice(self):
        for seed in range(120):
            rng, twin = random.Random(seed), random.Random(seed)
            for length in range(1, 71):
                seq = tuple(range(100, 100 + length))
                assert planner_mod._pick(seq, rng) == twin.choice(seq)
                assert rng.getstate() == twin.getstate()

    def test_integer_widening_is_isqrt_widening(self):
        for c in range(65):
            got = [not c or (c + 1) * (c + 1) <= v for v in range(4201)]
            assert got == [c < max(1, math.isqrt(v)) for v in range(4201)], c


class TestUnexpandedStep:
    """The exit of ``tree_search_step`` that adds no child (a selected node
    past the depth cap) returns None and still counts the visit along the
    whole path.  A move that ``transition`` rejects is not such an exit: the
    recommender only proposes moves it accepts, so a rejection propagates."""

    def test_leaf_past_the_depth_cap(self, swap_scene):
        # A chain of single children down to depth 4 * N, each node already
        # as wide as its visits allow, so selection must descend to the leaf.
        solved_one = apply_action(swap_scene, PushPlace(0, Side.LEFT, Vec2(0.755, 0.5)))
        assert satisfied_count(solved_one) == 1
        path = [SearchNode(swap_scene, None)]
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

    def test_rejected_transition_propagates(self, swap_scene, monkeypatch):
        moves = []

        def reject(scene, move):
            moves.append(move)
            raise InfeasibleActionError("rejected")

        monkeypatch.setattr(planner_mod, "transition", reject)
        root = SearchNode(swap_scene, None)
        leaf = SearchNode(apply_action(swap_scene, PushPlace(0, Side.LEFT, Vec2(0.755, 0.5))), None)
        root.children.append(leaf)
        root.visits, leaf.visits = 2, 1
        with pytest.raises(InfeasibleActionError, match="rejected"):
            tree_search_step(root, PlannerConfig(max_expansions=1), random.Random(0))
        assert len(moves) == 1
        assert root.children == [leaf] and leaf.children == []
        with pytest.raises(InfeasibleActionError, match="rejected"):
            plan(swap_scene, PlannerConfig(max_expansions=10))
        assert len(moves) == 2


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


class TestMatchesReference:
    """``plan`` is the search as first written (``oracles.reference_plan``):
    the same actions, and every cost field bit for bit."""

    @pytest.mark.parametrize(
        "n, sizes, scenes",
        [(4, (0.03, 0.07), 20), (6, (0.03, 0.07), 20), (8, (0.03, 0.07), 20), (14, DENSE_SIZES, 10)],
        ids=["4-default", "6-default", "8-default", "14-large"],
    )
    def test_same_plans(self, n, sizes, scenes):
        found = {True: 0, False: 0}
        for k in range(scenes):
            scene = generate_scene(n, derive_seed("planner-reference", n, k), size_range=sizes)
            for push in (True, False):
                for seed in (k, k + 100, k + 200):
                    cfg = PlannerConfig(max_expansions=1500, push_enabled=push, seed=seed)
                    got, want = plan(scene, cfg), reference_plan(scene, cfg)
                    assert (got is None) == (want is None)
                    if got is None:
                        continue
                    assert got.actions == want.actions
                    assert cost_bits(got.costs) == cost_bits(want.costs)
                    found[push] += 1
        assert min(found.values()) >= scenes, found

    def test_exhausted_budget_and_solved_start(self, swap_scene):
        found = set()
        for budget in range(1, 4):
            cfg = PlannerConfig(max_expansions=budget, seed=1)
            got = plan(swap_scene, cfg)
            assert got == reference_plan(swap_scene, cfg)
            found.add(got is None)
        assert found == {True, False}
        solved = swap_scene.with_moved(((0, swap_scene.goal[0]), (1, Vec2(0.5, 0.2)))).with_moved(
            ((1, swap_scene.goal[1]),)
        )
        for start in (solved, rebuilt(solved)):
            cfg = PlannerConfig(max_expansions=10)
            assert plan(start, cfg) == reference_plan(start, cfg) == Plan((), ())


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

    @pytest.mark.parametrize("budget", [
        {"max_expansions": 0}, {"max_expansions": -3}, {"max_expansions": 1.5}, {"max_expansions": True},
        {"time_budget_s": 0.0}, {"time_budget_s": -1.0}, {"time_budget_s": math.nan}, {"time_budget_s": math.inf},
    ])
    def test_a_budget_that_allows_no_search_is_rejected(self, budget):
        (name, value), = budget.items()
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            PlannerConfig(**budget)

    @pytest.mark.parametrize("fields, name", [
        ({"max_expansions": 1500, "seed": None}, "seed"),  # seeded from the OS: not reproducible
        ({"seed": 1.5}, "seed"),
        ({"push_enabled": "no"}, "push_enabled"),  # truthy: pushes were on
        ({"time_budget_s": 10**400}, "time_budget_s"),  # ``plan`` died with OverflowError
        # too long for ``repr``: the message gave CPython's digit limit, not the field
        ({"seed": 10**5000}, "seed"),
        ({"max_expansions": 10**5000}, "max_expansions"),
        # beyond the float range ``checks.real`` tests: the message said "must be an integer"
        ({"seed": 2**1100}, "seed"),
        ({"seed": 10**400}, "seed"),  # ``plan --seed`` 1 followed by 400 zeros
        ({"max_expansions": 10**400}, "max_expansions"),  # the message said "of at least 1", no upper bound
        ({"max_expansions": 2**1100}, "max_expansions"),
    ])
    def test_a_field_outside_its_rule_is_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"'{name}' must be") as e:
            PlannerConfig(**fields)
        if name == "seed":
            assert "must be an integer in [-1.7976931348623157e+308, 1.7976931348623157e+308]" in str(e.value)
        if name == "max_expansions":
            assert "must be an integer of at least 1, at most 1.7976931348623157e+308" in str(e.value)

    def test_sampling_a_solved_scene_raises(self, swap_scene):
        solved = replace(swap_scene, current=swap_scene.goal)
        with pytest.raises(ValueError, match="all objects are satisfied"):
            planner_mod.sample_unsatisfied_object(solved, random.Random(0))

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
