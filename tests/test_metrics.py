"""Travel-cost model: per-action breakdowns, plan replay, reductions."""

import pytest

from pushplan import (
    HalfDims,
    InfeasibleActionError,
    ObjectSpec,
    PickPlace,
    PushPlace,
    Rect,
    Scene,
    Side,
    Vec2,
    apply_action,
    percent_reduction,
    plan_cost,
)
from pushplan.io import plan_from_dict
from pushplan.metrics import PICK_TRAVEL, CostBreakdown, EEState, action_cost, total_cost
from pushplan.scene import satisfied_count


def _swap_push_plan():
    # push object 1 left through its goal (shoving 0 clear), then pick 0 home
    return [
        PushPlace(1, Side.LEFT, Vec2(0.455, 0.5)),
        PickPlace(0, Vec2(0.65, 0.5)),
    ]


def _swap_buffer_plan():
    # classic three-action detour through a buffer pose
    return [
        PickPlace(1, Vec2(0.5, 0.2)),
        PickPlace(0, Vec2(0.65, 0.5)),
        PickPlace(1, Vec2(0.35, 0.5)),
    ]


class TestActionCost:
    def test_zero_travel_costs_only_the_grasp(self):
        scene = Scene(
            workspace=Rect(Vec2(0, 0), Vec2(1, 1)),
            objects=(ObjectSpec(0, HalfDims(0.05, 0.05)),),
            current=(Vec2(0.5, 0.5),),
            goal=(Vec2(0.8, 0.8),),
        )
        ee = EEState(Vec2(0.5, 0.5), Vec2(0.5, 0.5))
        bd, after = action_cost(scene, PickPlace(0, Vec2(0.5, 0.5)), ee)
        assert bd.approach == 0.0
        assert bd.pick == PICK_TRAVEL
        assert bd.transfer == 0.0
        assert bd.total == PICK_TRAVEL
        assert after.pose == Vec2(0.5, 0.5)
        assert after.home == ee.home

    def test_swap_push_breakdown_by_hand(self, swap_scene):
        ee = EEState(Vec2(0.5, 0.5), Vec2(0.5, 0.5))
        push, pick = _swap_push_plan()

        bd, ee = action_cost(swap_scene, push, ee)
        # approach home -> object 1; transfer detours via the pre-push pose
        assert bd.approach == pytest.approx(0.15, abs=1e-12)
        assert bd.pick == PICK_TRAVEL
        assert bd.transfer == pytest.approx(0.195 + 0.105, abs=1e-12)
        assert bd.total == pytest.approx(0.65, abs=1e-12)
        assert ee.pose == swap_scene.goal[1]

        mid = apply_action(swap_scene, push)
        # object 0 was shoved from 0.35 to 0.245
        assert mid.current[0].x == pytest.approx(0.245, abs=1e-12)
        bd2, ee = action_cost(mid, pick, ee)
        assert bd2.approach == pytest.approx(0.105, abs=1e-12)
        assert bd2.transfer == pytest.approx(0.405, abs=1e-12)
        assert bd2.total == pytest.approx(0.71, abs=1e-12)
        assert ee.pose == Vec2(0.65, 0.5)

    def test_infeasible_action_raises(self, swap_scene):
        ee = EEState(Vec2(0.5, 0.5), Vec2(0.5, 0.5))
        with pytest.raises(InfeasibleActionError):
            action_cost(swap_scene, PickPlace(0, Vec2(0.66, 0.5)), ee)

    def test_breakdown_total_scales_with_lam(self):
        bd = CostBreakdown(1.0, 2.0, 3.0, lam=2.0)
        assert bd.total == 12.0
        assert CostBreakdown(1.0, 2.0, 3.0).total == 6.0


class TestPlanCost:
    def test_swap_push_plan_total(self, swap_scene):
        total = plan_cost(_swap_push_plan(), swap_scene)
        assert total == pytest.approx(1.36, abs=1e-12)

    def test_matches_threaded_action_costs(self, swap_scene):
        # replaying by hand with explicit EE threading gives the same number
        ee = EEState(swap_scene.workspace.center, swap_scene.workspace.center)
        scene = swap_scene
        total = 0.0
        for action in _swap_push_plan():
            bd, ee = action_cost(scene, action, ee)
            scene = apply_action(scene, action)
            total += bd.total
        assert plan_cost(_swap_push_plan(), swap_scene) == total

    def test_push_plan_beats_buffer_plan_on_swap(self, swap_scene):
        push = plan_cost(_swap_push_plan(), swap_scene)
        buffer = plan_cost(_swap_buffer_plan(), swap_scene)
        assert push < buffer
        # and both plans actually solve the scene
        for actions in (_swap_push_plan(), _swap_buffer_plan()):
            scene = swap_scene
            for action in actions:
                scene = apply_action(scene, action)
            assert satisfied_count(scene) == scene.n

    def test_infeasible_replay_raises(self, swap_scene):
        # second action invalid after the first rearranges the scene
        bad = [PickPlace(1, Vec2(0.5, 0.2)), PickPlace(0, Vec2(0.5, 0.2))]
        with pytest.raises(InfeasibleActionError):
            plan_cost(bad, swap_scene)

    def test_empty_plan_is_free(self, swap_scene):
        assert plan_cost([], swap_scene) == 0.0


class TestTotalCost:
    """Totals add left to right on every interpreter.  These costs tell the
    rules apart: 1e16 + 1.0 rounds back to 1e16, so the plain sum is 0.0,
    while the compensated ``sum()`` of Python 3.12+ gives 1.0."""

    TOTALS = (1e16, 1.0, -1e16)

    def test_total_cost_adds_left_to_right(self):
        assert total_cost(CostBreakdown(t, 0.0, 0.0) for t in self.TOTALS) == 0.0

    def test_plan_document_without_total_adds_left_to_right(self):
        action = {"type": "pick_place", "object": 0, "destination": [0.2, 0.2]}
        costs = [{"approach": t, "pick": 0.0, "transfer": 0.0} for t in self.TOTALS]
        assert plan_from_dict({"actions": [action] * 3, "costs": costs}).total == 0.0


class TestPercentReduction:
    def test_simple_pairs(self):
        assert percent_reduction(100.0, 88.88) == pytest.approx(11.12, abs=1e-9)
        assert percent_reduction(9.3543, 8.5536) == pytest.approx(
            100.0 * (9.3543 - 8.5536) / 9.3543, abs=1e-12
        )
        assert percent_reduction(2.0, 2.0) == 0.0
        assert percent_reduction(4.0, 0.0) == 100.0

    def test_negative_when_candidate_worse(self):
        assert percent_reduction(2.0, 3.0) == -50.0

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError, match="positive"):
            percent_reduction(0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            percent_reduction(-1.0, 0.5)
