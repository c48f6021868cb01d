"""Closed-loop executor tests: zero-noise behaviour, noisy determinism,
termination reasons, refusals propagating, and keeping the plan tail."""

import random
from dataclasses import replace

import pytest

from pushplan import (
    EEState,
    HalfDims,
    NoiseConfig,
    ObjectSpec,
    PickPlace,
    PlannerConfig,
    PushPlace,
    Rect,
    Scene,
    Side,
    TerminationReason,
    Vec2,
    action_cost,
    apply_action,
    execute,
    plan,
    validate_action,
)
from pushplan.executor import ACTION_OVERHEAD_S, rederive_tail
from pushplan.io import report_to_dict
from pushplan.primitives import push_on_side
from pushplan.scene import InfeasibleActionError, blockers_of, satisfied_count
from pushplan.bench import generate_scene
from pushplan.seeding import derive_seed
from pushplan.simulator import NO_NOISE

import pushplan.executor as executor_mod


CFG = PlannerConfig(max_expansions=2000, seed=0)


def _unsolved_scenes(tag, count, n_range=(3, 6)):
    made = 0
    k = 0
    while made < count:
        n = n_range[0] + k % (n_range[1] - n_range[0] + 1)
        scene = generate_scene(n, derive_seed("executor-suite", tag, k))
        k += 1
        if satisfied_count(scene) == scene.n:
            continue
        yield scene
        made += 1


class TestZeroNoise:
    def test_already_solved_scene_is_a_noop(self):
        scene = Scene(
            workspace=Rect(Vec2(0, 0), Vec2(1, 1)),
            objects=(ObjectSpec(0, HalfDims(0.05, 0.05)),),
            current=(Vec2(0.3, 0.3),),
            goal=(Vec2(0.3, 0.3),),
        )
        report = execute(scene, CFG)
        assert report.terminated_by is TerminationReason.ALL_AT_GOAL
        assert report.steps == ()
        assert report.total_actions == 0
        assert report.success_rate == 1.0
        assert report.robot_time_proxy == 0.0
        assert report.final_scene.current == scene.current

    def test_empty_scene_is_vacuously_done(self):
        scene = Scene(workspace=Rect(Vec2(0, 0), Vec2(1, 1)), objects=(), current=(), goal=())
        report = execute(scene, CFG)
        assert report.terminated_by is TerminationReason.ALL_AT_GOAL
        assert report.success_rate == 1.0

    def test_first_plan_runs_to_completion(self, swap_scene):
        # with exact execution the model prediction always matches, so the
        # executor never replans: actions executed == first plan length
        report = execute(swap_scene, CFG)
        assert report.terminated_by is TerminationReason.ALL_AT_GOAL
        assert report.success_rate == 1.0
        first_len = report.steps[0].planned_plan_length
        assert report.total_actions == first_len
        lengths = [s.planned_plan_length for s in report.steps]
        assert lengths == list(range(first_len, 0, -1))
        assert not any(s.skipped for s in report.steps)

    def test_closed_loop_equals_open_loop_replay(self):
        for scene in _unsolved_scenes("openloop", 10):
            report = execute(scene, CFG)
            if report.terminated_by is not TerminationReason.ALL_AT_GOAL:
                continue
            state = scene
            for step in report.steps:
                state = apply_action(state, step.executed_action)
            assert state.current == report.final_scene.current

    def test_robot_time_proxy_accounting(self, swap_scene):
        report = execute(swap_scene, CFG)
        travel = report.robot_time_proxy - ACTION_OVERHEAD_S * report.total_actions
        assert travel > 0.0
        # swap push plan: 0.65 + 0.71 of travel, two actions of overhead
        assert report.total_actions == 2
        assert travel == pytest.approx(1.36, abs=1e-9)

        # A noisy N = 8 trial: the proxy is the travel of every executed
        # action, costed on the scene it was executed from, plus overhead.
        scene = next(_unsolved_scenes("proxy", 1, (8, 8)))
        noise = NoiseConfig(lateral_sigma=0.003, depth_sigma=0.002, enabled=True)
        noisy = execute(scene, CFG, noise=noise, rng=random.Random(5))
        ee = EEState(scene.workspace.center, scene.workspace.center)
        travel = 0.0
        for step in noisy.steps:
            bd, ee = action_cost(step.pre_scene, step.executed_action, ee)
            travel += bd.approach + bd.pick + bd.transfer
        assert noisy.total_actions >= 8
        assert noisy.robot_time_proxy == pytest.approx(
            travel + ACTION_OVERHEAD_S * noisy.total_actions, abs=1e-9
        )

    def test_step_budget_is_respected(self, swap_scene):
        for budget in (1, 2):
            report = execute(swap_scene, CFG, step_budget=budget)
            assert report.total_actions <= budget
            if report.terminated_by is TerminationReason.STEP_BUDGET:
                assert report.success_rate < 1.0

    def test_all_at_goal_iff_every_object_satisfied(self):
        for scene in _unsolved_scenes("allgoal", 8):
            report = execute(scene, CFG, step_budget=6)
            done = satisfied_count(report.final_scene) == report.final_scene.n
            assert (report.terminated_by is TerminationReason.ALL_AT_GOAL) == done
            assert report.success_rate == pytest.approx(
                satisfied_count(report.final_scene) / report.final_scene.n
            )

    def test_planning_failure_with_starved_budget(self, swap_scene):
        report = execute(swap_scene, PlannerConfig(max_expansions=1, seed=0))
        assert report.terminated_by is TerminationReason.PLANNING_FAILURE
        assert report.total_actions == 0
        assert report.steps == ()


class TestNoisy:
    NOISE = NoiseConfig(lateral_sigma=0.004, depth_sigma=0.003, enabled=True)

    def test_same_rng_seed_reproduces_the_whole_trial(self, swap_scene):
        a = execute(swap_scene, CFG, noise=self.NOISE, rng=random.Random(5))
        b = execute(swap_scene, CFG, noise=self.NOISE, rng=random.Random(5))
        assert a.final_scene.current == b.final_scene.current
        assert a.total_actions == b.total_actions
        assert a.terminated_by is b.terminated_by
        assert [s.executed_action for s in a.steps] == [s.executed_action for s in b.steps]

    def test_noisy_trials_still_finish(self):
        done = 0
        for k, scene in enumerate(_unsolved_scenes("noisy", 6)):
            report = execute(scene, CFG, noise=self.NOISE, rng=random.Random(k))
            assert report.total_actions <= 15
            if report.terminated_by is TerminationReason.ALL_AT_GOAL:
                done += 1
        assert done >= 4

    def test_widening_tolerance_never_lowers_success(self):
        for k, scene in enumerate(_unsolved_scenes("montol", 5)):
            report = execute(scene, CFG, noise=self.NOISE, rng=random.Random(k), step_budget=5)
            final = report.final_scene
            wider = replace(final, tolerance=final.tolerance * 3)
            assert satisfied_count(wider) >= satisfied_count(final)

    def test_object_lost_on_violent_noise_near_edge(self):
        # goal near the right wall with a blocker on it; drift this large
        # will eventually clip a shoved object against the table edge
        scene = Scene(
            workspace=Rect(Vec2(0, 0), Vec2(1, 1)),
            objects=(ObjectSpec(0, HalfDims(0.05, 0.05)), ObjectSpec(1, HalfDims(0.05, 0.05))),
            current=(Vec2(0.2, 0.5), Vec2(0.9, 0.58)),
            goal=(Vec2(0.9, 0.5), Vec2(0.2, 0.85)),
        )
        noise = NoiseConfig(lateral_sigma=0.08, depth_sigma=0.02, enabled=True)
        lost = None
        for seed in range(40):
            report = execute(scene, CFG, noise=noise, rng=random.Random(seed), step_budget=8)
            if report.terminated_by is TerminationReason.OBJECT_LOST:
                lost = report
                break
        assert lost is not None, "no trial lost an object in 40 seeds"
        last = lost.steps[-1]
        assert any(ev.kind.value == "left_table" for ev in last.sim_events)
        assert lost.success_rate < 1.0


class TestSimulatorAcceptsExecutedActions:
    """Every executed action was admitted by ``transition`` in the scene it is
    simulated in, so ``simulate`` accepts it; a refusal is a fault, not a
    step to skip."""

    def test_a_refusal_propagates(self, swap_scene, monkeypatch):
        def refuses(scene, action, noise, rng):
            raise InfeasibleActionError("injected refusal")

        monkeypatch.setattr(executor_mod, "simulate", refuses)
        with pytest.raises(InfeasibleActionError, match="injected refusal"):
            execute(swap_scene, CFG)

    @pytest.mark.parametrize("scale", [1, 3, 10], ids=["x1", "x3", "x10"])
    @pytest.mark.parametrize("n, sizes", [(8, (0.03, 0.07)), (14, (0.05, 0.079))], ids=["n8", "n14-dense"])
    def test_noisy_executions_never_raise(self, n, sizes, scale):
        # 12 scenes per case, both variants: 144 trials in all.
        noise = NoiseConfig(lateral_sigma=0.003 * scale, depth_sigma=0.002 * scale, enabled=True)
        pushes = 0
        for k in range(12):
            scene = generate_scene(n, derive_seed("no-refusal", n, scale, k), size_range=sizes)
            for push_enabled in (False, True):
                cfg = replace(CFG, push_enabled=push_enabled)
                report = execute(scene, cfg, noise, step_budget=2 * n, rng=random.Random(k))
                assert not any(s.skipped for s in report.steps)
                pushes += sum(isinstance(s.executed_action, PushPlace) for s in report.steps)
        assert pushes


class TestReportDict:
    def test_shape_and_values(self, swap_scene):
        report = execute(swap_scene, CFG)
        doc = report_to_dict(report)
        assert set(doc) == {
            "steps",
            "total_actions",
            "success_rate",
            "robot_time_proxy",
            "terminated_by",
        }
        assert doc["terminated_by"] == "all_at_goal"
        assert doc["total_actions"] == report.total_actions
        assert len(doc["steps"]) == len(report.steps)
        first = doc["steps"][0]
        assert first["executed_action"]["type"] in ("pick_place", "push_place")
        for ev in first["sim_events"]:
            assert set(ev) == {"kind", "object", "detail"}


def _validated_replay(scene, actions):
    """``rederive_tail`` by the validated path: each push admitted by
    ``push_on_side``, then every action validated and applied by ``apply_action``.
    Returns the tail with every action's outcome, or None."""
    tail, outcomes, state = [], [], scene
    for action in actions:
        if isinstance(action, PushPlace):
            blockers = blockers_of(state, action.object)
            proposal = push_on_side(state, action.object, blockers, action.side) if blockers else None
            if proposal is None:
                return None
            action = proposal.as_action()
        try:
            state = apply_action(state, action)
        except InfeasibleActionError:
            return None
        tail.append(action)
        outcomes.append(state)
    if not tail or satisfied_count(state) != state.n:
        return None
    return tail, outcomes


def _walled_swap_scene():
    """The swap plus an object with a free goal and a wall behind the push.

    Object 0 pushes object 1 off its goal along ``Side.LEFT`` from a pre-push
    pose that ends 5 mm short of the wall (object 3, at its goal); object 2
    only needs a placement.
    """
    objs = tuple(ObjectSpec(i, HalfDims(0.05, 0.05)) for i in range(4))
    current = (Vec2(0.35, 0.5), Vec2(0.65, 0.5), Vec2(0.2, 0.2), Vec2(0.86, 0.5))
    goal = (Vec2(0.65, 0.5), Vec2(0.35, 0.5), Vec2(0.2, 0.8), Vec2(0.86, 0.5))
    return Scene(Rect(Vec2(0, 0), Vec2(1, 1)), objs, current, goal, 0.005)


def _perturb_first_step(monkeypatch, perturb):
    """Patch the executor's ``simulate`` so that ``perturb(outcome, action)``
    replaces the outcome of the first executed action."""
    real = executor_mod.simulate
    calls = []

    def patched(scene, action, noise, rng):
        nxt, events = real(scene, action, noise, rng)
        calls.append(action)
        if len(calls) == 1:
            nxt = perturb(nxt, action)
        return nxt, events

    monkeypatch.setattr(executor_mod, "simulate", patched)


def _record_plan_scenes(monkeypatch):
    """Patch the executor's ``plan`` to record the scene of every call."""
    real = executor_mod.plan
    scenes = []

    def recording(scene, cfg):
        scenes.append(scene)
        return real(scene, cfg)

    monkeypatch.setattr(executor_mod, "plan", recording)
    return scenes


class TestPlanTail:
    NOISE = NoiseConfig(enabled=True)

    def test_unperturbed_tail_is_rederived_bit_for_bit(self):
        pushes = 0
        for scene in _unsolved_scenes("tail-exact", 12, (6, 9)):
            p = plan(scene, CFG)
            if p is None:
                continue
            state = scene
            for k, action in enumerate(p.actions):
                tail = rederive_tail(state, p.actions[k:])
                assert tail == list(p.actions[k:])
                assert [repr(a) for a in tail] == [repr(a) for a in p.actions[k:]]
                state = apply_action(state, action)
                pushes += isinstance(action, PushPlace)
        assert pushes > 0

    def test_perturbed_tail_matches_a_validated_replay(self):
        # From observations that nudge the object just placed, the re-derived
        # tail equals a replay that admits each push with ``push_on_side`` and
        # then validates and applies it with ``apply_action``.
        # Half the scenes are dense, so that some pushes move two blockers.
        nudges = [Vec2(dx, dy) for d in (0.002, 0.015) for dx, dy in ((d, 0), (-d, 0), (0, d), (0, -d))]
        seen = {"kept": 0, "rejected": 0, "kept pushes": 0, "kept pushes of two blockers": 0}
        for k in range(48):
            sizes = (0.05, 0.079) if k % 2 else (0.03, 0.07)
            scene = generate_scene(6 + k % 4, derive_seed("tail-perturbed", k), size_range=sizes)
            p = plan(scene, CFG)
            if p is None:
                continue
            state = scene.with_footprints()
            for j in range(1, len(p.actions)):
                state = apply_action(state, p.actions[j - 1])
                obj = p.actions[j - 1].object
                for nudge in nudges:
                    try:
                        observed = state.with_moved(((obj, state.current[obj] + nudge),))
                    except InfeasibleActionError:
                        continue
                    want = _validated_replay(observed, p.actions[j:])
                    got = rederive_tail(observed, p.actions[j:])
                    if want is None:
                        assert got is None
                        seen["rejected"] += 1
                        continue
                    tail, outcomes = want
                    assert got == tail and [repr(a) for a in got] == [repr(a) for a in tail]
                    seen["kept"] += 1
                    for before, action in zip([observed] + outcomes, tail):
                        if isinstance(action, PushPlace):
                            seen["kept pushes"] += 1
                            seen["kept pushes of two blockers"] += len(blockers_of(before, action.object)) > 1
        assert all(seen.values()), seen

    def test_empty_or_unfinished_tail_is_rejected(self, swap_scene):
        p = plan(swap_scene, PlannerConfig(max_expansions=3000, seed=0))
        assert rederive_tail(swap_scene, ()) is None
        # The first action alone leaves the other object off its goal.
        assert rederive_tail(swap_scene, p.actions[:1]) is None

    def test_noisy_trials_keep_their_tails_and_stay_feasible(self):
        rounds = []
        for k, scene in enumerate(_unsolved_scenes("tail-noise", 8, (8, 8))):
            report = execute(scene, CFG, noise=self.NOISE, rng=random.Random(k))
            assert report.terminated_by is TerminationReason.ALL_AT_GOAL
            assert not any(step.skipped for step in report.steps)
            for step in report.steps:
                validate_action(step.pre_scene, step.executed_action)
            rounds.append(report.plan_rounds)
        assert sum(rounds) / len(rounds) < 2

    @pytest.mark.parametrize("noise", [NO_NOISE, NOISE], ids=["exact", "noisy"])
    @pytest.mark.parametrize("n, sizes", [(8, None), (14, (0.05, 0.079))], ids=["n8", "n14-dense"])
    def test_executed_actions_are_derived_from_their_pre_scenes(self, noise, n, sizes):
        # Whatever plan round an action comes from, it is the move the model
        # admits in the scene it was actually executed in.
        kwargs = {} if sizes is None else {"size_range": sizes}
        pushes = 0
        for k in range(25):
            scene = generate_scene(n, 1000 * n + k, **kwargs)
            report = execute(scene, PlannerConfig(max_expansions=1500, seed=k), noise, rng=random.Random(k))
            for step in report.steps:
                action, pre = step.executed_action, step.pre_scene
                if action is None:
                    continue
                validate_action(pre, action)
                if isinstance(action, PushPlace):
                    blockers = blockers_of(pre, action.object)
                    assert action == push_on_side(pre, action.object, blockers, action.side).as_action()
                    pushes += 1
        assert pushes > 0

    def test_zero_noise_plans_once(self, swap_scene):
        assert execute(swap_scene, CFG).plan_rounds == 1
        for scene in _unsolved_scenes("tail-once", 6, (6, 8)):
            report = execute(scene, CFG)
            assert report.terminated_by is TerminationReason.ALL_AT_GOAL
            assert report.plan_rounds == 1

    def test_placed_object_outside_tolerance_forces_a_replan(self, swap_scene, monkeypatch):
        exact = execute(swap_scene, CFG)
        assert exact.plan_rounds == 1
        planned_tail = [s.executed_action for s in exact.steps[1:]]
        seen = {}

        def displace(nxt, action):
            # Move the object just placed 3 tolerances off its goal, keeping the scene valid.
            obj = action.object
            pose = nxt.current[obj]
            for step in (Vec2(-0.015, 0.0), Vec2(0.0, 0.015), Vec2(0.0, -0.015), Vec2(0.015, 0.0)):
                try:
                    moved = nxt.with_moved([(obj, pose + step)])
                except InfeasibleActionError:
                    continue
                seen["scene"] = moved
                return moved
            raise AssertionError("no free pose near the placed object")

        _perturb_first_step(monkeypatch, displace)
        planned_from = _record_plan_scenes(monkeypatch)
        report = execute(swap_scene, CFG)
        assert report.plan_rounds == 2
        # The replan starts from the displaced observation, before the tail runs.
        assert planned_from[1] == seen["scene"]
        assert report.terminated_by is TerminationReason.ALL_AT_GOAL
        # The planned tail is still feasible; it is rejected for its end state.
        state = seen["scene"]
        for action in planned_tail:
            state = apply_action(state, action)
        assert satisfied_count(state) < state.n
        assert rederive_tail(seen["scene"], planned_tail) is None

    def test_blocker_nudged_off_the_planned_side_forces_a_replan(self, monkeypatch):
        scene = _walled_swap_scene()
        push = PushPlace(0, Side.LEFT, Vec2(0.755, 0.5))
        for seed in range(40):
            report = execute(scene, CFG, rng=random.Random(seed))
            actions = [s.executed_action for s in report.steps]
            if isinstance(actions[0], PickPlace) and actions[0].object == 2 and actions[1].object == 0:
                break
        else:
            raise AssertionError("no trial placed object 2 before pushing object 0")
        assert report.plan_rounds == 1
        assert actions[1].side is push.side
        assert (actions[1].pre_push - push.pre_push).norm() < 1e-12
        seen = {}

        def nudge(nxt, action):
            # Object 1 still blocks object 0's goal, but the pre-push pose now overlaps the wall.
            seen["scene"] = nxt.with_moved([(1, nxt.current[1] + Vec2(0.01, 0.0))])
            return seen["scene"]

        _perturb_first_step(monkeypatch, nudge)
        planned_from = _record_plan_scenes(monkeypatch)
        nudged = execute(scene, CFG, rng=random.Random(seed))
        assert planned_from[1] == seen["scene"]
        assert blockers_of(seen["scene"], 0) == (1,)
        assert push_on_side(seen["scene"], 0, [1], Side.LEFT) is None
        assert rederive_tail(seen["scene"], actions[1:]) is None
        assert nudged.plan_rounds == 2
        assert nudged.terminated_by is TerminationReason.ALL_AT_GOAL
