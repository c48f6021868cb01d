"""Closed-loop execution: plan, act once through the physics, observe, repeat.

While a plan's tail is pending, each cycle re-derives it from the observed
state (``rederive_tail``): placements keep their destinations, pushes keep
their sides and get fresh blockers and pre-push poses, and each successor is
built by ``scene.transition``, as the search builds its children.  The tail
is kept when all of it is feasible and it still ends with every object
within tolerance; otherwise a fresh plan is made from the observed state.
Only the first action of whatever plan is current ever gets executed.

The loop works on a cached scene (``Scene.with_footprints``): planning,
simulation, the tail replay and the goal count all read its footprints and
unsatisfied ids, and each successor updates them for the moved objects
only.  The report holds plain copies instead (``Scene.without_cache``),
which share every field with the working scenes but keep no footprints
alive.  One copy is made per observed state: a step's ``post_scene`` is
the next step's ``pre_scene``.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .metrics import path_costs, total_cost
from .planner import Plan, PlannerConfig, plan
from .primitives import push_on_side
from .scene import (
    Action,
    InfeasibleActionError,
    PushPlace,
    Scene,
    apply_action,  # noqa: F401  (not called; perfbench's tests look it up here)
    blockers_of,
    satisfied_count,
    transition,
)
from .seeding import derive_seed
from .simulator import NO_NOISE, NoiseConfig, SimEvent, SimEventKind, simulate

# Fixed per-action overhead (grasp, settle, release) added to travel when
# reporting the robot-time proxy.  Seconds, with travel counted 1 m : 1 s.
ACTION_OVERHEAD_S = 2.0

# Executed actions allowed per trial unless the caller sets another budget.
DEFAULT_STEP_BUDGET = 15


class TerminationReason(Enum):
    ALL_AT_GOAL = "all_at_goal"
    STEP_BUDGET = "step_budget"
    PLANNING_FAILURE = "planning_failure"
    OBJECT_LOST = "object_lost"


@dataclass(frozen=True, slots=True)
class StepRecord:
    planned_plan_length: int
    executed_action: Action
    sim_events: tuple[SimEvent, ...]
    pre_scene: Scene
    post_scene: Scene
    # Always False: every step executes its action.  Kept only because
    # perfbench's report check and tracer still read it.
    skipped: bool = False


@dataclass(frozen=True, slots=True)
class ExecutionReport:
    steps: tuple[StepRecord, ...]
    total_actions: int
    success_rate: float
    robot_time_proxy: float
    terminated_by: TerminationReason
    final_scene: Scene
    # ``plan()`` calls made in the trial.
    plan_rounds: int


def rederive_tail(scene: Scene, actions: Sequence[Action]) -> Optional[list[Action]]:
    """The remaining ``actions`` re-derived from ``scene``, or None.

    A PickPlace keeps its destination.  A PushPlace keeps its side and takes
    its blockers and pre-push pose from the scene it now starts in, with the
    planning edge margin (``push_on_side``).  Each successor is built by
    ``scene.transition`` from that proposal or placement, exactly as the
    search builds its children.  A push admitted with the planning margin
    also passes ``validate_action``, which waives the margin and derives the
    same pre-push pose, so every successor equals ``apply_action``'s.
    Returns None when an action is inadmissible or infeasible, when the last
    one leaves an object outside tolerance (the tail no longer reaches the
    goal), and for an empty tail.
    """
    tail: list[Action] = []
    state = scene
    for action in actions:
        if isinstance(action, PushPlace):
            blockers = blockers_of(state, action.object)
            move = push_on_side(state, action.object, blockers, action.side) if blockers else None
            if move is None:
                return None
        else:
            move = action
        try:
            action, state = transition(state, move)
        except InfeasibleActionError:
            return None
        tail.append(action)
    if not tail or satisfied_count(state) != state.n:
        return None
    return tail


def execute(
    scene: Scene,
    planner_cfg: PlannerConfig,
    noise: NoiseConfig = NO_NOISE,
    step_budget: int = DEFAULT_STEP_BUDGET,
    rng: Optional[random.Random] = None,
) -> ExecutionReport:
    """Run the plan-act-observe loop until done, stuck, or out of budget.

    ``step_budget`` caps executed actions.  Each planning round uses a seed
    derived from the trial seed and the round index, so a whole trial is a
    deterministic function of (scene, planner_cfg, noise, rng state).  A new
    plan is made at the start and whenever the current plan's tail fails
    ``rederive_tail`` from the observed state.

    Every executed action was admitted by ``transition`` in the scene it is
    simulated in, so ``simulate`` accepts it; an error it raises is a fault
    and propagates.
    """
    if rng is None:
        rng = random.Random(0)
    trial_seed = rng.getrandbits(63)

    current = scene.with_footprints()
    # The report's copy of ``current``.
    observed = scene.without_cache()
    steps: list[StepRecord] = []
    pending: list[Action] = []
    total_actions = 0
    plan_rounds = 0
    terminated: Optional[TerminationReason] = None

    while True:
        if satisfied_count(current) == current.n:
            terminated = TerminationReason.ALL_AT_GOAL
            break
        if total_actions >= step_budget:
            terminated = TerminationReason.STEP_BUDGET
            break

        if pending:
            pending = rederive_tail(current, pending) or []
        if not pending:
            cfg = replace(planner_cfg, seed=derive_seed(trial_seed, "plan", plan_rounds))
            plan_rounds += 1
            result: Optional[Plan] = plan(current, cfg)
            if result is None or not result.actions:
                terminated = TerminationReason.PLANNING_FAILURE
                break
            pending = list(result.actions)

        action = pending[0]
        sim_rng = random.Random(derive_seed(trial_seed, "sim", len(steps)))
        nxt, events = simulate(current, action, noise, sim_rng)
        pending = pending[1:]
        total_actions += 1
        pre, observed = observed, nxt.without_cache()
        steps.append(
            StepRecord(
                planned_plan_length=len(pending) + 1,
                executed_action=action,
                sim_events=tuple(events),
                pre_scene=pre,
                post_scene=observed,
            )
        )
        current = nxt
        if any(ev.kind == SimEventKind.LEFT_TABLE for ev in events):
            terminated = TerminationReason.OBJECT_LOST
            break

    # ``transition`` admitted each executed action in its pre-scene, in the
    # search or in ``rederive_tail``, so the travel is costed unvalidated.
    travel = total_cost(path_costs([(s.pre_scene, s.executed_action) for s in steps]))
    return ExecutionReport(
        steps=tuple(steps),
        total_actions=total_actions,
        # an empty scene is vacuously done
        success_rate=satisfied_count(current) / current.n if current.n else 1.0,
        robot_time_proxy=travel + ACTION_OVERHEAD_S * total_actions,
        terminated_by=terminated,
        final_scene=observed,
        plan_rounds=plan_rounds,
    )
