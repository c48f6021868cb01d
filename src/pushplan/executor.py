"""Closed-loop execution: plan, act once through the physics, observe, repeat.

Each cycle compares the observed arrangement with what the transition model
predicted for the previous action.  While they agree (which under zero noise
is always), the remainder of the current plan is still exact and is followed;
any deviation triggers a fresh plan from the observed state.  Only the first
action of whatever plan is current ever gets executed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .metrics import EEState, action_cost
from .planner import Plan, PlannerConfig, plan
from .scene import Action, InfeasibleActionError, Scene, action_to_dict, apply_action, satisfied_count
from .seeding import derive_seed
from .simulator import NO_NOISE, NoiseConfig, SimEvent, SimEventKind, simulate

# Fixed per-action overhead (grasp, settle, release) added to travel when
# reporting the robot-time proxy.  Seconds, with travel counted 1 m : 1 s.
ACTION_OVERHEAD_S = 2.0

# A first action can only be invalidated between planning and execution by
# noise; after this many consecutive skips the trial is abandoned.
MAX_CONSECUTIVE_SKIPS = 3

# Observed poses matching the model prediction closer than this mean the
# previous plan is still exact.  Meters.
PREDICTION_TOL = 1e-12


class TerminationReason(Enum):
    ALL_AT_GOAL = "all_at_goal"
    STEP_BUDGET = "step_budget"
    PLANNING_FAILURE = "planning_failure"
    OBJECT_LOST = "object_lost"


@dataclass(frozen=True, slots=True)
class StepRecord:
    planned_plan_length: int
    executed_action: Optional[Action]
    sim_events: tuple[SimEvent, ...]
    post_state_summary: dict
    skipped: bool = False
    note: str = ""
    pre_scene: Optional[Scene] = None
    post_scene: Optional[Scene] = None


@dataclass(frozen=True, slots=True)
class ExecutionReport:
    steps: tuple[StepRecord, ...]
    total_actions: int
    success_rate: float
    robot_time_proxy: float
    terminated_by: TerminationReason
    final_scene: Scene


def _poses_match(a: Scene, b: Scene, tol: float = PREDICTION_TOL) -> bool:
    return all(
        abs(p.x - q.x) <= tol and abs(p.y - q.y) <= tol for p, q in zip(a.current, b.current)
    )


def execute(
    scene: Scene,
    planner_cfg: PlannerConfig,
    noise: NoiseConfig = NO_NOISE,
    step_budget: int = 15,
    rng: Optional[random.Random] = None,
) -> ExecutionReport:
    """Run the plan-act-observe loop until done, stuck, or out of budget.

    ``step_budget`` caps executed actions.  Each replanning round uses a seed
    derived from the trial seed and the round index, so a whole trial is a
    deterministic function of (scene, planner_cfg, noise, rng state).
    """
    if rng is None:
        rng = random.Random(0)
    trial_seed = rng.getrandbits(63)
    clearance = planner_cfg.push_cfg.clearance

    current = scene
    steps: list[StepRecord] = []
    pending: list[Action] = []
    predicted: Optional[Scene] = None
    total_actions = 0
    travel = 0.0
    ee = EEState(scene.workspace.center, scene.workspace.center)
    plan_rounds = 0
    skips_in_row = 0
    terminated: Optional[TerminationReason] = None

    while True:
        if satisfied_count(current) == current.n:
            terminated = TerminationReason.ALL_AT_GOAL
            break
        if total_actions >= step_budget:
            terminated = TerminationReason.STEP_BUDGET
            break

        if not (pending and predicted is not None and _poses_match(current, predicted)):
            cfg = replace(planner_cfg, seed=derive_seed(trial_seed, "plan", plan_rounds))
            plan_rounds += 1
            result: Optional[Plan] = plan(current, cfg)
            if result is None or not result.actions:
                terminated = TerminationReason.PLANNING_FAILURE
                break
            pending = list(result.actions)
            predicted = None

        action = pending[0]
        sim_rng = random.Random(derive_seed(trial_seed, "sim", len(steps)))
        try:
            nxt, events = simulate(current, action, noise, sim_rng, clearance)
        except InfeasibleActionError as e:
            # Noise invalidated a held-over action between cycles; replan.
            steps.append(
                StepRecord(
                    planned_plan_length=len(pending),
                    executed_action=None,
                    sim_events=(),
                    post_state_summary={"satisfied": satisfied_count(current), "total": current.n},
                    skipped=True,
                    note=str(e),
                    pre_scene=current,
                    post_scene=current,
                )
            )
            pending = []
            predicted = None
            skips_in_row += 1
            if skips_in_row >= MAX_CONSECUTIVE_SKIPS:
                terminated = TerminationReason.PLANNING_FAILURE
                break
            continue

        skips_in_row = 0
        bd, ee = action_cost(current, action, ee, 1.0, clearance)
        travel += bd.approach + bd.pick + bd.transfer
        predicted = apply_action(current, action, clearance)
        pending = pending[1:]
        total_actions += 1
        steps.append(
            StepRecord(
                planned_plan_length=len(pending) + 1,
                executed_action=action,
                sim_events=tuple(events),
                post_state_summary={"satisfied": satisfied_count(nxt), "total": nxt.n},
                pre_scene=current,
                post_scene=nxt,
            )
        )
        current = nxt
        if any(ev.kind == SimEventKind.LEFT_TABLE for ev in events):
            terminated = TerminationReason.OBJECT_LOST
            break

    return ExecutionReport(
        steps=tuple(steps),
        total_actions=total_actions,
        # an empty scene is vacuously done
        success_rate=satisfied_count(current) / current.n if current.n else 1.0,
        robot_time_proxy=travel + ACTION_OVERHEAD_S * total_actions,
        terminated_by=terminated,
        final_scene=current,
    )


def report_to_dict(report: ExecutionReport) -> dict:
    steps = []
    for s in report.steps:
        entry: dict = {
            "planned_plan_length": s.planned_plan_length,
            "executed_action": action_to_dict(s.executed_action) if s.executed_action else None,
            "sim_events": [
                {"kind": ev.kind.value, "object": ev.object, "detail": ev.detail}
                for ev in s.sim_events
            ],
            "post_state_summary": s.post_state_summary,
        }
        if s.skipped:
            entry["skipped"] = True
            entry["note"] = s.note
        steps.append(entry)
    return {
        "steps": steps,
        "total_actions": report.total_actions,
        "success_rate": report.success_rate,
        "robot_time_proxy": report.robot_time_proxy,
        "terminated_by": report.terminated_by.value,
    }
