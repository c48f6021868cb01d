"""End-effector travel costs for actions and plans.

The robot is abstracted to a point end-effector.  An action's cost is the
travel it induces, scaled by a dimensionless factor: the approach leg from
wherever the previous action left the gripper to the object, a fixed
grasp-and-lift allowance, and the transfer leg(s) to the set-down point.
A push's transfer detours through the pre-push pose, which is exactly why
it can still beat clearing the goal region with a separate park-and-return
trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .geometry import Vec2
from .scene import DEFAULT_CLEARANCE, Action, PickPlace, Scene, apply_action, validate_action

# Fixed travel charged for acquiring the grasp and lifting, meters.
PICK_TRAVEL = 0.2


@dataclass(frozen=True, slots=True)
class EEState:
    """Where the end-effector is and where it parks between plans."""

    pose: Vec2
    home: Vec2


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    approach: float
    pick: float
    transfer: float
    lam: float = 1.0

    @property
    def total(self) -> float:
        return self.lam * (self.approach + self.pick + self.transfer)


def action_cost(
    scene: Scene, action: Action, ee: EEState, lam: float = 1.0, clearance: float = DEFAULT_CLEARANCE
) -> tuple[CostBreakdown, EEState]:
    """Cost of one feasible action and the end-effector state after it.

    Raises InfeasibleActionError when ``action`` is infeasible in ``scene``.
    """
    validate_action(scene, action, clearance)
    return travel_cost(scene, action, ee, lam)


def travel_cost(
    scene: Scene, action: Action, ee: EEState, lam: float = 1.0
) -> tuple[CostBreakdown, EEState]:
    """``action_cost`` for an action already known to be feasible: no validation."""
    start = scene.current[action.object]
    approach = (start - ee.pose).norm()
    if isinstance(action, PickPlace):
        transfer = (action.destination - start).norm()
        final = action.destination
    else:
        goal = scene.goal[action.object]
        transfer = (action.pre_push - start).norm() + (goal - action.pre_push).norm()
        final = goal
    return CostBreakdown(approach, PICK_TRAVEL, transfer, lam), EEState(final, ee.home)


def plan_cost(
    plan: Union[Iterable[Action], "object"],
    start: Scene,
    lam: float = 1.0,
    home: Optional[Vec2] = None,
    clearance: float = DEFAULT_CLEARANCE,
) -> float:
    """Total cost of a plan, recomputed by replaying it from ``start``.

    ``plan`` may be a Plan or any iterable of actions.  The end-effector
    starts at ``home`` (workspace center by default).  Raises if any action
    is infeasible at its point in the replay.
    """
    actions = getattr(plan, "actions", plan)
    ee = EEState(home if home is not None else start.workspace.center, home or start.workspace.center)
    scene = start
    total = 0.0
    for action in actions:
        bd, ee = action_cost(scene, action, ee, lam, clearance)
        scene = apply_action(scene, action, clearance)
        total += bd.total
    return total


def percent_reduction(baseline: float, candidate: float) -> float:
    """How much cheaper ``candidate`` is than ``baseline``, in percent.

    Positive when the candidate wins.  The baseline must be positive.
    """
    if not baseline > 0.0:
        raise ValueError(f"baseline cost must be positive, got {baseline}")
    return 100.0 * (baseline - candidate) / baseline
