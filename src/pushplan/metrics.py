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

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Union

from .geometry import Vec2
from .scene import Action, PickPlace, Scene, apply_action, validate_action

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


def action_cost(scene: Scene, action: Action, ee: EEState, lam: float = 1.0) -> tuple[CostBreakdown, EEState]:
    """Cost of one feasible action and the end-effector state after it.

    Raises InfeasibleActionError when ``action`` is infeasible in ``scene``.
    """
    validate_action(scene, action)
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


def path_costs(steps: Iterable[tuple[Scene, Action]]) -> tuple[CostBreakdown, ...]:
    """The cost of each ``(scene, action)`` step of a path, each action feasible
    in its scene (unvalidated).  The end-effector starts at the workspace
    center and ends each step where its action set the object down."""
    costs: list[CostBreakdown] = []
    for scene, action in steps:
        if not costs:
            ee = EEState(scene.workspace.center, scene.workspace.center)
        bd, ee = travel_cost(scene, action, ee)
        costs.append(bd)
    return tuple(costs)


def total_cost(costs: Iterable[CostBreakdown]) -> float:
    """The costs' totals added left to right; not ``sum()``, which adds floats
    with compensation from Python 3.12 on."""
    total = 0.0
    for bd in costs:
        total += bd.total
    return total


def plan_cost(plan: Union[Iterable[Action], "object"], start: Scene) -> float:
    """Total cost of a plan, recomputed by replaying it from ``start``.

    ``plan`` may be a Plan or any iterable of actions.  The path is replayed
    with ``apply_action``, which raises if an action is infeasible at its
    point, and then costed (``path_costs``).
    """
    steps = []
    scene = start
    for action in getattr(plan, "actions", plan):
        steps.append((scene, action))
        scene = apply_action(scene, action)
    return total_cost(path_costs(steps))


def percent_reduction(baseline: float, candidate: float) -> float:
    """How much cheaper ``candidate`` is than ``baseline``, in percent.

    Positive when the candidate wins.  The baseline must be positive.
    """
    if not baseline > 0.0:
        raise ValueError(f"baseline cost must be positive, got {baseline}")
    return 100.0 * (baseline - candidate) / baseline
