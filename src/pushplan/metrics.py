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

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Union

from .geometry import Vec2
from .scene import Action, PickPlace, Scene, replay, validate_action

# Fixed travel charged for acquiring the grasp and lifting, meters.
PICK_TRAVEL = 0.2


@dataclass(frozen=True, slots=True)
class EEState:
    """Where the end-effector is and where it parks between plans."""

    pose: Vec2
    home: Vec2


@dataclass(frozen=True, slots=True, init=False)
class CostBreakdown:
    approach: float
    pick: float
    transfer: float
    lam: float = 1.0

    def __init__(self, approach: float, pick: float, transfer: float, lam: float = 1.0) -> None:
        _SET_APPROACH(self, approach)
        _SET_PICK(self, pick)
        _SET_TRANSFER(self, transfer)
        _SET_LAM(self, lam)

    @property
    def total(self) -> float:
        return self.lam * (self.approach + self.pick + self.transfer)


# Built through its slots, as ``Vec2`` is: every plan costs each action.
_SET_APPROACH = CostBreakdown.approach.__set__
_SET_PICK = CostBreakdown.pick.__set__
_SET_TRANSFER = CostBreakdown.transfer.__set__
_SET_LAM = CostBreakdown.lam.__set__


def action_cost(scene: Scene, action: Action, ee: EEState, lam: float = 1.0) -> tuple[CostBreakdown, EEState]:
    """Cost of one feasible action and the end-effector state after it.

    Raises InfeasibleActionError when ``action`` is infeasible in ``scene``.
    The legs are ``_legs``'s, the one cost formula ``path_costs`` uses too.
    """
    validate_action(scene, action)
    approach, transfer, final = _legs(scene, action, ee.pose)
    return CostBreakdown(approach, PICK_TRAVEL, transfer, lam), EEState(final, ee.home)


def _legs(scene: Scene, action: Action, pose: Vec2) -> tuple[float, float, Vec2]:
    """(approach, transfer, set-down pose) of ``action`` for an end-effector at ``pose``.

    Each leg from ``a`` to ``b`` is ``math.hypot(b.x - a.x, b.y - a.y)``,
    the value ``(b - a).norm()`` gives, without building the difference.  A
    placement's transfer runs from the object to its destination; a push's
    runs from the object to the pre-push pose and on to its goal.  The
    set-down pose is ``set_down_pose``'s, read here without the call.
    """
    start = scene.current[action.object]
    sx, sy = start.x, start.y
    approach = math.hypot(sx - pose.x, sy - pose.y)
    if isinstance(action, PickPlace):
        final = action.destination
        return approach, math.hypot(final.x - sx, final.y - sy), final
    final = scene.goal[action.object]
    pre = action.pre_push
    px, py = pre.x, pre.y
    return approach, math.hypot(px - sx, py - sy) + math.hypot(final.x - px, final.y - py), final


def set_down_pose(scene: Scene, action: Action) -> Vec2:
    """Where ``action`` sets its object down in ``scene``: a placement's
    destination, a push's goal.  The end-effector ends the action there."""
    return action.destination if isinstance(action, PickPlace) else scene.goal[action.object]


def path_costs(steps: Iterable[tuple[Scene, Action]]) -> tuple[CostBreakdown, ...]:
    """The cost of each ``(scene, action)`` step of a path, each action feasible
    in its scene (unvalidated).  The end-effector starts at the workspace
    center and ends each step where its action set the object down.

    Each entry equals ``action_cost``'s along the same steps, bit for bit:
    both take their legs from ``_legs``.  Only the pose is carried from step
    to step, so no ``EEState`` is built.
    """
    costs: list[CostBreakdown] = []
    pose = None
    for scene, action in steps:
        if pose is None:
            pose = scene.workspace.center
        approach, transfer, pose = _legs(scene, action, pose)
        costs.append(CostBreakdown(approach, PICK_TRAVEL, transfer))
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
    with ``scene.replay``, which raises if an action is infeasible at its
    point, and then costed (``path_costs``).
    """
    actions = tuple(getattr(plan, "actions", plan))
    return total_cost(path_costs(zip(replay(start, actions), actions)))


def percent_reduction(baseline: float, candidate: float) -> float:
    """How much cheaper ``candidate`` is than ``baseline``, in percent.

    Positive when the candidate wins.  The baseline must be positive.
    """
    if not baseline > 0.0:
        raise ValueError(f"baseline cost must be positive, got {baseline}")
    return 100.0 * (baseline - candidate) / baseline
