"""Monte Carlo tree search over whole arrangements.

Each node is an arrangement; each edge is one pick-and-place or push-assisted
placement proposed by a cheap recommender for a uniformly sampled unsatisfied
object.  The reward of a node is simply how many objects sit within tolerance
of their goals, so no rollouts are needed, and the search stops at the first
node where everything is satisfied.  The tree widens progressively: a node
gains a new child only while its child count is below the square root of its
visit count, otherwise selection descends through the best child by UCT.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .geometry import Vec2

# ``apply_action`` and ``action_cost`` are the validated path ``transition``
# must agree with.  The search does not call them, but they stay bound here
# because perfbench's tracer and its tests look them up in this module.
from .metrics import CostBreakdown, EEState, action_cost, travel_cost  # noqa: F401
from .primitives import PushConfig, PushProposal, sample_buffer_pose, select_push
from .scene import (
    Action,
    InfeasibleActionError,
    PickPlace,
    Scene,
    apply_action,  # noqa: F401
    blockers_of,
    goal_region_free,
    moved_poses,
    satisfied_count,
    unsatisfied_ids,
)

DEFAULT_TIME_BUDGET_S = 2.0
DEFAULT_EXPLORATION = math.sqrt(2.0)


@dataclass(frozen=True, slots=True)
class PlannerConfig:
    """Search budget and sampling knobs.

    Exactly one budget applies: a wall-clock duration (the default, not
    reproducible) or a maximum number of expansions (fully deterministic
    under ``seed``).  Setting both is an error.
    """

    time_budget_s: Optional[float] = None
    max_expansions: Optional[int] = None
    exploration_c: float = DEFAULT_EXPLORATION
    push_enabled: bool = True
    push_cfg: PushConfig = field(default_factory=PushConfig)
    buffer_max_attempts: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.time_budget_s is not None and self.max_expansions is not None:
            raise ValueError("set either time_budget_s or max_expansions, not both")
        if self.time_budget_s is None and self.max_expansions is None:
            object.__setattr__(self, "time_budget_s", DEFAULT_TIME_BUDGET_S)


@dataclass(frozen=True, slots=True)
class Plan:
    actions: tuple[Action, ...]
    costs: tuple[CostBreakdown, ...]
    total: float


class SearchNode:
    """One arrangement in the tree, with UCT statistics."""

    __slots__ = ("state", "parent", "action", "cost", "ee", "depth", "children", "visits", "reward_sum", "satisfied")

    def __init__(
        self,
        state: Scene,
        parent: Optional["SearchNode"],
        action: Optional[Action],
        cost: Optional[CostBreakdown],
        ee: Vec2,
        depth: int,
    ) -> None:
        self.state = state
        self.parent = parent
        self.action = action
        self.cost = cost
        self.ee = ee
        self.depth = depth
        self.children: list[SearchNode] = []
        self.visits = 0
        self.reward_sum = 0.0
        self.satisfied = satisfied_count(state)


def sample_unsatisfied_object(scene: Scene, rng: random.Random) -> int:
    """Uniformly pick an object not yet at its goal."""
    ids = unsatisfied_ids(scene)
    if not ids:
        raise ValueError("all objects are satisfied; nothing to sample")
    return ids[rng.randrange(len(ids))]


# A recommended move: a placement, or an admissible push with its derivation.
Recommendation = PickPlace | PushProposal


def recommend_action(
    scene: Scene, obj: int, cfg: PlannerConfig, rng: random.Random
) -> Optional[Recommendation]:
    """One sensible move for ``obj``: place it if its goal is free, push the
    blockers aside if a push is admissible, otherwise relocate one sampled
    blocker (to its own goal when possible, else to a buffer pose).

    Returns None when buffer sampling fails.  A push comes back as its
    ``PushProposal``, so ``transition`` need not derive it again.  Every
    returned move is feasible in ``scene``: the placement, or the proposal's
    ``as_action()``, passes ``validate_action`` with ``cfg.push_cfg.clearance``.
    """
    if goal_region_free(scene, obj):
        return PickPlace(obj, scene.goal[obj])
    if cfg.push_enabled:
        proposal = select_push(scene, obj, cfg.push_cfg)
        if proposal is not None:
            return proposal
    blockers = sorted(blockers_of(scene, obj))
    b = blockers[rng.randrange(len(blockers))]
    if goal_region_free(scene, b):
        return PickPlace(b, scene.goal[b])
    buffer = sample_buffer_pose(scene, b, rng, cfg.buffer_max_attempts)
    if buffer is None:
        return None
    return PickPlace(b, buffer)


def transition(
    scene: Scene, rec: Recommendation, ee: EEState
) -> tuple[Action, Scene, CostBreakdown, EEState]:
    """The action, successor scene, cost and end-effector state of one move.

    ``rec`` must come fresh from ``recommend_action`` on ``scene``: a push
    proposal is trusted, not re-derived, and only the moved objects of the
    successor are checked (``Scene.with_moved``).  The result equals
    ``apply_action`` plus ``action_cost`` on the same action, except that the
    successor carries a footprint cache.  Raises InfeasibleActionError when a
    moved object would leave the table or overlap another object.
    """
    if isinstance(rec, PushProposal):
        action, blocker_moves = rec.as_action(), rec.blocker_moves
    else:
        action, blocker_moves = rec, ()
    child = scene.with_moved(moved_poses(scene, action, blocker_moves))
    bd, ee = travel_cost(scene, action, ee, 1.0)
    return action, child, bd, ee


def _uct(parent: SearchNode, child: SearchNode, c: float, n_objects: int) -> float:
    # Both terms live on the per-object scale: satisfying one more object moves
    # the mean reward by 1/N, so a bonus on the raw [0, 1] scale would drown
    # the heuristic and flatten the search into breadth-first, which cannot
    # reach solution depth for N >= 6 under any sane budget.
    exploit = (child.reward_sum / child.visits) / n_objects
    explore = c * math.sqrt(math.log(parent.visits) / child.visits) / n_objects
    return exploit + explore


def _backprop(path: list[SearchNode], reward: float) -> None:
    for node in path:
        node.visits += 1
        node.reward_sum += reward


def tree_search_step(root: SearchNode, cfg: PlannerConfig, rng: random.Random) -> Optional[SearchNode]:
    """Select a node, expand one child, backpropagate; return the new child.

    Returns None when the selected node could not be expanded (depth cap or
    buffer exhaustion); the visit still counts so selection moves on.
    """
    n = root.state.n
    depth_cap = 4 * n
    node = root
    path = [root]
    while True:
        can_widen = node.depth < depth_cap and len(node.children) < max(1, math.isqrt(node.visits))
        if can_widen:
            break
        if not node.children:
            _backprop(path, float(node.satisfied))
            return None
        node = max(node.children, key=lambda ch: _uct(node, ch, cfg.exploration_c, n))
        path.append(node)

    obj = sample_unsatisfied_object(node.state, rng)
    rec = recommend_action(node.state, obj, cfg, rng)
    if rec is None:
        _backprop(path, float(node.satisfied))
        return None
    try:
        action, new_state, bd, ee = transition(node.state, rec, EEState(node.ee, root.ee))
    except InfeasibleActionError:
        # The recommender only proposes feasible moves; keep searching anyway.
        _backprop(path, float(node.satisfied))
        return None
    child = SearchNode(new_state, node, action, bd, ee.pose, node.depth + 1)
    node.children.append(child)
    path.append(child)
    _backprop(path, float(child.satisfied))
    return child


def _extract_plan(terminal: SearchNode) -> Plan:
    actions: list[Action] = []
    costs: list[CostBreakdown] = []
    node = terminal
    while node.parent is not None:
        actions.append(node.action)
        costs.append(node.cost)
        node = node.parent
    actions.reverse()
    costs.reverse()
    return Plan(tuple(actions), tuple(costs), sum(bd.total for bd in costs))


def plan(scene: Scene, cfg: PlannerConfig = PlannerConfig()) -> Optional[Plan]:
    """Search for an action sequence bringing every object within tolerance.

    Returns the first complete plan found within the budget, or None.  With
    an expansion budget the result is a pure function of (scene, cfg).
    """
    if satisfied_count(scene) == scene.n:
        return Plan((), (), 0.0)
    rng = random.Random(cfg.seed)
    # Only the search tree's scenes cache footprints; none of them escapes.
    root = SearchNode(scene.with_footprints(), None, None, None, scene.workspace.center, 0)

    if cfg.max_expansions is not None:
        remaining = cfg.max_expansions

        def budget_left() -> bool:
            nonlocal remaining
            remaining -= 1
            return remaining >= 0

    else:
        deadline = time.monotonic() + cfg.time_budget_s

        def budget_left() -> bool:
            return time.monotonic() < deadline

    while budget_left():
        child = tree_search_step(root, cfg, rng)
        if child is not None and child.satisfied == scene.n:
            return _extract_plan(child)
    return None


def plan_to_dict(p: Plan) -> dict:
    from .scene import action_to_dict

    return {
        "actions": [action_to_dict(a) for a in p.actions],
        "costs": [
            {
                "approach": bd.approach,
                "pick": bd.pick,
                "transfer": bd.transfer,
                "lambda": bd.lam,
                "total": bd.total,
            }
            for bd in p.costs
        ],
        "total": p.total,
    }


def plan_from_dict(doc: dict) -> Plan:
    from .scene import SceneFormatError, action_from_dict

    try:
        actions = tuple(action_from_dict(a) for a in doc["actions"])
        costs = tuple(
            CostBreakdown(c["approach"], c["pick"], c["transfer"], c.get("lambda", 1.0))
            for c in doc.get("costs", [])
        )
        total = float(doc["total"]) if "total" in doc else sum(bd.total for bd in costs)
    except (KeyError, TypeError, ValueError) as e:
        raise SceneFormatError(f"plan document is invalid: {e}") from e
    return Plan(actions, costs, total)
