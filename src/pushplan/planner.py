"""Monte Carlo tree search over whole arrangements.

Each node is an arrangement; each edge is one pick-and-place or push-assisted
placement proposed by a cheap recommender for a uniformly sampled unsatisfied
object.  The reward of a node is simply how many objects sit within tolerance
of their goals, so no rollouts are needed, and the search stops at the first
node where everything is satisfied.  The tree widens progressively: a node
gains a new child only while its child count is below the square root of its
visit count, otherwise selection descends through the best child by UCT.
Each uniform pick, ``rng.choice(seq)``, is ``seq[rng.randrange(len(seq))]`` draw for draw.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Optional

# ``apply_action`` and ``action_cost`` are the validated path that ``transition``
# and the plan's costs must agree with.  The search does not call them, but
# they stay bound here because perfbench's tracer and its tests look them up
# in this module.
from .metrics import CostBreakdown, action_cost, path_costs, total_cost  # noqa: F401
from .primitives import PushProposal, sample_buffer_pose, select_push
from .scene import (
    Action,
    PickPlace,
    Scene,
    apply_action,  # noqa: F401
    blockers_of,
    transition,
)

DEFAULT_TIME_BUDGET_S = 2.0
# UCB1's exploration constant, as in UCT (Kocsis & Szepesvari, ECML 2006).
EXPLORATION_C = math.sqrt(2.0)
# Read once per child scored by UCT, so bound here rather than looked up on ``math``.
_log = math.log
_sqrt = math.sqrt


@dataclass(frozen=True, slots=True)
class PlannerConfig:
    """Search budget, push switch and seed.

    Exactly one budget applies: a wall-clock duration (the default, not
    reproducible) or a maximum number of expansions (fully deterministic
    under ``seed``).  Setting both is an error.
    """

    time_budget_s: Optional[float] = None
    max_expansions: Optional[int] = None
    push_enabled: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.time_budget_s is not None and self.max_expansions is not None:
            raise ValueError("set either 'time_budget_s' or 'max_expansions', not both")
        if self.time_budget_s is None and self.max_expansions is None:
            object.__setattr__(self, "time_budget_s", DEFAULT_TIME_BUDGET_S)


@dataclass(frozen=True, slots=True)
class Plan:
    """An action sequence and each action's cost.  ``total`` is derived from
    ``costs`` on every read, so the two cannot disagree."""

    actions: tuple[Action, ...]
    costs: tuple[CostBreakdown, ...]

    @property
    def total(self) -> float:
        return total_cost(self.costs)


class SearchNode:
    """One arrangement in the tree, its incoming action, and UCT statistics.

    A node holds no link to its parent, so the tree has no reference cycle
    and reference counting frees it as soon as the search drops its root.
    """

    __slots__ = ("state", "action", "children", "visits", "reward_sum")

    def __init__(self, state: Scene, action: Optional[Action]) -> None:
        self.state = state
        self.action = action
        self.children: list[SearchNode] = []
        self.visits = 0
        self.reward_sum = 0.0


def sample_unsatisfied_object(scene: Scene, rng: random.Random) -> int:
    """Uniformly pick an object not yet at its goal."""
    ids = scene.unsatisfied
    if not ids:
        raise ValueError("all objects are satisfied; nothing to sample")
    return rng.choice(ids)


def recommend_action(
    scene: Scene, obj: int, cfg: PlannerConfig, rng: random.Random
) -> Optional[PickPlace | PushProposal]:
    """One sensible move for ``obj``: place it if its goal is free, push the
    blockers aside if a push is admissible, otherwise relocate one sampled
    blocker (to its own goal when possible, else to a buffer pose).

    Returns None when buffer sampling fails.  A push comes back as its
    ``PushProposal``, so ``transition`` need not derive it again.  Every
    returned move is feasible in ``scene``: the placement, or the proposal's
    ``as_action()``, passes ``validate_action``.
    """
    blockers = blockers_of(scene, obj)
    if not blockers:
        return PickPlace(obj, scene.goal[obj])
    if cfg.push_enabled:
        proposal = select_push(scene, obj, blockers=blockers)
        if proposal is not None:
            return proposal
    b = rng.choice(blockers)
    if not blockers_of(scene, b):
        return PickPlace(b, scene.goal[b])
    buffer = sample_buffer_pose(scene, b, rng)
    if buffer is None:
        return None
    return PickPlace(b, buffer)


def _backprop(path: list[SearchNode], reward: int) -> None:
    for node in path:
        node.visits += 1
        node.reward_sum += reward


def tree_search_step(root: SearchNode, cfg: PlannerConfig, rng: random.Random) -> Optional[list[SearchNode]]:
    """Select a node, expand one child, backpropagate; return the path from
    ``root`` to the new child.

    Returns None when the selected node could not be expanded (depth cap or
    buffer exhaustion); the visit still counts so selection moves on.  The
    recommender's moves are feasible: ``transition`` raises on none.
    """
    n = root.state.n
    depth_cap = 4 * n
    node = root
    path = [root]
    while True:
        # ``path`` runs from the root to ``node``, so ``node`` sits at depth
        # len(path) - 1.  Widen while ``c < max(1, isqrt(visits))``, tested
        # in integers: ``c < isqrt(v)`` holds exactly when ``(c + 1)**2 <= v``.
        c = len(node.children)
        if len(path) <= depth_cap and (not c or (c + 1) * (c + 1) <= node.visits):
            break
        if not c:
            _backprop(path, n - len(node.state.unsatisfied))
            return None
        # UCT: (reward_sum / visits) / N + C * sqrt(ln(parent visits) / visits) / N.
        # Both terms live on the per-object scale: satisfying one more object
        # moves the mean reward by 1/N, so a bonus on the raw [0, 1] scale
        # would drown the heuristic and flatten the search into breadth-first,
        # which cannot reach solution depth for N >= 6 under any sane budget.
        # Every child has been visited, so each score is finite and the first
        # maximum wins, as with ``max``.
        log_visits = _log(node.visits)
        best, best_score = node, -math.inf
        for child in node.children:
            visits = child.visits
            score = (child.reward_sum / visits) / n + EXPLORATION_C * _sqrt(log_visits / visits) / n
            if score > best_score:
                best, best_score = child, score
        node = best
        path.append(node)

    obj = sample_unsatisfied_object(node.state, rng)
    rec = recommend_action(node.state, obj, cfg, rng)
    if rec is None:
        _backprop(path, n - len(node.state.unsatisfied))
        return None
    action, new_state = transition(node.state, rec)
    child = SearchNode(new_state, action)
    node.children.append(child)
    path.append(child)
    _backprop(path, n - len(new_state.unsatisfied))
    return path


def _extract_plan(path: list[SearchNode]) -> Plan:
    """The actions along ``path``, from the root, costed once along it."""
    steps = [(parent.state, child.action) for parent, child in zip(path, path[1:])]
    return Plan(tuple(action for _, action in steps), path_costs(steps))


def plan(scene: Scene, cfg: PlannerConfig = PlannerConfig()) -> Optional[Plan]:
    """Search for an action sequence bringing every object within tolerance.

    Returns the first complete plan found within the budget, or None.  With
    an expansion budget the result is a pure function of (scene, cfg).

    "Solved", for the start scene and for each new leaf, is an empty
    ``Scene.unsatisfied``, not a distance test per object.  One loop runs
    either budget: it counts expansions, or reads the clock before each one.
    """
    root = SearchNode(scene, None)
    if not root.state.unsatisfied:
        return Plan((), ())
    rng = random.Random(cfg.seed)
    if cfg.max_expansions is not None:
        budget = range(cfg.max_expansions)
    else:
        deadline = time.monotonic() + cfg.time_budget_s
        budget = iter(lambda: time.monotonic() < deadline, False)
    for _ in budget:
        path = tree_search_step(root, cfg, rng)
        if path is not None and not path[-1].state.unsatisfied:
            return _extract_plan(path)
    return None
