"""Monte Carlo tree search over whole arrangements.

Each node is an arrangement; each edge is one pick-and-place or push-assisted
placement proposed by a cheap recommender for a uniformly sampled unsatisfied
object.  The reward of a node is simply how many objects sit within tolerance
of their goals, so no rollouts are needed, and the search stops at the first
node where everything is satisfied.  The tree widens progressively: a node
gains a new child only while its child count is below the square root of its
visit count, otherwise selection descends through the best child by UCT.
Each uniform pick of an index below ``len(seq)`` draws ``rng.getrandbits(k)``,
with ``k = len(seq).bit_length()``, until the draw is below ``len(seq)``: the
draw ``rng.choice(seq)`` makes on CPython 3.10 to 3.13, value and state alike.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .checks import COUNT, INTEGER, real, require
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
# Read on every level UCT scores, so bound here rather than looked up on ``math``.
_log = math.log
_sqrt = math.sqrt


@dataclass(frozen=True, slots=True)
class PlannerConfig:
    """Search budget, push switch and seed.

    Exactly one budget applies: a wall-clock duration (the default, not
    reproducible) or a maximum number of expansions (fully deterministic
    under ``seed``).  Setting both is an error.  A broken rule raises a
    ``ValueError`` quoting its field: ``max_expansions`` an int (never a
    bool) of at least 1 in the float range, ``time_budget_s`` finite and
    positive (either may be None), ``push_enabled`` a bool, ``seed`` an int
    in the float range.
    """

    time_budget_s: Optional[float] = None
    max_expansions: Optional[int] = None
    push_enabled: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        seconds, expansions = self.time_budget_s, self.max_expansions
        if seconds is not None and expansions is not None:
            raise ValueError("set either 'time_budget_s' or 'max_expansions', not both")
        if expansions is not None:
            require(real(expansions, int) >= 1, "max_expansions", COUNT, expansions)
        elif seconds is None:
            object.__setattr__(self, "time_budget_s", DEFAULT_TIME_BUDGET_S)
        else:
            require(real(seconds) > 0.0, "time_budget_s", "be finite and positive", seconds)
        require(isinstance(self.push_enabled, bool), "push_enabled", "be True or False", self.push_enabled)
        require(not math.isnan(real(self.seed, int)), "seed", INTEGER, self.seed)


@dataclass(frozen=True, slots=True, init=False)
class Plan:
    """An action sequence and each action's cost.  ``total`` is derived from
    ``costs`` on every read, so the two cannot disagree."""

    actions: tuple[Action, ...]
    costs: tuple[CostBreakdown, ...]

    def __init__(self, actions: tuple[Action, ...], costs: tuple[CostBreakdown, ...]) -> None:
        _SET_ACTIONS(self, actions)
        _SET_COSTS(self, costs)

    @property
    def total(self) -> float:
        return total_cost(self.costs)


# Built through its slots, as ``PickPlace`` and ``Vec2`` are: every solved search builds one.
_SET_ACTIONS = Plan.actions.__set__
_SET_COSTS = Plan.costs.__set__


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


def _pick(seq: Sequence[int], rng: random.Random) -> int:
    """A uniform pick from the non-empty ``seq``, drawn as ``rng.choice(seq)`` draws it."""
    n = len(seq)
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return seq[r]


def sample_unsatisfied_object(scene: Scene, rng: random.Random) -> int:
    """Uniformly pick an object not yet at its goal."""
    ids = scene.unsatisfied
    if not ids:
        raise ValueError("all objects are satisfied; nothing to sample")
    return _pick(ids, rng)


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
    b = _pick(blockers, rng)
    if not blockers_of(scene, b):
        return PickPlace(b, scene.goal[b])
    buffer = sample_buffer_pose(scene, b, rng)
    if buffer is None:
        return None
    return PickPlace(b, buffer)


def tree_search_step(root: SearchNode, cfg: PlannerConfig, rng: random.Random) -> Optional[list[SearchNode]]:
    """Select a node, expand one child, backpropagate; return the path from
    ``root`` to the new child.

    Returns None when the selected node could not be expanded (depth cap or
    buffer exhaustion); the visit still counts so selection moves on.  The
    recommender's moves are feasible: ``transition`` raises on none.

    Selection scores no more than UCT's argmax needs, and picks the child
    ``max`` would.  Every child has been visited, so every score is finite:
    an only child is the argmax without being scored.  A child's exploration
    bonus depends only on its parent's visits and its own, so siblings with
    equal visit counts get the same bonus; it is computed once per run of
    such siblings, from the same operands, so each score is the same float,
    compared in the same order, and a tie still goes to the first maximum.
    """
    n = root.state.n
    depth_cap = 4 * n
    node = root
    path = [root]
    while True:
        # ``path`` runs from the root to ``node``, so ``node`` sits at depth
        # len(path) - 1.  Widen while ``c < max(1, isqrt(visits))``, tested
        # in integers: ``c < isqrt(v)`` holds exactly when ``(c + 1)**2 <= v``.
        # A leaf past the depth cap ends selection unexpanded.
        children = node.children
        c = len(children)
        if not c or (len(path) <= depth_cap and (c + 1) * (c + 1) <= node.visits):
            break
        if c == 1:
            node = children[0]
        else:
            # UCT: (reward_sum / visits) / N + C * sqrt(ln(parent visits) / visits) / N.
            # Both terms live on the per-object scale: satisfying one more object
            # moves the mean reward by 1/N, so a bonus on the raw [0, 1] scale
            # would drown the heuristic and flatten the search into breadth-first,
            # which cannot reach solution depth for N >= 6 under any sane budget.
            # The first maximum wins, as with ``max``.
            log_visits = _log(node.visits)
            best_score = -math.inf
            bonus_visits = 0
            for child in children:
                visits = child.visits
                if visits != bonus_visits:
                    bonus_visits = visits
                    bonus = EXPLORATION_C * _sqrt(log_visits / visits) / n
                score = (child.reward_sum / visits) / n + bonus
                if score > best_score:
                    node, best_score = child, score
        path.append(node)

    state = node.state
    rec = None
    if len(path) <= depth_cap:
        rec = recommend_action(state, sample_unsatisfied_object(state, rng), cfg, rng)
        if rec is not None:
            action, state = transition(state, rec)
            child = SearchNode(state, action)
            node.children.append(child)
            path.append(child)
    # ``state`` is the new child's when one was added, else the selected node's.
    reward = n - len(state.unsatisfied)
    for visited in path:
        visited.visits += 1
        visited.reward_sum += reward
    return None if rec is None else path


def _extract_plan(path: list[SearchNode]) -> Plan:
    """The actions along ``path``, from the root, costed once along it."""
    actions = tuple([node.action for node in path[1:]])
    return Plan(actions, path_costs(zip([node.state for node in path], actions)))


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
