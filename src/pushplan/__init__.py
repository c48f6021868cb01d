"""Tabletop rearrangement with push-assisted placement.

A target object held by the gripper can sweep straight through its goal
region, shoving whatever occupies it out of the way, before being set down
exactly on the goal.  The package bundles the admissibility checks for that
maneuver, a quasi-static push simulator, an anytime tree-search planner that
mixes pushes with ordinary pick-and-place, a closed-loop executor, and a
benchmark harness with SVG reporting.
"""

from .bench import BenchConfig, BenchRecord, BenchVariant, aggregate, generate_scene, run_benchmark
from .executor import ExecutionReport, StepRecord, TerminationReason, execute
from .geometry import HalfDims, Rect, Side, Vec2, rect_from_center
from .io import SceneFormatError, scene_from_json, scene_to_json
from .metrics import CostBreakdown, EEState, action_cost, percent_reduction, plan_cost
from .planner import Plan, PlannerConfig, plan
from .primitives import PushProposal, PushStats, select_push
from .scene import (
    Action,
    InfeasibleActionError,
    InvalidSceneError,
    ObjectSpec,
    PickPlace,
    PushPlace,
    Scene,
    apply_action,
    blockers_of,
    validate_action,
)
from .simulator import (
    EDGE_REST_INSET,
    NO_NOISE,
    NoiseConfig,
    SimEvent,
    SimEventKind,
    SimulationError,
    push_forward,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BenchConfig",
    "BenchRecord",
    "BenchVariant",
    "CostBreakdown",
    "EEState",
    "ExecutionReport",
    "HalfDims",
    "InfeasibleActionError",
    "InvalidSceneError",
    "EDGE_REST_INSET",
    "NO_NOISE",
    "NoiseConfig",
    "ObjectSpec",
    "PickPlace",
    "Plan",
    "PlannerConfig",
    "PushPlace",
    "PushProposal",
    "PushStats",
    "Rect",
    "Scene",
    "SceneFormatError",
    "Side",
    "SimEvent",
    "SimEventKind",
    "SimulationError",
    "StepRecord",
    "TerminationReason",
    "Vec2",
    "action_cost",
    "aggregate",
    "apply_action",
    "blockers_of",
    "execute",
    "generate_scene",
    "percent_reduction",
    "plan",
    "plan_cost",
    "run_benchmark",
    "scene_from_json",
    "scene_to_json",
    "select_push",
    "simulate",
    "validate_action",
]
