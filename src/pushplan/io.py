"""Every document pushplan reads or writes: scenes, actions, plans, execution
reports, the planner and bench configs, and the CLI's numeric flags.

Typed readers take a raw value and its field name, and return the parsed
value or raise a ``SceneFormatError`` naming the field.  A config is a table
from each accepted key to its reader, so known fields and range checks agree.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path
from reprlib import repr as _short
from typing import Any, Callable, Container, Optional

from .bench import BenchConfig
from .executor import ExecutionReport
from .geometry import HalfDims, Rect, Side, Vec2
from .metrics import CostBreakdown
from .planner import Plan, PlannerConfig
from .scene import (
    DEFAULT_TOLERANCE, Action, InvalidSceneError, ObjectSpec, PickPlace, PushPlace, Scene, satisfied_count,
)


class SceneFormatError(ValueError):
    """Malformed input (a document, a config or a flag); the message names the field."""


# --- typed readers ------------------------------------------------------------


def _bad(name: str, what: str, value: Any) -> SceneFormatError:
    label = name if name.startswith("-") else f"field '{name}'"
    return SceneFormatError(f"{label} must be {what}, got {_short(value)}")


def _finite(value: Any, name: str, lo: float = -math.inf, strict: bool = False) -> float:
    """A finite number (numeric strings count, bools do not), at least ``lo``."""
    if isinstance(value, bool):
        raise _bad(name, "a number", value)
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise _bad(name, "a number", value) from None
    if not math.isfinite(x):
        raise _bad(name, "finite", value)
    if x < lo or (strict and x == lo):
        raise _bad(name, f"{'greater than' if strict else 'at least'} {lo:g}", value)
    return x


def _int(value: Any, name: str, lo: Optional[int] = None) -> int:
    """An integer (an integral float counts, a bool does not), at least ``lo``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(name, "an integer", value)
    if lo is not None and value < lo:
        raise _bad(name, f"at least {lo}", value)
    return value


def _bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise _bad(name, "true or false", value)
    return value


def _list(value: Any, name: str, read: Callable, size: Optional[int] = None, nonempty: bool = False) -> list:
    """A list whose entries are parsed by ``read`` under the names ``name[i]``."""
    if not isinstance(value, (list, tuple)):
        raise _bad(name, "a list", value)
    if size is not None and len(value) != size:
        raise _bad(name, f"a list of {size}", value)
    if nonempty and not value:
        raise _bad(name, "a non-empty list", value)
    return [read(v, f"{name}[{i}]") for i, v in enumerate(value)]


def _pose(value: Any, name: str) -> Vec2:
    return Vec2(*_list(value, name, _finite, size=2))


def _side(value: Any, name: str) -> Side:
    names = [s.value for s in Side]
    if value not in names:
        raise _bad(name, "one of " + ", ".join(names), value)
    return Side(value)


def _optional(read: Callable) -> Callable:
    return lambda value, name: None if value is None else read(value, name)


_nonneg = partial(_finite, lo=0.0)
_positive = partial(_finite, lo=0.0, strict=True)
_count = partial(_int, lo=1)


def _need(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise SceneFormatError(f"{where} is invalid: missing field '{key}'")
    return doc[key]


def _object(doc: Any, what: str) -> dict:
    if not isinstance(doc, dict):
        raise SceneFormatError(f"{what} must be an object, got {type(doc).__name__}")
    return doc


def _only(doc: dict, keys: Container[str], what: str, prefix: str = "") -> dict:
    """``doc``, once each of its keys is found in ``keys``."""
    for key in doc:
        if key not in keys:
            raise SceneFormatError(f"invalid {what}: unknown field '{prefix}{key}'")
    return doc


def _fields(doc: Any, table: dict, what: str) -> dict:
    """Parse the object ``doc`` with ``table``, which maps each accepted key to its reader."""
    _only(_object(doc, what), table, what)
    try:
        return {key: table[key](value, key) for key, value in doc.items()}
    except SceneFormatError as e:
        raise SceneFormatError(f"invalid {what}: {e}") from None


# --- config documents -----------------------------------------------------------

_PLANNER_FIELDS = {
    "time_budget_s": _optional(_positive),
    "max_expansions": _optional(_count),
    "push_enabled": _bool,
    "seed": _int,
}


def _size_range(value: Any, name: str) -> tuple[float, float]:
    lo, hi = _list(value, name, _positive, size=2)
    if lo > hi:
        raise _bad(name, "[low, high] with low <= high", value)
    return lo, hi


_BENCH_FIELDS = {
    "master_seed": _int,
    "object_counts": lambda v, name: tuple(_list(v, name, _count, nonempty=True)),
    "scenes_per_count": _count,
    "runs_per_scene": _count,
    "max_expansions": _optional(_count),
    "time_budget_s": _optional(_positive),
    "size_range": _size_range,
    "tolerance": _positive,
}


def _config_kwargs(doc: Any, table: dict, what: str, kind: type) -> dict:
    """The fields a config document sets: a ``time_budget_s`` replaces the default expansion
    budget, and ``kind`` (the config class) checks the budget rule on the result."""
    fields = _fields(doc, table, what)
    if fields.get("time_budget_s") is not None:
        fields.setdefault("max_expansions", None)
    try:
        kind(**fields)
    except ValueError as e:
        raise SceneFormatError(f"invalid {what}: {e}") from None
    return fields


def planner_config_kwargs(doc: Any) -> dict:
    """``PlannerConfig`` keyword arguments; with neither budget set, the planner's 2 s default applies."""
    return _config_kwargs(doc, _PLANNER_FIELDS, "planner config", PlannerConfig)


def bench_config_kwargs(doc: Any) -> dict:
    """``BenchConfig`` keyword arguments; the sweep keeps one budget set."""
    return _config_kwargs(doc, _BENCH_FIELDS, "bench config", BenchConfig)


def bench_config_to_dict(cfg: BenchConfig) -> dict:
    """The bench config document of ``cfg``, which ``bench_config_kwargs`` reads back."""
    return {key: getattr(cfg, key) for key in _BENCH_FIELDS}


def _int_list(value: str, name: str) -> tuple[int, ...]:
    try:
        items = [int(c) for c in value.split(",")]
    except ValueError:
        raise _bad(name, "comma-separated integers", value) from None
    return tuple(_list(items, name, _count))


# Numeric command-line flags, by argparse destination.
_FLAGS = {
    "expansions": _count,
    "time_budget": _positive,
    "step_budget": _count,
    "lateral_sigma": _nonneg,
    "depth_sigma": _nonneg,
    "scale": _positive,
    "scenes": _count,
    "runs": _count,
    "jobs": _count,
    "counts": _int_list,
}


def check_flags(args: Any) -> None:
    """Parse, in place, the numeric flags present on an argparse namespace."""
    for dest, read in _FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            setattr(args, dest, read(value, "--" + dest.replace("_", "-")))


# --- scenes -----------------------------------------------------------------------


def scene_to_dict(scene: Scene) -> dict:
    objs = []
    for spec in scene.objects:
        entry: dict = {"a": spec.half.a, "b": spec.half.b}
        if spec.color is not None:
            entry["color"] = spec.color
        objs.append(entry)
    return {
        "workspace": [scene.workspace.lo.x, scene.workspace.lo.y, scene.workspace.hi.x, scene.workspace.hi.y],
        "objects": objs,
        "start": [[p.x, p.y] for p in scene.current],
        "goal": [[p.x, p.y] for p in scene.goal],
        "epsilon": scene.tolerance,
    }


def _object_spec(value: Any, name: str) -> tuple[HalfDims, Optional[str]]:
    where = f"field '{name}'"
    _only(_object(value, where), ("a", "b", "color"), "scene document", f"{name}.")
    a, b = (_positive(_need(value, key, where), f"{name}.{key}") for key in ("a", "b"))
    color = value.get("color")
    if color is not None and not isinstance(color, str):
        raise _bad(f"{name}.color", "a string", color)
    return HalfDims(a, b), color


def scene_from_dict(doc: Any) -> Scene:
    where = "scene document"
    doc = _only(_object(doc, where), ("workspace", "objects", "start", "goal", "epsilon"), where)
    x0, y0, x1, y1 = _list(_need(doc, "workspace", where), "workspace", _finite, size=4)
    if x0 > x1 or y0 > y1:
        raise _bad("workspace", "[x0, y0, x1, y1] with x0 <= x1 and y0 <= y1", doc["workspace"])
    specs = _list(_need(doc, "objects", where), "objects", _object_spec)
    try:
        return Scene(
            Rect(Vec2(x0, y0), Vec2(x1, y1)),
            tuple(ObjectSpec(half, color) for half, color in specs),
            tuple(_list(_need(doc, "start", where), "start", _pose)),
            tuple(_list(_need(doc, "goal", where), "goal", _pose)),
            _positive(doc.get("epsilon", DEFAULT_TOLERANCE), "epsilon"),
        )
    except InvalidSceneError as e:
        raise SceneFormatError(str(e)) from e


def scene_to_json(scene: Scene) -> str:
    return json.dumps(scene_to_dict(scene), indent=2)


def scene_from_json(text: str) -> Scene:
    return scene_from_dict(_decode(text))


# --- actions and plans --------------------------------------------------------------


def action_to_dict(action: Action) -> dict:
    if isinstance(action, PickPlace):
        return {"type": "pick_place", "object": action.object,
                "destination": [action.destination.x, action.destination.y]}
    return {"type": "push_place", "object": action.object, "side": action.side.value,
            "pre_push": [action.pre_push.x, action.pre_push.y]}


# The keys of each action type's document.
_ACTION_KEYS = {"pick_place": ("type", "object", "destination"),
                "push_place": ("type", "object", "side", "pre_push")}


def action_from_dict(doc: Any, name: str = "action") -> Action:
    if not isinstance(doc, dict):
        raise SceneFormatError(f"action document must be an object, got {type(doc).__name__} in '{name}'")
    kind = doc.get("type")
    if kind not in ("pick_place", "push_place"):
        raise _bad(f"{name}.type", "'pick_place' or 'push_place'", kind)
    _only(doc, _ACTION_KEYS[kind], "action", f"{name}.")
    obj = _int(doc.get("object"), f"{name}.object", lo=0)
    if kind == "pick_place":
        return PickPlace(obj, _pose(doc.get("destination"), f"{name}.destination"))
    return PushPlace(obj, _side(doc.get("side"), f"{name}.side"), _pose(doc.get("pre_push"), f"{name}.pre_push"))


# A cost entry's travel keys, in the order of CostBreakdown's fields.
_COST_KEYS = ("approach", "pick", "transfer")


def plan_to_dict(p: Plan) -> dict:
    return {
        "actions": [action_to_dict(a) for a in p.actions],
        "costs": [{"approach": bd.approach, "pick": bd.pick, "transfer": bd.transfer, "lambda": bd.lam,
                   "total": bd.total} for bd in p.costs],
        "total": p.total,
    }


def _cost(value: Any, name: str) -> CostBreakdown:
    """A cost entry.  Its ``lambda`` may be omitted but is otherwise 1: every
    cost pushplan computes is unscaled.  A stored total is checked but never read."""
    doc = _only(_object(value, f"field '{name}'"), _COST_KEYS + ("lambda", "total"), "cost entry", f"{name}.")
    if _finite(doc.get("lambda", 1.0), f"{name}.lambda") != 1.0:
        raise _bad(f"{name}.lambda", "1", doc["lambda"])
    _finite(doc.get("total", 0.0), f"{name}.total")
    return CostBreakdown(*(_finite(doc.get(key), f"{name}.{key}") for key in _COST_KEYS))


def plan_from_dict(doc: Any) -> Plan:
    doc = _only(_object(doc, "plan document"), ("actions", "costs", "total"), "plan document")
    actions = tuple(_list(_need(doc, "actions", "plan document"), "actions", action_from_dict))
    # One cost entry per action, when there are costs at all.
    costs = tuple(_list(doc["costs"], "costs", _cost, size=len(actions))) if "costs" in doc else ()
    # A stored total is checked but not read: ``Plan.total`` is derived from the costs.
    _finite(doc.get("total", 0.0), "total")
    return Plan(actions, costs)


# --- execution reports ----------------------------------------------------------------


def report_to_dict(report: ExecutionReport) -> dict:
    steps = []
    for s in report.steps:
        steps.append({
            "planned_plan_length": s.planned_plan_length,
            "executed_action": action_to_dict(s.executed_action),
            "sim_events": [{"kind": ev.kind.value, "object": ev.object, "detail": ev.detail} for ev in s.sim_events],
            "post_state_summary": {"satisfied": satisfied_count(s.post_scene), "total": s.post_scene.n},
        })
    return {
        "steps": steps,
        "total_actions": report.total_actions,
        "success_rate": report.success_rate,
        "robot_time_proxy": report.robot_time_proxy,
        "terminated_by": report.terminated_by.value,
    }


# --- JSON text and files -----------------------------------------------------------------


def _decode(text: str | bytes) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneFormatError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # bad encoding, an over-long integer, deep nesting
        raise SceneFormatError(f"invalid JSON: {e}") from None


def load(path: str, parse: Callable[[Any], Any]) -> Any:
    """Read the JSON file at ``path`` and parse it; every failure names the file."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise SceneFormatError(f"cannot read {path}: {e.strerror or e}") from None
    try:
        return parse(_decode(data))
    except SceneFormatError as e:
        raise SceneFormatError(f"{path}: {e}") from None
