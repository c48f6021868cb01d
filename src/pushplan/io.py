"""Every document pushplan reads or writes, and nothing else: scenes, actions,
plans, execution reports, and the planner and bench configs.

Typed readers take a raw value and its field name, and return the parsed
value or raise a ``SceneFormatError`` naming the field.  Every JSON object, a
whole document or an entry, is read by a ``_document`` reader over a table of
each key's reader, so unknown, missing and malformed fields are reported by
one rule under their full path.  A planner or bench config document reads
as its config object: the tables read JSON shape only, and the config class
checks every field's range itself.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path
from reprlib import repr as _short
from typing import Any, Callable, Optional

from .bench import BenchConfig
from .executor import ExecutionReport
from .geometry import HalfDims, Rect, Side, Vec2
from .metrics import CostBreakdown
from .planner import Plan, PlannerConfig
from .scene import (
    DEFAULT_TOLERANCE, Action, ObjectSpec, PickPlace, PushPlace, Scene, satisfied_count,
)


class SceneFormatError(ValueError):
    """Malformed input (a document, a config or a flag); the message names the field."""


# --- typed readers ------------------------------------------------------------


def _bad(name: str, what: str, value: Any) -> SceneFormatError:
    return SceneFormatError(f"field '{name}' must be {what}, got {_short(value)}")


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


def _str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise _bad(name, "a string", value)
    return value


def _list(value: Any, name: str, read: Callable, size: Optional[int] = None) -> tuple:
    """A list whose entries are parsed by ``read`` under the names ``name[i]``."""
    if not isinstance(value, (list, tuple)):
        raise _bad(name, "a list", value)
    if size is not None and len(value) != size:
        raise _bad(name, f"a list of {size}", value)
    return tuple(read(v, f"{name}[{i}]") for i, v in enumerate(value))


def _pose(value: Any, name: str) -> Vec2:
    return Vec2(*_list(value, name, _finite, size=2))


def _side(value: Any, name: str) -> Side:
    names = [s.value for s in Side]
    if value not in names:
        raise _bad(name, "one of " + ", ".join(names), value)
    return Side(value)


def _optional(read: Callable) -> Callable:
    return lambda value, name: None if value is None else read(value, name)


_positive = partial(_finite, lo=0.0, strict=True)


def _document(what: str, table: dict, build: Callable, required: tuple = ()) -> Callable:
    """The reader of one kind of JSON object, whole document or entry: ``table`` maps each accepted
    key to its reader, each key in ``required`` must be present, and ``build`` makes the value from
    the fields read.  Unknown keys are rejected first, then each field is read in table order under
    its full path (``name.key``).  A whole document (path ``name`` "") reports every ``ValueError``,
    ``build``'s included (a config class's rules, ``Scene``'s checks), prefixed with ``invalid <what>:``."""

    def read(doc: Any, name: str = "") -> Any:
        if not isinstance(doc, dict):
            where = name and f" in '{name}'"
            raise SceneFormatError(f"{what} must be an object, got {type(doc).__name__}{where}")
        path = (lambda key: f"{name}.{key}") if name else str
        try:
            for key in doc:
                if key not in table:
                    raise SceneFormatError(f"unknown field '{path(key)}'")
            fields = {}
            for key, read_field in table.items():
                if key in doc:
                    fields[key] = read_field(doc[key], path(key))
                elif key in required:
                    raise SceneFormatError(f"missing field '{path(key)}'")
            return build(**fields)
        except ValueError as e:
            if name:
                raise
            raise SceneFormatError(f"invalid {what}: {e}") from None

    return read


# --- config documents -----------------------------------------------------------

_PLANNER_FIELDS = {
    "time_budget_s": _optional(_finite),
    "max_expansions": _optional(_int),
    "push_enabled": _bool,
    "seed": _int,
}

_BENCH_FIELDS = {
    "master_seed": _int,
    "object_counts": partial(_list, read=_int),
    "scenes_per_count": _int,
    "runs_per_scene": _int,
    "max_expansions": _optional(_int),
    "time_budget_s": _optional(_finite),
    "size_range": partial(_list, read=_finite),
    "tolerance": _finite,
}


def _config(kind: type, **fields: Any) -> PlannerConfig | BenchConfig:
    """The config (``kind``) a document sets, every field it leaves out at the class's default,
    except that a ``time_budget_s`` replaces the default expansion budget."""
    if fields.get("time_budget_s") is not None:
        fields.setdefault("max_expansions", None)
    return kind(**fields)


def planner_config_from_dict(doc: Any) -> PlannerConfig:
    """The ``PlannerConfig`` a document sets; with neither budget set, the planner's 2 s default applies."""
    return _document("planner config", _PLANNER_FIELDS, partial(_config, PlannerConfig))(doc)


def bench_config_from_dict(doc: Any) -> BenchConfig:
    """The ``BenchConfig`` a document sets, whose sweep keeps one budget; ``bench_config_to_dict`` writes it."""
    return _document("bench config", _BENCH_FIELDS, partial(_config, BenchConfig))(doc)


def bench_config_to_dict(cfg: BenchConfig) -> dict:
    """The bench config document of ``cfg``, which ``bench_config_from_dict`` reads back."""
    return {key: getattr(cfg, key) for key in _BENCH_FIELDS}


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


def _workspace(value: Any, name: str) -> Rect:
    x0, y0, x1, y1 = _list(value, name, _finite, size=4)
    if x0 > x1 or y0 > y1:
        raise _bad(name, "[x0, y0, x1, y1] with x0 <= x1 and y0 <= y1", value)
    return Rect(Vec2(x0, y0), Vec2(x1, y1))


_OBJECT = _document("object entry", {"a": _positive, "b": _positive, "color": _optional(_str)},
                    lambda a, b, color=None: ObjectSpec(HalfDims(a, b), color), ("a", "b"))

_poses = partial(_list, read=_pose)
_SCENE = _document("scene document", {"workspace": _workspace, "objects": partial(_list, read=_OBJECT),
                                      "start": _poses, "goal": _poses, "epsilon": _positive},
                   lambda start, epsilon=DEFAULT_TOLERANCE, **f: Scene(current=start, tolerance=epsilon, **f),
                   ("workspace", "objects", "start", "goal"))


def scene_from_dict(doc: Any) -> Scene:
    return _SCENE(doc)


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


def _action_type(value: Any, name: str) -> str:
    if value not in ("pick_place", "push_place"):  # a tuple: ``value`` may be unhashable
        raise _bad(name, "'pick_place' or 'push_place'", value)
    return value


_object_id = partial(_int, lo=0)
_PICK = _document("action document", {"type": _action_type, "object": _object_id, "destination": _pose},
                  lambda type, **f: PickPlace(**f), ("type", "object", "destination"))
_PUSH = _document("action document", {"type": _action_type, "object": _object_id, "side": _side, "pre_push": _pose},
                  lambda type, **f: PushPlace(**f), ("type", "object", "side", "pre_push"))


def action_from_dict(doc: Any, name: str = "") -> Action:
    """An action document, or the action entry at path ``name``: its ``type`` picks the table of its fields."""
    return (_PUSH if isinstance(doc, dict) and doc.get("type") == "push_place" else _PICK)(doc, name)


def plan_to_dict(p: Plan) -> dict:
    return {
        "actions": [action_to_dict(a) for a in p.actions],
        "costs": [{"approach": bd.approach, "pick": bd.pick, "transfer": bd.transfer, "lambda": bd.lam,
                   "total": bd.total} for bd in p.costs],
        "total": p.total,
    }


def _unscaled(value: Any, name: str) -> float:
    if _finite(value, name) != 1.0:
        raise _bad(name, "1", value)
    return 1.0


# Every cost pushplan computes is unscaled, so ``lambda`` is 1 or absent; a stored total is checked but never read.
_COST = _document("cost entry", {"approach": _finite, "pick": _finite, "transfer": _finite, "lambda": _unscaled,
                                 "total": _finite},
                  lambda approach, pick, transfer, **_: CostBreakdown(approach, pick, transfer),
                  ("approach", "pick", "transfer"))


def _plan(actions: tuple, costs: Optional[tuple] = None, total: float = 0.0) -> Plan:
    """One cost entry per action, when there are costs at all.  A stored total is
    checked but not read: ``Plan.total`` is derived from the costs."""
    if costs is not None and len(costs) != len(actions):
        raise SceneFormatError(f"field 'costs' must be a list of {len(actions)}, one per action, got {len(costs)}")
    return Plan(actions, costs or ())


_PLAN = _document("plan document", {"actions": partial(_list, read=action_from_dict),
                                    "costs": partial(_list, read=_COST), "total": _finite}, _plan, ("actions",))


def plan_from_dict(doc: Any) -> Plan:
    return _PLAN(doc)


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
