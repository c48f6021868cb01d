"""In-memory tracing of pushplan's layer functions, applied from outside.

``Tracer.install`` replaces every module-level binding of each traced
function in the loaded ``pushplan`` modules with a wrapper.  pushplan imports
layer functions by name (``from .scene import apply_action``), so patching
only the defining module would miss the calls made through the importing
module's own binding.  ``Tracer.uninstall`` puts every original back.

Two kinds of wrapper exist.  A span wrapper records (id, name, start, end,
parent id, op id) and accumulates self time: the span's duration minus the
time covered by its child spans.  A count wrapper only counts calls; it is
used for the geometry helpers, which run hundreds of thousands of times per
pass and would be swamped by span bookkeeping.  Some wrappers also look at
the result (accepted pushes, failed buffer samples, simulator events).
"""

from __future__ import annotations

import csv
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

WRAPPED_MARK = "__perfbench_wrapped__"

# (module, function) pairs traced with spans.
SPAN_TARGETS = (
    ("planner", "plan"),
    ("planner", "tree_search_step"),
    ("planner", "recommend_action"),
    ("primitives", "select_push"),
    ("primitives", "validate_push_action"),
    ("primitives", "sample_buffer_pose"),
    ("scene", "apply_action"),
    ("scene", "validate_action"),
    ("metrics", "action_cost"),
    ("simulator", "simulate"),
    ("simulator", "push_forward"),
    ("executor", "execute"),
    ("bench", "generate_scene"),
    ("bench", "aggregate"),
    ("bench", "write_benchmark_outputs"),
    ("render", "render_benchmark_charts"),
)

# (module, function) pairs that are only counted.
COUNT_TARGETS = (
    ("scene", "blockers_of"),
    ("geometry", "overlaps"),
    ("geometry", "rect_from_center"),
)

SCENE_INIT = "scene.Scene.init"


class Tracer:
    """Counts, self times and spans of the traced functions of one run."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.events: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op: object = None
        self._active: Counter[str] = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- bookkeeping -------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far; installed wrappers stay."""
        self.calls.clear()
        self.events.clear()
        self.self_s.clear()
        self.spans.clear()

    def active(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return self._active[name] > 0

    def _span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        calls, active, stack, self_s, spans = self.calls, self._active, self._stack, self.self_s, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((sid, name, start, end, parent, self.op))
            if hook is not None:
                hook(self, result)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded pushplan modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == "pushplan" or name.startswith("pushplan.")]
        for module_name, fn_name in SPAN_TARGETS + COUNT_TARGETS:
            original = getattr(sys.modules[f"pushplan.{module_name}"], fn_name)
            name = f"{module_name}.{fn_name}"
            if (module_name, fn_name) in COUNT_TARGETS:
                wrapper = self._count(name, original)
            else:
                wrapper = self._span(name, original, HOOKS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        scene_cls = sys.modules["pushplan.scene"].Scene
        original_init = scene_cls.__post_init__
        self._patches.append((scene_cls, "__post_init__", original_init))
        scene_cls.__post_init__ = self._span(SCENE_INIT, original_init, None)

    def uninstall(self) -> None:
        """Restore every binding replaced by ``install``."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as CSV, times in seconds of perf_counter."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "start", "end", "parent", "op"])
            w.writerows(self.spans)


def _on_tree_search_step(tracer: Tracer, child) -> None:
    if child is None:
        tracer.events["planner.tree_search_step.wasted"] += 1


def _on_select_push(tracer: Tracer, proposal) -> None:
    if proposal is not None:
        tracer.events["primitives.select_push.accepted"] += 1


def _on_sample_buffer_pose(tracer: Tracer, pose) -> None:
    if pose is None:
        tracer.events["primitives.sample_buffer_pose.failed"] += 1


def _on_validate_action(tracer: Tracer, _moves) -> None:
    if tracer.active("planner.tree_search_step"):
        tracer.events["scene.validate_action.in_search"] += 1


def _on_plan(tracer: Tracer, _plan) -> None:
    if tracer.active("executor.execute"):
        tracer.events["executor.plan_rounds"] += 1


def _on_simulate(tracer: Tracer, outcome) -> None:
    _scene, events = outcome
    for ev in events:
        tracer.events[f"simulator.events.{ev.kind.value}"] += 1


def _on_execute(tracer: Tracer, report) -> None:
    tracer.events["executor.skips"] += sum(1 for s in report.steps if s.skipped)


HOOKS = {
    "planner.tree_search_step": _on_tree_search_step,
    "planner.plan": _on_plan,
    "primitives.select_push": _on_select_push,
    "primitives.sample_buffer_pose": _on_sample_buffer_pose,
    "scene.validate_action": _on_validate_action,
    "simulator.simulate": _on_simulate,
    "executor.execute": _on_execute,
}


def wrapped_bindings() -> list[str]:
    """Names of pushplan bindings that still hold a tracing wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "pushplan" or name.startswith("pushplan."):
            for attr, value in vars(module).items():
                if getattr(value, WRAPPED_MARK, False):
                    found.append(f"{name}.{attr}")
    scene_cls = sys.modules["pushplan.scene"].Scene
    if getattr(scene_cls.__dict__["__post_init__"], WRAPPED_MARK, False):
        found.append("pushplan.scene.Scene.__post_init__")
    return found


# Per-layer metrics of a traced pass: (name, unit, better).  Self time is
# reported in ms for layers every workload runs; the simulator and executor
# run only on the executor workload, so their self time is a share of the
# traced pass, which is a measured 0 elsewhere rather than a constant time.
PER_LAYER = (
    ("planner.plan.calls", "count", "lower"),
    ("planner.plan.self_ms", "ms", "lower"),
    ("planner.tree_search_step.calls", "count", "lower"),
    ("planner.tree_search_step.self_ms", "ms", "lower"),
    ("planner.tree_search_step.wasted_frac", "fraction", "lower"),
    ("planner.recommend_action.self_ms", "ms", "lower"),
    ("planner.expansions_per_plan", "count/plan", "lower"),
    ("primitives.select_push.calls", "count", "lower"),
    ("primitives.select_push.self_ms", "ms", "lower"),
    ("primitives.select_push.accept_frac", "fraction", "higher"),
    ("primitives.validate_push_action.calls", "count", "lower"),
    ("primitives.validate_push_action.self_ms", "ms", "lower"),
    ("primitives.sample_buffer_pose.calls", "count", "lower"),
    ("primitives.sample_buffer_pose.self_ms", "ms", "lower"),
    ("primitives.sample_buffer_pose.fail_frac", "fraction", "lower"),
    ("scene.Scene.init.calls", "count", "lower"),
    ("scene.Scene.init.self_ms", "ms", "lower"),
    ("scene.apply_action.calls", "count", "lower"),
    ("scene.apply_action.self_ms", "ms", "lower"),
    ("scene.validate_action.calls", "count", "lower"),
    ("scene.validate_action.self_ms", "ms", "lower"),
    ("scene.validate_action.per_expansion", "count/expansion", "lower"),
    ("scene.blockers_of.calls", "count", "lower"),
    ("metrics.action_cost.calls", "count", "lower"),
    ("metrics.action_cost.self_ms", "ms", "lower"),
    ("geometry.overlaps.calls", "count", "lower"),
    ("geometry.rect_from_center.calls", "count", "lower"),
    ("simulator.simulate.calls", "count", "lower"),
    ("simulator.simulate.self_pct", "%", "lower"),
    ("simulator.push_forward.calls", "count", "lower"),
    ("simulator.push_forward.self_pct", "%", "lower"),
    ("simulator.events.secondary_contact", "count", "lower"),
    ("simulator.events.left_table", "count", "lower"),
    ("executor.execute.calls", "count", "lower"),
    ("executor.execute.self_pct", "%", "lower"),
    ("executor.plan_rounds_per_trial", "count/trial", "lower"),
    ("executor.skips", "count", "lower"),
    ("bench.generate_scene.calls", "count", "lower"),
    ("bench.generate_scene.self_ms", "ms", "lower"),
    ("bench.aggregate.self_ms", "ms", "lower"),
    ("bench.write_benchmark_outputs.self_ms", "ms", "lower"),
    ("render.render_benchmark_charts.self_ms", "ms", "lower"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_counts(tracer: Tracer) -> dict[str, float]:
    """The deterministic per-layer metrics of one traced pass."""
    calls, ev = tracer.calls, tracer.events
    steps = calls["planner.tree_search_step"]
    wasted = ev["planner.tree_search_step.wasted"]
    out = {f"{name}.calls": float(calls[name]) for name in
           ("planner.plan", "planner.tree_search_step", "primitives.select_push",
            "primitives.validate_push_action", "primitives.sample_buffer_pose", SCENE_INIT,
            "scene.apply_action", "scene.validate_action", "scene.blockers_of", "metrics.action_cost",
            "geometry.overlaps", "geometry.rect_from_center", "simulator.simulate",
            "simulator.push_forward", "executor.execute")}
    out.update({
        "planner.tree_search_step.wasted_frac": _ratio(wasted, steps),
        "planner.expansions_per_plan": _ratio(steps, calls["planner.plan"]),
        "primitives.select_push.accept_frac": _ratio(ev["primitives.select_push.accepted"],
                                                     calls["primitives.select_push"]),
        "primitives.sample_buffer_pose.fail_frac": _ratio(ev["primitives.sample_buffer_pose.failed"],
                                                          calls["primitives.sample_buffer_pose"]),
        "scene.validate_action.per_expansion": _ratio(ev["scene.validate_action.in_search"], steps - wasted),
        "simulator.events.secondary_contact": float(ev["simulator.events.secondary_contact"]),
        "simulator.events.left_table": float(ev["simulator.events.left_table"]),
        "executor.plan_rounds_per_trial": _ratio(ev["executor.plan_rounds"], calls["executor.execute"]),
        "executor.skips": float(ev["executor.skips"]),
    })
    return out


def pass_times(tracer: Tracer, wall_s: float, scale: float) -> dict[str, float]:
    """Self time of every traced span name in one traced pass, in ms times
    ``scale``, and the simulator's and executor's shares of the pass."""
    out = {f"{name}.self_ms": s * 1000.0 * scale for name, s in tracer.self_s.items()}
    for name in ("simulator.simulate", "simulator.push_forward", "executor.execute"):
        out[f"{name}.self_pct"] = 100.0 * _ratio(tracer.self_s[name], wall_s)
    return out
