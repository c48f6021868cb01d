"""The benchmark's workloads: inputs, one timed pass, output checks, metrics.

A pass plans (or executes) every input of a workload once, in a fixed order,
and then aggregates the records and writes the benchmark output files, as
``pushplan bench`` does.  A run repeats the same pass until its time is used
up, so every count a pass makes is a pure function of the seed, while the
timings gain samples.  Checks run between passes, outside the timed region.

Every planner call uses the benchmark's settings: one process, an expansion
budget of 1500 and no wall-clock budget, with seeds derived from the run seed
exactly as ``bench.run_benchmark`` derives them.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from hostspeed import HostSpeed

MAX_EXPANSIONS = 1500
EXEC_STEP_BUDGET = 15
EXEC_OBJECTS = 8
COST_TOL = 1e-9

LIB_MODULES = ("bench", "executor", "geometry", "metrics", "planner", "primitives", "render",
               "scene", "seeding", "simulator")


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``runs`` is runs per (scene, variant) on a sweep
    and trials per (scene, variant) on an executor workload."""

    name: str
    why: str
    executes: bool
    object_counts: tuple[int, ...]
    size_range: tuple[float, float]
    scenes: int
    runs: int


# On a 2-core x86 host under Python 3.11 one pass takes about 2.5 s
# (sweep-default), 30 s (sweep-dense) and 6 s (exec-noise), so a 30 s run
# makes about 12, 1 and 5 passes.  Each pass holds enough distinct scenes
# that its medians and p95s move little between seeds; sweep-dense's
# per-plan times are heavy-tailed, so it needs the most plans.  sweep-dense
# plans a single object count: with two (12 and 16) the per-plan times form
# two modes, the median falls in the gap between them and moves by over 10 %
# from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-default",
            "the paper's headline grid (BenchConfig defaults): short plans that rarely push, "
            "dominated by per-plan and per-Scene overhead",
            False, (4, 6, 8), (0.03, 0.07), 100, 3,
        ),
        Workload(
            "sweep-dense",
            "N 14 with large objects: ~90 expansions per plan, half of select_push calls "
            "rejected, heavy buffer sampling",
            False, (14,), (0.05, 0.079), 250, 1,
        ),
        Workload(
            "exec-noise",
            "closed-loop execution at N 8 under placement noise: replans from perturbed states, "
            "the only workload that runs simulator and executor",
            True, (EXEC_OBJECTS,), (0.03, 0.07), 250, 1,
        ),
    )
}


def import_pushplan() -> SimpleNamespace:
    """Import pushplan afresh (dropping any loaded copy) and return its modules."""
    for name in [m for m in sys.modules if m == "pushplan" or m.startswith("pushplan.")]:
        del sys.modules[name]
    importlib.import_module("pushplan")
    return SimpleNamespace(**{m: importlib.import_module(f"pushplan.{m}") for m in LIB_MODULES})


def bench_config(lib: SimpleNamespace, wl: Workload, seed: int):
    return lib.bench.BenchConfig(
        master_seed=seed,
        object_counts=wl.object_counts,
        scenes_per_count=wl.scenes,
        runs_per_scene=wl.runs,
        size_range=wl.size_range,
        max_expansions=MAX_EXPANSIONS,
        time_budget_s=None,
    )


def make_inputs(lib: SimpleNamespace, wl: Workload, seed: int) -> list[tuple[int, int, object]]:
    """(N, scene index, scene) for every scene of the workload, seeded as run_benchmark seeds them."""
    cfg = bench_config(lib, wl, seed)
    derive_seed = lib.seeding.derive_seed
    return [
        (n, idx, lib.bench.generate_scene(n, derive_seed(seed, "scene", n, idx), cfg.workspace,
                                          cfg.size_range, cfg.tolerance))
        for n in wl.object_counts
        for idx in range(wl.scenes)
    ]


def setup(wl: Workload, seed: int, repeats: int, host: HostSpeed) -> tuple[SimpleNamespace, list, list[tuple]]:
    """Import pushplan and generate the inputs ``repeats`` times; return the
    last import, its inputs, and per repetition its time in seconds, raw and
    scaled by the host speed sampled just before and after it."""
    times = []
    for _ in range(repeats):
        host.tick(force=True)
        t0 = time.perf_counter()
        lib = import_pushplan()
        inputs = make_inputs(lib, wl, seed)
        raw = time.perf_counter() - t0
        host.tick(force=True)
        times.append((raw, raw * host.scale()))
    return lib, inputs, times


@dataclass
class PassResult:
    wall_s: float  # raw, including the host-speed timings
    op_ms: list[float]  # raw
    op_scaled_ms: list[float]  # scaled to the nominal host speed
    between_scaled_ms: float  # time spent outside operations and host-speed timings, scaled
    scale: float  # median scale factor over the pass
    keys: list[tuple]  # (variant, N, scene, run) per operation, in run order
    outcomes: list  # Plan or None (sweeps), ExecutionReport (executor)
    records: list
    summary: dict


def run_pass(lib: SimpleNamespace, wl: Workload, seed: int, inputs: list, out_dir: Path,
             host: HostSpeed, tracer=None) -> PassResult:
    """Run every operation of the workload once, then aggregate and write outputs.

    The host's speed is sampled between operations; each operation's time is
    kept raw and scaled by the latest sample."""
    bench, planner, seeding = lib.bench, lib.planner, lib.seeding
    cfg = bench_config(lib, wl, seed)
    noise = lib.simulator.NoiseConfig(enabled=True)
    clock = time.perf_counter
    op_ms, op_scaled_ms, scales, keys, outcomes, records = [], [], [], [], [], []
    host_spent = host.spent_s
    start = clock()
    for n, idx, scene in inputs:
        for variant in cfg.variants:
            for run in range(wl.runs):
                host.tick()
                key = (variant.name, n, idx, run)
                if tracer is not None:
                    tracer.op = "/".join(map(str, key))
                if wl.executes:
                    pcfg = planner.PlannerConfig(
                        max_expansions=MAX_EXPANSIONS, push_enabled=variant.push_enabled,
                        seed=seeding.derive_seed(seed, variant.name, idx, run))
                    rng = random.Random(seeding.derive_seed(seed, variant.name, "trial", idx, run))
                    t0 = clock()
                    out = lib.executor.execute(scene, pcfg, noise=noise, step_budget=EXEC_STEP_BUDGET, rng=rng)
                    op_ms.append((clock() - t0) * 1000.0)
                    ok = out.terminated_by is lib.executor.TerminationReason.ALL_AT_GOAL
                    record = bench.BenchRecord(variant.name, n, idx, run, ok, out.total_actions,
                                               out.robot_time_proxy, 0.0)
                else:
                    pcfg = planner.PlannerConfig(
                        time_budget_s=None, max_expansions=MAX_EXPANSIONS,
                        push_enabled=variant.push_enabled,
                        seed=seeding.derive_seed(seed, variant.name, n, idx, run))
                    t0 = clock()
                    out = planner.plan(scene, pcfg)
                    op_ms.append((clock() - t0) * 1000.0)
                    record = bench.BenchRecord(
                        variant.name, n, idx, run, out is not None,
                        None if out is None else len(out.actions), None if out is None else out.total, 0.0)
                scales.append(host.scale())
                op_scaled_ms.append(op_ms[-1] * scales[-1])
                keys.append(key)
                outcomes.append(out)
                records.append(record)
    if tracer is not None:
        tracer.op = None
    records.sort(key=lambda r: (r.variant, r.n, r.scene, r.run))
    summary = bench.write_benchmark_outputs(cfg, records, out_dir)
    wall_s = clock() - start
    scale = statistics.median(scales)
    between_ms = (wall_s - (host.spent_s - host_spent)) * 1000.0 - sum(op_ms)
    return PassResult(wall_s, op_ms, op_scaled_ms, between_ms * scale, scale, keys, outcomes, records,
                      summary)


# --- output checks -----------------------------------------------------------


def check_plan(lib: SimpleNamespace, scene, plan) -> tuple[Optional[str], object]:
    """Replay a plan from its start scene; return (problem or None, final scene)."""
    if plan is None:
        return "no plan found", scene
    try:
        cost = lib.metrics.plan_cost(plan, scene)
        final = scene
        for action in plan.actions:
            final = lib.scene.apply_action(final, action)
    except lib.scene.InfeasibleActionError as e:
        return f"replay failed: {e}", scene
    if lib.scene.satisfied_count(final) != final.n:
        return "replayed plan leaves objects outside tolerance", final
    if abs(cost - plan.total) > COST_TOL:
        return f"replayed cost {cost!r} differs from Plan.total {plan.total!r}", final
    return None, final


def check_report(lib: SimpleNamespace, scene, report) -> Optional[str]:
    """Check one ExecutionReport against its start scene; None when it holds.

    The steps must chain from the start scene to the final scene, the
    termination reason must agree with the final scene and the step budget,
    and the robot-time proxy must equal the travel of the executed actions,
    recomputed with metrics.action_cost from the workspace center, plus the
    executor's fixed overhead per action."""
    reasons = lib.executor.TerminationReason
    if not isinstance(report.terminated_by, reasons):
        return f"terminated_by is not recorded: {report.terminated_by!r}"
    state = scene
    ee = lib.metrics.EEState(scene.workspace.center, scene.workspace.center)
    travel = 0.0
    executed = 0
    for i, step in enumerate(report.steps):
        if step.pre_scene != state:
            return f"step {i} does not start where the previous step ended"
        if step.skipped:
            if step.executed_action is not None or step.post_scene != state:
                return f"skipped step {i} changed the scene"
            continue
        try:
            cost, ee = lib.metrics.action_cost(state, step.executed_action, ee, 1.0)
        except lib.scene.InfeasibleActionError as e:
            return f"step {i} executed an infeasible action: {e}"
        travel += cost.approach + cost.pick + cost.transfer
        executed += 1
        state = step.post_scene
    fs = report.final_scene
    if fs != state:
        return "final scene is not where the last step ended"
    try:
        lib.scene.Scene(fs.workspace, fs.objects, fs.current, fs.goal, fs.tolerance)
    except lib.scene.InvalidSceneError as e:
        return f"final scene is invalid: {e}"
    satisfied = lib.scene.satisfied_count(fs)
    at_goal = satisfied == fs.n
    if report.success_rate != satisfied / fs.n:
        return "success_rate disagrees with the final scene"
    if report.total_actions != executed or executed > EXEC_STEP_BUDGET:
        return f"total_actions {report.total_actions} for {executed} executed steps, budget {EXEC_STEP_BUDGET}"
    if (report.terminated_by is reasons.ALL_AT_GOAL) != at_goal:
        return f"terminated_by {report.terminated_by.value} with all objects at goal: {at_goal}"
    if report.terminated_by is reasons.STEP_BUDGET and executed != EXEC_STEP_BUDGET:
        return f"step budget reported after {executed} actions"
    expected = travel + lib.executor.ACTION_OVERHEAD_S * executed
    if abs(report.robot_time_proxy - expected) > COST_TOL:
        return f"robot_time_proxy {report.robot_time_proxy!r}, recomputed {expected!r}"
    return None


@dataclass
class Outcome:
    """Per-operation verdicts of the first pass."""

    problems: list[Optional[str]]  # a failed output check, per operation
    succeeded: list[bool]  # plan found / trial ended ALL_AT_GOAL and the check passed
    success_rate: list[float]  # per-object success, per operation
    actions: list[Optional[int]]
    robot_time: list[Optional[float]]


def check_first_pass(lib: SimpleNamespace, wl: Workload, inputs: list, res: PassResult) -> Outcome:
    """Check every output of the first pass and keep what the metrics need."""
    scenes = {(n, idx): scene for n, idx, scene in inputs}
    overhead = lib.executor.ACTION_OVERHEAD_S
    oc = Outcome([], [], [], [], [])
    for key, out in zip(res.keys, res.outcomes):
        scene = scenes[key[1], key[2]]
        if wl.executes:
            problem = check_report(lib, scene, out)
            ok = problem is None and out.terminated_by is lib.executor.TerminationReason.ALL_AT_GOAL
            oc.success_rate.append(out.success_rate)
            oc.actions.append(out.total_actions)
            oc.robot_time.append(out.robot_time_proxy)
        else:
            reason, final = check_plan(lib, scene, out)
            problem = None if out is None else reason
            ok = reason is None
            oc.success_rate.append(lib.scene.satisfied_count(final) / final.n)
            oc.actions.append(None if out is None else len(out.actions))
            # Travel at unit cost scale plus the executor's fixed per-action overhead.
            oc.robot_time.append(None if out is None else out.total + overhead * len(out.actions))
        oc.problems.append(problem)
        oc.succeeded.append(ok)
    expected_cells = len(wl.object_counts) * 2
    if len(res.summary["cells"]) != expected_cells:
        oc.problems.append(f"summary has {len(res.summary['cells'])} cells, expected {expected_cells}")
    return oc


def check_repeat_pass(first: PassResult, res: PassResult) -> list[str]:
    """A repeated pass must reproduce the first pass operation by operation."""
    return [
        f"operation {key} differs from the first pass"
        for key, ref, out in zip(res.keys, first.outcomes, res.outcomes)
        if out != ref
    ]


# --- metrics -----------------------------------------------------------------


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(samples, n=100)[q - 1]


def quality_metrics(keys: list[tuple], oc: Outcome, summary: dict) -> dict[str, float]:
    """Plan / execution quality of the push variant, from the first pass."""
    push = [i for i, k in enumerate(keys) if k[0] == "push"]
    actions = [oc.actions[i] for i in push if oc.actions[i] is not None]
    robot = [oc.robot_time[i] for i in push if oc.robot_time[i] is not None]
    return {
        "actions_mean_push": statistics.fmean(actions),
        "success_rate": statistics.fmean(oc.success_rate[i] for i in push),
        "robot_time_s_mean": statistics.fmean(robot),
        "cost_reduction_pct": statistics.fmean(r["percent_reduction"] for r in summary["reductions"]),
    }


def fingerprint(res: PassResult, wl: Workload) -> str:
    """Digest of the pass's records and deterministic counts."""
    h = hashlib.sha256()
    h.update(repr((len(res.records), sum(1 for r in res.records if not r.plan_found))).encode())
    for r in res.records:
        h.update(repr((r.variant, r.n, r.scene, r.run, r.actions, r.cost)).encode())
    for key, out in zip(res.keys, res.outcomes):
        if wl.executes:
            h.update(repr((key, out.terminated_by.value, len(out.steps))).encode())
    return h.hexdigest()[:16]
