"""Benchmark harness: random scene generation, planner comparison, reports.

The harness plans every (variant, object count, scene, run) combination and
writes four files into the output directory: ``records.csv`` with one row per
run, ``summary.json`` and ``summary.csv`` with aggregated cells, and
``charts.svg`` with cost and reduction panels.  All randomness flows from one
master seed through named seed derivations, so two invocations with the same
configuration produce byte-identical records.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from .geometry import Bounds, HalfDims, Rect, Vec2
# ``overlaps`` and ``rect_from_center`` are not called here: scene generation
# tests ``Bounds``.  Both stay bound because perfbench's tracer and its tests
# look them up in this module.
from .geometry import overlaps, rect_from_center  # noqa: F401
from .metrics import percent_reduction
from .planner import PlannerConfig, plan
from .scene import DEFAULT_TOLERANCE, ObjectSpec, Scene
from .seeding import derive_seed

# A scene is rejected up front when the combined bounding-square area of its
# largest possible objects exceeds this fraction of the table.
MAX_AREA_FRACTION = 0.4

PLACEMENT_ATTEMPTS = 10_000


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class BenchVariant:
    name: str
    push_enabled: bool


DEFAULT_VARIANTS = (BenchVariant("baseline", False), BenchVariant("push", True))


@dataclass(frozen=True, slots=True)
class BenchConfig:
    master_seed: int = 0
    object_counts: tuple[int, ...] = (4, 6, 8)
    scenes_per_count: int = 100
    runs_per_scene: int = 3
    variants: tuple[BenchVariant, ...] = DEFAULT_VARIANTS
    workspace: Rect = field(default_factory=lambda: Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0)))
    size_range: tuple[float, float] = (0.03, 0.07)
    tolerance: float = DEFAULT_TOLERANCE
    max_expansions: Optional[int] = 1500
    time_budget_s: Optional[float] = None


@dataclass(frozen=True, slots=True)
class BenchRecord:
    variant: str
    n: int
    scene: int
    run: int
    plan_found: bool
    actions: Optional[int]
    cost: Optional[float]
    planning_time_ms: float


def generate_scene(
    n: int,
    seed: int,
    workspace: Optional[Rect] = None,
    size_range: tuple[float, float] = (0.03, 0.07),
    tolerance: float = DEFAULT_TOLERANCE,
) -> Scene:
    """Sample a random scene with valid start and goal arrangements.

    Half extents are uniform in ``size_range``.  Each center is drawn
    uniformly from the centers that keep the footprint on the table, and
    draws are rejected until the footprint overlaps no object placed before
    it, separately in each arrangement.  An object wider or taller than the
    table raises BenchError before its first pose is drawn.
    """
    if workspace is None:
        workspace = Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
    lo, hi = size_range
    if not 0.0 < lo <= hi:
        raise ValueError(f"invalid size range ({lo}, {hi})")
    area = workspace.width * workspace.height
    if n * (2.0 * hi) ** 2 > MAX_AREA_FRACTION * area:
        raise BenchError(
            f"{n} objects of max footprint {2 * hi:.3f} m square exceed "
            f"{MAX_AREA_FRACTION:.0%} of the table area"
        )
    rng = random.Random(seed)
    objects = tuple(
        ObjectSpec(i, HalfDims(rng.uniform(lo, hi), rng.uniform(lo, hi))) for i in range(n)
    )
    # Per object: its half extents and the ranges its center is drawn from.
    w = workspace
    ranges = []
    for spec in objects:
        a, b = spec.half.a, spec.half.b
        xlo, xhi, ylo, yhi = w.lo.x + a, w.hi.x - a, w.lo.y + b, w.hi.y - b
        if xlo > xhi or ylo > yhi:
            raise BenchError(f"object {spec.id} with half extents ({a}, {b}) does not fit the workspace")
        ranges.append((a, b, xlo, xhi, ylo, yhi))

    def sample_arrangement(label: str) -> tuple[Vec2, ...]:
        poses: list[Vec2] = []
        placed: list[Bounds] = []
        for i, (a, b, xlo, xhi, ylo, yhi) in enumerate(ranges):
            # Read at call time, so a caller may lower the module constant.
            for _ in range(PLACEMENT_ATTEMPTS):
                x = rng.uniform(xlo, xhi)
                y = rng.uniform(ylo, yhi)
                lx, ly, hx, hy = x - a, y - b, x + a, y + b
                # ``overlaps`` with each placed footprint, on floats.
                for plx, ply, phx, phy in placed:
                    if lx < phx and plx < hx and ly < phy and ply < hy:
                        break
                else:  # no overlap: accept the draw
                    poses.append(Vec2(x, y))
                    placed.append((lx, ly, hx, hy))
                    break
            else:  # every draw was rejected
                raise BenchError(
                    f"could not place object {i} in the {label} arrangement "
                    f"after {PLACEMENT_ATTEMPTS} attempts (seed {seed})"
                )
        return tuple(poses)

    current = sample_arrangement("start")
    goal = sample_arrangement("goal")
    return Scene(workspace, objects, current, goal, tolerance)


def run_single(scene: Scene, cfg: PlannerConfig) -> tuple[bool, Optional[int], Optional[float], float]:
    """Plan ``scene`` under ``cfg`` as given; returns (found, actions, cost, ms)."""
    t0 = time.perf_counter()
    result = plan(scene, cfg)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    # Expansion-budgeted runs report 0.0 so record files are reproducible
    # byte for byte; timing is only meaningful under a wall-clock budget.
    ms = 0.0 if cfg.max_expansions is not None else elapsed_ms
    if result is None:
        return False, None, None, ms
    return True, len(result.actions), result.total, ms


def _run_task(args: tuple) -> BenchRecord:
    scene, variant, n, scene_idx, run_idx, planner_cfg = args
    found, actions, cost, ms = run_single(scene, planner_cfg)
    return BenchRecord(variant, n, scene_idx, run_idx, found, actions, cost, ms)


def run_benchmark(cfg: BenchConfig, jobs: int = 1) -> list[BenchRecord]:
    """Plan every cell of the benchmark grid, in deterministic order.  A config
    that sets both budgets raises ValueError before any scene is generated."""
    names = [v.name for v in cfg.variants]
    if len(set(names)) != len(names):
        raise BenchError(f"duplicate variant names: {names}")
    base = PlannerConfig(time_budget_s=cfg.time_budget_s, max_expansions=cfg.max_expansions)
    tasks = []
    for n in cfg.object_counts:
        for scene_idx in range(cfg.scenes_per_count):
            scene_seed = derive_seed(cfg.master_seed, "scene", n, scene_idx)
            scene = generate_scene(n, scene_seed, cfg.workspace, cfg.size_range, cfg.tolerance)
            for variant in cfg.variants:
                for run_idx in range(cfg.runs_per_scene):
                    run_seed = derive_seed(cfg.master_seed, variant.name, n, scene_idx, run_idx)
                    planner_cfg = replace(base, push_enabled=variant.push_enabled, seed=run_seed)
                    tasks.append((scene, variant.name, n, scene_idx, run_idx, planner_cfg))
    # More workers than tasks would only idle; the cap also keeps a large
    # ``jobs`` from asking the OS for that many processes.
    workers = min(jobs, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            records = pool.map(_run_task, tasks, chunksize=4)
    else:
        records = [_run_task(t) for t in tasks]
    records.sort(key=lambda r: (r.variant, r.n, r.scene, r.run))
    return records


def aggregate(records: Sequence[BenchRecord], variants: Sequence[str] = ("baseline", "push")) -> dict:
    """Collapse run records into per-(variant, N) cells plus reductions.

    Within a scene, found runs are averaged first; cell statistics are the
    mean and population standard deviation across scenes.  Cost reductions
    pair only scenes where both variants produced at least one plan.
    """
    by_cell: dict[tuple[str, int], dict[int, list[BenchRecord]]] = {}
    counts: set[int] = set()
    for r in records:
        counts.add(r.n)
        by_cell.setdefault((r.variant, r.n), {}).setdefault(r.scene, []).append(r)

    cells = []
    scene_costs: dict[tuple[str, int], dict[int, float]] = {}
    for variant in variants:
        for n in sorted(counts):
            scenes = by_cell.get((variant, n))
            if not scenes:
                raise BenchError(f"no records for variant {variant!r} at N={n}")
            total_runs = sum(len(v) for v in scenes.values())
            found_runs = sum(1 for v in scenes.values() for r in v if r.plan_found)
            per_scene_actions = []
            per_scene_cost = []
            costs_here: dict[int, float] = {}
            for scene_idx in sorted(scenes):
                found = [r for r in scenes[scene_idx] if r.plan_found]
                if not found:
                    continue
                per_scene_actions.append(statistics.fmean(r.actions for r in found))
                c = statistics.fmean(r.cost for r in found)
                per_scene_cost.append(c)
                costs_here[scene_idx] = c
            if not per_scene_cost:
                raise BenchError(f"no plans found for variant {variant!r} at N={n}")
            scene_costs[(variant, n)] = costs_here
            cells.append(
                {
                    "variant": variant,
                    "n": n,
                    "plan_rate": found_runs / total_runs,
                    "scenes_with_plan": len(per_scene_cost),
                    "mean_actions": statistics.fmean(per_scene_actions),
                    "std_actions": statistics.pstdev(per_scene_actions),
                    "mean_cost": statistics.fmean(per_scene_cost),
                    "std_cost": statistics.pstdev(per_scene_cost),
                    "mean_planning_time_ms": statistics.fmean(
                        r.planning_time_ms for v in scenes.values() for r in v
                    ),
                }
            )

    reductions = []
    if "baseline" in variants and "push" in variants:
        for n in sorted(counts):
            base = scene_costs[("baseline", n)]
            push = scene_costs[("push", n)]
            paired = sorted(set(base) & set(push))
            if not paired:
                raise BenchError(f"no scene solved by both variants at N={n}")
            b = statistics.fmean(base[s] for s in paired)
            p = statistics.fmean(push[s] for s in paired)
            if not b > 0.0:
                raise BenchError(f"nothing to reduce at N={n}: every paired scene starts solved")
            reductions.append(
                {
                    "n": n,
                    "baseline_mean_cost": b,
                    "push_mean_cost": p,
                    "percent_reduction": percent_reduction(b, p),
                    "paired_scenes": len(paired),
                }
            )
    return {"cells": cells, "reductions": reductions}


def records_to_csv(records: Sequence[BenchRecord], path: Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["variant", "N", "scene", "run", "plan_found", "actions", "cost", "planning_time_ms"])
        for r in records:
            w.writerow(
                [
                    r.variant,
                    r.n,
                    r.scene,
                    r.run,
                    int(r.plan_found),
                    r.actions if r.actions is not None else "",
                    repr(r.cost) if r.cost is not None else "",
                    repr(r.planning_time_ms),
                ]
            )


def summary_to_csv(summary: dict, path: Path) -> None:
    reduction_by_n = {row["n"]: row["percent_reduction"] for row in summary["reductions"]}
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["variant", "N", "plan_rate", "mean_actions", "std_actions",
             "mean_cost", "std_cost", "percent_reduction"]
        )
        for cell in summary["cells"]:
            red = reduction_by_n.get(cell["n"], "") if cell["variant"] == "push" else ""
            w.writerow(
                [
                    cell["variant"],
                    cell["n"],
                    f"{cell['plan_rate']:.4f}",
                    f"{cell['mean_actions']:.4f}",
                    f"{cell['std_actions']:.4f}",
                    f"{cell['mean_cost']:.4f}",
                    f"{cell['std_cost']:.4f}",
                    f"{red:.2f}" if red != "" else "",
                ]
            )


def write_benchmark_outputs(cfg: BenchConfig, records: Sequence[BenchRecord], out_dir: Path) -> dict:
    """Write records.csv, summary.json, summary.csv, and charts.svg."""
    from .render import render_benchmark_charts

    summary = aggregate(records, [v.name for v in cfg.variants])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_to_csv(records, out_dir / "records.csv")
    payload = {
        "config": {
            "master_seed": cfg.master_seed,
            "object_counts": list(cfg.object_counts),
            "scenes_per_count": cfg.scenes_per_count,
            "runs_per_scene": cfg.runs_per_scene,
            "variants": [v.name for v in cfg.variants],
            "max_expansions": cfg.max_expansions,
            "time_budget_s": cfg.time_budget_s,
        },
        **summary,
    }
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")
    summary_to_csv(summary, out_dir / "summary.csv")
    (out_dir / "charts.svg").write_text(render_benchmark_charts(summary))
    return summary
