"""Benchmark harness: random scene generation, planner comparison, reports.

The harness plans every (variant, object count, scene, run) combination and
writes four files into the output directory: ``records.csv`` with one row per
run, ``summary.json`` and ``summary.csv`` with aggregated cells, and
``charts.svg`` with cost and action panels.  All randomness flows from one
master seed through named seed derivations, so two invocations with the same
configuration produce byte-identical records.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .checks import COUNT, COUNTS, INTEGER, real, require
from .geometry import Bounds, HalfDims, Rect, Vec2, bounds_from_center
# ``overlaps`` and ``rect_from_center`` are not called here: scene generation
# tests ``Bounds``.  Both stay bound because perfbench's tracer and its tests
# look them up in this module.
from .geometry import overlaps, rect_from_center  # noqa: F401
from .metrics import percent_reduction
from .planner import PlannerConfig, plan
from .primitives import free_pose
from .scene import DEFAULT_TOLERANCE, ObjectSpec, Scene
from .seeding import derive_seed

# A scene is rejected up front when the combined bounding-square area of its
# largest possible objects exceeds this fraction of the table.
MAX_AREA_FRACTION = 0.4

PLACEMENT_ATTEMPTS = 10_000

# The default table (a unit square) and range of object half extents, meters.
DEFAULT_WORKSPACE = Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
DEFAULT_SIZE_RANGE = (0.03, 0.07)


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class BenchVariant:
    name: str
    push_enabled: bool


DEFAULT_VARIANTS = (BenchVariant("baseline", False), BenchVariant("push", True))


@dataclass(frozen=True, slots=True)
class BenchConfig:
    """A whole sweep: a bench config document sets every field.  A broken rule
    raises a ``ValueError`` quoting its field: exactly one budget, in
    ``PlannerConfig``'s range (no default wall clock); ``master_seed`` an int
    in the float range; ``object_counts`` a non-empty tuple of ints of at least
    1 in the float range, none repeated; ``scenes_per_count``, ``runs_per_scene``
    ints of at least 1 in the float range; ``size_range`` a ``(low, high)`` tuple, ``0 < low <= high``;
    ``tolerance`` finite and positive.
    Numbers are stored as floats, so a ``summary.json`` config reads back equal."""

    # Every sweep compares the same two variants on the same table.
    variants = DEFAULT_VARIANTS
    workspace = DEFAULT_WORKSPACE

    master_seed: int = 0
    object_counts: tuple[int, ...] = (4, 6, 8)
    scenes_per_count: int = 100
    runs_per_scene: int = 3
    size_range: tuple[float, float] = DEFAULT_SIZE_RANGE
    tolerance: float = DEFAULT_TOLERANCE
    max_expansions: Optional[int] = 1500
    time_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.max_expansions is None) == (self.time_budget_s is None):
            raise ValueError("set exactly one of 'max_expansions' and 'time_budget_s'")
        # The planner's config checks the budget's range.
        PlannerConfig(time_budget_s=self.time_budget_s, max_expansions=self.max_expansions)
        require(not math.isnan(real(self.master_seed, int)), "master_seed", INTEGER, self.master_seed)
        counts, sizes = self.object_counts, self.size_range
        require(isinstance(counts, tuple) and len(counts) > 0 and all(real(n, int) >= 1 for n in counts),
                "object_counts", COUNTS, counts)
        require(len(set(counts)) == len(counts), "object_counts", "not repeat a count", counts)
        for name, value in (("scenes_per_count", self.scenes_per_count), ("runs_per_scene", self.runs_per_scene)):
            require(real(value, int) >= 1, name, COUNT, value)
        require(isinstance(sizes, tuple) and len(sizes) == 2 and 0.0 < real(sizes[0]) <= real(sizes[1]),
                "size_range", "be a (low, high) tuple with 0 < low <= high", sizes)
        require(real(self.tolerance) > 0.0, "tolerance", "be finite and positive", self.tolerance)
        object.__setattr__(self, "size_range", (float(sizes[0]), float(sizes[1])))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.time_budget_s is not None:
            object.__setattr__(self, "time_budget_s", float(self.time_budget_s))


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
    workspace: Rect = DEFAULT_WORKSPACE,
    size_range: tuple[float, float] = DEFAULT_SIZE_RANGE,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Scene:
    """Sample a random scene with valid start and goal arrangements.

    Half extents are uniform in ``size_range``.  Each arrangement places the
    objects in id order, each at ``primitives.free_pose`` among the objects
    placed before it, with ``PLACEMENT_ATTEMPTS`` draws.  An object wider or
    taller than the table raises BenchError before the first pose is drawn.
    """
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
        ObjectSpec(HalfDims(rng.uniform(lo, hi), rng.uniform(lo, hi))) for _ in range(n)
    )
    w = workspace
    for i, spec in enumerate(objects):
        a, b = spec.half.a, spec.half.b
        if w.lo.x + a > w.hi.x - a or w.lo.y + b > w.hi.y - b:
            raise BenchError(f"object {i} with half extents ({a}, {b}) does not fit the workspace")

    def sample_arrangement(label: str) -> tuple[Vec2, ...]:
        poses: list[Vec2] = []
        placed: list[Bounds] = []
        for i, spec in enumerate(objects):
            # Read at call time, so a caller may lower the module constant.
            pose = free_pose(rng, spec.half, workspace, placed, PLACEMENT_ATTEMPTS)
            if pose is None:
                raise BenchError(
                    f"could not place object {i} in the {label} arrangement "
                    f"after {PLACEMENT_ATTEMPTS} attempts (seed {seed})"
                )
            poses.append(pose)
            placed.append(bounds_from_center(pose, spec.half))
        return tuple(poses)

    current = sample_arrangement("start")
    goal = sample_arrangement("goal")
    return Scene(workspace, objects, current, goal, tolerance)


def run_single(scene: Scene, key: tuple[str, int, int, int], cfg: PlannerConfig) -> BenchRecord:
    """Plan ``scene`` under ``cfg`` as given; the record of run ``key``, a
    (variant, N, scene, run) tuple."""
    t0 = time.perf_counter()
    result = plan(scene, cfg)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    # Expansion-budgeted runs report 0.0 so record files are reproducible
    # byte for byte; timing is only meaningful under a wall-clock budget.
    ms = 0.0 if cfg.max_expansions is not None else elapsed_ms
    if result is None:
        return BenchRecord(*key, False, None, None, ms)
    return BenchRecord(*key, True, len(result.actions), result.total, ms)


def run_benchmark(cfg: BenchConfig, jobs: int = 1) -> list[BenchRecord]:
    """Plan every cell of the benchmark grid, in deterministic order, whatever ``jobs``."""
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
                    tasks.append((scene, (variant.name, n, scene_idx, run_idx), planner_cfg))
    # More workers than tasks or CPUs would only idle; the cap also keeps a
    # large ``jobs`` from asking the OS for that many processes.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: a serial run need not pay for loading it.
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            records = pool.starmap(run_single, tasks, chunksize=4)
    else:
        records = [run_single(*t) for t in tasks]
    records.sort(key=lambda r: (r.variant, r.n, r.scene, r.run))
    return records


def aggregate(records: Sequence[BenchRecord]) -> dict:
    """Collapse run records into per-(variant, N) cells plus reductions.

    Within a scene, found runs are averaged first; cell statistics are the
    mean and population standard deviation across scenes.  Cost reductions
    pair only scenes where both variants produced at least one plan.  No
    records raise ``BenchError``.
    """
    if not records:
        raise BenchError("no records to aggregate: the sweep planned nothing")
    # Each (variant, N) cell's runs, and its found runs by scene.
    by_cell: dict[tuple[str, int], tuple[list[BenchRecord], dict[int, list[BenchRecord]]]] = {}
    for r in records:
        runs, found = by_cell.setdefault((r.variant, r.n), ([], {}))
        runs.append(r)
        if r.plan_found:
            found.setdefault(r.scene, []).append(r)
    counts = sorted({n for _, n in by_cell})

    cells = []
    scene_costs: dict[tuple[str, int], dict[int, float]] = {}
    for variant in BenchConfig.variants:
        for n in counts:
            runs, found = by_cell.get((variant.name, n), ([], {}))
            if not runs:
                raise BenchError(f"no records for variant {variant.name!r} at N={n}")
            if not found:
                raise BenchError(f"no plans found for variant {variant.name!r} at N={n}")
            scenes = sorted(found)
            actions = [statistics.fmean(r.actions for r in found[s]) for s in scenes]
            costs = {s: statistics.fmean(r.cost for r in found[s]) for s in scenes}
            scene_costs[(variant.name, n)] = costs
            cells.append(
                {
                    "variant": variant.name,
                    "n": n,
                    "plan_rate": sum(map(len, found.values())) / len(runs),
                    "scenes_with_plan": len(scenes),
                    "mean_actions": statistics.fmean(actions),
                    "std_actions": statistics.pstdev(actions),
                    "mean_cost": statistics.fmean(costs.values()),
                    "std_cost": statistics.pstdev(costs.values()),
                    "mean_planning_time_ms": statistics.fmean(r.planning_time_ms for r in runs),
                }
            )

    reductions = []
    for n in counts:
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
    from .io import bench_config_to_dict
    from .render import render_benchmark_charts

    summary = aggregate(records)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_to_csv(records, out_dir / "records.csv")
    payload = {"config": bench_config_to_dict(cfg), **summary}
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")
    summary_to_csv(summary, out_dir / "summary.csv")
    (out_dir / "charts.svg").write_text(render_benchmark_charts(summary))
    return summary
