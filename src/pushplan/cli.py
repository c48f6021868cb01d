"""Command-line interface.

Subcommands: ``plan`` (one-shot planning), ``execute`` (closed-loop run with
optional noise), ``bench`` (variant comparison over random scenes), and
``render`` (scene or plan to SVG).  Exit codes: 0 on success, 1 for bad
input or an output that cannot be written, 2 when planning or execution fails.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import random
import sys
from pathlib import Path
from typing import Optional

from . import io
from .bench import BenchConfig, BenchError, run_benchmark, write_benchmark_outputs
from .executor import DEFAULT_STEP_BUDGET, TerminationReason, execute
from .io import SceneFormatError
from .metrics import set_down_pose
from .planner import DEFAULT_TIME_BUDGET_S, PlannerConfig, plan
from .render import RenderStyle, render_scene
from .scene import InfeasibleActionError, apply_action
from .simulator import NO_NOISE, NoiseConfig


def _resolve_seed(cli_seed: Optional[int], config_seed: Optional[int]) -> int:
    if cli_seed is not None:
        return cli_seed
    if config_seed is not None:
        return config_seed
    env = os.environ.get("PPLAN_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise SceneFormatError(f"PPLAN_SEED must be an integer, got {env!r}") from None


def _budget_flags(args: argparse.Namespace) -> dict:
    """The budget flags as config fields; a flag replaces both budgets of a config."""
    if args.expansions is None and args.time_budget is None:
        return {}
    return {"max_expansions": args.expansions, "time_budget_s": args.time_budget}


def _planner_config(args: argparse.Namespace) -> PlannerConfig:
    fields = io.load(args.config, io.planner_config_kwargs) if args.config else {}
    fields["seed"] = _resolve_seed(args.seed, fields.get("seed"))
    fields.update(_budget_flags(args))
    if args.no_push:
        fields["push_enabled"] = False
    return PlannerConfig(**fields)


def _add_planner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="planner configuration JSON")
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--expansions", type=int, metavar="N",
                        help="deterministic search budget in tree expansions")
    budget.add_argument("--time-budget", type=float, metavar="SECONDS",
                        help=f"wall-clock search budget (default {DEFAULT_TIME_BUDGET_S})")
    p.add_argument("--no-push", action="store_true",
                   help="disable the push primitive (pick-and-place only)")
    p.add_argument("--seed", type=int,
                   help="random seed (overrides config and PPLAN_SEED)")


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_plan(args: argparse.Namespace) -> int:
    scene = io.load(args.scene, io.scene_from_dict)
    cfg = _planner_config(args)
    result = plan(scene, cfg)
    if result is None:
        print("no plan found within the search budget", file=sys.stderr)
        return 2
    _write_or_print(json.dumps(io.plan_to_dict(result), indent=2) + "\n", args.out)
    if args.out:
        print(f"plan: {len(result.actions)} actions, total cost {result.total:.4f} -> {args.out}")
    return 0


def _write_frames(out_dir: str, style: RenderStyle, frames: list) -> None:
    """Write ``(scene, title, gripper)`` frames as frame_000.svg, frame_001.svg, ..."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    for i, (scene, title, gripper) in enumerate(frames):
        (path / f"frame_{i:03d}.svg").write_text(render_scene(scene, style, title=title, gripper=gripper))


def _cmd_execute(args: argparse.Namespace) -> int:
    scene = io.load(args.scene, io.scene_from_dict)
    cfg = _planner_config(args)
    noise = NoiseConfig(args.lateral_sigma, args.depth_sigma, enabled=True) if args.noise else NO_NOISE
    report = execute(scene, cfg, noise, step_budget=args.step_budget,
                     rng=random.Random(cfg.seed))
    _write_or_print(json.dumps(io.report_to_dict(report), indent=2) + "\n", args.out)
    if args.frames:
        frames = [(scene, "step 0", None)]
        for i, step in enumerate(report.steps, 1):
            frames.append((step.post_scene, f"step {i}", set_down_pose(step.pre_scene, step.executed_action)))
        _write_frames(args.frames, RenderStyle(), frames)
    status = report.terminated_by.value
    print(f"execution: {report.total_actions} actions, {report.plan_rounds} plan rounds, "
          f"{report.success_rate:.0%} at goal, terminated by {status}", file=sys.stderr)
    return 0 if report.terminated_by is TerminationReason.ALL_AT_GOAL else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    fields = io.load(args.config, io.bench_config_kwargs) if args.config else {}
    fields["master_seed"] = _resolve_seed(args.seed, fields.get("master_seed"))
    for flag, key in (("scenes", "scenes_per_count"), ("runs", "runs_per_scene"),
                      ("counts", "object_counts")):
        if getattr(args, flag) is not None:
            fields[key] = getattr(args, flag)
    fields.update(_budget_flags(args))
    cfg = BenchConfig(**fields)
    out = Path(args.out)
    # Fail before the sweep, not after it; the directory is still made only
    # once the records are aggregated.
    if out.exists() and not out.is_dir():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.out)
    records = run_benchmark(cfg, jobs=args.jobs)
    summary = write_benchmark_outputs(cfg, records, out)
    for row in summary["reductions"]:
        print(f"N={row['n']}: baseline {row['baseline_mean_cost']:.4f} "
              f"-> push {row['push_mean_cost']:.4f} "
              f"({row['percent_reduction']:+.2f}% over {row['paired_scenes']} scenes)")
    print(f"wrote records.csv, summary.json, summary.csv, charts.svg -> {args.out}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    scene = io.load(args.scene, io.scene_from_dict)
    style = RenderStyle(show_goals=not args.no_goals, scale=args.scale)
    if args.frames and not args.plan:
        raise SceneFormatError("--frames requires --plan (per-step frames follow a plan)")
    if not args.plan:
        _write_or_print(render_scene(scene, style, title=args.title), args.out)
        return 0
    result = io.load(args.plan, io.plan_from_dict)
    states = [scene]
    try:
        for action in result.actions:
            states.append(apply_action(states[-1], action))
    except InfeasibleActionError as e:
        raise SceneFormatError(f"{args.plan}: plan does not replay on this scene: {e}") from e
    if args.frames:
        _write_frames(args.frames, style, [
            (state, f"step {i}", set_down_pose(states[i - 1], result.actions[i - 1]) if i else None)
            for i, state in enumerate(states)
        ])
        print(f"wrote {len(states)} frames -> {args.frames}")
        return 0
    _write_or_print(render_scene(states[-1], style, title=args.title), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as bad input (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        raise SceneFormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pushplan",
        description="Plan, execute, and benchmark tabletop rearrangement with push-assisted placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a scene and print or save the plan JSON")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--out", help="write the plan here instead of stdout")
    _add_planner_flags(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("execute", help="run the closed-loop executor on a scene")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--out", help="write the execution report here instead of stdout")
    p.add_argument("--noise", action="store_true", help="enable placement noise")
    noise = NoiseConfig()
    p.add_argument("--lateral-sigma", type=float, default=noise.lateral_sigma,
                   help="noise drift bound across the motion (m, default %(default)s)")
    p.add_argument("--depth-sigma", type=float, default=noise.depth_sigma,
                   help="noise drift bound along the motion (m, default %(default)s)")
    p.add_argument("--step-budget", type=int, default=DEFAULT_STEP_BUDGET,
                   help="maximum executed actions (default %(default)s)")
    p.add_argument("--frames", metavar="DIR", help="write one SVG per step into DIR")
    _add_planner_flags(p)
    p.set_defaults(func=_cmd_execute)

    p = sub.add_parser("bench", help="compare planner variants over random scenes")
    p.add_argument("--config", help="benchmark configuration JSON")
    p.add_argument("--out", default="bench_out", help="output directory (default bench_out)")
    p.add_argument("--seed", type=int, help="master seed (overrides config and PPLAN_SEED)")
    p.add_argument("--scenes", type=int, help="scenes per object count")
    p.add_argument("--runs", type=int, help="runs per scene")
    p.add_argument("--counts", help="comma-separated object counts, e.g. 4,6,8")
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--expansions", type=int, help="search budget in expansions")
    budget.add_argument("--time-budget", type=float, help="search budget in seconds")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("render", help="render a scene (or a plan's steps) to SVG")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--plan", help="plan JSON to replay over the scene")
    p.add_argument("--frames", metavar="DIR", help="with --plan, write one SVG per step into DIR")
    p.add_argument("--out", help="write the SVG here instead of stdout")
    p.add_argument("--scale", type=float, default=RenderStyle().scale,
                   help="pixels per meter (default %(default)s)")
    p.add_argument("--no-goals", action="store_true", help="hide dashed goal outlines")
    p.add_argument("--title", default="", help="title text drawn above the scene")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        io.check_flags(args)
        return args.func(args)
    except (SceneFormatError, BenchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        # io.load reports unreadable inputs, so a path here is an unwritable output.
        if e.filename is None:
            raise
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
