"""Command-line interface: ``plan`` (one-shot planning), ``execute`` (closed-loop
run with optional noise), ``bench`` (variant comparison over random scenes) and
``render`` (scene or plan to SVG).  argparse parses every flag; the class that
holds the config field a flag sets checks it.  Exit codes: 0 on success, 1 for
bad input or an output that cannot be written, 2 when planning or execution fails.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import random
import re
import sys
from dataclasses import replace
from pathlib import Path
from reprlib import repr as _short
from typing import Optional, Sequence

from . import io
from .bench import BenchConfig, BenchError, run_benchmark, write_benchmark_outputs
from .checks import COUNT, COUNTS, real
from .executor import DEFAULT_STEP_BUDGET, TerminationReason, execute
from .io import SceneFormatError
from .metrics import set_down_pose
from .planner import DEFAULT_TIME_BUDGET_S, PlannerConfig, plan
from .render import RenderStyle, render_scene
from .scene import Action, InfeasibleActionError, Scene, replay
from .simulator import NoiseConfig


# Flags that replace one config field each, by argparse destination.
_FIELD_FLAGS = {"no_push": "push_enabled", "scenes": "scenes_per_count", "runs": "runs_per_scene",
                "counts": "object_counts"}


# The argparse ``type``s.  Each raises ``ArgumentTypeError`` with the text shortened by
# ``reprlib.repr``, so ``_Parser.error`` reports ``argument --flag: <message>`` in a short line.
def _number(kind: type):
    """``kind`` (int or float) as a ``type`` for a flag whose field a config class checks: argparse's
    ``invalid <kind> value`` message."""
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {_short(text)}") from None
    return parse


def _count(text: str) -> int:
    """An int by ``checks.COUNT``'s rule; a text over CPython's digit limit is beyond its range too."""
    with contextlib.suppress(ValueError):
        if real(value := int(text), int) >= 1:
            return value
    raise argparse.ArgumentTypeError(f"must {COUNT}, got {_short(text)}")


# The text ``int`` reads: a signed run of decimal digits, single underscores between them.
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _comma_ints(text: str) -> tuple[int, ...]:
    entries = text.split(",")
    with contextlib.suppress(ValueError):
        return tuple(int(c) for c in entries)
    # ``int`` refuses an integer text only over CPython's digit limit, far beyond ``checks.COUNTS``' range.
    rule = COUNTS if all(_INT_TEXT.fullmatch(c) for c in entries) else "be comma-separated integers"
    raise argparse.ArgumentTypeError(f"must {rule}, got {_short(text)}")


def _build(what: str, kind: type, *args, **fields):
    """``kind(*args, **fields)``, with a config class's broken rule reported as bad input."""
    try:
        return kind(*args, **fields)
    except ValueError as e:
        raise SceneFormatError(f"invalid {what}: {e}") from None


def _config(args: argparse.Namespace, kind: type) -> PlannerConfig | BenchConfig:
    """The ``PlannerConfig`` or ``BenchConfig`` (``kind``) of a command: the ``--config`` document's
    (``io.planner_config_from_dict``, ``io.bench_config_from_dict``), else ``kind()``, with each flag given
    replacing its field (a budget flag, both budgets).  So the seed is ``--seed``, else the document's, else 0."""
    bench = kind is BenchConfig
    read = io.bench_config_from_dict if bench else io.planner_config_from_dict
    cfg = io.load(args.config, read) if args.config else kind()
    flags = {"seed": "master_seed" if bench else "seed", **_FIELD_FLAGS}
    fields = {key: getattr(args, flag) for flag, key in flags.items() if getattr(args, flag, None) is not None}
    if args.expansions is not None or args.time_budget is not None:
        fields.update(max_expansions=args.expansions, time_budget_s=args.time_budget)
    return _build(f"{'bench' if bench else 'planner'} config", replace, cfg, **fields)


def _add_config_flags(p: argparse.ArgumentParser, kind: type) -> None:
    """``--config``, ``--seed``, the budget flags and, for a ``PlannerConfig``, ``--no-push``."""
    bench = kind is BenchConfig
    p.add_argument("--config", help=f"{'benchmark' if bench else 'planner'} configuration JSON")
    p.add_argument("--seed", type=_number(int), help=f"{'master' if bench else 'random'} seed (overrides the config's)")
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--expansions", type=_number(int), metavar="N",
                        help="deterministic search budget in tree expansions")
    budget.add_argument("--time-budget", type=_number(float), metavar="SECONDS",
                        help=f"wall-clock search budget (plan and execute default to {DEFAULT_TIME_BUDGET_S})")
    if not bench:
        p.add_argument("--no-push", action="store_const", const=False,
                       help="disable the push primitive (pick-and-place only)")


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_plan(args: argparse.Namespace) -> int:
    scene = io.load(args.scene, io.scene_from_dict)
    cfg = _config(args, PlannerConfig)
    result = plan(scene, cfg)
    if result is None:
        print("no plan found within the search budget", file=sys.stderr)
        return 2
    _write_or_print(json.dumps(io.plan_to_dict(result), indent=2) + "\n", args.out)
    if args.out:
        print(f"plan: {len(result.actions)} actions, total cost {result.total:.4f} -> {args.out}")
    return 0


def _write_frames(out_dir: str, style: RenderStyle, states: list[Scene], actions: Sequence[Action]) -> None:
    """Write frame_000.svg, frame_001.svg, ...: frame ``i`` draws ``states[i]``,
    titled "step i", with a cross where ``actions[i - 1]`` set its object down."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    for i, state in enumerate(states):
        gripper = set_down_pose(states[i - 1], actions[i - 1]) if i else None
        (path / f"frame_{i:03d}.svg").write_text(render_scene(state, style, title=f"step {i}", gripper=gripper))


def _cmd_execute(args: argparse.Namespace) -> int:
    scene = io.load(args.scene, io.scene_from_dict)
    cfg = _config(args, PlannerConfig)
    noise = _build("noise", NoiseConfig, args.lateral_sigma, args.depth_sigma, enabled=args.noise)
    report = execute(scene, cfg, noise, step_budget=args.step_budget, rng=random.Random(cfg.seed))
    _write_or_print(json.dumps(io.report_to_dict(report), indent=2) + "\n", args.out)
    if args.frames:
        _write_frames(args.frames, RenderStyle(), [scene] + [s.post_scene for s in report.steps],
                      [s.executed_action for s in report.steps])
    status = report.terminated_by.value
    print(f"execution: {report.total_actions} actions, {report.plan_rounds} plan rounds, "
          f"{report.success_rate:.0%} at goal, terminated by {status}", file=sys.stderr)
    return 0 if report.terminated_by is TerminationReason.ALL_AT_GOAL else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _config(args, BenchConfig)
    out = Path(args.out)
    # Fail before the sweep, not after it, when ``out`` or its nearest existing
    # ancestor is a file; the directory is still made only once the records
    # are aggregated.
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(existing))
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
    style = _build("render style", RenderStyle, show_goals=not args.no_goals, scale=args.scale)
    if args.frames and not args.plan:
        raise SceneFormatError("--frames requires --plan (per-step frames follow a plan)")
    if not args.plan:
        _write_or_print(render_scene(scene, style, title=args.title), args.out)
        return 0
    result = io.load(args.plan, io.plan_from_dict)
    try:
        states = replay(scene, result.actions)
    except InfeasibleActionError as e:
        raise SceneFormatError(f"{args.plan}: plan does not replay on this scene: {e}") from e
    if args.frames:
        _write_frames(args.frames, style, states, result.actions)
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
    _add_config_flags(p, PlannerConfig)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("execute", help="run the closed-loop executor on a scene")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--out", help="write the execution report here instead of stdout")
    p.add_argument("--noise", action="store_true", help="enable placement noise")
    noise = NoiseConfig()
    p.add_argument("--lateral-sigma", type=_number(float), default=noise.lateral_sigma,
                   help="noise drift bound across the motion (m, default %(default)s)")
    p.add_argument("--depth-sigma", type=_number(float), default=noise.depth_sigma,
                   help="noise drift bound along the motion (m, default %(default)s)")
    p.add_argument("--step-budget", type=_count, default=DEFAULT_STEP_BUDGET,
                   help="maximum executed actions (default %(default)s)")
    p.add_argument("--frames", metavar="DIR", help="write one SVG per step into DIR")
    _add_config_flags(p, PlannerConfig)
    p.set_defaults(func=_cmd_execute)

    p = sub.add_parser("bench", help="compare planner variants over random scenes")
    p.add_argument("--out", default="bench_out", help="output directory (default bench_out)")
    _add_config_flags(p, BenchConfig)
    p.add_argument("--scenes", type=_number(int), help="scenes per object count")
    p.add_argument("--runs", type=_number(int), help="runs per scene")
    p.add_argument("--counts", type=_comma_ints, help="comma-separated object counts, e.g. 4,6,8")
    p.add_argument("--jobs", type=_count, default=1, help="worker processes, at most one per CPU and one per plan")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("render", help="render a scene (or a plan's steps) to SVG")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--plan", help="plan JSON to replay over the scene")
    p.add_argument("--frames", metavar="DIR", help="with --plan, write one SVG per step into DIR")
    p.add_argument("--out", help="write the SVG here instead of stdout")
    p.add_argument("--scale", type=_number(float), default=RenderStyle().scale,
                   help="pixels per meter (default %(default)s)")
    p.add_argument("--no-goals", action="store_true", help="hide dashed goal outlines")
    p.add_argument("--title", default="", help="title text drawn above the scene")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
