"""pushplan benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pushplan is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The line before
it repeats the end-to-end metrics under the workload's own names (plans or
trials) together with ``fail_frac``, ``cost_reduction_pct`` and the raw,
unscaled timings; the line before that holds the run's metadata and
behaviour fingerprint.  Times are scaled to a nominal host speed, see
hostspeed.py.  Benchmark output files and the span trace go to
``.perfbench_out/<workload>/``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the arguments are wrong or the pushplan source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import layertrace as tracing  # noqa: E402
import workloads as wk  # noqa: E402
from hostspeed import NOMINAL_MS, HostSpeed  # noqa: E402

SETUP_REPEATS = 15

# (name, unit, better).  An operation is one planner.plan call on the sweeps
# and one executor.execute trial on the executor workload.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p95", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("actions_mean_push", "actions", "lower"),
    ("success_rate", "fraction", "higher"),
    ("robot_time_s_mean", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END}


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _drop_outputs(res: wk.PassResult) -> None:
    """Keep only a checked pass's timings, so that memory (and with it peak
    RSS) does not grow with the number of passes."""
    res.keys = res.outcomes = res.records = res.summary = None


def _measure(wl, seed, seconds, lib, inputs, out_dir, host, tracer):
    """Run the pass (with a tracer: a round of an untraced and a traced
    pass) once, and again while another round still fits in ``seconds`` of
    pass time.  Returns what the report needs."""
    untraced, traced, counts, times = [], [], None, []
    first = first_res = None
    problems: list[str] = []
    spent = 0.0
    while not untraced or spent * (len(untraced) + 1) / len(untraced) <= seconds:
        res = wk.run_pass(lib, wl, seed, inputs, out_dir, host)
        spent += res.wall_s
        if first is None:
            first_res, first = res, wk.check_first_pass(lib, wl, inputs, res)
            problems += [p for p in first.problems if p]
        else:
            problems += wk.check_repeat_pass(first_res, res)
        untraced.append(res)
        if res is not first_res:
            _drop_outputs(res)
        if tracer is None:
            continue
        tracer.reset()
        with tracer:
            res = wk.run_pass(lib, wl, seed, inputs, out_dir, host, tracer)
        spent += res.wall_s
        problems += [f"traced run: {p}" for p in wk.check_repeat_pass(first_res, res)]
        c = tracing.pass_counts(tracer)
        if counts is None:
            counts = c
        elif c != counts:
            problems.append("per-layer counts differ between traced passes")
        _drop_outputs(res)
        traced.append(res)
        times.append(tracing.pass_times(tracer, res.wall_s, res.scale))
    return first_res, first, problems, untraced, traced, counts, times


def run_workload(wl: wk.Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> tuple[dict, dict, dict]:
    """Set up, measure and check one workload; return (meta, report, result)."""
    host = HostSpeed()
    lib, inputs, setup_times = wk.setup(wl, seed, SETUP_REPEATS, host)
    src = Path(lib.bench.__file__).resolve().parent
    if src != ROOT / "src" / "pushplan":
        raise RuntimeError(f"pushplan was imported from {src}, not from this checkout")

    tracer = tracing.Tracer() if trace else None
    layers: dict[str, float] = {}
    problems: list[str] = []
    if tracer is not None:
        host.tick(force=True)
        with tracer:
            traced_inputs = wk.make_inputs(lib, wl, seed)
        if [s for _, _, s in traced_inputs] != [s for _, _, s in inputs]:
            problems.append("traced input generation differs from untraced")
        layers["bench.generate_scene.calls"] = float(tracer.calls["bench.generate_scene"])
        layers["bench.generate_scene.self_ms"] = tracer.self_s["bench.generate_scene"] * 1000.0 * host.scale()

    first_res, first, more, untraced, traced, counts, times = _measure(
        wl, seed, seconds, lib, inputs, out_dir, host, tracer)
    problems += more

    # Timings are scaled to the nominal host speed (see hostspeed.py); each
    # operation counts with the median of its repeats.
    op_ms = [statistics.median(sample) for sample in zip(*(p.op_scaled_ms for p in untraced))]
    between_ms = statistics.median(p.between_scaled_ms for p in untraced)
    raw_op_ms = [statistics.median(sample) for sample in zip(*(p.op_ms for p in untraced))]
    ops = len(op_ms)
    attempted = ops * len(untraced)
    failed = sum(1 for ok in first.succeeded if not ok) * len(untraced)
    p95 = wk.percentile(op_ms, 95)
    quality = wk.quality_metrics(first_res.keys, first, first_res.summary)
    e2e = {
        "ops_per_s": 1000.0 * ops / (sum(op_ms) + between_ms),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p95": p95,
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "actions_mean_push": quality["actions_mean_push"],
        "success_rate": quality["success_rate"],
        "robot_time_s_mean": quality["robot_time_s_mean"],
    }
    raw = {
        "ops_per_s": ops / statistics.median(p.wall_s for p in untraced),
        "op_ms_p50": statistics.median(raw_op_ms),
        "op_ms_p95": wk.percentile(raw_op_ms, 95),
        "setup_s": statistics.median(r for r, _ in setup_times),
    }
    op = "trial" if wl.executes else "plan"
    renamed = {"ops_per_s": f"{op}s_per_s", "op_ms_p50": f"{op}_ms_p50", "op_ms_p95": f"{op}_ms_p95"}
    named = {renamed.get(k, k): (v, UNITS[k]) for k, v in e2e.items()}
    named.update(fail_frac=(failed / attempted, "fraction"),
                 cost_reduction_pct=(quality["cost_reduction_pct"], "%"))
    report = {
        "perfbench": "report",
        "workload": wl.name,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "raw": {renamed.get(k, k): {"value": v, "unit": UNITS[k]} for k, v in raw.items()},
        "samples": ops,
        "samples_beyond_p95": sum(1 for ms in op_ms if ms > p95),
    }

    meta = {
        "perfbench": "meta",
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "repeats": {"setup": len(setup_times), "passes": len(untraced), "traced_passes": len(traced)},
        "ops_per_pass": ops,
        "host_reference_ms": {"nominal": NOMINAL_MS, "median": statistics.median(host.samples_ms),
                              "min": min(host.samples_ms), "max": max(host.samples_ms)},
        "fingerprint": wk.fingerprint(first_res, wl),
        "problems": problems[:20],
    }
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    else:
        meta["trace_overhead"] = (statistics.median(p.wall_s * p.scale for p in traced)
                                  / statistics.median(p.wall_s * p.scale for p in untraced))
        meta["layer_fingerprint"] = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]
        layers.update(counts)
        med = {k: statistics.median(t.get(k, 0.0) for t in times) for k in sorted(set().union(*times))}
        meta["self_ms"] = {k: v for k, v in med.items() if k.endswith(".self_ms")}
        for name, unit, _ in tracing.PER_LAYER:
            layers.setdefault(name, med.get(name, 0.0))
        tracer.write_spans(out_dir / "spans.csv")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return meta, report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wk.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pushplan" / "__init__.py").is_file():
        print(f"perfbench: no pushplan source at {ROOT / 'src' / 'pushplan'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = wk.WORKLOADS[args.workload]
    meta, report, result = run_workload(wl, args.seed, args.seconds, bool(args.trace),
                                        OUT / wl.name)
    print(json.dumps(meta))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
