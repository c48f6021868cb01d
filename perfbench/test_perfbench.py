"""Tests of the benchmark itself, on tiny configurations of its workloads.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import run  # noqa: E402
import workloads as wk  # noqa: E402

TINY = {
    "sweep-default": dict(object_counts=(4, 6), scenes=3, runs=2),
    "sweep-dense": dict(scenes=1, runs=1),
    "exec-noise": dict(scenes=2, runs=1),
}


def tiny(name: str) -> wk.Workload:
    return dataclasses.replace(wk.WORKLOADS[name], **TINY[name])


def test_call_sites_are_wrapped_and_restored():
    lib = wk.import_pushplan()
    call_sites = [
        (lib.planner, "select_push"), (lib.planner, "apply_action"), (lib.planner, "sample_buffer_pose"),
        (lib.planner, "action_cost"), (lib.metrics, "validate_action"), (lib.simulator, "validate_action"),
        (lib.executor, "plan"), (lib.executor, "simulate"), (lib.executor, "apply_action"),
        (lib.scene, "overlaps"), (lib.scene, "rect_from_center"), (lib.primitives, "overlaps"),
        (lib.primitives, "rect_from_center"), (lib.simulator, "overlaps"),
        (lib.simulator, "rect_from_center"), (lib.bench, "overlaps"), (lib.bench, "rect_from_center"),
    ]
    with layertrace.Tracer():
        for module, attr in call_sites:
            assert getattr(getattr(module, attr), layertrace.WRAPPED_MARK, False), f"{module.__name__}.{attr}"
    assert layertrace.wrapped_bindings() == []


def test_traced_sweep_counts_two_validations_per_expansion(tmp_path):
    _, _, result = run.run_workload(tiny("sweep-default"), 3, 0.0, True, tmp_path)
    m = result["metrics"]
    assert result["correct"]
    assert m["scene.validate_action.per_expansion"]["value"] == 2.0
    assert m["planner.tree_search_step.calls"]["value"] > m["planner.plan.calls"]["value"] > 0
    assert layertrace.wrapped_bindings() == []


def test_sweep_records_match_run_benchmark(tmp_path):
    seed = 5
    wl = tiny("sweep-default")
    lib = wk.import_pushplan()
    res = wk.run_pass(lib, wl, seed, wk.make_inputs(lib, wl, seed), tmp_path, HostSpeed())
    cfg = lib.bench.BenchConfig(master_seed=seed, object_counts=wl.object_counts,
                                scenes_per_count=wl.scenes, runs_per_scene=wl.runs)
    assert res.records == lib.bench.run_benchmark(cfg, jobs=1)


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_traced_and_untraced_records_are_identical(name, tmp_path):
    wl = tiny(name)
    lib = wk.import_pushplan()
    inputs = wk.make_inputs(lib, wl, 7)
    plain = wk.run_pass(lib, wl, 7, inputs, tmp_path, HostSpeed())
    tracer = layertrace.Tracer()
    with tracer:
        traced = wk.run_pass(lib, wl, 7, inputs, tmp_path, HostSpeed(), tracer)
    assert traced.records == plain.records
    assert wk.fingerprint(traced, wl) == wk.fingerprint(plain, wl)
    assert tracer.calls["planner.plan"] > 0


def test_report_check_catches_broken_reports(tmp_path):
    wl = tiny("exec-noise")
    lib = wk.import_pushplan()
    inputs = wk.make_inputs(lib, wl, 4)
    res = wk.run_pass(lib, wl, 4, inputs, tmp_path, HostSpeed())
    scene, report = inputs[0][2], res.outcomes[0]
    assert report.steps and wk.check_report(lib, scene, report) is None
    reasons = lib.executor.TerminationReason
    broken = [
        dataclasses.replace(report, robot_time_proxy=report.robot_time_proxy + 1e-6),
        dataclasses.replace(report, total_actions=report.total_actions + 1),
        dataclasses.replace(report, steps=report.steps[1:]),
        dataclasses.replace(report, final_scene=scene),
        dataclasses.replace(report, terminated_by=reasons.STEP_BUDGET),
    ]
    for bad in broken:
        assert wk.check_report(lib, scene, bad) is not None


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] not in ("ms", "%")}


def _main(name: str, seed: int, trace: int, capsys) -> list[dict]:
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0 and lines[-1]["correct"]
    return lines


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_smoke_two_seeds(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(wk.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "OUT", tmp_path)
    bench_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    op = "trial" if wk.WORKLOADS[name].executes else "plan"
    for seed in (1, 2):
        meta, report, result = _main(name, seed, 0, capsys)
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench_doc["end_to_end"]}
        for key in (f"{op}s_per_s", f"{op}_ms_p50", f"{op}_ms_p95", "fail_frac", "cost_reduction_pct",
                    "setup_s", "peak_rss_mb", "actions_mean_push", "success_rate", "robot_time_s_mean"):
            assert report["metrics"][key]["unit"], key
        for key in ("host", "python", "nproc", "git_commit", "seed", "repeats", "fingerprint"):
            assert key in meta

        traced = _main(name, seed, 1, capsys)[-1]
        again = _main(name, seed, 1, capsys)[-1]
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench_doc["per_layer"]}
        assert _counts(traced["metrics"]) == _counts(again["metrics"])
    assert layertrace.wrapped_bindings() == []


def test_metric_lists_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(layertrace.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(wk.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in wk.WORKLOADS.values()]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exec-noise", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
