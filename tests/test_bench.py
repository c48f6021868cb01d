"""Benchmark harness tests: scene generation, grid cardinality, determinism
(serial and parallel), the worker-pool bound, aggregation arithmetic, file
outputs, and golden records."""

import json
import math
import multiprocessing
import os
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from pushplan import (
    BenchConfig,
    BenchRecord,
    PlannerConfig,
    Rect,
    Vec2,
    aggregate,
    generate_scene,
    run_benchmark,
)
import pushplan.bench as bench
from pushplan.bench import (
    DEFAULT_VARIANTS,
    DEFAULT_WORKSPACE,
    MAX_AREA_FRACTION,
    BenchError,
    records_to_csv,
    run_single,
    summary_to_csv,
    write_benchmark_outputs,
)
from pushplan.cli import main
from pushplan.io import bench_config_from_dict
from pushplan.scene import Scene

from conftest import ZeroRandom, make_swap_scene
from oracles import contains, footprint, object_generate_scene, overlaps

HERE = Path(__file__).parent

SMALL = BenchConfig(
    master_seed=7,
    object_counts=(3,),
    scenes_per_count=2,
    runs_per_scene=2,
    max_expansions=600,
)


class TestGenerateScene:
    def test_same_seed_same_scene(self):
        a = generate_scene(5, 1234)
        b = generate_scene(5, 1234)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_scene(5, 1) != generate_scene(5, 2)

    def test_scenes_are_valid_and_in_range(self):
        for seed in range(30):
            n = 3 + seed % 6
            scene = generate_scene(n, seed)
            assert scene.n == n
            for i in range(n):
                half = scene.objects[i].half
                assert 0.03 <= half.a <= 0.07
                assert 0.03 <= half.b <= 0.07
                assert contains(scene.workspace, footprint(scene, i))
                for j in range(i + 1, n):
                    assert not overlaps(footprint(scene, i), footprint(scene, j))

    def test_single_object(self):
        scene = generate_scene(1, 99)
        assert scene.n == 1

    def test_custom_workspace_and_sizes(self):
        ws = Rect(Vec2(0, 0), Vec2(2, 1))
        scene = generate_scene(4, 5, workspace=ws, size_range=(0.1, 0.2))
        assert scene.workspace == ws
        for spec in scene.objects:
            assert 0.1 <= spec.half.a <= 0.2

    def test_overcrowded_request_raises(self):
        # 60 objects of at least 0.12 m side in a unit square exceed the
        # packable area fraction
        with pytest.raises(BenchError, match="area"):
            generate_scene(60, 0, size_range=(0.12, 0.14))
        # sanity: the bound is the constant, not hard-coded magic
        assert math.isclose(MAX_AREA_FRACTION, 0.4)

    def test_inverted_size_range_is_rejected(self):
        with pytest.raises(ValueError, match=r"^invalid size range \(0.07, 0.03\)$"):
            generate_scene(4, 0, size_range=(0.07, 0.03))

    def test_object_wider_than_the_table_is_named(self):
        # Before any pose is drawn: the centers that keep a 0.06 m-plus
        # footprint on a 0.05 m table form an empty range.
        narrow = Rect(Vec2(0, 0), Vec2(1.0, 0.05))
        with pytest.raises(BenchError, match=r"^object 0 with half extents \(\S+, \S+\) does not fit the workspace$"):
            generate_scene(1, 0, workspace=narrow)


DEFAULT_SIZES = (0.03, 0.07)
LARGE_SIZES = (0.05, 0.079)
ORACLE_SEEDS = 40


def generation_outcome(generate, *args, **kwargs):
    """The scene ``generate`` returns, or the text of the BenchError it raises."""
    try:
        return generate(*args, **kwargs)
    except BenchError as e:
        return f"BenchError: {e}"


def assert_same_generation(*args, **kwargs):
    """``generate_scene`` and the object loop agree on these arguments; returns the outcome."""
    got = generation_outcome(generate_scene, *args, **kwargs)
    assert got == generation_outcome(object_generate_scene, *args, **kwargs), (args, kwargs)
    return got


class GridRandom(random.Random):
    """``random()`` is a multiple of 1/28.  Objects of half extent 1/16 m
    draw their centers over ranges 7/8 m wide, so every center and edge is a
    multiple of 1/32 m, exactly, and footprints touch exactly."""

    def random(self):
        return int(super().random() * 28) / 28


class TestGenerateSceneMatchesObjectLoop:
    """The float scan draws, accepts and rejects as the object loop it replaced."""

    @pytest.mark.parametrize("n", [1, 4, 8, 14, 20])
    @pytest.mark.parametrize("sizes", [DEFAULT_SIZES, LARGE_SIZES], ids=["default", "large"])
    def test_same_scene(self, n, sizes):
        # N = 20 of the large sizes exceeds the area rule: both raise its error.
        rejected = n * (2.0 * sizes[1]) ** 2 > MAX_AREA_FRACTION
        for seed in range(ORACLE_SEEDS):
            got = assert_same_generation(n, seed, size_range=sizes)
            assert isinstance(got, str if rejected else Scene), (seed, got)

    @pytest.mark.parametrize("n", [1, 4])
    def test_same_scene_on_a_wide_table(self, n):
        wide = Rect(Vec2(0, 0), Vec2(2, 1))
        for seed in range(ORACLE_SEEDS):
            got = assert_same_generation(n, seed, workspace=wide, size_range=(0.1, 0.2))
            assert isinstance(got, Scene), (seed, got)

    @pytest.mark.parametrize("n", [4, 6])
    def test_same_scene_when_draws_touch_exactly(self, monkeypatch, n):
        # Every footprint edge is a multiple of 1/32 m, so candidates often
        # touch a placed object exactly: touching is not overlap.
        monkeypatch.setattr(bench.random, "Random", GridRandom)
        touching = 0
        for seed in range(ORACLE_SEEDS):
            got = assert_same_generation(n, seed, size_range=(0.0625, 0.0625))
            assert isinstance(got, Scene), (seed, got)
            for poses in (got.current, got.goal):
                rects = [(p.x - o.half.a, p.y - o.half.b, p.x + o.half.a, p.y + o.half.b)
                         for p, o in zip(poses, got.objects)]
                touching += sum(1 for r in rects for q in rects if r[2] == q[0] and r[1] < q[3] and q[1] < r[3])
        assert touching > 0

    def test_exhaustion_raises_the_same_error(self, monkeypatch):
        # The loops read the module constant when they run.
        monkeypatch.setattr(bench, "PLACEMENT_ATTEMPTS", 3)
        pattern = r"BenchError: could not place object (\d+) in the (start|goal) arrangement after 3 attempts \(seed (\d+)\)"
        labels = set()
        for seed in range(ORACLE_SEEDS):
            got = assert_same_generation(14, seed, size_range=LARGE_SIZES)
            if isinstance(got, str):
                m = re.fullmatch(pattern, got)
                assert m and int(m[3]) == seed, got
                labels.add(m[2])
        assert labels == {"start", "goal"}


class TestGenerateSceneOnOffsetWorkspaces:
    def test_lowest_draw_stays_on_the_table(self, monkeypatch):
        # On [lo, lo + 1]², the lowest center ``(lo + a) + width * 0.0`` can
        # give ``x - a`` one ulp below ``lo``.  Such a draw must be rejected
        # like an overlapping one, never handed to ``Scene`` to refuse.
        cases = random.Random(2024)
        monkeypatch.setattr(bench.random, "Random", ZeroRandom)
        monkeypatch.setattr(bench, "PLACEMENT_ATTEMPTS", 3)
        outcomes = {Scene: 0, BenchError: 0}
        for k in range(500):
            lo, a = cases.uniform(0.05, 0.5), cases.uniform(0.01, 0.05)
            ws = Rect(Vec2(lo, lo), Vec2(lo + 1.0, lo + 1.0))
            try:
                scene = generate_scene(1, k, ws, (a, a + 0.01))
            except BenchError as e:
                assert "could not place object 0 in the start arrangement" in str(e)
                outcomes[BenchError] += 1
                continue
            outcomes[Scene] += 1
            assert contains(ws, footprint(scene, 0))
        assert all(outcomes.values()), outcomes


class TestRunSingle:
    def test_swap_variants_disagree_on_action_count(self):
        scene = make_swap_scene()
        push = run_single(scene, ("push", 2, 0, 1), PlannerConfig(max_expansions=3000, seed=0))
        base = run_single(scene, ("baseline", 2, 0, 1),
                          PlannerConfig(max_expansions=3000, push_enabled=False, seed=0))
        assert (push.variant, push.n, push.scene, push.run) == ("push", 2, 0, 1)
        assert (base.variant, base.n, base.scene, base.run) == ("baseline", 2, 0, 1)
        assert push.plan_found and base.plan_found
        assert push.actions == 2
        assert base.actions >= 3
        assert push.cost < base.cost

    def test_expansion_budget_zeroes_the_clock(self):
        scene = make_swap_scene()
        record = run_single(scene, ("push", 2, 0, 0), PlannerConfig(max_expansions=500, seed=0))
        assert record.planning_time_ms == 0.0

    def test_an_unsolved_plan_is_recorded_blank(self, tmp_path):
        # One expansion cannot solve the swap: the record has no actions and no cost, and
        # records.csv leaves both cells blank.
        record = run_single(make_swap_scene(), ("push", 2, 0, 0), PlannerConfig(max_expansions=1, seed=0))
        assert record == BenchRecord("push", 2, 0, 0, False, None, None, 0.0)
        records_to_csv([record], tmp_path / "records.csv")
        assert (tmp_path / "records.csv").read_text().splitlines()[1] == "push,2,0,0,0,,,0.0"

    def test_wall_clock_budget_reports_time(self):
        scene = make_swap_scene()
        record = run_single(scene, ("push", 2, 0, 0), PlannerConfig(time_budget_s=0.5, seed=0))
        assert record.plan_found
        assert record.planning_time_ms > 0.0


# Four runs: one scene, two variants, two runs each.
FOUR_TASKS = BenchConfig(master_seed=3, object_counts=(3,), scenes_per_count=1, runs_per_scene=2,
                         max_expansions=300)


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The sizes of the pools ``run_benchmark`` starts.  Each pool maps
    in-process, so no worker is started."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, iterable, chunksize=1):
            return [fn(*task) for task in iterable]

    # ``run_benchmark`` imports multiprocessing when it starts a pool.
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return sizes


class TestRunBenchmark:
    def test_grid_cardinality_and_order(self):
        records = run_benchmark(SMALL)
        # variants x counts x scenes x runs
        assert len(records) == 2 * 1 * 2 * 2
        keys = [(r.variant, r.n, r.scene, r.run) for r in records]
        assert keys == sorted(keys)
        assert {r.variant for r in records} == {"baseline", "push"}

    def test_serial_reruns_are_identical(self):
        assert run_benchmark(SMALL) == run_benchmark(SMALL)

    def test_parallel_equals_serial(self):
        serial = run_benchmark(SMALL)
        parallel = run_benchmark(SMALL, jobs=2)
        assert parallel == serial

    def test_pool_is_capped_at_the_task_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        records = run_benchmark(FOUR_TASKS, jobs=10_000)
        assert len(records) == 4
        assert pool_sizes == [4]
        assert records == run_benchmark(FOUR_TASKS)

    @pytest.mark.parametrize("cpus, sizes", [(3, [3]), (None, [])])
    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, pool_sizes, cpus, sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        records = run_benchmark(FOUR_TASKS, jobs=10_000)
        assert pool_sizes == sizes
        assert records == run_benchmark(FOUR_TASKS, jobs=1)

    def test_both_budgets_rejected_before_any_scene_is_generated(self, monkeypatch):
        generated = []
        monkeypatch.setattr(bench, "generate_scene", lambda *args: generated.append(args))
        with pytest.raises(ValueError, match="exactly one"):
            run_benchmark(BenchConfig(object_counts=(3,), scenes_per_count=1, runs_per_scene=1, time_budget_s=0.05))
        assert generated == []

    @pytest.mark.parametrize("budgets", [
        {"max_expansions": None}, {"time_budget_s": 0.05}, {"max_expansions": None, "time_budget_s": None},
    ])
    def test_a_sweep_sets_exactly_one_budget(self, budgets):
        # Neither budget would plan on the planner's wall-clock default.
        with pytest.raises(ValueError, match="exactly one of 'max_expansions' and 'time_budget_s'"):
            BenchConfig(**budgets)
        with pytest.raises(ValueError, match="exactly one"):
            replace(SMALL, **budgets)
        timed = BenchConfig(max_expansions=None, time_budget_s=0.05)
        assert (timed.max_expansions, timed.time_budget_s) == (None, 0.05)

    @pytest.mark.parametrize("fields, name", [
        ({"object_counts": ()}, "object_counts"),
        ({"object_counts": (0,)}, "object_counts"),
        ({"object_counts": (3, -1)}, "object_counts"),
        ({"scenes_per_count": 0}, "scenes_per_count"),
        ({"scenes_per_count": -1}, "scenes_per_count"),
        ({"runs_per_scene": 0}, "runs_per_scene"),
        ({"max_expansions": 0}, "max_expansions"),
        ({"max_expansions": None, "time_budget_s": -1.0}, "time_budget_s"),
        # a count, scene or run number is an int, never a bool, a float or a string
        ({"scenes_per_count": True}, "scenes_per_count"),
        ({"scenes_per_count": "3"}, "scenes_per_count"),
        ({"runs_per_scene": 2.0}, "runs_per_scene"),
        ({"object_counts": (4.5,)}, "object_counts"),
    ])
    def test_a_sweep_with_nothing_to_plan_is_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            BenchConfig(**fields)
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            replace(SMALL, **fields)

    @pytest.mark.parametrize("fields, name", [
        ({"size_range": (0.1, 0.05)}, "size_range"),
        ({"size_range": [0.03, 0.07]}, "size_range"),
        ({"size_range": (0.0, 0.05)}, "size_range"),
        ({"tolerance": math.nan}, "tolerance"),
        ({"tolerance": -1.0}, "tolerance"),
        ({"master_seed": None}, "master_seed"),
        ({"object_counts": [4, 6]}, "object_counts"),
        ({"master_seed": 10**5000}, "master_seed"),  # too long for ``repr``: the message named no field
        ({"master_seed": 2**1100}, "master_seed"),  # beyond the float range: said "must be an integer"
        # beyond the float range: the message said "of at least 1", with no upper bound
        ({"scenes_per_count": 10**400}, "scenes_per_count"),
        ({"runs_per_scene": 10**400}, "runs_per_scene"),
        ({"object_counts": (4, 10**400)}, "object_counts"),
    ])
    def test_a_field_outside_its_rule_is_rejected(self, fields, name):
        # Each built, then failed only inside ``run_benchmark`` or wrote a
        # summary.json config that ``bench --config`` rejects.
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            BenchConfig(**fields)
        with pytest.raises(ValueError, match=f"'{name}' must be") as e:
            replace(SMALL, **fields)
        if name == "master_seed":
            assert "must be an integer in [-1.7976931348623157e+308, 1.7976931348623157e+308]" in str(e.value)
        if name in ("scenes_per_count", "runs_per_scene"):
            assert "must be an integer of at least 1, at most 1.7976931348623157e+308" in str(e.value)
        if name == "object_counts":
            rule = "must be a non-empty tuple of integers of at least 1, at most 1.7976931348623157e+308"
            assert rule in str(e.value)

    def test_variants_and_workspace_are_not_fields(self):
        # A bench config document sets every field, so it is the whole sweep.
        for name in ("variants", "workspace"):
            with pytest.raises(TypeError):
                BenchConfig(**{name: getattr(BenchConfig, name)})
        assert (SMALL.variants, SMALL.workspace) == (DEFAULT_VARIANTS, DEFAULT_WORKSPACE)

    def test_default_variants(self):
        assert [v.name for v in DEFAULT_VARIANTS] == ["baseline", "push"]
        assert [v.push_enabled for v in DEFAULT_VARIANTS] == [False, True]


def _rec(variant, n, scene, run, found, actions, cost, ms=0.0):
    return BenchRecord(variant, n, scene, run, found, actions, cost, ms)


class TestAggregate:
    def test_per_scene_then_per_cell_means(self):
        # scene 0 runs average to 15, scene 1 to 30 -> cell mean 22.5
        records = [
            _rec("baseline", 4, 0, 0, True, 3, 10.0),
            _rec("baseline", 4, 0, 1, True, 5, 20.0),
            _rec("baseline", 4, 1, 0, True, 4, 30.0),
            _rec("push", 4, 0, 0, True, 2, 12.0),
            _rec("push", 4, 1, 0, True, 2, 18.0),
        ]
        summary = aggregate(records)
        base = next(c for c in summary["cells"] if c["variant"] == "baseline")
        assert base["mean_cost"] == pytest.approx(22.5)
        assert base["mean_actions"] == pytest.approx((4 + 4) / 2)
        assert base["plan_rate"] == 1.0
        assert base["scenes_with_plan"] == 2
        red = summary["reductions"][0]
        assert red["n"] == 4
        assert red["paired_scenes"] == 2
        assert red["baseline_mean_cost"] == pytest.approx(22.5)
        assert red["push_mean_cost"] == pytest.approx(15.0)
        assert red["percent_reduction"] == pytest.approx(100 * (22.5 - 15.0) / 22.5)

    def test_identical_scenes_have_zero_std(self):
        records = [
            _rec("baseline", 3, s, 0, True, 3, 7.5) for s in range(4)
        ] + [
            _rec("push", 3, s, 0, True, 2, 5.0) for s in range(4)
        ]
        summary = aggregate(records)
        for cell in summary["cells"]:
            assert cell["std_cost"] == 0.0
            assert cell["std_actions"] == 0.0

    def test_unsolved_runs_lower_plan_rate_and_pairing(self):
        records = [
            _rec("baseline", 3, 0, 0, True, 3, 9.0),
            _rec("baseline", 3, 1, 0, False, None, None),
            _rec("push", 3, 0, 0, True, 2, 6.0),
            _rec("push", 3, 1, 0, True, 2, 6.0),
        ]
        summary = aggregate(records)
        base = next(c for c in summary["cells"] if c["variant"] == "baseline")
        assert base["plan_rate"] == 0.5
        assert base["scenes_with_plan"] == 1
        # scene 1 unsolved by baseline, so only scene 0 pairs
        assert summary["reductions"][0]["paired_scenes"] == 1
        assert summary["reductions"][0]["percent_reduction"] == pytest.approx(
            100 * (9.0 - 6.0) / 9.0
        )

    def test_empty_cell_is_an_error(self):
        records = [_rec("baseline", 3, 0, 0, True, 3, 9.0)]
        with pytest.raises(BenchError, match="push"):
            aggregate(records)

    def test_all_failed_cell_is_an_error(self):
        records = [
            _rec("baseline", 3, 0, 0, False, None, None),
            _rec("push", 3, 0, 0, True, 2, 6.0),
        ]
        with pytest.raises(BenchError, match="baseline"):
            aggregate(records)

    def test_no_paired_scene_is_an_error(self):
        records = [
            _rec("baseline", 3, 0, 0, True, 3, 9.0),
            _rec("baseline", 3, 1, 0, False, None, None),
            _rec("push", 3, 0, 0, False, None, None),
            _rec("push", 3, 1, 0, True, 2, 6.0),
        ]
        with pytest.raises(BenchError, match="both variants"):
            aggregate(records)

    def test_nothing_to_reduce_is_an_error(self):
        records = [_rec(v, 3, s, 0, True, 0, 0.0) for v in ("baseline", "push") for s in range(2)]
        with pytest.raises(BenchError, match="N=3"):
            aggregate(records)


class TestOutputs:
    def test_no_records_fail_before_any_file_is_written(self, tmp_path):
        # A BenchConfig cannot describe an empty sweep, so the records are given directly.
        with pytest.raises(BenchError, match="no records"):
            aggregate([])
        with pytest.raises(BenchError, match="no records"):
            write_benchmark_outputs(SMALL, [], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_records_csv_format(self, tmp_path):
        records = [
            _rec("baseline", 3, 0, 0, True, 3, 2.5, 0.0),
            _rec("baseline", 3, 0, 1, False, None, None, 0.0),
        ]
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "variant,N,scene,run,plan_found,actions,cost,planning_time_ms"
        assert lines[1] == "baseline,3,0,0,1,3,2.5,0.0"
        assert lines[2] == "baseline,3,0,1,0,,,0.0"

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        cost = 2.867531900164342
        records = [_rec("push", 4, 0, 0, True, 2, cost, 0.0)]
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        cell = path.read_text().splitlines()[1].split(",")[6]
        assert float(cell) == cost

    def test_write_benchmark_outputs_files(self, tmp_path):
        records = run_benchmark(SMALL)
        summary = write_benchmark_outputs(SMALL, records, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"records.csv", "summary.json", "summary.csv", "charts.svg"}
        assert "cells" in summary and "reductions" in summary
        svg = (tmp_path / "charts.svg").read_text()
        assert svg.startswith("<svg")
        assert "mean plan cost" in svg
        assert "mean actions" in svg
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["config"]["master_seed"] == SMALL.master_seed
        assert doc["cells"] == summary["cells"]

    @pytest.mark.parametrize("budget", [{}, {"max_expansions": None, "time_budget_s": 0.01}])
    def test_summary_config_is_the_bench_config_document(self, tmp_path, budget):
        """``summary.json``'s ``config`` reads back as the config that wrote it."""
        cfg = replace(SMALL, size_range=(0.05, 0.079), tolerance=0.01, **budget)
        write_benchmark_outputs(cfg, run_benchmark(cfg), tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert bench_config_from_dict(doc["config"]) == cfg

    def test_reductions_recompute_from_records(self):
        records = run_benchmark(SMALL)
        summary = aggregate(records)
        # recompute the paired means by hand from raw records
        for red in summary["reductions"]:
            n = red["n"]
            by_scene = {}
            for r in records:
                if r.n == n and r.plan_found:
                    by_scene.setdefault((r.variant, r.scene), []).append(r.cost)
            scenes = sorted(
                s
                for v, s in by_scene
                if v == "baseline" and ("push", s) in by_scene
            )
            base = sum(
                sum(by_scene[("baseline", s)]) / len(by_scene[("baseline", s)])
                for s in scenes
            ) / len(scenes)
            push = sum(
                sum(by_scene[("push", s)]) / len(by_scene[("push", s)])
                for s in scenes
            ) / len(scenes)
            assert red["baseline_mean_cost"] == pytest.approx(base, rel=1e-12)
            assert red["push_mean_cost"] == pytest.approx(push, rel=1e-12)
            assert red["percent_reduction"] == pytest.approx(
                100 * (base - push) / base, rel=1e-12
            )

    def test_summary_csv_has_cell_rows(self, tmp_path):
        records = run_benchmark(SMALL)
        summary = aggregate(records)
        path = tmp_path / "summary.csv"
        summary_to_csv(summary, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("variant,N,")
        # one row per cell
        assert len([l for l in lines[1:] if l and not l.startswith("#")]) >= len(
            summary["cells"]
        )


class TestGoldenOutputs:
    def test_bench_reproduces_committed_records(self, tmp_path):
        """N = 12 with large objects exercises buffer sampling and pushes;
        both files must match, byte for byte, what this config produced
        before the search state was made incremental."""
        out = tmp_path / "out"
        assert main(["bench", "--config", str(HERE / "fixtures" / "golden_bench.json"),
                     "--out", str(out)]) == 0
        for name, golden in (("records.csv", "bench_records.csv"), ("summary.csv", "bench_summary.csv")):
            assert (out / name).read_bytes() == (HERE / "golden" / golden).read_bytes(), name
