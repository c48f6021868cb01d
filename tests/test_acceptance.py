"""Acceptance suite: eight end-to-end checks over the whole package.

Each test prints one summary line (criterion k: PASS/FAIL with the measured
numbers); run with ``pytest tests/test_acceptance.py -v -s`` to see them all.
Criteria 4, 5 and 7 run full benchmark sweeps, each in under a second.
"""

import multiprocessing
import random
import time

import pytest

from pushplan import (
    HalfDims,
    NoiseConfig,
    PlannerConfig,
    Side,
    apply_action,
    blockers_of,
    execute,
    plan,
    rect_from_center,
    simulate,
)
from pushplan.bench import BenchConfig, generate_scene, records_to_csv, run_benchmark, aggregate
from pushplan.geometry import Rect, Vec2, overlaps
from pushplan.primitives import PushStats, select_push
from pushplan.seeding import derive_seed
from pushplan.simulator import SimEventKind

from conftest import make_swap_scene, take_proposals
from oracles import check_push, side_fails, sweep, translate

BENCH_MASTER_SEED = 0
EXEC_MASTER_SEED = 2026


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def mined_proposals():
    return take_proposals("acceptance", 1000)


@pytest.fixture(scope="module")
def bench_sweep():
    cfg = BenchConfig(master_seed=BENCH_MASTER_SEED)  # 100 scenes x 3 runs, N in {4, 6, 8}
    t0 = time.perf_counter()
    records = run_benchmark(cfg, jobs=multiprocessing.cpu_count())
    elapsed = time.perf_counter() - t0
    return cfg, records, elapsed


def test_criterion_1_swap_separation():
    scene = make_swap_scene()
    t0 = time.perf_counter()
    pp_two = 0
    base_three = 0
    for seed in range(100):
        pp = plan(scene, PlannerConfig(max_expansions=5000, seed=seed))
        if pp is not None and len(pp.actions) == 2:
            pp_two += 1
        base = plan(scene, PlannerConfig(max_expansions=5000, push_enabled=False, seed=seed))
        if base is not None and len(base.actions) >= 3:
            base_three += 1
    elapsed = time.perf_counter() - t0
    ok = pp_two >= 95 and base_three >= 95 and elapsed < 10.0
    assert _verdict(
        1,
        ok,
        f"2-action push plans {pp_two}/100, >=3-action baseline plans "
        f"{base_three}/100, {elapsed:.1f} s",
    )


def test_criterion_2_model_simulator_agreement(mined_proposals):
    t0 = time.perf_counter()
    worst = 0.0
    secondary = 0
    for scene, prop in mined_proposals:
        action = prop.as_action()
        expected = apply_action(scene, action)
        got, events = simulate(scene, action)
        for p, q in zip(expected.current, got.current):
            worst = max(worst, abs(p.x - q.x), abs(p.y - q.y))
        secondary += sum(1 for e in events if e.kind is SimEventKind.SECONDARY_CONTACT)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and secondary == 0 and elapsed < 30.0
    assert _verdict(
        2,
        ok,
        f"1000 proposals, max deviation {worst:.2e} m, "
        f"{secondary} secondary contacts, {elapsed:.1f} s",
    )


def test_criterion_3_soundness_vs_oracle():
    t0 = time.perf_counter()
    accepted = rejected = 0
    bad_accept = bad_reject = 0
    for k in range(500):
        n = 3 + k % 6
        scene = generate_scene(n, derive_seed("acceptance-oracle", k))
        for target in scene.unsatisfied:
            if not blockers_of(scene, target):
                continue
            prop = select_push(scene, target)
            if prop is not None:
                accepted += 1
                violations = check_push(
                    scene, target, prop.side,
                    pre_push=prop.pre_push, expected_moves=prop.blocker_moves,
                )
                if violations:
                    bad_accept += 1
            else:
                rejected += 1
                if not all(side_fails(scene, target, s) for s in Side):
                    bad_reject += 1
    elapsed = time.perf_counter() - t0
    ok = bad_accept == 0 and bad_reject == 0 and elapsed < 120.0
    assert _verdict(
        3,
        ok,
        f"500 scenes: {accepted} accepted pushes ({bad_accept} oracle "
        f"violations), {rejected} rejected targets ({bad_reject} with an "
        f"admissible side), {elapsed:.1f} s",
    )


def test_criterion_4_cost_reduction_trend(bench_sweep):
    _, records, elapsed = bench_sweep
    summary = aggregate(records)
    reductions = {r["n"]: r["percent_reduction"] for r in summary["reductions"]}
    all_nonneg = all(v >= 0.0 for v in reductions.values())
    trend = reductions[8] >= reductions[4] - 0.5
    ok = all_nonneg and trend and elapsed < 900.0
    detail = ", ".join(f"N={n}: {reductions[n]:+.2f}%" for n in sorted(reductions))
    assert _verdict(4, ok, f"{detail}, sweep {elapsed:.0f} s")


def test_criterion_5_executor_comparison():
    noise = NoiseConfig(enabled=True)
    t0 = time.perf_counter()
    stats = {}
    for push_enabled, name in ((False, "baseline"), (True, "push")):
        actions = []
        success = []
        for idx in range(100):
            scene = generate_scene(8, derive_seed(EXEC_MASTER_SEED, "scene", 8, idx))
            for run in range(3):
                cfg = PlannerConfig(
                    max_expansions=1500,
                    push_enabled=push_enabled,
                    seed=derive_seed(EXEC_MASTER_SEED, name, idx, run),
                )
                rng = random.Random(derive_seed(EXEC_MASTER_SEED, name, "trial", idx, run))
                report = execute(scene, cfg, noise=noise, step_budget=15, rng=rng)
                actions.append(report.total_actions)
                success.append(report.success_rate)
        stats[name] = (sum(actions) / len(actions), sum(success) / len(success))
    elapsed = time.perf_counter() - t0
    base_actions, base_success = stats["baseline"]
    push_actions, push_success = stats["push"]
    ok = (
        push_actions < base_actions
        and base_success >= 0.95
        and push_success >= 0.95
        and elapsed < 900.0
    )
    assert _verdict(
        5,
        ok,
        f"mean actions {base_actions:.2f} baseline vs {push_actions:.2f} push, "
        f"success {base_success:.4f}/{push_success:.4f}, {elapsed:.0f} s",
    )


def test_criterion_6_admissibility_budget():
    calls = 0
    worst_sides = 0
    budget_ok = True
    for n in (4, 6, 8):
        for idx in range(100):
            scene = generate_scene(n, derive_seed(BENCH_MASTER_SEED, "scene", n, idx))
            for target in scene.unsatisfied:
                blockers = blockers_of(scene, target)
                if not blockers:
                    continue
                counters = PushStats()
                select_push(scene, target, stats=counters)
                calls += 1
                worst_sides = max(worst_sides, counters.sides_evaluated)
                if (
                    counters.sides_evaluated > 4
                    or counters.pair_checks > counters.sides_evaluated * len(blockers)
                    or counters.p0_checks > counters.sides_evaluated
                ):
                    budget_ok = False
    ok = budget_ok and calls > 0
    assert _verdict(
        6,
        ok,
        f"{calls} select_push calls over the benchmark scenes, "
        f"max {worst_sides} sides, per-side pair checks <= |B| throughout",
    )


def test_criterion_7_benchmark_determinism(bench_sweep, tmp_path):
    cfg, first, _ = bench_sweep
    second = run_benchmark(cfg, jobs=multiprocessing.cpu_count())
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    records_to_csv(first, a)
    records_to_csv(second, b)
    identical = a.read_bytes() == b.read_bytes()
    ok = identical and first == second
    assert _verdict(
        7,
        ok,
        f"two full sweeps, records.csv byte-identical: {identical} "
        f"({len(first)} records)",
    )


def test_criterion_8_invariant_bundle(mined_proposals):
    rng = random.Random(88)
    t0 = time.perf_counter()

    # overlap predicate vs intersection-area arithmetic, 1000 rect pairs
    overlap_cases = 0
    for _ in range(1000):
        def rect():
            x0, y0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            return Rect(Vec2(x0, y0), Vec2(x0 + rng.uniform(0, 2), y0 + rng.uniform(0, 2)))

        a, b = rect(), rect()
        w = min(a.hi.x, b.hi.x) - max(a.lo.x, b.lo.x)
        h = min(a.hi.y, b.hi.y) - max(a.lo.y, b.lo.y)
        assert overlaps(a.bounds, b.bounds) == (w > 0 and h > 0)
        overlap_cases += 1

    # every intermediate translate of a swept rect stays inside the sweep
    sweep_cases = 0
    for _ in range(1000):
        r = rect_from_center(
            Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            HalfDims(rng.uniform(0.01, 0.2), rng.uniform(0.01, 0.2)),
        )
        side = rng.choice(list(Side))
        travel = rng.uniform(0, 1.5)
        band = sweep(r, side, travel)
        t = rng.uniform(0, travel)
        moved = translate(r, side.unit * t)
        assert moved.lo.x >= band.lo.x - 1e-12 and moved.hi.x <= band.hi.x + 1e-12
        assert moved.lo.y >= band.lo.y - 1e-12 and moved.hi.y <= band.hi.y + 1e-12
        sweep_cases += 1

    # push transition postconditions on the mined corpus (1000 cases):
    # target lands on its goal, declared blockers move by the declared
    # distance, everything else stays put, and the result is a valid scene
    transition_cases = 0
    for scene, prop in mined_proposals:
        out = apply_action(scene, prop.as_action())
        assert out.current[prop.target] == scene.goal[prop.target]
        moved = dict(prop.blocker_moves)
        for i in range(scene.n):
            if i == prop.target:
                continue
            before, after = scene.current[i], out.current[i]
            if i in moved:
                shift = (after - before).norm()
                assert abs(shift - moved[i]) <= 1e-9
            else:
                assert before == after
        transition_cases += 1

    elapsed = time.perf_counter() - t0
    total = overlap_cases + sweep_cases + transition_cases
    ok = overlap_cases >= 1000 and sweep_cases >= 1000 and transition_cases >= 1000
    assert _verdict(
        8,
        ok,
        f"{total} randomized invariant cases across geometry, sweep "
        f"containment, and push transitions, {elapsed:.1f} s "
        f"(module property suites add the rest)",
    )
