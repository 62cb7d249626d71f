"""The eleven release-gate checks.

Each test prints one `ACCEPTANCE <nn> <name>: PASS/FAIL (<detail>)` line
per verdict before asserting, so a red run still reports where every
criterion stands.  The shared grid is n in {64, 256} x delta in {16, 64, 256} x three arrival
orders x ten seeds, m = n*delta/4, kappa = 32, parallel edges allowed.  The
leftover, space and depth fixtures hold runs in every arrival order, and
tests 03, 07, 08 and 10 judge each order on its own.  Tests 03, 04, 05, 07 and
08 judge through the gates in wsecolor.audit that `wsecolor check` uses.
"""

import random
import statistics
from collections import Counter
from dataclasses import dataclass

import pytest

from wsecolor import (
    EngineInvariantError,
    TraceRecorder,
    color_budget_check,
    gen_multigraph,
    leftover_stats,
    offset_independence_check,
    order_stream,
    resolve_config,
    run_baseline,
    run_stream,
    verify_proper,
)
from wsecolor.audit import audit_gate, depth_gate, space_gate, trace_audit

KAPPA = 32
GRID_NS = (64, 256)
GRID_DELTAS = (16, 64, 256)
GRID_ORDERS = ("arrival-random", "vertex-sorted", "degree-burst")
GRID_SEEDS = tuple(range(10))

DUAL_RUN_CONFIGS = (
    (64, 16, "vertex-sorted"),
    (64, 16, "degree-burst"),
    (64, 64, "vertex-sorted"),
    (256, 64, "vertex-sorted"),
    (256, 64, "degree-burst"),
)


def build_workload(n, delta, order, seed, m=None):
    m = n * delta // 4 if m is None else m
    edges = gen_multigraph(n, delta, m, seed=seed)
    edges = order_stream(edges, order, seed=seed + 10_007)
    config = resolve_config(n=n, delta=delta, kappa=KAPPA, seed=seed, m=m)
    return config, edges


@dataclass(frozen=True)
class GridRun:
    n: int
    delta: int
    order: str
    seed: int
    verify_status: str
    conserved: bool
    colors_used: int
    budget: int
    budget_violations: int
    audit: tuple[bool, str, int]  # trace_audit's verdict
    fallback_intervals: int
    depth: int
    error: str | None


def run_grid_cell(n, delta, order, seed):
    config, edges = build_workload(n, delta, order, seed)
    trace = TraceRecorder()
    try:
        emissions, metrics = run_stream(config, edges, trace=trace)
    except EngineInvariantError as err:
        return GridRun(
            n=n, delta=delta, order=order, seed=seed, verify_status="error",
            conserved=False, colors_used=0, budget=0, budget_violations=0,
            audit=(True, "not audited: the run raised", 0),
            fallback_intervals=0, depth=-1, error=str(err),
        )
    verify = verify_proper(emissions, edges)
    conserved = (
        Counter(tuple(e) for e in edges)
        == Counter(row for row, _ in emissions)
    )
    used, budget, budget_violations = color_budget_check(metrics)
    return GridRun(
        n=n, delta=delta, order=order, seed=seed,
        verify_status=verify.status, conserved=conserved,
        colors_used=used, budget=budget, budget_violations=len(budget_violations),
        audit=trace_audit(trace.records, config),
        fallback_intervals=metrics.fallback_intervals, depth=metrics.depth,
        error=None,
    )


@pytest.fixture(scope="module")
def grid():
    return [
        run_grid_cell(n, delta, order, seed)
        for n in GRID_NS
        for delta in GRID_DELTAS
        for order in GRID_ORDERS
        for seed in GRID_SEEDS
    ]


def metrics_of(n, delta, order, seed):
    _, metrics = run_stream(*build_workload(n, delta, order, seed))
    return metrics


@pytest.fixture(scope="module")
def leftover_runs():
    """Per arrival order, twenty seeded runs at n=256, delta=64, m=4096."""
    return {order: [metrics_of(256, 64, order, seed) for seed in range(20)] for order in GRID_ORDERS}


@pytest.fixture(scope="module")
def paired_runs():
    """Per arrival order, the same recipe at n=128 and n=256, delta=64, ten
    seeds."""
    return {
        order: [(metrics_of(128, 64, order, seed), metrics_of(256, 64, order, seed)) for seed in range(10)]
        for order in GRID_ORDERS
    }


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def report_orders(capsys, num, name, verdicts):
    """Report each order's (ok, detail) verdict; returns the failing ones."""
    for order, (ok, detail) in verdicts.items():
        report(capsys, num, name, ok, f"{order}: {detail}")
    return [f"{order}: {detail}" for order, (ok, detail) in verdicts.items() if not ok]


def test_01_properness(grid, capsys):
    bad = [r for r in grid if r.verify_status != "ok"]
    detail = f"{len(grid) - len(bad)}/{len(grid)} grid runs verified proper"
    if bad:
        first = bad[0]
        detail += (
            f"; first failure n={first.n} delta={first.delta} {first.order} "
            f"seed {first.seed}: {first.error or first.verify_status}"
        )
    report(capsys, 1, "properness", not bad, detail)
    assert not bad, detail


def test_02_conservation(grid, capsys):
    bad = [r for r in grid if not r.conserved]
    detail = f"{len(grid) - len(bad)}/{len(grid)} runs emit exactly the input edge multiset"
    report(capsys, 2, "conservation", not bad, detail)
    assert not bad, detail


def test_03_leftover_mean(leftover_runs, capsys):
    stats = {order: leftover_stats(runs, KAPPA) for order, runs in leftover_runs.items()}
    failed = report_orders(capsys, 3, "leftover-mean", {o: (s.ok, s.detail) for o, s in stats.items()})
    assert not failed, failed


def test_04_counter_independence(capsys):
    results = [
        offset_independence_check(
            *build_workload(n, delta, order, seed=0), offset_seed_a=7_001, offset_seed_b=9_103
        )
        for n, delta, order in DUAL_RUN_CONFIGS
    ]
    ok, detail = audit_gate(results, "counter events")
    report(capsys, 4, "counter-independence", ok, detail)
    assert ok, detail


def test_05_trace_structure(grid, capsys):
    ok, detail = audit_gate([r.audit for r in grid], "B/C assignments")
    report(capsys, 5, "trace-structure", ok, detail)
    assert ok, detail


def test_06_palette_sufficiency(grid, capsys):
    errors = [r for r in grid if r.error is not None]
    detail = f"{len(errors)} palette-exhaustion or invariant events in {len(grid)} runs"
    if errors:
        detail += f"; first: {errors[0].error}"
    report(capsys, 6, "palette-sufficiency", not errors, detail)
    assert not errors, detail


def test_07_space_scaling(paired_runs, capsys):
    failed = report_orders(
        capsys, 7, "space-scaling", {order: space_gate(pairs) for order, pairs in paired_runs.items()}
    )
    assert not failed, failed


def test_08_recursion_depth(grid, leftover_runs, capsys):
    fallbacks = sum(r.fallback_intervals for r in grid)
    ok = fallbacks == 0
    detail = f"{fallbacks} depth-cap fallbacks on the grid"
    report(capsys, 8, "recursion-depth", ok, detail)
    failed = report_orders(
        capsys, 8, "recursion-depth",
        {order: depth_gate(runs, 64) for order, runs in leftover_runs.items()},
    )
    assert ok and not failed, [detail, *failed]


def test_09_color_budget(grid, capsys):
    violations = sum(r.budget_violations for r in grid)
    clean = [r for r in grid if r.error is None and r.budget > 0]
    utilization = max(r.colors_used / r.budget for r in clean) if clean else 1.0
    ok = violations == 0 and len(clean) == len(grid)
    detail = (
        f"{violations} budget violations across {len(grid)} runs; "
        f"worst scope utilization {utilization:.3f}"
    )
    report(capsys, 9, "color-budget", ok, detail)
    assert ok, detail


def test_10_color_scaling(grid, capsys):
    def mean_colors(order, delta, runner=None):
        if runner is None:
            runs = [r.colors_used for r in grid if r.n == 256 and r.delta == delta and r.order == order]
        else:
            runs = [runner(*build_workload(256, delta, order, seed))[1].colors_used for seed in GRID_SEEDS]
        return statistics.fmean(runs)

    verdicts = {}
    for order in GRID_ORDERS:
        ratio = mean_colors(order, 256) / mean_colors(order, 64)
        baseline_ratio = mean_colors(order, 256, run_baseline) / mean_colors(order, 64, run_baseline)
        verdicts[order] = (
            ratio <= 12.0,
            f"mean colors at delta=256 over delta=64: {ratio:.2f} "
            f"(gate 12; pure 1.5-power predicts 8, quadratic 16); "
            f"buffered-greedy baseline ratio {baseline_ratio:.2f}",
        )
    failed = report_orders(capsys, 10, "color-scaling", verdicts)
    assert not failed, failed


def plant_adjacent_copy(emissions, rng):
    """Overwrite one random emission's color with a neighbor's, which must
    break properness at their shared endpoint."""
    order = list(range(len(emissions)))
    rng.shuffle(order)
    for j in order:
        edge_j, _ = emissions[j]
        partners = [
            k
            for k, ((u, v, _), _) in enumerate(emissions)
            if k != j and {u, v} & set(edge_j[:2])
        ]
        if partners:
            corrupted = list(emissions)
            corrupted[j] = (edge_j, emissions[rng.choice(partners)][1])
            return corrupted
    raise AssertionError("stream has no two adjacent edges to corrupt")


def test_11_base_case_and_verifier(capsys):
    # m=40 exceeds a perfect matching on 64 vertices, so every stream has
    # adjacent edges to corrupt, yet fits a single n-edge buffer
    failures = []
    runs = []
    for seed in range(10):
        config, edges = build_workload(64, 16, "arrival-random", seed, m=40)
        emissions, metrics = run_stream(config, edges)
        status = verify_proper(emissions, edges).status
        deg = Counter()
        for u, v, _ in edges:
            deg[u] += 1
            deg[v] += 1
        limit = 2 * max(deg.values()) - 1
        if status != "ok" or metrics.depth != 0 or metrics.colors_used > limit:
            failures.append(
                f"seed {seed}: status {status}, depth {metrics.depth}, "
                f"{metrics.colors_used} colors vs limit {limit}"
            )
        runs.append((edges, emissions))

    detected = 0
    for trial in range(50):
        edges, emissions = runs[trial % len(runs)]
        corrupted = plant_adjacent_copy(emissions, random.Random(1_000 + trial))
        if verify_proper(corrupted, edges).status == "conflict":
            detected += 1
    ok = not failures and detected == 50
    detail = (
        f"10/10 buffered streams greedy-colored and proper; "
        f"{detected}/50 planted corruptions detected"
        if ok
        else "; ".join(failures) or f"only {detected}/50 corruptions detected"
    )
    report(capsys, 11, "small-stream-oracle", ok, detail)
    assert ok, detail
