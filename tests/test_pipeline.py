"""End-to-end single-pass behavior: recursion, base case, depth cap, epoch
routing, and determinism."""

import json

import pytest

from wsecolor import (
    Edge,
    StreamColorer,
    StreamInputError,
    decode_color,
    gen_multigraph,
    order_stream,
    resolve_config,
    run_baseline,
    run_stream,
)
from wsecolor.phase_engine import compute_degrees

from support import emitted_seqs, find_conflicts, make_edges, seqs_of


def test_every_edge_colored_exactly_once():
    edges = gen_multigraph(64, 16, 256, seed=3)
    cfg = resolve_config(n=64, delta=16, seed=3, m=256)
    emissions, metrics = run_stream(cfg, edges)
    assert emitted_seqs(emissions) == seqs_of(edges)
    assert find_conflicts(emissions) == []
    assert metrics.input_edges == 256


def test_deeper_levels_tagged_and_counted():
    edges = gen_multigraph(64, 16, 256, seed=3)
    cfg = resolve_config(n=64, delta=16, seed=3, m=256)
    emissions, metrics = run_stream(cfg, edges)
    levels = {decode_color(c).level for _, c in emissions}
    assert levels == set(range(metrics.depth + 1))
    for (epoch, level), count in metrics.colored_per_level.items():
        assert epoch == 0
        got = sum(1 for _, c in emissions if decode_color(c).level == level)
        assert got == count
    # leftovers of one level are exactly the input of the next
    for level in range(metrics.depth):
        nxt = (0, level + 1)
        assert metrics.leftover_per_level[(0, level)] == metrics.colored_per_level.get(
            nxt, 0
        ) + metrics.leftover_per_level.get(nxt, 0)


def test_identical_runs_identical_output():
    edges = gen_multigraph(64, 16, 256, seed=5)
    cfg = resolve_config(n=64, delta=16, seed=5, m=256)
    first, _ = run_stream(cfg, edges)
    second, _ = run_stream(cfg, edges)
    assert [(e.seq, c) for e, c in first] == [(e.seq, c) for e, c in second]


def test_seed_changes_output():
    edges = gen_multigraph(64, 16, 256, seed=5)
    a, _ = run_stream(resolve_config(n=64, delta=16, seed=5, m=256), edges)
    b, _ = run_stream(resolve_config(n=64, delta=16, seed=6, m=256), edges)
    assert [(e.seq, c) for e, c in a] != [(e.seq, c) for e, c in b]


def test_base_case_colors_within_twice_degree():
    edges = gen_multigraph(64, 16, 20, seed=7)
    bound = max(compute_degrees(edges).values())
    cfg = resolve_config(n=64, delta=16, seed=1, m=20)
    emissions, metrics = run_stream(cfg, edges)
    assert {decode_color(c).kind for _, c in emissions} == {"BASE"}
    assert len({c for _, c in emissions}) <= 2 * bound - 1
    assert find_conflicts(emissions) == []
    assert metrics.base_cases == {(0, 0): bound}
    assert metrics.depth == 0


def test_depth_cap_zero_never_defers():
    edges = gen_multigraph(64, 16, 256, seed=7)
    cfg = resolve_config(n=64, delta=16, seed=1, m=256, max_depth=0)
    emissions, metrics = run_stream(cfg, edges)
    assert emitted_seqs(emissions) == seqs_of(edges)
    assert find_conflicts(emissions) == []
    assert metrics.fallback_intervals == 4  # 256 edges / 64 per interval
    assert metrics.depth == 0
    assert sum(metrics.leftover_per_level.values()) == 0


def test_fallback_rejects_degree_above_bound():
    # five parallel edges inside one buffered interval beat delta = 4
    cfg = resolve_config(n=4, delta=4, max_depth=0, interval_size=8)
    colorer = StreamColorer(cfg)
    with pytest.raises(StreamInputError, match="exceeds"):
        for _ in range(5):
            colorer.feed(0, 1)
        colorer.finalize()


@pytest.mark.parametrize("runner", [run_stream, run_baseline])
def test_declared_degree_bound_is_enforced(runner):
    # true max degree well above the declared 16; every interval alone fits
    edges = gen_multigraph(64, 64, 1024, seed=1)
    cfg = resolve_config(n=64, delta=16, seed=1, m=1024)
    first = next(
        i for i in range(len(edges)) if max(compute_degrees(edges[: i + 1]).values()) > 16
    )
    with pytest.raises(
        StreamInputError, match=rf"exceeds the configured bound 16 \(seq {first}\)"
    ):
        runner(cfg, edges)


@pytest.mark.parametrize("runner", [run_stream, run_baseline])
def test_declared_bound_is_enforced_as_declared_not_as_normalized(runner):
    # declared 17 normalizes to 64, above the true max degree 44, so only the
    # declared value itself rejects this stream
    edges = gen_multigraph(64, 64, 1024, seed=1)
    assert max(compute_degrees(edges).values()) == 44
    cfg = resolve_config(n=64, delta=17, seed=1, m=1024)
    assert (cfg.delta, cfg.declared_delta) == (64, 17)
    first = next(
        i for i in range(len(edges)) if max(compute_degrees(edges[: i + 1]).values()) > 17
    )
    with pytest.raises(
        StreamInputError, match=rf"exceeds the configured bound 17 \(seq {first}\)"
    ):
        runner(cfg, edges)
    # a bound the stream meets exactly is accepted
    emissions, _ = runner(resolve_config(n=64, delta=44, seed=1, m=1024), edges)
    assert emitted_seqs(emissions) == seqs_of(edges)
    assert find_conflicts(emissions) == []


def test_rejected_edge_leaves_no_degree_residue():
    cfg = resolve_config(n=4, delta=4)
    colorer = StreamColorer(cfg)
    emissions = []
    for _ in range(4):
        emissions.extend(colorer.feed(0, 1))
    with pytest.raises(StreamInputError, match="degree 5 at vertex 0"):
        colorer.feed(0, 2)
    for _ in range(4):
        emissions.extend(colorer.feed(2, 3))  # vertex 2 kept degree 0 after the rejection
    emissions.extend(colorer.finalize())
    assert sorted(e.seq for e, _ in emissions) == [0, 1, 2, 3, 5, 6, 7, 8]
    assert find_conflicts(emissions) == []


# -- unknown degree bound ----------------------------------------------------


def test_epoch_routing_follows_running_max_degree():
    cfg = resolve_config(n=8, delta=1, delta_mode="unknown")
    colorer = StreamColorer(cfg)
    emissions = []
    for u, v in [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]:
        emissions.extend(colorer.feed(u, v))
    emissions.extend(colorer.finalize())
    # running max degree 1,2,3,4,5 lands in regimes 0,1,2,2,3
    by_seq = {e.seq: decode_color(c).epoch for e, c in emissions}
    assert by_seq == {0: 0, 1: 1, 2: 2, 3: 2, 4: 3}
    assert find_conflicts(emissions) == []


def test_every_level_meter_returns_to_zero():
    # the golden unknown-delta recipe spans several epochs and levels
    edges = order_stream(gen_multigraph(64, 256, 4096, seed=1), "vertex-sorted", seed=2)
    cfg = resolve_config(n=64, delta=256, seed=1, m=4096, delta_mode="unknown")
    colorer = StreamColorer(cfg)
    assert len(list(colorer.run(edges))) == 4096
    engines = colorer.engines()
    assert len({x.epoch for x in engines}) > 1 and max(x.level for x in engines) > 0
    assert all(x.meter.peak > 0 for x in engines)
    assert [x.meter.total for x in engines] == [0] * len(engines)


def test_unknown_mode_proper_on_real_stream():
    edges = gen_multigraph(64, 16, 256, seed=11)
    cfg = resolve_config(n=64, delta=1, seed=4, m=256, delta_mode="unknown")
    emissions, metrics = run_stream(cfg, edges)
    assert emitted_seqs(emissions) == seqs_of(edges)
    assert find_conflicts(emissions) == []
    epochs = {e for (e, _) in metrics.colored_per_level}
    assert len(epochs) > 1  # the degree bound grew mid-stream


def test_unknown_mode_rejects_bad_edges_before_counting():
    cfg = resolve_config(n=8, delta=1, delta_mode="unknown")
    colorer = StreamColorer(cfg)
    with pytest.raises(StreamInputError):
        colorer.feed(3, 3)
    with pytest.raises(StreamInputError):
        colorer.feed(0, 99)
    colorer.feed(0, 1)  # the failed edges left no degree residue behind
    emissions = colorer.finalize()
    assert [decode_color(c).epoch for _, c in emissions] == [0]


# -- baseline ----------------------------------------------------------------


def test_baseline_budget_and_properness():
    edges = gen_multigraph(64, 16, 256, seed=2)
    cfg = resolve_config(n=64, delta=16, seed=2, m=256)
    emissions, metrics = run_baseline(cfg, edges)
    assert emitted_seqs(emissions) == seqs_of(edges)
    assert find_conflicts(emissions) == []
    intervals = metrics.interval_count[(0, 0)]
    assert intervals == 4
    assert metrics.colors_used <= intervals * (2 * 16 - 1)
    assert metrics.depth == 0
    assert metrics.fallback_intervals == 0
    assert all(s.kind == "fresh" for s in metrics.scopes)


# -- metrics serialization ---------------------------------------------------


def test_metrics_json_shape():
    edges = gen_multigraph(64, 16, 256, seed=3)
    cfg = resolve_config(n=64, delta=16, seed=3, m=256)
    _, metrics = run_stream(cfg, edges)
    doc = json.loads(metrics.to_json())
    assert doc["schema"] == "wsecolor-metrics-v1"
    assert doc["config"]["n"] == 64
    assert "e0.l0" in doc["colored_per_level"]
    assert doc["input_edges"] == 256
    assert doc["wall_ms"] >= 0
    assert isinstance(doc["scopes"], list) and doc["scopes"]


def test_streaming_emission_is_online():
    # a full interval must yield output before the stream ends
    cfg = resolve_config(n=8, delta=4, interval_size=4)
    colorer = StreamColorer(cfg)
    got_early = False
    for i, (u, v) in enumerate([(0, 1), (2, 3), (4, 5), (6, 7), (0, 2)]):
        out = colorer.feed(u, v)
        if i == 3:
            got_early = bool(out)
    colorer.finalize()
    assert got_early


def test_feed_validates_before_buffering():
    cfg = resolve_config(n=8, delta=4)
    colorer = StreamColorer(cfg)
    with pytest.raises(StreamInputError):
        colorer.feed(0, 8)
    with pytest.raises(StreamInputError):
        colorer.feed(2, 2)


def test_run_hands_through_edges_already_in_arrival_order():
    edges = gen_multigraph(64, 16, 256, seed=3)
    emitted = {e.seq: e for e, _ in StreamColorer(resolve_config(n=64, delta=16, m=256)).run(edges)}
    assert all(emitted[e.seq] is e for e in edges)


def test_run_resequences_other_carriers():
    # seqs that disagree with arrival order are rebuilt, not trusted
    shifted = [Edge(e.u, e.v, e.seq + 100) for e in gen_multigraph(64, 16, 256, seed=3)]
    emissions, _ = run_stream(resolve_config(n=64, delta=16, m=256), shifted)
    assert emitted_seqs(emissions) == list(range(256))
    by_seq = {e.seq: e for e, _ in emissions}
    assert all((by_seq[i].u, by_seq[i].v) == (e.u, e.v) for i, e in enumerate(shifted))
