"""End-to-end single-pass behavior: recursion, base case, depth cap, epoch
routing, and determinism."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsecolor import (
    Edge,
    StreamColorer,
    StreamInputError,
    TraceRecorder,
    baseline_config,
    decode_color,
    gen_multigraph,
    order_stream,
    resolve_config,
    run_baseline,
    run_stream,
)
from wsecolor.phase_engine import compute_degrees
from wsecolor.workload import ORDER_POLICIES

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
    assert [(seq, c) for (_, _, seq), c in first] == [(seq, c) for (_, _, seq), c in second]


def test_seed_changes_output():
    edges = gen_multigraph(64, 16, 256, seed=5)
    a, _ = run_stream(resolve_config(n=64, delta=16, seed=5, m=256), edges)
    b, _ = run_stream(resolve_config(n=64, delta=16, seed=6, m=256), edges)
    assert [(seq, c) for (_, _, seq), c in a] != [(seq, c) for (_, _, seq), c in b]


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
        for i in range(5):
            colorer.feed([(0, 1, i)])
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
    for i in range(4):
        emissions.extend(colorer.feed([(0, 1, i)]))
    with pytest.raises(StreamInputError, match="degree 5 at vertex 0"):
        colorer.feed([(0, 2, 4)])
    for i in range(4):
        emissions.extend(colorer.feed([(2, 3, i)]))  # vertex 2 kept degree 0 after the rejection
    emissions.extend(colorer.finalize())
    assert sorted(seq for (_, _, seq), _ in emissions) == [0, 1, 2, 3, 5, 6, 7, 8]
    assert find_conflicts(emissions) == []


def test_a_bad_row_mid_batch_keeps_the_rows_before_it():
    cfg = resolve_config(n=8, delta=2, interval_size=4)
    colorer = StreamColorer(cfg)
    rows = [(0, 1, 0), (2, 3, 0), (4, 5, 0), (6, 7, 0), (0, 2, 0), (0, 3, 0), (4, 6, 0)]
    # the first four rows fill interval 0; (0, 3) lifts vertex 0 to degree 3
    with pytest.raises(
        StreamInputError, match=r"^degree 3 at vertex 0 exceeds the configured bound 2 \(seq 5\)$"
    ):
        colorer.feed(rows)
    # interval 0's emissions come with the next call; the bad row used up
    # seq 5, (4, 6) after it was never read, and vertex 3 kept degree 1
    first = colorer.feed([(1, 3, 0)])
    assert sorted(row for row, _ in first) == [(0, 1, 0), (2, 3, 1), (4, 5, 2), (6, 7, 3)]
    rest = colorer.finalize()
    assert [row for row, _ in rest] == [(0, 2, 4), (1, 3, 6)]
    assert colorer.metrics(wall_ms=0.0).input_edges == 7
    assert find_conflicts(first + rest) == []


def test_a_row_that_does_not_unpack_is_a_bad_row_too():
    colorer = StreamColorer(resolve_config(n=8, delta=4))
    with pytest.raises(ValueError):
        colorer.feed([(0, 1, 0), (2, 3)])
    colorer.feed([(4, 5, 0)])
    assert [row for row, _ in colorer.finalize()] == [(0, 1, 0), (4, 5, 2)]


def test_a_bad_row_after_an_epoch_change_keeps_the_earlier_epochs_rows():
    cfg = resolve_config(n=8, delta=1, delta_mode="unknown")
    colorer = StreamColorer(cfg)
    with pytest.raises(StreamInputError, match=r"^self-loop at vertex 5 \(seq 3\)$"):
        colorer.feed([(0, 1, 0), (0, 2, 0), (0, 3, 0), (5, 5, 0), (0, 4, 0)])
    assert colorer.feed([]) == []  # nothing owed: no interval filled
    by_seq = {seq: decode_color(c).epoch for (_, _, seq), c in colorer.finalize()}
    assert by_seq == {0: 0, 1: 1, 2: 2}


def feed_in_pieces(cfg, rows, cuts, bad):
    """Run rows through one StreamColorer, fed in the pieces that cuts
    mark.  rows[bad], if bad is not None, is a bad row: its piece raises,
    and the rows after it in that piece are fed again.  Returns the
    emissions, the metrics document and the trace."""
    colorer = StreamColorer(cfg, trace=TraceRecorder())
    out = []
    for start, stop in zip([0, *cuts], [*cuts, len(rows)]):
        piece = rows[start:stop]
        if bad is not None and start <= bad < stop:
            with pytest.raises(StreamInputError, match=rf"\(seq {bad}\)$"):
                colorer.feed(piece)
            piece = rows[bad + 1 : stop]
        out += colorer.feed(piece)
    out += colorer.finalize()
    return out, colorer.metrics(wall_ms=0.0).to_dict(), colorer.trace.records


@given(st.data())
def test_how_rows_are_batched_does_not_change_the_run(data):
    # small intervals make level 1 fill intervals of its own, and vertex
    # order on (16, 64, 300) reaches level 2
    n, delta, m, interval = data.draw(
        st.sampled_from([(32, 16, 200, 32), (32, 16, 200, 4), (16, 64, 300, 8)]), label="cell"
    )
    mode = data.draw(st.sampled_from(["known", "unknown"]), label="delta mode")
    order = data.draw(st.sampled_from(ORDER_POLICIES), label="order")
    seed = data.draw(st.integers(0, 3), label="seed")
    rows = [tuple(e) for e in order_stream(gen_multigraph(n, delta, m, seed=seed), order, seed=seed)]
    bad = data.draw(st.none() | st.integers(0, m), label="bad row")
    if bad is not None:
        rows.insert(bad, (7, 7, bad))
    cfg = resolve_config(
        n=n, delta=delta, seed=seed, m=len(rows), interval_size=interval, delta_mode=mode
    )
    cuts = sorted(data.draw(st.sets(st.integers(1, len(rows) - 1)), label="cuts"))

    singles = feed_in_pieces(cfg, rows, list(range(1, len(rows))), bad)
    assert feed_in_pieces(cfg, rows, [], bad) == singles
    assert feed_in_pieces(cfg, rows, cuts, bad) == singles
    if bad is None:
        colorer = StreamColorer(cfg, trace=TraceRecorder())
        assert list(colorer.run(rows)) == singles[0]
        assert colorer.metrics(wall_ms=0.0).to_dict() == singles[1]
        assert colorer.trace.records == singles[2]


# -- unknown degree bound ----------------------------------------------------


def test_epoch_routing_follows_running_max_degree():
    cfg = resolve_config(n=8, delta=1, delta_mode="unknown")
    colorer = StreamColorer(cfg)
    emissions = []
    for i, (u, v) in enumerate([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]):
        emissions.extend(colorer.feed([(u, v, i)]))
    emissions.extend(colorer.finalize())
    # running max degree 1,2,3,4,5 lands in regimes 0,1,2,2,3
    by_seq = {seq: decode_color(c).epoch for (_, _, seq), c in emissions}
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
        colorer.feed([(3, 3, 0)])
    with pytest.raises(StreamInputError):
        colorer.feed([(0, 99, 1)])
    colorer.feed([(0, 1, 2)])  # the failed edges left no degree residue behind
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
    assert metrics.fallback_intervals == intervals
    assert metrics.config == baseline_config(cfg)
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
        out = colorer.feed([(u, v, i)])
        if i == 3:
            got_early = bool(out)
    colorer.finalize()
    assert got_early


def test_feed_validates_before_buffering():
    cfg = resolve_config(n=8, delta=4)
    colorer = StreamColorer(cfg)
    with pytest.raises(StreamInputError):
        colorer.feed([(0, 8, 0)])
    with pytest.raises(StreamInputError):
        colorer.feed([(2, 2, 1)])
    assert colorer.finalize() == []


def test_run_emits_the_input_triples():
    edges = gen_multigraph(64, 16, 256, seed=3)
    emitted = [row for row, _ in StreamColorer(resolve_config(n=64, delta=16, m=256)).run(edges)]
    assert sorted(emitted, key=lambda row: row[2]) == [tuple(e) for e in edges]
    assert {type(row) for row in emitted} == {tuple}


def test_run_resequences_other_carriers():
    # seqs that disagree with arrival order are rebuilt, not trusted
    shifted = [Edge(u, v, seq + 100) for u, v, seq in gen_multigraph(64, 16, 256, seed=3)]
    emissions, _ = run_stream(resolve_config(n=64, delta=16, m=256), shifted)
    assert emitted_seqs(emissions) == list(range(256))
    by_seq = {seq: (u, v) for (u, v, seq), _ in emissions}
    assert all(by_seq[i] == (e.u, e.v) for i, e in enumerate(shifted))
