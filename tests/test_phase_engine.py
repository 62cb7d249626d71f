"""Interval buffering, degree classification, and phase turnover."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsecolor import (
    Edge,
    EngineInvariantError,
    MetricsCollector,
    StreamColorer,
    StreamInputError,
    TraceRecorder,
    baseline_config,
    resolve_config,
)
from wsecolor.phase_engine import (
    PhaseEngine,
    classify_interval,
    compute_degrees,
    degree_classes,
)
from wsecolor.primitives import RandomSource

from support import decoded, find_conflicts, make_edges, reference_classify


def test_degree_classes_frozen():
    assert degree_classes(16) == [4, 8, 16]
    assert degree_classes(64) == [8, 16, 32, 64]
    assert degree_classes(256) == [16, 32, 64, 128, 256]
    assert degree_classes(1) == [1]


def test_compute_degrees_counts_multiplicity():
    edges = make_edges([(0, 1), (0, 1), (1, 2)])
    assert compute_degrees(edges) == {0: 2, 1: 3, 2: 1}


def test_classify_frozen_examples():
    # delta 16, threshold 4: classes 4, 8, 16
    _, hi_lo, high = classify_interval(make_edges([(1, 2)]), {1: 5, 2: 2}, 16)
    assert list(hi_lo) == [4]
    h1, h2 = hi_lo[4]
    assert len(h2) == 1 and h1 == []
    assert high == {4: {1}}

    low, per_class, high = classify_interval(make_edges([(1, 2)]), {1: 3, 2: 3}, 16)
    assert per_class == {} and len(low) == 1
    assert high == {}

    _, hi_hi, high = classify_interval(make_edges([(1, 2)]), {1: 9, 2: 12}, 16)
    assert list(hi_hi) == [8]
    h1, h2 = hi_hi[8]
    assert len(h1) == 1 and h2 == []
    assert high == {8: {1, 2}}


def test_classify_rejects_degree_above_bound():
    with pytest.raises(EngineInvariantError):
        classify_interval(make_edges([(1, 2)]), {1: 17, 2: 1}, 16)


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=16,
    )
)
def test_classify_partitions_every_edge(pairs):
    edges = make_edges(pairs)
    deg = compute_degrees(edges)
    low, per_class, _ = classify_interval(edges, deg, 16)
    routed = list(low)
    for h1, h2 in per_class.values():
        routed.extend(h1)
        routed.extend(h2)
    assert sorted(e.seq for e in routed) == sorted(e.seq for e in edges)
    for e in edges:
        top = max(deg[e.u], deg[e.v])
        if top < 4:
            assert e in low
        else:
            d = 1 << (top.bit_length() - 1)
            h1, h2 = per_class[d]
            both_high = min(deg[e.u], deg[e.v]) >= d
            assert e in (h1 if both_high else h2)


# a few hub vertices among many, so every class from the threshold up fills
_hub_or_not = st.one_of(st.integers(0, 3), st.integers(0, 63))


@given(st.sampled_from([1, 4, 16, 64, 256]), st.data())
def test_classify_matches_the_per_edge_reference(delta, data):
    # runs of parallel edges, up to delta / 4 long, reach every class and
    # sometimes pass delta
    run = st.tuples(_hub_or_not, _hub_or_not, st.integers(1, max(1, delta // 4)))
    runs = data.draw(st.lists(run.filter(lambda r: r[0] != r[1]), min_size=1, max_size=16))
    edges = make_edges([(u, v) for u, v, k in runs for _ in range(k)])
    deg = compute_degrees(edges)
    try:
        want = reference_classify(edges, deg, delta)
    except EngineInvariantError:
        with pytest.raises(EngineInvariantError):
            classify_interval(edges, deg, delta)
        return
    got = classify_interval(edges, deg, delta)
    assert got == want
    # step 1 iterates the high sets, so their order is part of the output
    for mine, theirs in zip(got[1:], want[1:]):
        assert [(d, list(x)) for d, x in mine.items()] == [(d, list(x)) for d, x in theirs.items()]


# -- engine harness ----------------------------------------------------------


def make_engine(config, trace=None, level=0):
    collector = MetricsCollector()
    engine = PhaseEngine(
        config,
        epoch=0,
        level=level,
        sigma_source=RandomSource(config.seed, ("sigma",)).child("e", 0, "l", level),
        offset_source=RandomSource(config.seed, ("offsets",)).child("e", 0, "l", level),
        collector=collector,
        trace=trace,
    )
    return engine, engine.meter, collector


def feed_all(engine, edges):
    emissions, leftovers = [], []
    for e in edges:
        em, left = engine.ingest([e])
        emissions.extend(em)
        leftovers.extend(left)
    return emissions, leftovers


def test_buffering_holds_until_interval_full():
    cfg = resolve_config(n=8, delta=4, interval_size=4)
    engine, meter, _ = make_engine(cfg)
    pairs = [(0, 1), (2, 3), (4, 5)]
    emissions, leftovers = feed_all(engine, make_edges(pairs))
    assert emissions == [] and leftovers == []
    assert engine.room == 1
    # the buffer is charged when its interval is processed, not per edge
    assert meter.total == 0
    em, left = engine.ingest([Edge(6, 7, 3)])
    assert len(em) + len(left) == 4
    assert engine.room == 4
    assert meter.category_peaks["buffer"] == 4
    assert meter.current["buffer"] == 0


@pytest.mark.parametrize(
    "count, peak", [(10, 4), (3, 3)], ids=["final-partial-interval", "base-case"]
)
def test_buffer_peak_is_the_largest_interval(count, peak):
    cfg = resolve_config(n=32, delta=16, interval_size=4)
    engine, meter, _ = make_engine(cfg)
    pairs = [(i % 16, 16 + (i * 7) % 16) for i in range(count)]
    emissions, leftovers = feed_all(engine, make_edges(pairs))
    em, left = engine.flush()
    assert len(emissions) + len(em) + len(leftovers) + len(left) == count
    assert meter.category_peaks["buffer"] == peak
    assert meter.total == 0


def fresh_engine(role, **params):
    """A level at the depth cap: the baseline's depth-0 level, or the
    fallback level reached at a nonzero cap."""
    if role == "baseline":
        cfg = baseline_config(resolve_config(**params))
        return cfg, make_engine(cfg)
    cfg = resolve_config(max_depth=2, **params)
    return cfg, make_engine(cfg, level=2)


@pytest.mark.parametrize("role", ["baseline", "fallback"])
@pytest.mark.parametrize("count, peak", [(10, 4), (3, 3)], ids=["partial", "single"])
def test_interval_colorer_buffer_peak_is_the_largest_interval(role, count, peak):
    # a level at the depth cap colors every interval, the partial one included
    _, (colorer, meter, _) = fresh_engine(role, n=32, delta=16, interval_size=4)
    assert colorer.fresh
    colored = 0
    for e in make_edges([(i % 16, 16 + i % 16) for i in range(count)]):
        em, left = colorer.ingest([e])
        assert not left
        colored += len(em)
        assert meter.total == 0
    em, _ = colorer.flush()
    assert colored + len(em) == count
    assert meter.category_peaks["buffer"] == peak
    assert meter.total == 0


def test_ingest_validates_edges():
    # engines trust their input: StreamColorer.feed is the one boundary
    for mode in ("known", "unknown", "baseline"):
        cfg = resolve_config(n=8, delta=4, delta_mode="unknown" if mode == "unknown" else "known")
        colorer = StreamColorer(baseline_config(cfg) if mode == "baseline" else cfg)
        with pytest.raises(StreamInputError, match=r"self-loop at vertex 3 \(seq 0\)"):
            colorer.feed([(3, 3, 0)])
        with pytest.raises(StreamInputError, match=r"vertex 8 outside \[0, 8\) \(seq 1\)"):
            colorer.feed([(0, 8, 1)])
        with pytest.raises(StreamInputError, match=r"vertex -1 outside \[0, 8\) \(seq 2\)"):
            colorer.feed([(-1, 2, 2)])


def test_ingest_takes_a_whole_interval_in_one_call():
    cfg = resolve_config(n=8, delta=16, interval_size=4)
    engine, meter, _ = make_engine(cfg)
    edges = make_edges([(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3)])
    assert engine.ingest(edges[:2]) == ([], [])
    assert engine.room == 2
    em, left = engine.ingest(edges[2:4])
    assert sorted(e.seq for e, _ in em) + sorted(e.seq for e in left) == [0, 1, 2, 3]
    assert engine.room == 4
    assert meter.category_peaks["buffer"] == 4


def test_ingest_past_the_interval_is_an_engine_bug():
    # StreamColorer cuts rows at the interval boundary, so more than room is
    # never bad input
    cfg = resolve_config(n=8, delta=16, interval_size=4)
    engine, _, _ = make_engine(cfg)
    with pytest.raises(EngineInvariantError, match="took 5 edges with room for 4"):
        engine.ingest(make_edges([(0, 1), (2, 3), (4, 5), (6, 7), (0, 2)]))


def test_interval_conserves_edges():
    cfg = resolve_config(n=8, delta=16, interval_size=12)
    engine, _, _ = make_engine(cfg)
    pairs = [(i % 7, (i % 7) + 1) for i in range(12)]
    emissions, leftovers = feed_all(engine, make_edges(pairs))
    seen = sorted([e.seq for e, _ in emissions] + [e.seq for e in leftovers])
    assert seen == list(range(12))


def test_all_low_interval_uses_small_fresh_palette():
    cfg = resolve_config(n=8, delta=16, interval_size=4)
    engine, _, _ = make_engine(cfg)
    # a perfect matching: every degree is 1, far below the threshold of 4
    emissions, leftovers = feed_all(engine, make_edges([(0, 1), (2, 3), (4, 5), (6, 7)]))
    assert leftovers == []
    assert len(emissions) == 4
    assert {c.kind for c in decoded(emissions)} == {"LOW"}
    assert len({c.slot for c in decoded(emissions)}) <= 2 * 4 - 1
    assert find_conflicts(emissions) == []


def test_low_palettes_fresh_per_interval():
    cfg = resolve_config(n=4, delta=16, interval_size=2)
    engine, _, _ = make_engine(cfg)
    emissions, leftovers = feed_all(engine, make_edges([(0, 1), (2, 3), (0, 2), (1, 3)]))
    assert leftovers == []
    assert {c.interval for c in decoded(emissions)} == {0, 1}
    # the second interval reuses slot numbers but not colors
    assert find_conflicts(emissions) == []


def test_phase_rollover_resets_class_state():
    trace = TraceRecorder()
    # delta 4: phase_len = 2 intervals; 3 intervals span two phases
    cfg = resolve_config(n=4, delta=4, interval_size=2)
    engine, _, collector = make_engine(cfg, trace=trace)
    feed_all(engine, make_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    engine.flush()
    class_records = [r for r in trace.records if r["kind"] == "class-interval"]
    phases = {r["interval"]: r["phase"] for r in class_records}
    assert phases == {0: 0, 1: 0, 2: 1}
    # a fresh phase starts with a zero prior tally
    first_of_phase = {}
    for r in sorted(class_records, key=lambda r: r["interval"]):
        first_of_phase.setdefault((r["phase"], r["d"]), r)
    assert all(r["prior"] == 0 for r in first_of_phase.values())
    metrics = collector.build(config=cfg, engines=[engine], input_edges=6, wall_ms=0.0)
    assert metrics.phase_count[(0, 0)] == 2


def test_flush_handles_partial_interval():
    cfg = resolve_config(n=8, delta=16, interval_size=10)
    engine, meter, _ = make_engine(cfg)
    feed_all(engine, make_edges([(0, 1), (1, 2), (2, 3)]))
    emissions, leftovers = engine.flush()
    assert len(emissions) + len(leftovers) == 3
    assert meter.total == 0


def test_flush_empty_buffer_is_noop():
    cfg = resolve_config(n=8, delta=16)
    engine, _, _ = make_engine(cfg)
    assert engine.flush() == ([], [])


def test_flush_colors_first_partial_interval_as_base_case():
    cfg = resolve_config(n=8, delta=16)
    engine, meter, collector = make_engine(cfg)
    feed_all(engine, make_edges([(0, 1), (1, 2), (0, 1)]))
    emissions, leftovers = engine.flush()
    assert leftovers == []
    assert sorted(e.seq for e, _ in emissions) == [0, 1, 2]
    assert {c.kind for c in decoded(emissions)} == {"BASE"}
    assert find_conflicts(emissions) == []
    assert engine.room == cfg.interval_size
    assert meter.total == 0
    metrics = collector.build(config=cfg, engines=[engine], input_edges=3, wall_ms=0.0)
    assert metrics.base_cases == {(0, 0): 3}


@pytest.mark.parametrize("role", ["baseline", "fallback"])
def test_fresh_role_colors_first_partial_interval_from_low_palette(role):
    cfg, (engine, _, collector) = fresh_engine(role, n=8, delta=16)
    assert engine.fresh
    feed_all(engine, make_edges([(0, 1), (1, 2), (0, 1)]))
    emissions, leftovers = engine.flush()
    assert leftovers == []
    assert sorted(e.seq for e, _ in emissions) == [0, 1, 2]
    assert {(c.kind, c.interval, c.phase) for c in decoded(emissions)} == {("LOW", 0, 0)}
    assert find_conflicts(emissions) == []
    metrics = collector.build(config=cfg, engines=[engine], input_edges=3, wall_ms=0.0)
    assert metrics.base_cases == {}
    assert metrics.phase_count == {}
    assert metrics.fallback_intervals == 1


def test_overfull_degree_detected_at_interval():
    cfg = resolve_config(n=4, delta=4, interval_size=8)
    engine, _, _ = make_engine(cfg)
    pairs = [(0, 1)] * 5 + [(2, 3)] * 3  # five parallel edges: degree 5 > 4
    with pytest.raises(EngineInvariantError, match="exceeds"):
        feed_all(engine, make_edges(pairs))


def test_flush_ends_the_open_phase():
    # two full intervals of a four-interval phase: flush has no edges left
    # to process, and still ends the phase and releases its state
    cfg = resolve_config(n=8, delta=16, interval_size=4)
    engine, meter, collector = make_engine(cfg)
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4)]
    feed_all(engine, make_edges(pairs))
    assert engine.class_phases() and meter.total > 0
    assert engine.flush() == ([], [])
    assert engine.class_phases() == []
    metrics = collector.build(config=cfg, engines=[engine], input_edges=8, wall_ms=0.0)
    assert [stat.d for stat in metrics.class_phase_stats] == degree_classes(cfg.delta)
    assert meter.total == 0
    assert meter.peak > 0
