"""The verifier, the trace audits, the statistics helpers, and the
dual-run counter check with its regression canary."""

import io
import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsecolor import (
    Edge,
    MetricsCollector,
    SpaceMeter,
    StreamColorer,
    TraceRecorder,
    color_budget_check,
    counter_trace,
    decode_color,
    gen_multigraph,
    leftover_stats,
    offset_independence_check,
    order_stream,
    read_colored,
    read_stream,
    resolve_config,
    run_stream,
    space_check,
    verify_proper,
    write_colored,
    write_stream,
)
from wsecolor.audit import (
    SPACE_RATIO_LIMIT,
    ClassPhaseStat,
    EngineInvariantError,
    ScopeStat,
    assignment_structure_audit,
    audit_gate,
    depth_gate,
    saturated_index_audit,
    space_gate,
    trace_audit,
)
from wsecolor.class_colorer import ClassState
from wsecolor.model import FAMILIES, epoch_config
from wsecolor.phase_engine import PhaseEngine
from wsecolor.workload import ORDER_POLICIES

from support import (
    FixedIndex,
    color_run,
    damaged_colorings,
    decoded,
    fake_metrics,
    find_conflicts,
    make_edges,
    reference_verify,
    verify_pairs,
)


def painted(edges, tokens):
    return [(e, f"E0.L0.BASE.{t}") for e, t in zip(edges, tokens)]


# -- verifier ----------------------------------------------------------------


def test_verify_accepts_proper_path():
    edges = make_edges([(0, 1), (1, 2)])
    result = verify_pairs(painted(edges, [0, 1]), edges)
    assert result.status == "ok" and result.ok


def test_verify_flags_conflict_with_witness():
    edges = make_edges([(0, 1), (1, 2)])
    result = verify_pairs(painted(edges, [3, 3]), edges)
    assert result.status == "conflict"
    assert not result.ok
    assert result.first.seq == 0 and result.second.seq == 1
    assert result.color == "E0.L0.BASE.3"
    assert "vertex 1" in result.detail


def test_verify_flags_parallel_edges_sharing_a_color():
    edges = make_edges([(0, 1), (0, 1)])
    assert verify_pairs(painted(edges, [2, 2]), edges).status == "conflict"
    assert verify_pairs(painted(edges, [2, 5]), edges).status == "ok"


def test_verify_flags_missing_edge():
    edges = make_edges([(0, 1), (2, 3)])
    result = verify_pairs(painted(edges, [0, 1])[:1], edges)
    assert result.status == "mismatch"
    assert "missing" in result.detail


def test_verify_flags_surplus_edge():
    edges = make_edges([(0, 1)])
    extra = painted(make_edges([(0, 1), (5, 6)]), [0, 1])
    result = verify_pairs(extra, edges)
    assert result.status == "mismatch"
    assert "unexpected" in result.detail


def test_verify_flags_duplicated_emission():
    edges = make_edges([(0, 1)])
    twice = painted(edges + edges, [0, 4])
    assert verify_pairs(twice, edges).status == "mismatch"


def _path_cases():
    path = make_edges([(0, 1), (1, 2)])
    lone = make_edges([(0, 1)])
    return {
        "ok": (painted(path, [0, 1]), path),
        "missing": (painted(path, [0, 1])[:1], path),
        "unexpected": (painted(make_edges([(0, 1), (5, 6)]), [0, 1]), lone),
        "duplicate": (painted(lone + lone, [0, 4]), lone),
        "conflict": (painted(path, [3, 3]), path),
    }


@pytest.mark.parametrize("case", ["ok", "missing", "unexpected", "duplicate", "conflict"])
def test_verify_reads_a_one_shot_input_iterator_like_a_list(case):
    colored, edges = _path_cases()[case]
    from_list = verify_pairs(colored, edges)
    from_iter = verify_pairs(colored, (e for e in edges))
    # record equality: status, detail, first, second and color all match
    assert from_iter == from_list
    assert from_list.status == {"ok": "ok", "conflict": "conflict"}.get(case, "mismatch")


def test_verify_drains_the_input_before_a_verdict():
    edges = make_edges([(0, 1), (1, 2)])
    it = iter(edges)
    assert verify_pairs(painted(edges, [3, 3]), it).status == "conflict"
    assert next(it, None) is None


def test_verify_compares_colors_by_value_not_by_object():
    edges = make_edges([(0, 1), (1, 2)])
    colored = [(e, "".join(["E1.L0.BASE.", "3"])) for e in edges]
    assert colored[0][1] is not colored[1][1]
    result = verify_pairs(colored, edges)
    assert result.status == "conflict"
    assert result.detail == "color E1.L0.BASE.3 repeats at vertex 1"


@pytest.mark.parametrize(
    "edges", [[Edge(0, 1, 1)], [Edge(0, 1, 0), Edge(1, 2, 0)], [Edge(0, -1, 0)]]
)
def test_verify_rejects_input_it_cannot_index(edges):
    # seqs must equal positions, and vertices index the per-vertex columns
    with pytest.raises(ValueError):
        verify_proper([], edges)


@pytest.mark.parametrize("pairs", [[(0, -1)], [(-1, 0)], [(0, 2**40), (-1, 0)], [(0, -(2**40))]])
def test_verify_rejects_a_negative_vertex_whatever_its_column_width(pairs):
    with pytest.raises(ValueError) as info:
        verify_proper([], make_edges(pairs))
    assert str(info.value) == "input vertices must be non-negative"


@pytest.mark.parametrize("big", [65535, 65536, 2**40])
@pytest.mark.parametrize("case", ["ok", "conflict", "missing"])
def test_verify_widens_its_endpoint_columns_for_ids_past_16_bits(big, case):
    # an id past uint16 widens both columns once, whether it comes as u or
    # as v; 2**40 also takes the per-vertex table over the ids present
    edges = make_edges([(0, 1), (1, 2), (2, big), (big, 3), (3, big), (big, 1)])
    tokens = {"ok": [0, 1, 0, 1, 2, 3], "conflict": [0, 1, 0, 1, 0, 3], "missing": [0, 1, 0, 1, 2, 3]}[case]
    colored = painted(edges, tokens)[: 5 if case == "missing" else 6]
    result = verify_pairs(iter(colored), iter(edges))
    assert result == reference_verify(colored, edges)
    assert result.status == {"ok": "ok", "conflict": "conflict"}.get(case, "mismatch")
    if case == "conflict":
        assert result.detail == f"color E0.L0.BASE.0 repeats at vertex {big}"


@pytest.mark.parametrize("rows", [[Edge(0, 1, 1)], [(0, 1, 1)]], ids=["edge", "tuple"])
def test_verify_names_a_misplaced_seq_the_same_for_edges_and_rows(rows):
    with pytest.raises(ValueError) as info:
        verify_proper([], rows)
    assert str(info.value) == "input edge Edge(u=0, v=1, seq=1) at position 0: seq must equal position"


@settings(max_examples=400)
@given(damaged_colorings())
def test_verify_matches_the_ascending_seq_reference(case):
    colored, edges = case
    assert verify_pairs(iter(colored), iter(edges)) == reference_verify(colored, edges)


# Colors the file reader never yields: padded and bare slots, no dot, an
# empty head, and slots too long for an int64, beside their canonical kin;
# and slots on both sides of the old 9-digit cut and of the int32 cut.
NON_CANONICAL = [
    "E0.L0.BASE.3",
    "E0.L0.BASE.03",
    "E0.L0.BASE.",
    "7",
    "7.0",
    ".7",
    "E0.L0.BASE.1234567890123456789",
    "E0.L0.BASE.12345678901234567890",
    "E0.L0.BASE.999999999",
    "E0.L0.BASE.1000000000",
    "E0.L0.BASE.2147483647",
    "E0.L0.BASE.2147483648",
    "E0.L0.BASE.000000003",
]


@settings(max_examples=400)
@given(damaged_colorings(NON_CANONICAL))
def test_verify_matches_the_ascending_seq_reference_on_non_canonical_colors(case):
    # split_color splits canonical int32 slots off their heads; every
    # other color is a head of its own and compares as its whole string
    colored, edges = case
    assert verify_pairs(iter(colored), iter(edges)) == reference_verify(colored, edges)


def _verify_peak_per_edge(tmp_path, order):
    """Traced heap peak of verify_proper per edge, reading an n=512, Δ=256,
    m=32,768 stream and its coloring from files; with the distinct colors."""
    n, delta, m = 512, 256, 32768
    edges, emissions, _, _ = color_run(n, delta, m, order=order, seed=5, kappa=32)
    distinct = len(set(color for _, color in emissions))
    with open(tmp_path / "s.wse", "w") as fh:
        write_stream(fh, n, delta, edges)
    with open(tmp_path / "s.colored", "w") as fh:
        write_colored(fh, emissions)
    del emissions
    with open(tmp_path / "s.colored") as cfh, open(tmp_path / "s.wse") as sfh:
        _, body = read_stream(sfh)
        tracemalloc.start()
        try:
            result = verify_proper(read_colored(cfh), body)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result.ok
    return peak / m, distinct


def test_verify_memory_does_not_grow_with_the_palette(tmp_path):
    # degree-burst order drives the class palettes, which mint a color for
    # almost every edge; verify keeps 12 B/edge of columns and per-head
    # seq arrays, about 37 B/edge here, where int64 columns took about 57
    # and a table per color about 158
    per_edge, distinct = _verify_peak_per_edge(tmp_path, "degree-burst")
    assert distinct > 32768 // 2
    assert per_edge <= 45, per_edge


def test_verify_memory_per_edge_with_few_colors(tmp_path):
    # arrival-random order puts nearly every edge on a LOW palette, so the
    # colors are few and the 12 B/edge columns are most of the peak: about
    # 15 B/edge, where int64 seq arrays alone took about 19.6 and int64
    # columns about 36
    per_edge, distinct = _verify_peak_per_edge(tmp_path, "arrival-random")
    assert distinct < 32768 // 16
    assert per_edge <= 18, per_edge


def test_verify_agrees_with_pairwise_oracle():
    edges, emissions, _, _ = color_run(64, 16, 256, seed=9)
    assert verify_pairs(emissions, edges).status == "ok"
    assert find_conflicts(emissions) == []


@pytest.fixture(scope="module")
def forced_run():
    """A traced run whose sigma root repeats one palette index, so exile,
    skip-exiled and index-cap-leftover fire on purpose: vertex-sorted,
    n=256, Δ=64, m=4,096, κ=32, all seeds 1.  Returns (config, edges,
    emissions, trace records, metrics)."""
    edges = order_stream(gen_multigraph(256, 64, 4096, seed=1), "vertex-sorted", seed=1)
    config = resolve_config(n=256, delta=64, m=4096, seed=1, kappa=32)
    trace = TraceRecorder()
    colorer = StreamColorer(config, trace=trace)
    colorer.sigma_root = FixedIndex(*colorer.sigma_root)
    emissions = list(colorer.run(edges))
    return config, edges, emissions, trace.records, colorer.metrics(wall_ms=0.0)


def read_back(config, edges, pairs):
    """verify_proper on pairs and edges written as files and read back."""
    stream, colored = io.StringIO(), io.StringIO()
    write_stream(stream, config.n, config.delta, edges)
    write_colored(colored, pairs)
    stream.seek(0)
    colored.seek(0)
    return verify_proper(read_colored(colored), read_stream(stream)[1])


def test_a_repeated_index_drives_the_rare_rules(forced_run):
    # under random indices exile and the index cap bind a few times per
    # suite; one index repeated drives them by the dozen and the thousand
    # (24, 23 and 2,225 at depth 3), and the run still verifies and audits
    # clean.  cap-leftover does not fire here.
    config, edges, emissions, records, metrics = forced_run
    assert read_back(config, edges, emissions).ok
    ok, detail, _ = trace_audit(records, config)
    assert ok, detail
    counts = Counter(r["case"] if r["kind"] == "mixed-decision" else r["kind"] for r in records)
    assert counts["exile"] >= 10 and counts["skip-exiled"] >= 10, counts
    assert counts["index-cap-leftover"] >= 1000, counts
    assert metrics.depth >= 2


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_verify_matches_the_reference_on_planted_conflicts(forced_run, data):
    # 1-3 edges take the color of another edge at one of their endpoints,
    # often in another head of the run's 41 over levels 0-3, so the
    # earliest conflict may lie in a head the walk visits after a later
    # one; damaged_colorings spans two heads and 8 edges
    config, edges, emissions, _, _ = forced_run
    at = {}
    for i, ((u, v, _), _) in enumerate(emissions):
        at.setdefault(u, []).append(i)
        at.setdefault(v, []).append(i)
    colors = [color for _, color in emissions]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(emissions) - 1))
        x = data.draw(st.sampled_from(emissions[i][0][:2]))
        colors[i] = colors[data.draw(st.sampled_from([j for j in at[x] if j != i]))]
    pairs = [(Edge(*row), color) for (row, _), color in zip(emissions, colors)]
    expected = reference_verify(pairs, [Edge(*e) for e in edges])
    assert expected.status == "conflict"
    assert verify_pairs(pairs, [Edge(*e) for e in edges]) == expected
    assert read_back(config, edges, pairs) == expected


# -- counter traces ----------------------------------------------------------


def test_counter_trace_filters_and_orders():
    records = [
        {"kind": "offset-draw", "epoch": 0, "level": 0, "phase": 0, "d": 4, "vertex": 1, "offset": 9},
        {"kind": "counter-init", "epoch": 0, "level": 0, "phase": 0, "d": 4, "interval": 2, "vertex": 7, "index": 3},
        {"kind": "counter-bump", "epoch": 0, "level": 0, "phase": 0, "d": 4, "interval": 2, "vertex": 7, "index": 3, "value": 1, "assigned": True},
        {"kind": "counter-bump", "epoch": 0, "level": 1, "phase": 0, "d": 4, "interval": 0, "vertex": 5, "index": 2, "value": 1, "assigned": False},
    ]
    assert counter_trace(records) == [
        ("counter-init", 0, 4, 2, 7, 3, 0),
        ("counter-bump", 0, 4, 2, 7, 3, 1),
    ]
    assert counter_trace(records, level=1) == [("counter-bump", 0, 4, 0, 5, 2, 1)]


def vertex_sorted_workload(n=64, delta=16, m=256, seed=0):
    edges = order_stream(gen_multigraph(n, delta, m, seed=seed), "vertex-sorted")
    config = resolve_config(n=n, delta=delta, seed=seed, m=m)
    return config, edges


def test_counters_blind_to_offset_seed():
    config, edges = vertex_sorted_workload()
    ok, detail, _ = offset_independence_check(config, edges, offset_seed_a=7001, offset_seed_b=9103)
    assert ok, detail
    # the check is only meaningful when counters actually fired
    recorder = TraceRecorder()
    run_stream(config, edges, trace=recorder)
    assert len(counter_trace(recorder.records)) > 0


def bump_lazily(monkeypatch):
    """Make counters advance on assigned edges only."""
    original = ClassState.bump_counter

    def lazy_bump(self, u, *, assigned):
        if assigned:
            original(self, u, assigned=assigned)

    monkeypatch.setattr(ClassState, "bump_counter", lazy_bump)


def test_counter_canary_catches_lazy_bumps(monkeypatch):
    """An engine that only advances counters on assigned edges must be
    caught: its counter values start depending on the offset draws."""
    config, edges = vertex_sorted_workload()
    bump_lazily(monkeypatch)
    ok, detail, _ = offset_independence_check(config, edges, offset_seed_a=7001, offset_seed_b=9103)
    assert not ok
    assert "divergence" in detail or "lengths differ" in detail


# -- structural audits -------------------------------------------------------


def traced_run(order="vertex-sorted", n=64, delta=16, m=256, seed=0):
    trace = TraceRecorder()
    edges, emissions, metrics, config = color_run(n, delta, m, order=order, seed=seed, trace=trace)
    return trace, edges, emissions, metrics, config


def test_structure_audit_clean_on_real_run():
    trace, _, _, _, config = traced_run()
    assert assignment_structure_audit(trace.records, config) == []


def test_structure_audit_detects_wrong_slot():
    trace, _, _, _, config = traced_run()
    tampered = [dict(r) for r in trace.records]
    for r in tampered:
        if r["kind"] == "mixed-decision" and r["case"] == "block-assign":
            r["slot"] = (r["slot"] + 1) % (2 * config.kappa * r["d"])
            break
    else:
        pytest.fail("workload produced no block assignment to tamper with")
    violations = assignment_structure_audit(tampered, config)
    assert any("slot" in v for v in violations)


def test_structure_audit_detects_counter_out_of_range():
    trace, _, _, _, config = traced_run()
    tampered = [dict(r) for r in trace.records]
    for r in tampered:
        if r["kind"] == "mixed-decision" and r["case"] == "counter-assign":
            r["counter"] = 10**6
            break
    else:
        pytest.fail("workload produced no counter assignment to tamper with")
    violations = assignment_structure_audit(tampered, config)
    assert any("outside" in v for v in violations)


def test_structure_audit_reads_a_one_shot_iterator():
    # offsets and decisions come from one pass, so a trace read line by line
    # is audited like a list
    trace, _, _, _, config = traced_run()
    tampered = [dict(r) for r in trace.records]
    for r in tampered:
        if r["kind"] == "mixed-decision" and r["case"] == "block-assign":
            r["slot"] = (r["slot"] + 1) % (2 * config.kappa * r["d"])
    expected = assignment_structure_audit(tampered, config)
    assert expected
    assert assignment_structure_audit((r for r in tampered), config) == expected


def unknown_delta_burst_run(trace):
    # the degree-burst stream fills intervals in epochs 7 and 8, and the
    # counters fire in epoch 8
    return color_run(64, 256, 4096, order="degree-burst", trace=trace, delta_mode="unknown")


def test_audits_clean_on_unknown_delta_burst():
    trace = TraceRecorder()
    edges, _, _, config = unknown_delta_burst_run(trace)
    records = trace.records
    decisions = [r for r in records if r["kind"] == "mixed-decision"]
    assert len({r["epoch"] for r in decisions}) >= 2
    assert {"block-assign", "counter-assign", "gap-leftover"} <= {r["case"] for r in decisions}
    assert assignment_structure_audit(records, config) == []
    assert saturated_index_audit(records, config) == []
    ok, detail, events = offset_independence_check(config, edges, offset_seed_a=7001, offset_seed_b=9103)
    assert ok, detail
    assert events > 0  # counter events were compared, past epoch 0


@pytest.mark.parametrize("order", ["arrival-random", "vertex-sorted"])
def test_audits_clean_where_class_colors_span_lower_epochs(order):
    # intervals of n/16 edges fill in epochs below the top one, so the class
    # path runs in several epochs, not only where the degree bound settles
    edges = order_stream(gen_multigraph(256, 256, 8192, seed=1), order, seed=2)
    config = resolve_config(
        n=256, delta=256, m=8192, seed=1, interval_factor=0.0625, delta_mode="unknown"
    )
    trace = TraceRecorder()
    colorer = StreamColorer(config, trace=trace)
    emissions = list(colorer.run(edges))
    family_colors = [c for c in decoded(emissions) if c.kind in FAMILIES]
    assert len({c.epoch for c in family_colors}) >= 2
    assert assignment_structure_audit(trace.records, config) == []
    assert saturated_index_audit(trace.records, config) == []
    ok, detail, _ = offset_independence_check(config, edges, offset_seed_a=7001, offset_seed_b=9103)
    assert ok, detail
    for engine in colorer.engines():
        assert set(engine.meter.current.values()) <= {0}, (engine.epoch, engine.level)


def test_counters_fire_and_audit_clean_below_the_top_epoch():
    # the running max degree settles in epoch 6, and the level-0 counters
    # fire in epoch 4, on the way there
    edges = order_stream(gen_multigraph(512, 64, 8192, seed=1), "arrival-random", seed=2)
    config = resolve_config(n=512, delta=64, m=8192, seed=1, delta_mode="unknown")
    trace = TraceRecorder()
    colorer = StreamColorer(config, trace=trace)
    list(colorer.run(edges))
    records = trace.records
    top = max(engine.epoch for engine in colorer.engines())
    below = [ev for epoch in range(top) for ev in counter_trace(records, epoch=epoch)]
    assert len(below) > 0
    assert any(
        r["kind"] == "mixed-decision" and r["case"] == "counter-assign" and r["epoch"] < top
        for r in records
    )
    ok, detail, events = offset_independence_check(config, edges, offset_seed_a=7001, offset_seed_b=9103)
    assert ok, detail
    assert events >= len(below)
    ok, detail, assigned = trace_audit(records, config)
    assert ok, detail
    assert assigned > 0


def test_counter_canary_catches_lazy_bumps_past_epoch_zero(monkeypatch):
    edges, _, _, config = unknown_delta_burst_run(None)
    bump_lazily(monkeypatch)
    ok, detail, _ = offset_independence_check(config, edges, offset_seed_a=7001, offset_seed_b=9103)
    assert not ok
    assert "divergence" in detail or "lengths differ" in detail


_trace_scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['a"b', "a\\b", "tab\there", "\x7f", "caf\u00e9", "%s", "%d"]),
)
_trace_values = st.one_of(_trace_scalars, st.dictionaries(st.integers(), st.integers(), max_size=4))
# one key shape whose values change type from record to record
_fixed_shape = st.fixed_dictionaries({"kind": st.sampled_from(["exile", "x"]), "value": _trace_values})
_any_shape = st.dictionaries(
    st.one_of(st.text(max_size=6), st.sampled_from(["kind", "seq", "a%s", '"', "\\"])), _trace_values, max_size=5
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_fixed_shape, _any_shape), max_size=20))
def test_trace_dump_renders_json_dumps_bytes(records):
    recorder = TraceRecorder()
    for record in records:
        recorder.emit(record)
    out = io.StringIO()
    recorder.dump(out)
    assert out.getvalue() == "".join(json.dumps(r) + "\n" for r in records)
    # the cached templates serve a second dump the same bytes
    for record in records:
        recorder.emit(record)
    again = io.StringIO()
    recorder.dump(again)
    assert again.getvalue() == out.getvalue()


def test_trace_dump_checks_value_types_against_the_template_of_its_keys():
    # the template is cached per keys: a record whose value types differ
    # from the first record with those keys must still dump as json.dumps
    records = [
        {"kind": "x", "seq": 1, "tag": "a"},
        {"kind": "x", "seq": "1", "tag": 2},
        {"kind": "x", "seq": True, "tag": None},
        {"kind": "x", "seq": 3, "tag": "b"},
    ]
    for order in (records, records[::-1]):
        recorder = TraceRecorder()
        for record in order:
            recorder.emit(record)
        out = io.StringIO()
        recorder.dump(out)
        assert out.getvalue() == "".join(json.dumps(r) + "\n" for r in order)


def test_trace_recorder_with_sink_writes_each_record_through():
    held, streamed = TraceRecorder(), io.StringIO()
    recorder = TraceRecorder(sink=streamed)
    for i in range(1000):
        record = {"kind": "exile", "seq": i} if i % 2 else f'{{"kind": "offset-draw", "vertex": {i}}}\n'
        held.emit(record)
        recorder.emit(record)
        assert streamed.getvalue().count("\n") == i + 1  # reached the sink at once
        assert recorder.records == []  # and nothing is held
    assert len(held.records) == 1000
    recorder.dump(streamed)  # writes nothing more
    whole = io.StringIO()
    held.dump(whole)
    assert held.records == []
    assert streamed.getvalue() == whole.getvalue()


def test_trace_lines_are_canonical_json():
    # 16 vertices of degree up to 256 in vertex-sorted order stay high for
    # many intervals of one phase, so index draws repeat and step 1 exiles
    burst, exiling = TraceRecorder(), TraceRecorder()
    unknown_delta_burst_run(burst)
    color_run(16, 256, 2000, order="vertex-sorted", trace=exiling, delta_mode="unknown")
    kinds = set()
    for recorder in (burst, exiling):
        records = recorder.records
        out = io.StringIO()
        recorder.dump(out)
        lines = out.getvalue().splitlines(keepends=True)
        assert all(line == json.dumps(json.loads(line)) + "\n" for line in lines)
        assert records == [json.loads(line) for line in lines]
        kinds |= {r["kind"] for r in records}
    assert kinds == {
        "interval-degrees", "class-interval", "offset-draw", "counter-init",
        "counter-bump", "high-assign", "exile", "mixed-decision",
    }


def test_collector_closes_every_scope_by_finalize():
    edges = order_stream(gen_multigraph(256, 64, 4096, seed=3), "vertex-sorted", seed=3)
    colorer = StreamColorer(resolve_config(n=256, delta=64, m=4096, seed=3))
    emissions = list(colorer.run(edges))
    assert all(x.class_phases() == [] for x in colorer.engines())  # no phase is left open
    metrics = colorer.metrics(wall_ms=0.0)
    tokens = {c for _, c in emissions}
    assert metrics.colors_used == len(tokens)
    assert sum(s.distinct for s in metrics.scopes) == len(tokens)
    per_level = Counter((c.epoch, c.level) for c in map(decode_color, tokens))
    assert metrics.colors_per_level == per_level
    assert any(s.kind == "class" for s in metrics.scopes)


@pytest.mark.parametrize("mode", ["known", "unknown"])
def test_colored_counts_are_read_off_the_engines(mode):
    # fed a whole interval at a time and never finalized, a run has edges
    # waiting in deeper levels' buffers; each level's colored count is still
    # the tokens emitted at it so far, and after finalize every input edge
    edges = order_stream(gen_multigraph(256, 64, 4096, seed=3), "vertex-sorted", seed=3)
    config = resolve_config(n=256, delta=64, m=4096, seed=3, delta_mode=mode)
    colorer = StreamColorer(config)
    emissions, waiting = [], 0
    for start in range(0, len(edges), config.interval_size):
        emissions += colorer.feed(edges[start : start + config.interval_size])
        metrics = colorer.metrics(wall_ms=0.0)
        per_level = Counter((c.epoch, c.level) for c in decoded(emissions))
        assert metrics.colored_per_level == per_level
        assert metrics.depth == max((level for _, level in per_level), default=0)
        waiting = max(waiting, start + config.interval_size - len(emissions))
    assert waiting > 0 and metrics.depth > 0
    emissions += colorer.finalize()
    metrics = colorer.metrics(wall_ms=0.0)
    assert sum(metrics.colored_per_level.values()) == len(emissions) == metrics.input_edges == len(edges)


def class_scope_tokens(tokens):
    """The distinct class tokens of each (epoch, level, phase, d) head."""
    groups = {}
    for c in map(decode_color, tokens):
        if c.kind in FAMILIES:
            groups.setdefault((c.epoch, c.level, c.phase, c.d), set()).add(c)
    return {head: len(colors) for head, colors in groups.items()}


def class_scope_counts(metrics):
    return {(s.epoch, s.level, s.phase, s.d): s.distinct for s in metrics.scopes if s.kind == "class"}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 24),
    delta=st.sampled_from([4, 16]),
    fill=st.floats(0.2, 0.35),
    order=st.sampled_from(ORDER_POLICIES),
    delta_mode=st.sampled_from(["known", "unknown"]),
    max_depth=st.integers(1, 3),
    fixed_index=st.booleans(),
    seed=st.integers(0, 1 << 16),
    cut=st.floats(0.0, 1.0),
)
def test_class_scope_counts_are_the_distinct_tokens(n, delta, fill, order, delta_mode, max_depth,
                                                     fixed_index, seed, cut):
    # the collector counts a class scope from its slot masks; the tokens
    # the run emitted are the ground truth, mid-run (a phase may be open)
    # and after finalize
    m = max(1, int(n * delta * fill))
    edges = order_stream(gen_multigraph(n, delta, m, seed=seed), order, seed=seed)
    config = resolve_config(n=n, delta=delta, m=m, seed=seed, max_depth=max_depth, delta_mode=delta_mode)
    colorer = StreamColorer(config)
    if fixed_index:
        colorer.sigma_root = FixedIndex(*colorer.sigma_root)
    half = int(cut * len(edges))
    tokens = [c for _, c in colorer.feed(edges[:half])]
    assert class_scope_counts(colorer.metrics(wall_ms=0.0)) == class_scope_tokens(tokens)
    tokens += [c for _, c in colorer.feed(edges[half:])]
    tokens += [c for _, c in colorer.finalize()]
    metrics = colorer.metrics(wall_ms=0.0)
    assert class_scope_counts(metrics) == class_scope_tokens(tokens)
    assert metrics.colors_used == len(set(tokens))


@pytest.mark.parametrize("delta", [64, 256])
def test_instrumentation_stays_within_the_metered_peak(delta, monkeypatch):
    # the class scopes' slot masks are all the metrics hold per phase: at
    # every phase end, across all levels, no more entries than the words the
    # algorithm's own meter peaked at
    n = 1024
    m = n * delta // 4
    edges = order_stream(gen_multigraph(n, delta, m, seed=1), "vertex-sorted", seed=2)
    colorer = StreamColorer(resolve_config(n=n, delta=delta, m=m, seed=1))
    held = []
    end_phase = PhaseEngine._end_phase

    def probe(engine):
        held.append(sum(len(s.slot_masks) for x in colorer.engines() for s in x._states.values()))
        end_phase(engine)

    monkeypatch.setattr(PhaseEngine, "_end_phase", probe)
    list(colorer.run(edges))
    metered = sum(colorer.metrics(wall_ms=0.0).peak_words_per_level.values())
    assert held and 0 < max(held) <= metered


def test_saturation_audit_clean_on_real_runs():
    for order in ("arrival-random", "vertex-sorted", "degree-burst"):
        trace, _, _, _, config = traced_run(order=order)
        assert saturated_index_audit(trace.records, config) == []


def test_saturation_audit_detects_overload():
    # one vertex saturating more indices than delta/(2d) allows
    config = resolve_config(n=8, delta=16, seed=0)
    d = 8  # allowed saturated indices: 16 // 16 = 1
    records = []
    for interval, sigma in enumerate([1, 2]):
        records.append(
            {"kind": "interval-degrees", "epoch": 0, "level": 0, "interval": interval, "deg": {5: 2 * d}}
        )
        records.append(
            {"kind": "class-interval", "epoch": 0, "level": 0, "phase": 0, "d": d, "interval": interval, "sigma": sigma, "prior": 0}
        )
    violations = saturated_index_audit(records, config)
    assert violations and "saturated" in violations[0]


# -- metric-level checks -----------------------------------------------------


def test_color_budget_clean_run():
    _, _, metrics, _ = color_run(64, 16, 256, seed=0)
    used, budget, violations = color_budget_check(metrics)
    assert violations == []
    assert used <= budget


def test_color_budget_flags_overflow():
    _, _, metrics, _ = color_run(64, 16, 256, seed=0)
    inflated = metrics._replace(colors_used=10**9)
    _, _, violations = color_budget_check(inflated)
    assert violations


@pytest.mark.parametrize(
    "order, overrides", [("vertex-sorted", {}), ("degree-burst", {"delta_mode": "unknown"})]
)
def test_family_palettes_stay_within_their_budget(order, overrides):
    # group the emitted family colors by (epoch, level, phase, class, family)
    _, emissions, metrics, config = color_run(256, 64, 4096, order=order, seed=3, **overrides)
    edges: Counter = Counter()
    colors: dict[tuple, set[str]] = {}
    for _, token in emissions:
        c = decode_color(token)
        if c.kind in FAMILIES:
            group = (c.epoch, c.level, c.phase, c.d, c.kind)
            edges[group] += 1
            colors.setdefault(group, set()).add(token)
    assert {group[-1] for group in colors} >= {"A", "B"}
    per_scope: Counter = Counter()
    for group, distinct in colors.items():
        # one family's budget: palette_count * palette_size = 2 kappa^2 delta
        budget = 2 * config.kappa**2 * epoch_config(config, group[0]).delta
        assert len(distinct) <= min(edges[group], budget), group
        per_scope[group[:4]] += len(distinct)
    scopes = {(s.epoch, s.level, s.phase, s.d): s.distinct for s in metrics.scopes if s.kind == "class"}
    assert per_scope == scopes


def test_space_check_clean():
    _, _, metrics, _ = color_run(64, 16, 256, seed=0)
    assert space_check(metrics) == []


def test_space_meter_rejects_negative_balance():
    meter = SpaceMeter()
    meter.add("buffer", 2)
    with pytest.raises(EngineInvariantError):
        meter.add("buffer", -3)


def test_note_emission_counts_a_scope_in_one_call():
    collector = MetricsCollector()
    cfg = resolve_config(n=4, delta=4)
    collector.note_emission(("low", 0, 1, None, None, 0), 3, [])  # an empty bucket adds no scope
    empty = collector.build(config=cfg, engines=[], input_edges=0, wall_ms=0.0)
    assert empty.scopes == []

    edges = make_edges([(0, 1), (1, 2), (2, 3)])
    emissions = [(e, f"E0.L1.P0.I0.LOW.{s}") for e, s in zip(edges, (0, 1, 0))]
    collector.note_emission(("low", 0, 1, None, None, 0), 3, emissions)
    metrics = collector.build(config=cfg, engines=[], input_edges=3, wall_ms=0.0)
    # the colored edges are the engines' count, not the collector's
    assert metrics.colored_per_level == {} and metrics.depth == 0
    assert metrics.colors_per_level == {(0, 1): 2}
    assert [(s.kind, s.budget, s.distinct) for s in metrics.scopes] == [("low", 3, 2)]
    assert metrics.scopes[0] == ScopeStat("low", 0, 1, 3, 2, None, None, 0)


def test_leftover_stats_refuses_small_samples():
    with pytest.raises(ValueError):
        leftover_stats([fake_metrics(input_edges=100, leftover0=5)] * 19, kappa=32)


def test_leftover_stats_frozen_thresholds():
    runs = [fake_metrics(input_edges=100, leftover0=10)] * 10 + [
        fake_metrics(input_edges=100, leftover0=30)
    ] * 10
    report = leftover_stats(runs, kappa=32)
    assert report.runs == 20
    assert report.mean == pytest.approx(0.2)
    assert report.threshold == pytest.approx(0.26875)
    assert report.ci_low < report.mean < report.ci_high
    assert report.ok
    strict = leftover_stats(runs, kappa=64)
    assert strict.threshold == pytest.approx(0.159375)
    assert not strict.ok


def test_audit_gate_needs_clean_runs_that_audited_something():
    assert audit_gate([(True, "", 0), (True, "", 3)], "events") == (True, "2/2 runs clean across 3 events")
    ok, detail = audit_gate([(True, "", 0), (True, "", 0)], "events")
    assert not ok and detail == "2/2 runs clean across 0 events"
    ok, detail = audit_gate([(True, "", 5), (False, "first divergence at event 2", 4)], "events")
    assert not ok and detail == "1/2 runs clean across 9 events; first divergence at event 2"


def test_trace_audit_counts_the_assignments_it_audits():
    trace, _, _, _, config = traced_run()
    ok, detail, assigned = trace_audit(trace.records, config)
    cases = Counter(r["case"] for r in trace.records if r["kind"] == "mixed-decision")
    assert ok and assigned == cases["counter-assign"] + cases["block-assign"] > 0
    assert detail == f"0 violations over {assigned} B/C assignments"
    tampered = [dict(r) for r in trace.records]
    for r in tampered:
        if r["kind"] == "mixed-decision" and r["case"] == "block-assign":
            r["slot"] = (r["slot"] + 1) % (2 * config.kappa * r["d"])
            break
    ok, detail, _ = trace_audit(tampered, config)
    assert not ok and "slot" in detail


def test_depth_gate_frozen_thresholds():
    def runs(deep, fallbacks=0):
        shallow = fake_metrics(input_edges=100, leftover0=0)
        too_deep = shallow._replace(depth=17)  # bound at delta 64 is 16
        out = [too_deep] * deep + [shallow] * (20 - deep)
        out[-1] = out[-1]._replace(fallback_intervals=fallbacks)
        return out

    assert depth_gate(runs(2), 64) == (True, "18/20 runs within depth 16, 0 fallback intervals")
    assert not depth_gate(runs(3), 64)[0]
    assert not depth_gate(runs(0, fallbacks=1), 64)[0]


def test_space_gate_frozen_thresholds():
    def pair(ratio, stats=()):
        small = fake_metrics(input_edges=1, leftover0=0)
        big = fake_metrics(input_edges=1, leftover0=0, peak0=100 * ratio)
        return small, big._replace(class_phase_stats=list(stats))

    assert SPACE_RATIO_LIMIT == 2.5
    detail = "mean level-0 peak ratio 2.500 at doubled n (limit 2.5), 0 structural findings"
    assert space_gate([pair(2), pair(3)]) == (True, detail)
    assert not space_gate([pair(2), pair(3.5)])[0]
    # 9 index inserts at d=4 need more than 2 * 16 edges
    crowded = ClassPhaseStat(epoch=0, level=0, phase=0, d=4, sqrt_delta=4, index_inserts=9,
                             counter_creates=0, phase_edges=16)
    ok, detail = space_gate([pair(1, [crowded])])
    assert not ok and detail.endswith(", 1 structural findings")


def test_leftover_stats_rejects_empty_streams():
    with pytest.raises(ValueError):
        leftover_stats([fake_metrics(input_edges=0, leftover0=0)] * 20, kappa=32)
