"""Per-class interval state and the two coloring steps.

The frozen slot values below were computed by hand from the slot rules:
C-family slot = (r_u + counter) mod K, B-family slot = (r_u + b +
width * prior) mod K, with K = 2 * kappa * d and width the square root of
the degree bound.
"""

import pytest

from wsecolor import Edge, SpaceMeter, TraceRecorder, decode_color, encode_color
from wsecolor.class_colorer import ClassState, step1_high_high, step2_high_low
from wsecolor.primitives import RandomSource

from support import color_run, decoded


def make_state(d=4, delta=16, kappa=32, *, trace=None, meter=None, sigma_seed=123, offset_seed=456):
    return ClassState(
        epoch=0,
        level=0,
        phase=0,
        d=d,
        delta=delta,
        kappa=kappa,
        sigma_source=RandomSource(sigma_seed, ("sigma",)).child("p", 0, "d", d),
        offset_source=RandomSource(offset_seed, ("offsets",)).child("p", 0, "d", d),
        meter=SpaceMeter() if meter is None else meter,
        trace=trace,
    )


def test_parameters_frozen():
    s = make_state(d=4, delta=16, kappa=32)
    assert s.palette_size == 256
    assert s.palette_count == 128
    assert s.block_width == 4
    assert s.prior_cap == 2
    assert s.counter_cap == 8
    big = make_state(d=8, delta=64, kappa=32)
    assert big.palette_size == 512
    assert big.palette_count == 256
    assert big.block_width == 8


def test_sigma_draw_range_and_determinism():
    s = make_state()
    draws = [s.begin_interval(i) for i in range(50)]
    assert all(1 <= x <= s.palette_count for x in draws)
    replay = make_state()
    assert [replay.begin_interval(i) for i in range(50)] == draws


def test_offsets_lazy_stable_in_range():
    s = make_state()
    r = s.offset_of(9)
    assert 0 <= r < s.palette_size
    assert s.offset_of(9) == r
    assert s.offsets == {9: r}


def test_prior_counts_histogram():
    s = make_state()
    drawn = []
    for i in range(6):
        sigma = s.begin_interval(i)
        # the tally counts the earlier intervals in the phase that drew this index
        assert s.prior_counts.get(sigma, 0) == drawn.count(sigma)
        drawn.append(sigma)
        s.end_interval()
    for sigma in set(drawn):
        assert s.prior_counts[sigma] == drawn.count(sigma)


def test_index_marking():
    meter = SpaceMeter()
    s = make_state(meter=meter)
    s.begin_interval(0)
    step1_high_high([], [], {5}, s)
    assert s.index_sets == {5: {s.sigma}}
    # a second pass in the interval exiles 5 and marks only the fresh 6
    _, _, usable = step1_high_high([], [], {5, 6}, s)
    assert usable == {6}
    assert s.index_sets == {5: {s.sigma}, 6: {s.sigma}}
    assert meter.current["index_sets"] == 2


# -- step 2 scenarios (d=4, delta=16, kappa=32: K=256, width=4) --------------


def run_step2(state, h2, usable, high, deg):
    return step2_high_low(h2, usable, high, deg, state)


def counter(state, u):
    return state.counters.get((u, state.sigma))


def test_counter_lifecycle_and_bump_flag():
    trace = TraceRecorder()
    s = make_state(trace=trace)
    s.begin_interval(0)
    s.bump_counter(3, assigned=False)  # no counter yet: nothing to advance
    assert s.counters == {}
    # gaps 8 (clear of 2d) and 1 (inside it): one assignment, then a deferral
    s.offsets.update({3: 7, 9: 15, 11: 8})
    h2 = [Edge(3, 9, 0), Edge(3, 11, 1)]
    emissions, leftovers = run_step2(s, h2, {9, 11}, {9, 11}, {3: 5, 9: 8, 11: 8})
    assert [e.seq for e, _ in emissions] == [0] and [e.seq for e in leftovers] == [1]
    assert s.counters == {(3, s.sigma): 2}
    # a later call in the interval finds the counter and creates none
    run_step2(s, [Edge(3, 9, 2)], {9}, {9}, {3: 5, 9: 8})
    assert counter(s, 3) == 3
    inits = [r for r in trace.records if r["kind"] == "counter-init"]
    assert [(r["vertex"], r["index"]) for r in inits] == [(3, s.sigma)]
    bumps = [r for r in trace.records if r["kind"] == "counter-bump"]
    assert [b["assigned"] for b in bumps] == [True, False, True]
    assert [b["value"] for b in bumps] == [1, 2, 3]


def test_window_cleared_on_interval_end():
    s = make_state()
    s.begin_interval(0)
    s.offsets.update({3: 7, 9: 15})
    run_step2(s, [Edge(3, 9, 0)], {9}, {9}, {3: 1, 9: 8})
    assert s.window == {(9, "B", 7)}
    s.end_interval()
    assert s.window == set()


def test_release_returns_every_word():
    meter = SpaceMeter()
    s = make_state(meter=meter)
    s.begin_interval(0)
    h2 = [Edge(3, 9, 0)]
    _, _, usable = step1_high_high([], h2, {9}, s)
    run_step2(s, h2, usable, {9}, {3: 5, 9: 8})
    s.end_interval()
    held = {c: meter.current[c] for c in ("offsets", "index_sets", "counters", "prior_counts")}
    assert held == {"offsets": 2, "index_sets": 1, "counters": 1, "prior_counts": 1}
    s.release()
    assert meter.total == 0


def test_counter_path_frozen_slot():
    trace = TraceRecorder()
    s = make_state(trace=trace)
    s.begin_interval(0)
    s.offsets.update({3: 7, 9: 15})  # gap (15-7)%256 = 8, exactly clear of 2d
    s.counters[(3, s.sigma)] = 3
    emissions, leftovers = run_step2(s, [Edge(3, 9, 0)], {9}, {9}, {3: 5, 9: 8})
    assert leftovers == []
    [color] = decoded(emissions)
    assert (color.kind, color.slot) == ("C", 10)  # (7 + 3) mod 256
    assert color.index == s.sigma
    assert counter(s, 3) == 4  # bumped after the assignment
    [dec] = [r for r in trace.records if r["kind"] == "mixed-decision"]
    assert dec["case"] == "counter-assign"
    assert dec["low"] == 3 and dec["high"] == 9


def test_block_path_frozen_slots():
    s = make_state()
    s.begin_interval(0)
    s.offsets.update({3: 7, 9: 15, 11: 100})
    s.prior_counts[s.sigma] = 1
    h2 = [Edge(3, 9, 0), Edge(3, 11, 1)]
    emissions, leftovers = run_step2(s, h2, {9, 11}, {9, 11}, {3: 2, 9: 8, 11: 8})
    assert leftovers == []
    slots = [(c.kind, c.slot) for c in decoded(emissions)]
    # b walks 0, 1 over the low vertex's edges; block shifted by width * prior
    assert slots == [("B", 11), ("B", 12)]  # (7+0+4*1), (7+1+4*1)


def test_slots_wrap_around_the_palette():
    # d=8, kappa=16: K=256, width 8, counter cap 16; r_u=250 plus offset 10 is slot 4
    c = make_state(d=8, delta=64, kappa=16)
    c.begin_interval(0)
    c.offsets.update({3: 250, 9: 20})  # gap 26, clear of 2d = 16
    c.counters[(3, c.sigma)] = 10
    emissions, _ = run_step2(c, [Edge(3, 9, 0)], {9}, {9}, {3: 9, 9: 16})
    assert [(x.kind, x.slot) for x in decoded(emissions)] == [("C", 4)]
    b = make_state(d=8, delta=64, kappa=16)
    b.begin_interval(0)
    b.offsets.update({3: 250, 9: 20})
    b.prior_counts[b.sigma] = 1
    h2 = [Edge(3, 9, seq) for seq in range(3)]
    emissions, _ = run_step2(b, h2, {9}, {9}, {3: 3, 9: 16})
    # b + width * prior walks 8, 9, 10 past 250
    assert [(x.kind, x.slot) for x in decoded(emissions)] == [("B", 2), ("B", 3), ("B", 4)]


def test_gap_defers_both_sides():
    s = make_state()
    s.begin_interval(0)
    s.offsets.update({3: 7, 9: 10, 11: 4})
    h2 = [Edge(3, 9, 0), Edge(3, 11, 1)]
    emissions, leftovers = run_step2(s, h2, {9, 11}, {9, 11}, {3: 2, 9: 8, 11: 8})
    # gaps 3 and 253 both sit inside the forbidden band for 2d = 8
    assert emissions == []
    assert [e.seq for e in leftovers] == [0, 1]


def test_counter_cap_defers_but_still_bumps():
    s = make_state()
    s.begin_interval(0)
    s.offsets.update({3: 7, 9: 15})
    s.counters[(3, s.sigma)] = 8  # cap = 2d = 8
    emissions, leftovers = run_step2(s, [Edge(3, 9, 0)], {9}, {9}, {3: 5, 9: 8})
    assert emissions == []
    assert [e.seq for e in leftovers] == [0]
    assert counter(s, 3) == 9  # deferred edges advance the counter too


def test_prior_cap_defers():
    s = make_state()
    s.begin_interval(0)
    s.offsets.update({3: 7, 9: 15})
    s.prior_counts[s.sigma] = 2  # cap = 2d / width = 2
    emissions, leftovers = run_step2(s, [Edge(3, 9, 0)], {9}, {9}, {3: 2, 9: 8})
    assert emissions == []
    assert len(leftovers) == 1


def test_block_conflict_at_shared_anchor():
    trace = TraceRecorder()
    s = make_state(trace=trace)
    s.begin_interval(0)
    s.offsets.update({1: 7, 2: 7, 9: 15})  # same offset, same target slot at v=9
    h2 = [Edge(1, 9, 0), Edge(2, 9, 1)]
    emissions, leftovers = run_step2(s, h2, {9}, {9}, {1: 1, 2: 1, 9: 8})
    assert len(emissions) == 1 and len(leftovers) == 1
    cases = [r["case"] for r in trace.records if r["kind"] == "mixed-decision"]
    assert cases == ["block-assign", "block-conflict"]


def test_counter_conflict_at_shared_anchor():
    trace = TraceRecorder()
    s = make_state(trace=trace)
    s.begin_interval(0)
    s.offsets.update({1: 7, 2: 7, 9: 15})  # both counters start at 0: slot 7 at v=9 twice
    h2 = [Edge(1, 9, 0), Edge(2, 9, 1)]
    emissions, leftovers = run_step2(s, h2, {9}, {9}, {1: 5, 2: 5, 9: 8})
    assert [(e.seq, c.kind, c.slot) for (e, _), c in zip(emissions, decoded(emissions))] == [(0, "C", 7)]
    assert [e.seq for e in leftovers] == [1]
    cases = [r["case"] for r in trace.records if r["kind"] == "mixed-decision"]
    assert cases == ["counter-assign", "counter-conflict"]
    assert counter(s, 1) == 1 and counter(s, 2) == 1  # the conflict still bumps
    assert s.window == {(9, "C", 7)}


def test_b_and_c_slots_of_one_number_share_an_anchor():
    meter = SpaceMeter()
    s = make_state(meter=meter)
    s.begin_interval(0)
    s.offsets.update({1: 7, 2: 7, 9: 15})
    h2 = [Edge(1, 9, 0), Edge(2, 9, 1)]
    # vertex 1 holds a counter (C slot 7 + 0), vertex 2 packs a block (B slot 7 + 0)
    emissions, leftovers = run_step2(s, h2, {9}, {9}, {1: 5, 2: 1, 9: 8})
    assert leftovers == []
    pairs = zip(emissions, decoded(emissions))
    assert [(e.seq, c.kind, c.slot) for (e, _), c in pairs] == [(0, "C", 7), (1, "B", 7)]
    assert s.window == {(9, "C", 7), (9, "B", 7)}
    s.end_interval()
    # the window is metered per interval, so its size shows as the peak
    assert meter.category_peaks["window"] == 2
    assert s.window == set() and meter.current["window"] == 0


def test_exiled_edges_enumerate_for_counters():
    s = make_state()
    s.begin_interval(0)
    s.offsets.update({3: 7, 9: 15})
    # v=9 not usable: step 1 already deferred everything it touches
    emissions, leftovers = run_step2(s, [Edge(3, 9, 0)], set(), {9}, {3: 5, 9: 8})
    assert emissions == [] and leftovers == []
    assert counter(s, 3) == 1  # created (degree 5 > width 4) and advanced


def test_counter_created_only_past_width():
    s = make_state()
    s.begin_interval(0)
    s.offsets.update({3: 7, 9: 15})
    run_step2(s, [Edge(3, 9, 0)], {9}, {9}, {3: 4, 9: 8})  # degree == width: no counter
    assert s.counters == {}


def test_low_vertices_visited_in_ascending_id():
    trace = TraceRecorder()
    s = make_state(trace=trace)
    s.begin_interval(0)
    s.offsets.update({2: 20, 5: 40, 9: 60})
    h2 = [Edge(5, 9, 0), Edge(2, 9, 1)]
    run_step2(s, h2, {9}, {9}, {2: 1, 5: 1, 9: 8})
    lows = [r["low"] for r in trace.records if r["kind"] == "mixed-decision"]
    assert lows == [2, 5]


# -- step 1 scenarios ---------------------------------------------------------


def test_step1_colors_fresh_high_pairs():
    s = make_state()
    s.begin_interval(0)
    h1 = [Edge(5, 6, 0), Edge(5, 6, 1)]
    emissions, leftovers, usable = step1_high_high(h1, [], {5, 6}, s)
    assert usable == {5, 6}
    assert leftovers == []
    slots = [c.slot for c in decoded(emissions)]
    assert slots == [0, 1]  # first fit over parallel edges
    assert all(c.kind == "A" for c in decoded(emissions))
    assert s.index_sets == {5: {s.sigma}, 6: {s.sigma}}


def test_step1_exiles_stale_vertices_wholesale():
    trace = TraceRecorder()
    s = make_state(trace=trace)
    s.begin_interval(0)
    s.index_sets[5] = {s.sigma}  # this index already served vertex 5
    h1 = [Edge(5, 6, 0)]
    h2 = [Edge(5, 3, 1), Edge(6, 4, 2)]
    emissions, leftovers, usable = step1_high_high(h1, h2, {5, 6}, s)
    assert usable == {6}
    assert emissions == []
    assert sorted(e.seq for e in leftovers) == [0, 1]  # everything touching 5
    exiles = [r for r in trace.records if r["kind"] == "exile"]
    assert sorted(r["seq"] for r in exiles) == [0, 1]


def test_step1_marks_index_at_every_high_vertex():
    s = make_state()
    s.begin_interval(0)
    step1_high_high([], [Edge(3, 9, 0)], {9}, s)
    assert s.index_sets == {9: {s.sigma}}


def test_repeat_index_next_interval_exiles():
    s = make_state()
    s.begin_interval(0)
    step1_high_high([], [Edge(3, 9, 0)], {9}, s)
    s.end_interval()
    s.begin_interval(1)
    s.index_sets[9] = {s.sigma}  # force the repeat-draw situation
    emissions, leftovers, usable = step1_high_high([], [Edge(3, 9, 7)], {9}, s)
    assert usable == set()
    assert [e.seq for e in leftovers] == [7]


def test_color_fields_carry_class_identity():
    s = make_state(d=8, delta=64)
    s.begin_interval(2)
    s.offsets.update({3: 17, 9: 100})
    [(_, token)], _ = run_step2(s, [Edge(3, 9, 0)], {9}, {9}, {3: 1, 9: 16})
    color = decode_color(token)
    assert (color.epoch, color.level, color.phase, color.d) == (0, 0, 0, 8)
    assert color.kind == "B"
    assert color.index == s.sigma
    assert color.slot == 17


@pytest.mark.parametrize(
    "order, traced, overrides",
    [("degree-burst", True, {"delta_mode": "unknown"}), ("vertex-sorted", False, {})],
)
def test_engine_colors_equal_their_decoded_tokens(order, traced, overrides):
    # each emitted token must parse, and be the canonical spelling of its color
    trace = TraceRecorder() if traced else None
    _, emissions, _, _ = color_run(64, 256, 4096, order=order, trace=trace, **overrides)
    kinds = set()
    for _, token in emissions:
        color = decode_color(token)
        assert encode_color(color) == token
        kinds.add(color.kind)
    assert {"A", "B"} <= kinds
