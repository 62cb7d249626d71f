"""The offset-distance rule, first-fit coloring, and scoped randomness."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsecolor import Edge, EngineInvariantError
from wsecolor.primitives import (
    RandomSource,
    first_fit_slots,
    gap_check,
    greedy_edge_color,
)

from support import find_conflicts, make_edges


# frozen circular distances for K=256, d=4: defer iff gap < 8 or gap > 248
@pytest.mark.parametrize(
    "r_u,r_v,defer",
    [(96, 100, True), (100, 96, True), (10, 40, False), (7, 15, False), (0, 249, True), (0, 248, False)],
)
def test_gap_check_frozen(r_u, r_v, defer):
    assert gap_check(r_u, r_v, 4, 256) is defer


def test_gap_check_symmetric_exhaustive():
    # swapping endpoints flips the gap to K - gap, same verdict
    for r_u in range(64):
        for r_v in range(64):
            assert gap_check(r_u, r_v, 4, 64) == gap_check(r_v, r_u, 4, 64)


@given(st.integers(0, 511), st.integers(0, 511), st.integers(1, 32))
def test_gap_check_matches_circular_distance(r_u, r_v, d):
    size = 512
    gap = (r_v - r_u) % size
    circular = min(gap, size - gap)
    assert gap_check(r_u, r_v, d, size) == (circular < 2 * d)


# -- first fit ---------------------------------------------------------------

small_edges = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=40,
).map(make_edges)


@given(small_edges)
def test_first_fit_is_proper_and_bounded(edges):
    deg: dict[int, int] = {}
    for e in edges:
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    bound = 2 * max(deg.values()) - 1
    slots = first_fit_slots(edges, bound)
    assert len(slots) == len(edges)
    assert all(0 <= s < bound for s in slots)
    fake_palette = [f"E0.L0.BASE.{s}" for s in range(bound)]
    colored = [(e, fake_palette[s]) for e, s in zip(edges, slots)]
    assert find_conflicts(colored) == []


def test_first_fit_exhaustion_raises():
    edges = make_edges([(0, 1), (0, 2), (0, 3)])
    with pytest.raises(EngineInvariantError, match="palette exhausted"):
        first_fit_slots(edges, 2)


def test_greedy_edge_color_small_palette_rejected():
    edges = make_edges([(0, 1), (0, 2)])
    palette = ["E0.L0.BASE.0"]  # degree bound 2 needs 3 entries
    with pytest.raises(ValueError):
        greedy_edge_color(edges, 2, palette)


def test_greedy_edge_color_empty_input():
    assert greedy_edge_color([], 0, []) == []


@given(st.permutations(make_edges([(0, 1), (1, 2), (2, 3), (0, 1), (3, 0), (1, 3)])))
def test_greedy_edge_color_returns_ascending_seq(edges):
    palette = [f"E0.L0.P0.I0.LOW.{s}" for s in range(7)]
    colored = greedy_edge_color(edges, 4, palette)
    assert [e.seq for e, _ in colored] == list(range(6))
    assert colored == greedy_edge_color(sorted(edges, key=lambda e: e.seq), 4, palette)


@given(small_edges)
def test_greedy_edge_color_proper(edges):
    deg: dict[int, int] = {}
    for e in edges:
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    bound = max(deg.values())
    palette = [f"E0.L0.P0.I0.LOW.{s}" for s in range(2 * bound - 1)]
    colored = greedy_edge_color(edges, bound, palette)
    assert len(colored) == len(edges)
    assert find_conflicts(colored) == []


# -- scoped randomness -------------------------------------------------------


def test_random_source_replays_exactly():
    a = RandomSource(42, ("sigma",)).child("p", 0, "d", 4)
    b = RandomSource(42, ("sigma",)).child("p", 0, "d", 4)
    assert [a.child("i", i).randrange(1000) for i in range(20)] == [
        b.child("i", i).randrange(1000) for i in range(20)
    ]


def test_random_source_distinct_paths_disagree():
    root = RandomSource(42, ("offsets",))
    seq_a = [root.child("p", 0, "d", 4, "v", v).randrange(10**9) for v in range(40)]
    seq_b = [root.child("p", 0, "d", 8, "v", v).randrange(10**9) for v in range(40)]
    assert seq_a != seq_b


def test_random_source_distinct_seeds_disagree():
    path = ("sigma", "p", "1")
    seq_a = [RandomSource(1, path).child("i", i).randrange(10**9) for i in range(40)]
    seq_b = [RandomSource(2, path).child("i", i).randrange(10**9) for i in range(40)]
    assert seq_a != seq_b


def test_random_source_child_extends_path():
    src = RandomSource(5, ("a",)).child("b", 7)
    assert src.path == ("a", "b", "7")
    assert src.seed == 5


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 99), max_size=4))
def test_random_source_rng_is_stable(seed, labels):
    src = RandomSource(seed, ("root",)).child(*labels)
    assert src.rng().random() == src.rng().random()
