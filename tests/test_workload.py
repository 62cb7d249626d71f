"""Generator guarantees, the three stream orderings, and both text formats."""

import io
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsecolor import (
    ColorId,
    Edge,
    StreamInputError,
    decode_color,
    encode_color,
    gen_multigraph,
    order_stream,
    read_colored,
    read_stream,
    verify_proper,
    write_colored,
    write_stream,
)
from wsecolor.model import FAMILIES
from wsecolor.workload import ORDER_POLICIES, SPELLINGS, StreamFormatError

from support import (
    damaged_colorings,
    find_conflicts,
    make_edges,
    oracle_gen_multigraph,
    oracle_order_stream,
    oracle_stream_text,
)


def degrees(edges):
    deg = {}
    for u, v, _ in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def pair_multiset(edges):
    return sorted((min(u, v), max(u, v)) for u, v, _ in edges)


# -- generator ---------------------------------------------------------------


def test_gen_degree_one_forces_a_matching():
    edges = gen_multigraph(4, 1, 2, seed=0)
    assert len(edges) == 2
    endpoints = [x for u, v, _ in edges for x in (u, v)]
    assert len(set(endpoints)) == 4


def test_gen_two_vertices_forces_parallel_edges():
    edges = gen_multigraph(2, 3, 3, seed=5)
    assert pair_multiset(edges) == [(0, 1)] * 3


def test_gen_sequences_by_position():
    edges = gen_multigraph(16, 4, 20, seed=1)
    assert [seq for _, _, seq in edges] == list(range(20))


@st.composite
def gen_params(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    delta = draw(st.integers(min_value=1, max_value=6))
    # strictly below the packing ceiling so rejection sampling cannot strand
    m = draw(st.integers(min_value=0, max_value=n * delta // 3))
    return n, delta, m


@given(gen_params(), st.integers(min_value=0, max_value=2**32))
def test_gen_respects_the_degree_bound(params, seed):
    n, delta, m = params
    edges = gen_multigraph(n, delta, m, seed=seed)
    assert len(edges) == m
    assert all(u != v for u, v, _ in edges)
    assert all(0 <= u < n and 0 <= v < n for u, v, _ in edges)
    assert max(degrees(edges).values(), default=0) <= delta
    assert edges == gen_multigraph(n, delta, m, seed=seed)


def test_gen_simple_mode_avoids_repeats():
    edges = gen_multigraph(10, 6, 20, allow_parallel=False, seed=2)
    pairs = pair_multiset(edges)
    assert len(set(pairs)) == len(pairs) == 20


def test_gen_simple_mode_gives_up_when_impossible():
    # two vertices admit a single simple edge; asking for two must abort
    with pytest.raises(StreamInputError, match="gave up"):
        gen_multigraph(2, 3, 2, allow_parallel=False, seed=0)


def test_gen_stops_once_one_vertex_holds_all_free_degree():
    # the last free degree strands on one vertex; no draw can place an edge
    start = time.perf_counter()
    with pytest.raises(StreamInputError, match="no two vertices have free degree"):
        gen_multigraph(256, 64, 8192, seed=5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "n, delta, m, message",
    [
        (4, 2, 5, "cannot fit"),
        (1, 4, 1, "at least 2 vertices"),
        (0, 4, 0, "vertex count"),
        (4, -1, 0, "degree bound"),
        (4, 2, -1, "edge count"),
    ],
)
def test_gen_rejects_bad_parameters(n, delta, m, message):
    with pytest.raises(StreamInputError, match=message):
        gen_multigraph(n, delta, m)


@pytest.mark.parametrize("delta", [-1, 0])
def test_gen_rejects_degree_bound_below_one_as_color_does(delta):
    with pytest.raises(StreamInputError, match=rf"^degree bound must be >= 1, got {delta}$"):
        gen_multigraph(4, delta, 0)


def outcome(fn, *args, **kwargs):
    """fn's rows, or the message of the StreamInputError it raised."""
    try:
        return fn(*args, **kwargs)
    except StreamInputError as err:
        return str(err)


@st.composite
def gen_cases(draw):
    n = draw(st.integers(min_value=0, max_value=16))
    delta = draw(st.integers(min_value=-1, max_value=6))
    # up to just past the packing ceiling, where sampling gives up or refuses
    m = draw(st.integers(min_value=-1, max_value=max(n * delta // 2, 0) + 2))
    policy = draw(st.sampled_from(ORDER_POLICIES + ("sorted",)))
    return n, delta, m, draw(st.booleans()), policy


@settings(max_examples=300, deadline=None)
@given(gen_cases(), st.integers(min_value=0, max_value=2**64))
@example((2, 3, 2, False, "arrival-random"), 0)  # out of attempts
@example((256, 64, 8192, True, "degree-burst"), 5)  # free degree stranded
@example((40, 6, 100, True, "arrival-random"), 2**40)
def test_gen_and_order_match_the_randrange_oracle(case, seed):
    n, delta, m, allow_parallel, policy = case
    rows = outcome(gen_multigraph, n, delta, m, allow_parallel=allow_parallel, seed=seed)
    edges = outcome(oracle_gen_multigraph, n, delta, m, allow_parallel=allow_parallel, seed=seed)
    assert rows == edges
    if isinstance(edges, str):
        return
    assert {type(row) for row in rows} <= {tuple}
    ordered = outcome(order_stream, rows, policy, seed=seed + 1)
    expected = outcome(oracle_order_stream, edges, policy, seed=seed + 1)
    assert ordered == expected
    if not isinstance(expected, str):
        assert {type(row) for row in ordered} <= {tuple}
        assert stream_text(n, delta, ordered) == oracle_stream_text(n, delta, expected)


# -- orderings ---------------------------------------------------------------


def test_order_policies_are_exactly_the_documented_three():
    assert ORDER_POLICIES == ("arrival-random", "vertex-sorted", "degree-burst")


@pytest.mark.parametrize("policy", ORDER_POLICIES)
def test_order_preserves_the_multiset_and_reseqs(policy):
    edges = gen_multigraph(12, 4, 20, seed=7)
    out = order_stream(edges, policy, seed=3)
    assert pair_multiset(out) == pair_multiset(edges)
    assert [seq for _, _, seq in out] == list(range(20))


def test_arrival_random_is_seed_deterministic():
    edges = gen_multigraph(12, 6, 30, seed=0)
    again = order_stream(edges, "arrival-random", seed=9)
    assert order_stream(edges, "arrival-random", seed=9) == again
    assert order_stream(edges, "arrival-random", seed=10) != again


def test_vertex_sorted_frozen_order():
    edges = make_edges([(2, 1), (0, 3), (1, 0), (0, 3)])
    out = order_stream(edges, "vertex-sorted")
    assert out == [(1, 0, 0), (0, 3, 1), (0, 3, 2), (2, 1, 3)]


def test_degree_burst_frozen_order():
    # degrees: 0 -> 3, 1 -> 2, 2 -> 2, 3 -> 1.  Edge (1, 2) ties on degree
    # and goes to the larger id, so vertex 0's burst comes first.
    edges = make_edges([(1, 2), (0, 1), (0, 2), (0, 3)])
    out = order_stream(edges, "degree-burst")
    assert out == [(0, 1, 0), (0, 2, 1), (0, 3, 2), (1, 2, 3)]


def test_degree_burst_keeps_arrival_order_within_a_burst():
    edges = make_edges([(0, 3), (0, 1), (0, 2)])
    out = order_stream(edges, "degree-burst")
    assert out == [(0, 3, 0), (0, 1, 1), (0, 2, 2)]


def test_order_rejects_unknown_policy():
    with pytest.raises(StreamInputError, match="unknown order policy"):
        order_stream(make_edges([(0, 1)]), "sorted")


# -- stream files ------------------------------------------------------------


def stream_text(n, delta, edges):
    fh = io.StringIO()
    write_stream(fh, n, delta, edges)
    return fh.getvalue()


def test_stream_roundtrip():
    edges = gen_multigraph(8, 4, 10, seed=4)
    text = stream_text(8, 4, edges)
    assert text.splitlines()[0] == "wse v1 8 4 10"
    header, body = read_stream(io.StringIO(text))
    assert (header.n, header.delta, header.m) == (8, 4, 10)
    assert list(body) == [tuple(e) for e in edges]


def test_stream_body_is_lazy():
    header, body = read_stream(io.StringIO("wse v1 4 2 2\n0 1\n2 3\n"))
    assert header.m == 2
    assert iter(body) is body
    assert next(body) == (0, 1, 0)


def test_stream_reader_skips_blank_lines():
    text = "wse v1 4 2 2\n0 1\n\n2 3\n\n"
    _, body = read_stream(io.StringIO(text))
    assert list(body) == [(0, 1, 0), (2, 3, 1)]


@pytest.mark.parametrize(
    "header",
    [
        "",
        "wse v2 4 2 1",
        "wse v1 4 2",
        "wse v1 4 2 1 9",
        "wse v1 a 2 1",
        "wse v1 0 2 0",
        "edges 4 2 1 x",
    ],
)
def test_stream_rejects_bad_headers(header):
    with pytest.raises(StreamFormatError, match="line 1"):
        read_stream(io.StringIO(header + "\n0 1\n"))


# every integer field is ASCII decimal digits: int() would also take an
# underscore between digits, a sign, and other scripts' digits (U+0663 is
# an Arabic-Indic three)
NOT_DECIMAL = {"underscore": "1_0", "plus": "+1", "minus": "-1", "non-ascii-digit": "\u0663"}


@pytest.mark.parametrize("spelling", NOT_DECIMAL.values(), ids=NOT_DECIMAL)
@pytest.mark.parametrize("field", range(3), ids=["n", "delta", "m"])
def test_stream_header_fields_are_decimal_digits(field, spelling):
    values = ["4", "2", "1"]
    values[field] = spelling
    header = "wse v1 " + " ".join(values)
    with pytest.raises(StreamFormatError, match=f"line 1: expected header .*, got '{re.escape(header)}'"):
        read_stream(io.StringIO(header + "\n0 1\n"))


@pytest.mark.parametrize("spelling", NOT_DECIMAL.values(), ids=NOT_DECIMAL)
@pytest.mark.parametrize("field", range(2), ids=["u", "v"])
def test_stream_endpoints_are_decimal_digits(field, spelling):
    # a negative vertex used to read as -1 and fail the range check as
    # "vertex -1 outside [0, n)"; it is now outside the grammar
    values = ["0", "1"]
    values[field] = spelling
    line = " ".join(values)
    _, body = read_stream(io.StringIO(f"wse v1 16 2 2\n0 1\n{line}\n"))
    assert next(body) == (0, 1, 0)
    with pytest.raises(StreamFormatError, match=f"line 3: endpoints must be integers, got '{re.escape(line)}'"):
        next(body)


@pytest.mark.parametrize("spelling", NOT_DECIMAL.values(), ids=NOT_DECIMAL)
@pytest.mark.parametrize("field", range(3), ids=["u", "v", "seq"])
def test_colored_integers_are_decimal_digits(field, spelling):
    values = ["0", "1", "0"]
    values[field] = spelling
    line = " ".join(values) + " E0.L0.BASE.0"
    with pytest.raises(StreamFormatError, match=f"line 1: endpoints and seq must be integers, got '{re.escape(line)}'"):
        list(read_colored(io.StringIO(line + "\n")))


@pytest.mark.parametrize(
    "body, message",
    [
        ("0 1 2\n", "line 2: expected"),
        ("0 x\n", "line 2: endpoints"),
        ("0 9\n", r"line 2: vertex 9 outside \[0, 4\)"),
        ("0 1\n1 2\n", "line 3: more than the declared"),
        ("", "ended after 0 of 1"),
    ],
)
def test_stream_rejects_bad_bodies(body, message):
    _, edges = read_stream(io.StringIO("wse v1 4 2 1\n" + body))
    with pytest.raises(StreamFormatError, match=message):
        list(edges)


def test_stream_format_error_is_an_input_error():
    assert issubclass(StreamFormatError, StreamInputError)


# -- colored files -----------------------------------------------------------


def test_colored_roundtrip():
    emissions = [
        (Edge(0, 1, 0), encode_color(ColorId(0, 0, "BASE", 3))),
        (Edge(1, 2, 1), encode_color(ColorId(0, 1, "B", 42, phase=2, d=8, index=17))),
        (Edge(2, 3, 2), encode_color(ColorId(1, 0, "LOW", 7, phase=3, interval=12))),
    ]
    fh = io.StringIO()
    write_colored(fh, emissions)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "0 1 0 E0.L0.BASE.3"
    assert list(read_colored(io.StringIO(fh.getvalue()))) == [(tuple(e), c) for e, c in emissions]


def test_colored_lines_with_one_token_share_one_color():
    tokens = ["E0.L0.BASE.3", "E0.L1.P2.I5.LOW.7", "E2.L0.P1.D8.B17.42"]
    text = "".join(f"{i % 9} {i % 9 + 1} {i} {tokens[i % 3]}\n" for i in range(300))
    parsed = list(read_colored(io.StringIO(text)))
    assert len({id(color) for _, color in parsed}) == 3
    by_line = [
        ((int(u), int(v), int(seq)), token)
        for u, v, seq, token in (line.split() for line in text.splitlines())
    ]
    assert parsed == by_line


def test_colored_spellings_of_one_color_read_as_one_canonical_token():
    text = "0 1 0 E00.L0.BASE.03\n1 2 1 E0.L0.BASE.3\n2 3 2 E0.L000.BASE.3\n"
    colors = [color for _, color in read_colored(io.StringIO(text))]
    assert colors == ["E0.L0.BASE.3"] * 3
    assert len({id(color) for color in colors}) == 1
    assert decode_color(colors[0]) == ColorId(0, 0, "BASE", 3)


def test_colored_known_head_with_a_padded_slot_reads_as_the_canonical_token():
    text = "0 1 0 E0.L0.P1.D8.B17.42\n1 2 1 E0.L0.P1.D8.B17.03\n2 3 2 E0.L0.P1.D8.B17.3\n"
    colors = [color for _, color in read_colored(io.StringIO(text))]
    assert colors == ["E0.L0.P1.D8.B17.42", "E0.L0.P1.D8.B17.3", "E0.L0.P1.D8.B17.3"]
    assert colors[1] is colors[2]


def test_colored_non_canonical_head_reads_as_the_canonical_head():
    text = "0 1 0 E01.L0.BASE.3\n1 2 1 E01.L0.BASE.4\n"
    colors = [color for _, color in read_colored(io.StringIO(text))]
    assert colors == ["E1.L0.BASE.3", "E1.L0.BASE.4"]


@pytest.mark.parametrize("first, last", [("03", "3"), ("3", "03")], ids=["padded-first", "canonical-first"])
def test_colored_spellings_across_the_table_bound_read_as_equal_strings(first, last):
    # more distinct tokens than the spelling table holds lie between the two
    # spellings, so the table is cleared in between
    filler = "".join(f"2 3 {seq} E0.L0.BASE.{seq + 9}\n" for seq in range(1, SPELLINGS + 10))
    text = f"0 1 0 E0.L0.BASE.{first}\n{filler}1 2 {SPELLINGS + 10} E0.L0.BASE.{last}\n"
    colors = [color for _, color in read_colored(io.StringIO(text))]
    assert len(set(colors)) > SPELLINGS
    assert colors[0] == colors[-1] == "E0.L0.BASE.3"


@pytest.mark.parametrize(
    "slot", ["x", "", "\uff13", "-1", "9" * 5000], ids=["x", "empty", "fullwidth", "minus", "long"]
)
def test_colored_bad_slot_after_a_known_head_raises_the_decoders_message(slot):
    # the slot of a known head is not decoded again, but a bad one fails
    # exactly as decode_color fails on the whole token
    token = "E0.L0.P1.D8.B17." + slot
    with pytest.raises(ValueError) as decoded:
        decode_color(token)
    text = f"0 1 0 E0.L0.P1.D8.B17.42\n1 2 1 {token}\n"
    with pytest.raises(StreamFormatError) as read:
        list(read_colored(io.StringIO(text)))
    assert str(read.value) == f"line 2: {decoded.value}"


@st.composite
def padded_tokens(draw):
    """A valid color token with up to two leading zeros on any field."""
    def field(low=0):
        return "0" * draw(st.integers(0, 2)) + str(draw(st.integers(low, 3)))

    head = f"E{field()}.L{field()}."
    kind = draw(st.sampled_from(("BASE", "LOW", *FAMILIES)))
    if kind == "BASE":
        return f"{head}BASE.{field()}"
    if kind == "LOW":
        return f"{head}P{field()}.I{field()}.LOW.{field()}"
    return f"{head}P{field()}.D{field()}.{kind}{field(1)}.{field()}"


@given(st.lists(padded_tokens(), min_size=1, max_size=30))
def test_colored_tokens_read_as_their_decoded_canonical_form(tokens):
    text = "".join(f"0 1 {seq} {token}\n" for seq, token in enumerate(tokens))
    colors = [color for _, color in read_colored(io.StringIO(text))]
    assert colors == [encode_color(decode_color(token)) for token in tokens]
    assert len({id(color) for color in colors}) == len(set(colors))


def test_colored_reports_a_repeated_bad_token_at_its_first_line():
    text = "0 1 0 E0.L0.BASE.3\n1 2 1 E0.L0.NOPE.3\n2 3 2 E0.L0.NOPE.3\n"
    with pytest.raises(StreamFormatError, match="line 2"):
        list(read_colored(io.StringIO(text)))


def test_colored_rejects_short_lines():
    with pytest.raises(StreamFormatError, match="line 1: expected"):
        list(read_colored(io.StringIO("0 1 E0.L0.BASE.3\n")))


def test_colored_rejects_bad_integers():
    with pytest.raises(StreamFormatError, match="line 2: endpoints and seq"):
        list(read_colored(io.StringIO("0 1 0 E0.L0.BASE.3\n0 1 x E0.L0.BASE.4\n")))


def test_colored_wraps_color_decode_errors_with_the_line():
    with pytest.raises(StreamFormatError, match="line 1"):
        list(read_colored(io.StringIO("0 1 0 E0.L0.NOPE.3\n")))


def test_colored_yields_good_lines_before_raising_at_a_bad_one():
    text = "0 1 0 E0.L0.BASE.3\n1 2 1 E0.L0.BASE.4\n2 3 x E0.L0.BASE.5\n3 4 3 E0.L0.BASE.6\n"
    lines = read_colored(io.StringIO(text))
    assert next(lines) == ((0, 1, 0), "E0.L0.BASE.3")
    assert next(lines) == ((1, 2, 1), "E0.L0.BASE.4")
    with pytest.raises(StreamFormatError, match="line 3: endpoints and seq"):
        next(lines)


def test_colored_file_supports_the_verifier(tmp_path):
    # the on-disk form is what the CLI verifies; properness must survive it
    edges = make_edges([(0, 1), (1, 2), (2, 0)])
    emissions = [(e, f"E0.L0.BASE.{slot}") for slot, e in enumerate(edges)]
    path = tmp_path / "tiny.colored"
    with open(path, "w") as fh:
        write_colored(fh, emissions)
    with open(path) as fh:
        assert find_conflicts(read_colored(fh)) == []
    with open(path) as fh:
        assert verify_proper(read_colored(fh), edges).ok


# -- file round trips --------------------------------------------------------

_small = st.integers(0, 99)
_tokens = st.one_of(
    st.builds(ColorId, _small, _small, st.just("BASE"), _small),
    st.builds(ColorId, _small, _small, st.just("LOW"), _small, phase=_small, interval=_small),
    st.builds(
        ColorId, _small, _small, st.sampled_from(FAMILIES), _small, phase=_small, d=_small, index=st.integers(1, 99)
    ),
).map(encode_color)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20))
def test_stream_file_round_trip_yields_the_edge_rows(pairs):
    edges = make_edges(pairs)
    _, body = read_stream(io.StringIO(stream_text(10, 20, edges)))
    assert list(body) == [tuple(e) for e in edges]


def read_back(emissions):
    """Write emissions to a colored file and read it back: the rows before
    the first line with a negative field, which the file grammar has no
    sign for.  The reader must reject that line by its number."""
    fh = io.StringIO()
    write_colored(fh, emissions)
    rows = read_colored(io.StringIO(fh.getvalue()))
    kept = next((i for i, (row, _) in enumerate(emissions) if min(row) < 0), len(emissions))
    got = [next(rows) for _ in range(kept)]
    if kept == len(emissions):
        assert list(rows) == []
    else:
        with pytest.raises(StreamFormatError, match=f"line {kept + 1}: endpoints and seq must be integers"):
            next(rows)
    return got


@given(st.lists(st.tuples(st.builds(Edge, _small, _small, st.integers(-3, 99)), _tokens), max_size=20))
def test_colored_file_round_trip_yields_the_emission_rows(emissions):
    rows = read_back(emissions)
    assert rows == [(tuple(e), c) for e, c in emissions[: len(rows)]]


@settings(max_examples=300)
@given(damaged_colorings())
def test_verify_judges_file_rows_as_the_in_memory_pairs(case):
    # planted conflicts, dropped and doubled lines and surplus triples included
    colored, edges = case
    rows = read_back(colored)
    if len(rows) == len(colored):  # no surplus line with seq -1, which no file can hold
        _, body = read_stream(io.StringIO(stream_text(4, 16, edges)))
        assert verify_proper(rows, body) == verify_proper(colored, edges)
