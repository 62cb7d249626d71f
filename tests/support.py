"""Shared test helpers, including a properness oracle that is deliberately
independent of the library's own verifier: plain pairwise comparison over
every vertex's incident edges."""

from __future__ import annotations

import random
from math import isqrt

from hypothesis import strategies as st

from wsecolor import (
    Edge,
    EngineInvariantError,
    RunMetrics,
    StreamInputError,
    VerifyResult,
    decode_color,
    gen_multigraph,
    order_stream,
    resolve_config,
    run_stream,
    verify_proper,
)
from wsecolor.primitives import RandomSource


def find_conflicts(colored):
    """All pairs of distinct edge instances that share an endpoint and a
    color token.  Quadratic per vertex; only for test-sized inputs."""
    at_vertex: dict[int, list] = {}
    for (u, v, seq), token in colored:
        at_vertex.setdefault(u, []).append((seq, token))
        at_vertex.setdefault(v, []).append((seq, token))
    conflicts = []
    for v, incident in at_vertex.items():
        for i in range(len(incident)):
            for j in range(i + 1, len(incident)):
                s1, t1 = incident[i]
                s2, t2 = incident[j]
                if s1 != s2 and t1 == t2:
                    conflicts.append((v, t1, s1, s2))
    return conflicts


def split_color(color):
    """A color string as (head, slot), by read_colored's rule for a
    canonical token: a slot of ASCII digits without a leading zero that
    fits an int32, after the last dot, splits off; any other string is a
    head of its own with slot -1.  So two strings split equal exactly when
    they are equal."""
    head, dot, slot = color.rpartition(".")
    if dot and slot.isascii() and slot.isdigit() and (slot[0] != "0" or slot == "0") and int(slot) < 2**31:
        return head, int(slot)
    return color, -1


def verify_pairs(colored, input_edges):
    """verify_proper on in-memory (edge, color) pairs, each color split by
    split_color as it reaches the verifier."""
    return verify_proper(((e, *split_color(color)) for e, color in colored), input_edges)


def joined(rows):
    """read_colored's (row, head, slot) rows as (row, color) pairs, the
    color joined back into its canonical token."""
    return [(row, head if slot < 0 else f"{head}.{slot}") for row, head, slot in rows]


def reference_verify(colored, input_edges):
    """The verifier as a plain ascending-seq scan over materialized pairs:
    a (u, v, seq) balance for conservation, then one dict from (vertex,
    color) to the last edge seen there.  verify_proper must agree with it
    on the whole VerifyResult."""
    colored = list(colored)
    balance: dict[tuple[int, int, int], int] = {}
    for e, _ in colored:
        balance[(e.u, e.v, e.seq)] = balance.get((e.u, e.v, e.seq), 0) + 1
    for e in input_edges:
        balance[(e.u, e.v, e.seq)] = balance.get((e.u, e.v, e.seq), 0) - 1
    missing = min((k for k, c in balance.items() if c < 0), default=None)
    surplus = min((k for k, c in balance.items() if c > 0), default=None)
    bits = [f"missing {missing}"] * (missing is not None)
    bits += [f"unexpected {surplus}"] * (surplus is not None)
    if bits:
        return VerifyResult(status="mismatch", detail="; ".join(bits))
    seen: dict[tuple[int, object], Edge] = {}
    for e, color in sorted(colored, key=lambda pair: pair[0].seq):
        for x in (e.u, e.v):
            other = seen.get((x, color))
            if other is not None and other.seq != e.seq:
                detail = f"color {color} repeats at vertex {x}"
                return VerifyResult("conflict", detail, other, e, color)
            seen[(x, color)] = e
    return VerifyResult(status="ok")


def color_run(n, delta, m, *, order="arrival-random", seed=0, trace=None, **overrides):
    """Generate, order, resolve, and color one stream; returns everything a
    test might want to inspect."""
    edges = gen_multigraph(n, delta, m, seed=seed)
    if order != "none":
        edges = order_stream(edges, order, seed=seed + 1)
    config = resolve_config(n=n, delta=delta, seed=seed, m=m, **overrides)
    emissions, metrics = run_stream(config, edges, trace=trace)
    return edges, emissions, metrics, config


class FixedIndex(RandomSource):
    """A sigma root whose every draw is palette index 1, so a phase's
    intervals repeat one index and its slot masks gather bits over them."""

    def child(self, *labels):
        return FixedIndex(*super().child(*labels))

    def randrange(self, stop):
        return 0


def oracle_gen_multigraph(n, delta, m, *, allow_parallel=True, seed=0):
    """gen_multigraph as plainly as it can be written: an Edge per placed
    edge, each endpoint one Random.randrange(n) call.  gen_multigraph must
    return its edges as plain tuples and raise its errors word for word."""
    if n < 1:
        raise StreamInputError(f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise StreamInputError(f"edge count must be >= 0, got {m}")
    if delta < 1:
        raise StreamInputError(f"degree bound must be >= 1, got {delta}")
    if m > n * delta // 2:
        raise StreamInputError(f"{m} edges cannot fit {n} vertices of degree at most {delta}")
    if m > 0 and n < 2:
        raise StreamInputError("need at least 2 vertices for loop-free edges")

    rng = random.Random(seed)
    deg = [0] * n
    used = set()
    edges = []
    attempts = 0
    budget = 1000 * m + 100_000
    unsaturated = n
    while len(edges) < m:
        if unsaturated < 2:
            raise StreamInputError(
                f"gave up after {attempts} attempts with {len(edges)}/{m} edges placed; "
                "no two vertices have free degree left"
            )
        attempts += 1
        if attempts > budget:
            raise StreamInputError(
                f"gave up after {budget} attempts with {len(edges)}/{m} edges placed; "
                "the degree bound is too tight for rejection sampling"
            )
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or deg[u] >= delta or deg[v] >= delta:
            continue
        if not allow_parallel:
            pair = (min(u, v), max(u, v))
            if pair in used:
                continue
            used.add(pair)
        deg[u] += 1
        deg[v] += 1
        unsaturated -= (deg[u] == delta) + (deg[v] == delta)
        edges.append(Edge(u, v, len(edges)))
    return edges


def oracle_order_stream(edges, policy, seed=0):
    """order_stream through Random.shuffle, max with a key and Edges."""
    if policy == "arrival-random":
        out = list(edges)
        random.Random(seed).shuffle(out)
    elif policy == "vertex-sorted":
        out = sorted(edges, key=lambda e: (min(e.u, e.v), max(e.u, e.v), e.seq))
    elif policy == "degree-burst":
        deg = {}
        for e in edges:
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        groups = {}
        for e in edges:
            groups.setdefault(max(e.u, e.v, key=lambda x: (deg[x], x)), []).append(e)
        out = []
        for o in sorted(groups, key=lambda x: (-deg[x], x)):
            out.extend(groups[o])
    else:
        raise StreamInputError(
            f"unknown order policy {policy!r}; "
            "choose one of arrival-random, vertex-sorted, degree-burst"
        )
    return [Edge(e.u, e.v, i) for i, e in enumerate(out)]


def oracle_stream_text(n, delta, edges):
    """write_stream's text, one formatted line per Edge."""
    return f"wse v1 {n} {delta} {len(edges)}\n" + "".join(f"{e.u} {e.v}\n" for e in edges)


def reference_classify(edges, deg, delta):
    """classify_interval written per edge: each edge's class is the power
    of two d with its max endpoint degree in [d, 2d), it goes to h1 when
    its min endpoint degree is also at least d, and the high vertices of
    each class come from a second, separate pass over deg.  classify_interval
    must return the same (low, per_class, high), list order included, and
    raise exactly when this does."""
    root = isqrt(delta)
    low = []
    per_class = {}
    for e in edges:
        du, dv = deg[e[0]], deg[e[1]]
        top = max(du, dv)
        if top < root:
            low.append(e)
            continue
        if top > delta:
            raise EngineInvariantError(f"interval degree {top} exceeds the configured bound {delta}")
        d = 1 << (top.bit_length() - 1)
        per_class.setdefault(d, ([], []))[0 if min(du, dv) >= d else 1].append(e)
    high = {}
    for v, dv in deg.items():
        if dv >= root:
            high.setdefault(1 << (dv.bit_length() - 1), set()).add(v)
    return low, per_class, high


def fake_metrics(*, input_edges, leftover0, peak0=100, colors=1):
    """A minimal RunMetrics for exercising the statistics helpers without a
    full engine run."""
    config = resolve_config(n=4, delta=4, m=input_edges or 1)
    return RunMetrics(
        config=config,
        input_edges=input_edges,
        colors_used=colors,
        colors_per_level={(0, 0): colors},
        colored_per_level={(0, 0): input_edges - leftover0},
        leftover_per_level={(0, 0): leftover0},
        depth=0,
        interval_count={(0, 0): 1},
        phase_count={(0, 0): 1},
        peak_words_per_level={(0, 0): peak0},
        peak_words_by_category={(0, 0): {"buffer": peak0}},
        fallback_intervals=0,
        base_cases={},
        scopes=[],
        class_phase_stats=[],
        wall_ms=0.0,
    )


def decoded(emissions):
    """The parsed ColorId of every emitted color token, in order."""
    return [decode_color(color) for _, color in emissions]


def seqs_of(edges):
    return sorted(seq for _, _, seq in edges)


def emitted_seqs(emissions):
    return sorted(seq for (_, _, seq), _ in emissions)


def make_edges(pairs):
    """Edges from (u, v) pairs, sequenced by position."""
    return [Edge(u, v, i) for i, (u, v) in enumerate(pairs)]


_PALETTE = ["E0.L0.BASE.0", "E0.L0.BASE.1", "E0.L0.P0.I0.LOW.0"]


@st.composite
def damaged_colorings(draw, palette=_PALETTE):
    """(colored, edges): a small stream with self-loops and parallel edges
    on at most 4 vertices, painted from palette, by default three canonical
    colors; some lines dropped or doubled, surplus triples added, and the
    lines shuffled.  About half the colors are fresh copies, built per
    pair, so equal colors are not always one object."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    edges = make_edges(draw(st.lists(st.tuples(vertex, vertex), max_size=8)))
    color = st.builds(
        lambda c, fresh: c.encode().decode() if fresh else c, st.sampled_from(palette), st.booleans()
    )
    colored = []
    for e in edges:
        copies = draw(st.sampled_from([1] * 8 + [0, 2]))
        colored += [(e, draw(color)) for _ in range(copies)]
    extra = st.tuples(st.integers(0, n), st.integers(0, n), st.integers(-1, len(edges)))
    for u, v, seq in draw(st.lists(extra, max_size=1)):
        colored.append((Edge(u, v, seq), draw(color)))
    return draw(st.permutations(colored)), edges
