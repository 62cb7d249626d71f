"""Reproducible degree-bounded multigraph generation, adversarial stream
orderings, and the text file formats for streams and colored output.

Stream file: `wse v1 <n> <delta> <m>` header, then one `<u> <v>` line per
edge.  Colored file: `<u> <v> <seq> <color>` per emission.  Both formats
are whitespace-separated decimal text so runs diff cleanly; every integer
field is ASCII decimal digits only.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import count, repeat, starmap
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple

from .model import Row, StreamInputError, decode_color, encode_color

__all__ = [
    "ORDER_POLICIES",
    "StreamFormatError",
    "StreamHeader",
    "check_graph_shape",
    "colored_line",
    "gen_multigraph",
    "order_stream",
    "read_colored",
    "read_stream",
    "write_colored",
    "write_stream",
]

MAGIC = "wse"
VERSION = "v1"

ORDER_POLICIES = ("arrival-random", "vertex-sorted", "degree-burst")


class StreamFormatError(StreamInputError):
    """A stream or colored file failed to parse; message carries the line."""


class StreamHeader(NamedTuple):
    n: int
    delta: int
    m: int


def check_graph_shape(n: int, delta: int, m: int) -> None:
    """Raise StreamInputError unless m loop-free edges fit n vertices of degree at most delta."""
    if n < 1:
        raise StreamInputError(f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise StreamInputError(f"edge count must be >= 0, got {m}")
    if delta < 1:
        # the bound every colorer takes (normalize_delta), so color reads what gen writes
        raise StreamInputError(f"degree bound must be >= 1, got {delta}")
    if m > n * delta // 2:
        raise StreamInputError(f"{m} edges cannot fit {n} vertices of degree at most {delta}")
    if m > 0 and n < 2:
        raise StreamInputError("need at least 2 vertices for loop-free edges")


def gen_multigraph(
    n: int, delta: int, m: int, *, allow_parallel: bool = True, seed: int = 0
) -> list[Row]:
    """Random degree-bounded multigraph via rejection sampling, as
    (u, v, seq) rows of plain ints, seq the row's position.

    Uniform endpoint pairs, rejecting self-loops, saturated endpoints, and
    (optionally) repeated pairs.  Degree caps can strand capacity on one
    vertex near the m = n*delta/2 ceiling: sampling gives up as soon as
    fewer than two vertices have free degree, and otherwise after a
    generous attempt budget instead of spinning forever.
    """
    check_graph_shape(n, delta, m)

    # Random(seed).randrange(n) per endpoint, its draws made in C:
    # getrandbits(n.bit_length()) until the value is below n
    draws = filter(n.__gt__, map(random.Random(seed).getrandbits, repeat(n.bit_length())))
    room = [delta] * n  # free degree per vertex
    used: set[tuple[int, int]] = set()
    rows: list[Row] = []
    attempts = 0
    budget = 1000 * m + 100_000
    unsaturated = n  # vertices with free degree
    pairs = zip(draws, draws) if m else ()  # no edges, no draws
    for u, v in pairs:
        attempts += 1
        if attempts > budget:
            raise StreamInputError(
                f"gave up after {budget} attempts with {len(rows)}/{m} edges placed; "
                "the degree bound is too tight for rejection sampling"
            )
        if u == v or not room[u] or not room[v]:
            continue
        if not allow_parallel:
            pair = (u, v) if u < v else (v, u)
            if pair in used:
                continue
            used.add(pair)
        room[u] -= 1
        room[v] -= 1
        rows.append((u, v, len(rows)))
        if len(rows) == m:
            break
        unsaturated -= (not room[u]) + (not room[v])
        if unsaturated < 2:
            raise StreamInputError(
                f"gave up after {attempts} attempts with {len(rows)}/{m} edges placed; "
                "no two vertices have free degree left"
            )
    return rows


def _shuffle(rows: list[Row], rng: random.Random) -> None:
    """rng.shuffle(rows) with its draws inline: Fisher-Yates from the top,
    each j drawn as randrange(i + 1) draws it, getrandbits of the bound's
    bit length until the value is below the bound."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(rows))):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        rows[i], rows[j] = rows[j], rows[i]


def order_stream(edges: list[Row], policy: str, seed: int = 0) -> list[Row]:
    """Permute a stream and re-sequence it by the new positions, as
    (u, v, seq) rows of plain ints.

    arrival-random shuffles uniformly; vertex-sorted sorts by normalized
    endpoints; degree-burst emits each vertex's edges contiguously, highest
    total degree first, so one interval keeps hammering the same vertex.
    Only arrival-random consumes the seed.
    """
    if policy == "arrival-random":
        out = list(edges)
        _shuffle(out, random.Random(seed))
    elif policy == "vertex-sorted":
        # a row (u, v, seq) with u <= v is its own key
        out = sorted(edges, key=lambda r: r if r[0] <= r[1] else (r[1], r[0], r[2]))
    elif policy == "degree-burst":
        deg = Counter(map(itemgetter(0), edges))
        deg.update(map(itemgetter(1), edges))
        # each edge goes to its endpoint of higher (degree, vertex)
        groups: dict[int, list[Row]] = {}
        for row in edges:
            u, v, _ = row
            du, dv = deg[u], deg[v]
            groups.setdefault(v if dv > du or (dv == du and v > u) else u, []).append(row)
        out = []
        for o in sorted(groups, key=lambda x: (-deg[x], x)):
            out.extend(groups[o])
    else:
        raise StreamInputError(
            f"unknown order policy {policy!r}; choose one of {', '.join(ORDER_POLICIES)}"
        )
    return list(zip(map(itemgetter(0), out), map(itemgetter(1), out), count()))


# ---------------------------------------------------------------------------
# file formats


def write_stream(fh: IO[str], n: int, delta: int, edges: list[Row]) -> None:
    fh.write(f"{MAGIC} {VERSION} {n} {delta} {len(edges)}\n")
    # format drops the unused seq argument
    fh.writelines(starmap("{} {}\n".format, edges))


def _decimal(fields: Iterable[str]) -> bool:
    """True when every field is ASCII decimal digits only: the grammar of
    each integer field of both file formats, so no sign, no underscore and
    no other script's digits.  isascii is O(1), and on ASCII text isdigit
    takes 0-9 alone.  The body readers apply this same rule inline, field
    by field with one isascii per line: a call per line measured about 5%
    of verify's time on a 131,072-edge stream (CPython 3.11, 2-vCPU VM)."""
    digits = "".join(fields)
    return digits.isascii() and digits.isdigit()


def _header_error(line: str) -> StreamFormatError:
    return StreamFormatError(
        f"line 1: expected header '{MAGIC} {VERSION} <n> <delta> <m>', got {line!r}"
    )


def read_stream(fh: IO[str]) -> tuple[StreamHeader, Iterator[Row]]:
    """Parse the header eagerly and the body lazily, one line at a time,
    into (u, v, seq) rows of plain ints, as the engine takes them."""
    first = fh.readline()
    parts = first.split()
    if (
        len(parts) != 5
        or parts[0] != MAGIC
        or parts[1] != VERSION
        or not _decimal(parts[2:])
        or int(parts[2]) < 1
    ):
        raise _header_error(first.rstrip("\n"))
    n, delta, m = int(parts[2]), int(parts[3]), int(parts[4])
    header = StreamHeader(n=n, delta=delta, m=m)

    def body() -> Iterator[Row]:
        count = 0
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if len(fields) != 2:
                if not fields:
                    continue
                raise StreamFormatError(f"line {lineno}: expected '<u> <v>', got {line.rstrip()!r}")
            a, b = fields
            if not (a.isdigit() and b.isdigit() and line.isascii()):  # _decimal's rule
                raise StreamFormatError(f"line {lineno}: endpoints must be integers, got {line.rstrip()!r}")
            u, v = int(a), int(b)
            if u >= n or v >= n:
                raise StreamFormatError(f"line {lineno}: vertex {u if u >= n else v} outside [0, {n})")
            if count >= m:
                raise StreamFormatError(f"line {lineno}: more than the declared {m} edges")
            yield u, v, count
            count += 1
        if count != m:
            raise StreamFormatError(f"stream ended after {count} of {m} declared edges")

    return header, body()


def colored_line(row: Row, color: str) -> str:
    u, v, seq = row
    return f"{u} {v} {seq} {color}\n"


def write_colored(fh: IO[str], emissions: Iterable[tuple[Row, str]]) -> None:
    for row, color in emissions:
        fh.write(colored_line(row, color))


# read_colored's spelling table holds at most this many entries and is
# cleared when full, so a palette that mints a color per edge costs the
# reader no more than the table
SPELLINGS = 4096


def read_colored(fh: IO[str]) -> Iterator[tuple[Row, str]]:
    """Parse a colored file lazily into ((u, v, seq), color) rows, one per
    line, with the triple as plain ints.

    A bad line raises a line-numbered StreamFormatError when it is reached,
    after every good line before it has been yielded.  Each distinct head,
    the token up to its last dot, is decoded and validated once, where it
    first appears; a later token with that head only has its slot, leading
    zeros dropped, appended to the canonical head.  Every spelling of a
    color yields an equal string: its canonical token.  The table from
    spelling to color holds SPELLINGS entries and is cleared when full, so
    the spellings of a color share one string object only within one
    filling of the table; a token that is already canonical is yielded as
    the object the line was split into.
    """
    canonical: dict[str, str] = {}
    # A valid token is a head, a dot and a slot of ASCII digits, so a token
    # with a known head decodes exactly when its slot is digits, to the
    # canonical head plus str(int(slot)), and int fails as the decoder's does.
    heads: dict[str, str] = {}  # raw head -> canonical head, trailing dot included
    for lineno, line in enumerate(fh, start=1):
        try:
            a, b, c, token = line.split()
        except ValueError:
            if not line.split():
                continue
            raise StreamFormatError(
                f"line {lineno}: expected '<u> <v> <seq> <color>', got {line.rstrip()!r}"
            ) from None
        # _decimal's rule; a token outside ASCII is the decoder's to name
        if not (a.isdigit() and b.isdigit() and c.isdigit() and (line.isascii() or _decimal((a, b, c)))):
            raise StreamFormatError(
                f"line {lineno}: endpoints and seq must be integers, got {line.rstrip()!r}"
            )
        row = int(a), int(b), int(c)
        color = canonical.get(token)
        if color is None:
            head, _, slot = token.rpartition(".")
            prefix = heads.get(head)
            try:
                if prefix is not None and slot.isascii() and slot.isdigit():
                    value = int(slot)
                    # decoding drops only leading zeros, so the raw head is
                    # canonical when its prefix is as long; with a canonical
                    # slot too, the token is its own color
                    if len(prefix) + len(slot) == len(token) and (slot[0] != "0" or slot == "0"):
                        color = token
                    else:
                        color = prefix + str(value)
                else:
                    color = encode_color(decode_color(token))
                    heads[head] = color[: color.rindex(".") + 1]
            except ValueError as err:
                raise StreamFormatError(f"line {lineno}: {err}") from None
            if len(canonical) >= SPELLINGS - 1:  # room for the token and its color
                canonical.clear()
            # a canonical token maps to itself, so within the table each
            # color is one string
            color = canonical[token] = canonical.setdefault(color, color)
        yield row, color
