"""Reproducible degree-bounded multigraph generation, adversarial stream
orderings, and the text file formats for streams and colored output.

Stream file: `wse v1 <n> <delta> <m>` header, then one `<u> <v>` line per
edge.  Colored file: `<u> <v> <seq> <color>` per emission.  Both formats
are whitespace-separated decimal text so runs diff cleanly; every integer
field is ASCII decimal digits only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .model import Edge, Row, StreamInputError, decode_color, encode_color

__all__ = [
    "ORDER_POLICIES",
    "StreamFormatError",
    "StreamHeader",
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


@dataclass(frozen=True)
class StreamHeader:
    n: int
    delta: int
    m: int


def gen_multigraph(
    n: int, delta: int, m: int, *, allow_parallel: bool = True, seed: int = 0
) -> list[Edge]:
    """Random degree-bounded multigraph via rejection sampling.

    Uniform endpoint pairs, rejecting self-loops, saturated endpoints, and
    (optionally) repeated pairs.  Degree caps can strand capacity on one
    vertex near the m = n*delta/2 ceiling: sampling gives up as soon as
    fewer than two vertices have free degree, and otherwise after a
    generous attempt budget instead of spinning forever.
    """
    if n < 1:
        raise StreamInputError(f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise StreamInputError(f"edge count must be >= 0, got {m}")
    if delta < 0:
        raise StreamInputError(f"degree bound must be >= 0, got {delta}")
    if m > n * delta // 2:
        raise StreamInputError(
            f"{m} edges cannot fit {n} vertices of degree at most {delta}"
        )
    if m > 0 and n < 2:
        raise StreamInputError("need at least 2 vertices for loop-free edges")

    rng = random.Random(seed)
    deg = [0] * n
    used: set[tuple[int, int]] = set()
    edges: list[Edge] = []
    attempts = 0
    budget = 1000 * m + 100_000
    unsaturated = n  # vertices below the degree bound
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


def order_stream(edges: list[Edge], policy: str, seed: int = 0) -> list[Edge]:
    """Permute a stream and re-sequence it by the new positions.

    arrival-random shuffles uniformly; vertex-sorted sorts by normalized
    endpoints; degree-burst emits each vertex's edges contiguously, highest
    total degree first, so one interval keeps hammering the same vertex.
    Only arrival-random consumes the seed.
    """
    if policy == "arrival-random":
        out = list(edges)
        random.Random(seed).shuffle(out)
    elif policy == "vertex-sorted":
        out = sorted(edges, key=lambda e: (min(e.u, e.v), max(e.u, e.v), e.seq))
    elif policy == "degree-burst":
        deg: dict[int, int] = {}
        for e in edges:
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        def owner(e: Edge) -> int:
            return max(e.u, e.v, key=lambda x: (deg[x], x))
        groups: dict[int, list[Edge]] = {}
        for e in edges:
            groups.setdefault(owner(e), []).append(e)
        out = []
        for o in sorted(groups, key=lambda x: (-deg[x], x)):
            out.extend(groups[o])
    else:
        raise StreamInputError(
            f"unknown order policy {policy!r}; choose one of {', '.join(ORDER_POLICIES)}"
        )
    return [Edge(e.u, e.v, i) for i, e in enumerate(out)]


# ---------------------------------------------------------------------------
# file formats


def write_stream(fh: IO[str], n: int, delta: int, edges: list[Edge]) -> None:
    fh.write(f"{MAGIC} {VERSION} {n} {delta} {len(edges)}\n")
    for e in edges:
        fh.write(f"{e.u} {e.v}\n")


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


def read_colored(fh: IO[str]) -> Iterator[tuple[Row, str]]:
    """Parse a colored file lazily into ((u, v, seq), color) rows, one per
    line, with the triple as plain ints.

    A bad line raises a line-numbered StreamFormatError when it is reached,
    after every good line before it has been yielded.  Each distinct head,
    the token up to its last dot, is decoded and validated once, where it
    first appears; a later token with that head only has its slot, leading
    zeros dropped, appended to the canonical head.  Every spelling of a
    color yields one string: its canonical token.
    """
    canonical: dict[str, str] = {}
    # A valid token is a head, a dot and a slot of ASCII digits, so a token
    # with a known head decodes exactly when its slot is digits, to the
    # canonical head plus str(int(slot)), and int fails as the decoder's does.
    heads: dict[str, str] = {}  # raw head -> canonical head, trailing dot included
    for lineno, line in enumerate(fh, start=1):
        fields = line.split()
        if len(fields) != 4:
            if not fields:
                continue
            raise StreamFormatError(
                f"line {lineno}: expected '<u> <v> <seq> <color>', got {line.rstrip()!r}"
            )
        a, b, c, token = fields
        # _decimal's rule; a token outside ASCII is the decoder's to name
        if not (a.isdigit() and b.isdigit() and c.isdigit() and (line.isascii() or _decimal((a, b, c)))):
            raise StreamFormatError(
                f"line {lineno}: endpoints and seq must be integers, got {line.rstrip()!r}"
            )
        u, v, seq = int(a), int(b), int(c)
        color = canonical.get(token)
        if color is None:
            head, _, slot = token.rpartition(".")
            prefix = heads.get(head)
            try:
                if prefix is not None and slot.isascii() and slot.isdigit():
                    color = prefix + str(int(slot))
                else:
                    color = encode_color(decode_color(token))
                    heads[head] = color[: color.rindex(".") + 1]
            except ValueError as err:
                raise StreamFormatError(f"line {lineno}: {err}") from None
            # a canonical token maps to itself, so each color is one string
            color = canonical[token] = canonical.setdefault(color, color)
        yield (u, v, seq), color
