"""Low-level machinery shared across the engine.

First-fit multigraph edge coloring inside a bounded palette, the circular
offset-distance rule, and deterministic label-scoped randomness.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import NamedTuple

# hashlib serves blake2b from _blake2 (never from OpenSSL), so the draws are
# the same; importing it directly keeps OpenSSL unloaded
from _blake2 import blake2b

from .model import EngineInvariantError, Row

__all__ = [
    "RandomSource",
    "first_fit_slots",
    "gap_check",
    "greedy_edge_color",
]

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_seq = itemgetter(2)


def gap_check(r_u: int, r_v: int, d: int, size: int) -> bool:
    """True when two vertex offsets sit circularly too close to coexist.

    r_u belongs to the low endpoint, r_v to the high one.  The edge must be
    deferred when the clockwise distance from r_u to r_v is under 2d or over
    size - 2d; otherwise each endpoint's working range of 2d slots stays
    disjoint from the other's.  The outcome is symmetric in the two offsets.
    """
    gap = (r_v - r_u) % size
    return gap < 2 * d or gap > size - 2 * d


def first_fit_slots(edges: list[Row], slot_limit: int) -> list[int]:
    """The slot of each (u, v, seq) edge, in order: the lowest one free at both
    endpoints.  Each vertex's taken slots are one bit mask, so an edge costs
    two int lookups and no hashing of the edge itself.  Running out of slots
    is an internal invariant violation: callers size the limit at 2D - 1 or
    better for max degree D."""
    used: dict[int, int] = {}
    get = used.get
    out: list[int] = []
    for u, v, seq in edges:
        at_u = get(u, 0)
        at_v = get(v, 0)
        taken = at_u | at_v
        bit = ~taken & (taken + 1)  # lowest clear bit of taken
        slot = bit.bit_length() - 1
        if slot >= slot_limit:
            raise EngineInvariantError(
                f"palette exhausted: edge ({u},{v},{seq}) needs slot {slot} of {slot_limit}"
            )
        used[u] = at_u | bit
        used[v] = at_v | bit
        out.append(slot)
    return out


def greedy_edge_color(
    edges: list[Row], degree_bound: int, palette: list[str]
) -> list[tuple[Row, str]]:
    """Properly color a multigraph with first-fit over an explicit palette,
    visiting edges in ascending arrival order; returns (edge, color) pairs
    in that order.

    Requires len(palette) >= 2 * degree_bound - 1, which guarantees a free
    entry always exists; at most 2D - 1 distinct entries are ever used.
    """
    if degree_bound >= 1 and len(palette) < 2 * degree_bound - 1:
        raise ValueError(
            f"palette of {len(palette)} entries cannot cover degree bound {degree_bound}"
        )
    ordered = sorted(edges, key=_seq)
    return [(e, palette[s]) for e, s in zip(ordered, first_fit_slots(ordered, len(palette)))]


class RandomSource(NamedTuple):
    """Deterministic randomness scoped by a label path.

    Draws depend only on (seed, path): equal seed and path always replay the
    same stream, and distinct paths behave as independent streams.  The
    engine hangs palette-index draws and offset draws off sibling scopes so
    either can be re-seeded without disturbing the other.
    """

    seed: int
    path: tuple[str, ...] = ()

    def child(self, *labels: object) -> RandomSource:
        return RandomSource(self.seed, self.path + tuple(str(x) for x in labels))

    def rng(self) -> random.Random:
        digest = blake2b(
            "/".join(self.path).encode("utf-8"),
            digest_size=8,
            key=(self.seed & _SEED_MASK).to_bytes(8, "little"),
        ).digest()
        return random.Random(int.from_bytes(digest, "little"))

    def randrange(self, stop: int) -> int:
        return self.rng().randrange(stop)
