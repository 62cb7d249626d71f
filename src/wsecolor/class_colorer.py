"""Per-(phase, degree-class) coloring state and the two assignment steps.

A degree class d owns three color families (A for edges between two high
vertices, B and C for high-low edges), each split into palette_count
indexed palettes of palette_size slots.  One palette index is drawn per
interval; per-vertex random slot offsets, sparse per-(vertex, index)
counters, and per-index prior-interval tallies decide which slot an edge
gets or whether it is deferred to the next recursion level.
"""

from __future__ import annotations

import json
from math import isqrt

from .audit import SpaceMeter, TraceRecorder
from .model import FAMILIES, Row, token_prefix
from .primitives import RandomSource, first_fit_slots, gap_check

__all__ = ["ClassState", "step1_high_high", "step2_high_low"]


class ClassState:
    """Mutable state of one degree class within one phase.

    Offsets are drawn lazily per vertex and fixed for the phase; index sets
    remember which palette indices already colored edges at a vertex;
    counters exist only for (vertex, index) pairs that crossed the degree
    threshold; prior tallies count earlier intervals per index.  The window
    is the set of (anchor, family, slot) triples taken at high vertices
    within the current interval only; later intervals are protected by the
    index sets and counters instead.  The two steps read and write these
    stores directly; nothing leaves them before release.

    slot_masks is instrumentation, not metered: per (family, index), the
    bitmask of slots the phase colored from, so the distinct colors of the
    class scope are the masks' set bits.
    """

    def __init__(
        self,
        *,
        epoch: int,
        level: int,
        phase: int,
        d: int,
        delta: int,
        kappa: int,
        sigma_source: RandomSource,
        offset_source: RandomSource,
        meter: SpaceMeter,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.epoch = epoch
        self.level = level
        self.phase = phase
        self.d = d
        self.palette_size = 2 * kappa * d
        self.palette_count = kappa * delta // d
        self.block_width = isqrt(delta)
        self.prior_cap = 2 * d // self.block_width
        self.counter_cap = 2 * d
        self.budget = 3 * self.palette_count * self.palette_size
        self._sigma_source = sigma_source
        self._offset_source = offset_source
        self._meter = meter
        self._trace = trace
        # the fields every record of this state carries after its kind
        self._head = {"epoch": epoch, "level": level, "phase": phase, "d": d}
        # offset-draw lines up to the vertex, rendered once per state
        if trace is not None:
            self._offset_head = json.dumps({"kind": "offset-draw", **self._head})[:-1] + ", "
        self.offsets: dict[int, int] = {}
        self.index_sets: dict[int, set[int]] = {}
        self.counters: dict[tuple[int, int], int] = {}
        self.prior_counts: dict[int, int] = {}
        self.window: set[tuple[int, str, int]] = set()
        self.slot_masks: dict[tuple[str, int], int] = {}
        self.sigma: int | None = None
        self.interval: int | None = None
        # per-interval token prefix of each family, up to the slot
        self._prefixes: dict[str, str] = {}

    def offset_of(self, v: int) -> int:
        r = self.offsets.get(v)
        if r is None:
            r = self._offset_source.child("v", v).randrange(self.palette_size)
            self.offsets[v] = r
            self._meter.add("offsets", 1)
            if self._trace is not None:
                self._trace.emit(f'{self._offset_head}"vertex": {v}, "offset": {r}}}\n')
        return r

    def begin_interval(self, interval: int) -> int:
        self.interval = interval
        self.sigma = sigma = self._sigma_source.child("i", interval).randrange(self.palette_count) + 1
        self._prefixes = {
            family: token_prefix(self.epoch, self.level, family, phase=self.phase, d=self.d, index=sigma)
            for family in FAMILIES
        }
        if self._trace is not None:
            self._trace.emit({"kind": "class-interval", **self._head, "interval": interval,
                              "sigma": sigma, "prior": self.prior_counts.get(sigma, 0)})
        return sigma

    def bump_counter(self, u: int, *, assigned: bool) -> None:
        """Runs after every enumerated high-low edge, deferred or not; the
        counter's trajectory must depend only on the stream and the index
        draws, never on the offsets.  The offset-independence canary patches
        this method to plant a lazy-bump engine, so it must not be inlined."""
        key = (u, self.sigma)
        value = self.counters.get(key)
        if value is None:
            return
        self.counters[key] = value + 1
        if self._trace is not None:
            self._trace.emit({"kind": "counter-bump", **self._head, "interval": self.interval,
                              "vertex": u, "index": self.sigma, "value": value + 1, "assigned": assigned})

    def mark_slots(self, family: str, mask: int) -> None:
        """Add mask's slots to those family colored from at the current index."""
        if mask:
            key = (family, self.sigma)
            self.slot_masks[key] = self.slot_masks.get(key, 0) | mask

    def end_interval(self) -> None:
        assert self.sigma is not None
        if self.sigma not in self.prior_counts:
            self._meter.add("prior_counts", 1)
        self.prior_counts[self.sigma] = self.prior_counts.get(self.sigma, 0) + 1
        if self.window:
            self._meter.add("window", len(self.window) - 1)
            self._meter.add("window", -len(self.window))
            self.window.clear()
        self.sigma = None
        self.interval = None

    def release(self) -> None:
        """Phase end: hand every tracked word back to the meter."""
        self._meter.add("offsets", -len(self.offsets))
        self._meter.add("index_sets", -sum(map(len, self.index_sets.values())))
        self._meter.add("counters", -len(self.counters))
        self._meter.add("prior_counts", -len(self.prior_counts))
        self.offsets.clear()
        self.index_sets.clear()
        self.counters.clear()
        self.prior_counts.clear()


def step1_high_high(
    h1: list[Row], h2: list[Row], high: set[int], state: ClassState
) -> tuple[list[tuple[Row, str]], list[Row], set[int]]:
    """Color the high-high edges among vertices whose current palette index
    is unused, and defer everything touching the rest.

    U is the set of high vertices that have not seen this interval's index
    before.  The sub-multigraph induced on U is first-fit colored from the
    A family; every class edge (high-high or high-low) incident on a high
    vertex outside U is deferred wholesale.  Afterwards the index is marked
    used at every vertex of U (the rest already hold it), so a repeat draw
    exiles the vertex next time.
    """
    sigma, index_sets = state.sigma, state.index_sets
    usable = {v for v in high if sigma not in index_sets.get(v, ())}
    kept = [e for e in h1 if e[0] in usable and e[1] in usable]
    prefix = state._prefixes["A"]
    trace = state._trace
    if trace is not None:
        head = {**state._head, "interval": state.interval}
    emissions: list[tuple[Row, str]] = []
    bits = 0
    for e, slot in zip(kept, first_fit_slots(kept, state.palette_size)):
        emissions.append((e, f"{prefix}{slot}"))
        bits |= 1 << slot
        if trace is not None:
            u, v, seq = e
            trace.emit({"kind": "high-assign", **head, "u": u, "v": v, "seq": seq, "slot": slot})
    state.mark_slots("A", bits)

    exiled = high - usable
    leftovers = [e for e in h1 if e[0] not in usable or e[1] not in usable]
    leftovers += [e for e in h2 if e[0] in exiled or e[1] in exiled]
    if trace is not None:
        for u, v, seq in leftovers:
            trace.emit({"kind": "exile", **head, "u": u, "v": v, "seq": seq})
    for v in usable:
        index_sets.setdefault(v, set()).add(sigma)
    state._meter.add("index_sets", len(usable))
    return emissions, leftovers, usable


# per family: the tally its slot reads, then its cap, conflict and assign cases
_CASES = {
    "C": ("counter", "cap-leftover", "counter-conflict", "counter-assign"),
    "B": ("prior", "index-cap-leftover", "block-conflict", "block-assign"),
}


def step2_high_low(
    h2: list[Row],
    usable: set[int],
    high: set[int],
    deg: dict[int, int],
    state: ClassState,
) -> tuple[list[tuple[Row, str]], list[Row]]:
    """Color the high-low edges of the interval from the B and C families.

    Low endpoints are visited in ascending id.  A low endpoint whose
    interval degree exceeds the block width gets a counter for the current
    index (created at zero if absent).  Its edges are enumerated in a fixed
    order; each one either stays behind a deferral rule or lands on a slot
    derived from the low endpoint's offset.  Counter holders walk their
    slots consecutively (C family); the rest pack into per-interval blocks
    shifted by the prior-interval tally (B family).  Counters advance on
    every enumerated edge, assigned or not.
    """
    # (high endpoint, seq, edge) per low endpoint, in enumeration order once sorted
    per_low: dict[int, list[tuple[int, int, Row]]] = {}
    for e in h2:
        u, v, seq = e
        low, hi = (v, u) if u in high else (u, v)
        per_low.setdefault(low, []).append((hi, seq, e))

    emissions: list[tuple[Row, str]] = []
    leftovers: list[Row] = []
    size, d, width, cap = state.palette_size, state.d, state.block_width, state.counter_cap
    sigma, interval = state.sigma, state.interval
    offsets, counters, window, prefixes = state.offsets, state.counters, state.window, state._prefixes
    meter = state._meter
    bits = dict.fromkeys(_CASES, 0)  # per family, the slots this call assigned
    prior = state.prior_counts.get(sigma, 0)  # the tallies only move in end_interval
    prior_full = prior >= state.prior_cap
    trace = state._trace
    if trace is not None:
        emit = trace.emit
        # each decision's line up to its low endpoint, rendered once per call
        head = json.dumps(
            {"kind": "mixed-decision", **state._head, "interval": interval, "index": sigma}
        )[:-1] + ", "

    for u in sorted(per_low):
        key = (u, sigma)
        if key not in counters and deg[u] > width:
            counters[key] = 0
            meter.add("counters", 1)
            if trace is not None:
                emit({"kind": "counter-init", **state._head, "interval": interval,
                      "vertex": u, "index": sigma})
        has_counter = key in counters
        r_u = offsets.get(u)
        for b, (v, seq, e) in enumerate(sorted(per_low[u])):
            assigned = False
            # the record's tail after its case: the counter or prior tally
            # the decision read, then the slot it tried
            tally_key = slot = None
            if v not in usable:
                # already deferred by step 1; enumerate it anyway so the
                # counter keeps pace with the edge order
                case = "skip-exiled"
            else:
                # offsets are drawn on first use only, u before v
                if r_u is None:
                    r_u = state.offset_of(u)
                r_v = offsets.get(v)
                if r_v is None:
                    r_v = state.offset_of(v)
                if gap_check(r_u, r_v, d, size):
                    case = "gap-leftover"
                else:
                    if has_counter:
                        family = "C"
                        tally = offset = counters[key]
                        full = tally >= cap
                    else:
                        family, tally, full = "B", prior, prior_full
                        offset = b + width * prior
                    tally_key, cap_case, conflict_case, assign_case = _CASES[family]
                    if full:
                        case = cap_case
                    else:
                        assert offset < cap  # b < block width when no counter exists
                        slot = (r_u + offset) % size
                        if (v, family, slot) in window:
                            case = conflict_case
                        else:
                            emissions.append((e, f"{prefixes[family]}{slot}"))
                            # the window is metered per interval, its first word
                            # here and the rest in end_interval; nothing metered
                            # shrinks in between, so the peaks match a per-slot charge
                            if not window:
                                meter.add("window", 1)
                            window.add((v, family, slot))
                            bits[family] |= 1 << slot
                            assigned = True
                            case = assign_case
                if not assigned:
                    leftovers.append(e)
            if trace is not None:
                line = f'{head}"low": {u}, "high": {v}, "seq": {seq}, "b": {b}, "case": "{case}"'
                # a slot is only tried after a tally is read
                if slot is not None:
                    emit(f'{line}, "{tally_key}": {tally}, "slot": {slot}}}\n')
                elif tally_key is not None:
                    emit(f'{line}, "{tally_key}": {tally}}}\n')
                else:
                    emit(line + "}\n")
            if has_counter:
                state.bump_counter(u, assigned=assigned)
    for family, mask in bits.items():
        state.mark_slots(family, mask)
    return emissions, leftovers
