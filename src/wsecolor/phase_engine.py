"""One recursion level's interval buffering, degree classification, phase
bookkeeping, and low-bucket coloring.

Edges are buffered until an interval fills, then the interval subgraph is
split by max endpoint degree: edges below the square-root threshold get a
fresh per-interval palette, the rest are routed to their degree class.
Classes keep per-phase state; a phase ends after sqrt(delta) intervals and
discards everything it held.  A level whose whole input fits in its first
interval is the base case: flush colors it outright.  A level at the
depth cap runs the same buffer with a fresh palette per interval and no
classes.  Edges arrive here already validated by the stream driver.
"""

from __future__ import annotations

from math import isqrt
from operator import itemgetter

from .audit import ClassPhaseStat, MetricsCollector, SpaceMeter, TraceRecorder
from .class_colorer import ClassState, step1_high_high, step2_high_low
from .model import KIND_BASE, KIND_LOW, EngineInvariantError, Row, RunConfig, token_prefix
from .primitives import RandomSource, greedy_edge_color

__all__ = [
    "PhaseEngine",
    "classify_interval",
    "compute_degrees",
    "degree_classes",
]

Emissions = list[tuple[Row, str]]

_seq = itemgetter(2)


def compute_degrees(edges: list[Row]) -> dict[int, int]:
    """Degree of every endpoint, in order of first appearance."""
    deg: dict[int, int] = {}
    get = deg.get
    for u, v, _ in edges:
        deg[u] = get(u, 0) + 1
        deg[v] = get(v, 0) + 1
    return deg


def degree_classes(delta: int) -> list[int]:
    """All power-of-two classes between the square-root threshold and delta."""
    root = isqrt(delta)
    return [root << k for k in range((delta // root).bit_length())]


def classify_interval(edges: list[Row], deg: dict[int, int], delta: int) -> tuple[list[Row], dict, dict]:
    """Split an interval's edges, whose subgraph degrees are deg, by the
    degree classes of their endpoints, into (low, per_class, high).

    A vertex of degree at least the square-root threshold is high, in the
    power-of-two class d with its degree in [d, 2d); high[d] is the set of
    them.  An edge with no high endpoint joins the shared low bucket;
    otherwise its class is the larger endpoint class d.  per_class[d] is
    (h1, h2): h1 holds the edges with both endpoints in class d, h2 those
    with the other endpoint below d.  StreamColorer.feed keeps every degree
    within delta, so one above it is an engine bug, not bad input.
    """
    root = isqrt(delta)
    class_of: dict[int, int] = {}
    high: dict[int, set[int]] = {}
    for v, dv in deg.items():
        if dv >= root:
            if dv > delta:
                raise EngineInvariantError(
                    f"interval degree {dv} exceeds the configured bound {delta}"
                )
            d = class_of[v] = 1 << (dv.bit_length() - 1)
            high.setdefault(d, set()).add(v)
    low: list[Row] = []
    per_class: dict[int, tuple[list[Row], list[Row]]] = {}
    get = class_of.get
    for e in edges:
        cu = get(e[0], 0)
        cv = get(e[1], 0)
        d = cu if cu > cv else cv
        if not d:
            low.append(e)
            continue
        bucket = per_class.get(d)
        if bucket is None:
            bucket = per_class[d] = ([], [])
        bucket[0 if cu == cv else 1].append(e)
    return low, per_class, high


class PhaseEngine:
    """Drives one recursion level: ingest, interval processing, phase turns.

    A level below config.max_depth runs the degree classes.  A fresh level,
    one at the depth cap, colors every interval, the final partial one
    included, from a fresh palette of 2 * delta - 1 LOW colors and defers
    nothing; at cap 0 that is the baseline scheme.  The caller owns the
    recursion; this engine only reports leftovers.

    The engine keeps its level's accounting: meter, its SpaceMeter;
    interval_index, the intervals processed; phases, the phases started;
    taken, the edges it took out of its buffer to color or defer; deferred,
    the edges its class intervals deferred; and base_bound, the degree bound
    of its base case, or None.  So taken - deferred edges are colored here.
    """

    def __init__(
        self,
        config: RunConfig,
        *,
        epoch: int,
        level: int,
        sigma_source: RandomSource,
        offset_source: RandomSource,
        collector: MetricsCollector,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.config = config
        self.epoch = epoch
        self.level = level
        self.fresh = level >= config.max_depth
        self._sigma = sigma_source
        self._offset = offset_source
        self.meter = SpaceMeter()
        self._collector = collector
        self._trace = trace
        self._buffer: list[Row] = []
        self.interval_index = 0
        self.phases = 0
        self.taken = 0
        self.deferred = 0
        self.base_bound: int | None = None
        self._phase: int | None = None
        self._states: dict[int, ClassState] = {}
        self._phase_edges = 0

    @property
    def room(self) -> int:
        """The edges the current interval still takes."""
        return self.config.interval_size - len(self._buffer)

    def ingest(self, edges: list[Row]) -> tuple[Emissions, list[Row]]:
        """Buffer edges, at most room of them; process the interval once it
        is full.  The buffer is metered when the interval is processed, not
        per edge."""
        room = self.room
        if len(edges) > room:
            raise EngineInvariantError(f"level {self.level} took {len(edges)} edges with room for {room}")
        self._buffer += edges
        if len(edges) < room:
            return [], []
        return self._process_interval()

    def flush(self) -> tuple[Emissions, list[Row]]:
        """Process the final partial interval, if any, then end the open
        phase.  When a class level's first interval is also its last, the
        level's whole input is buffered: color it outright from BASE colors
        and defer nothing."""
        if not self._buffer:
            out: tuple[Emissions, list[Row]] = [], []
        elif self.interval_index > 0 or self.fresh:
            out = self._process_interval()
        else:
            edges = self._take()
            self.base_bound = bound = max(compute_degrees(edges).values())
            out = self._greedy("base", edges, bound, 2 * bound - 1), []
        self._end_phase()
        return out

    # -- internals ----------------------------------------------------------

    def _take(self) -> list[Row]:
        """Empty the buffer, charging it to the meter at its full size."""
        edges = self._buffer
        self._buffer = []
        self.taken += len(edges)
        self.meter.pulse("buffer", len(edges))
        return edges

    def _greedy(self, kind: str, edges: list[Row], bound: int, size: int) -> Emissions:
        """First-fit color edges of max degree bound from one fresh palette
        of size tokens, noted as one scope of kind with size as its budget:
        "base", the level's whole input, or "fresh" or "low", the interval
        in process."""
        interval = None if kind == "base" else self.interval_index
        # a fresh level runs no phase, so its tokens read phase 0
        prefix = token_prefix(self.epoch, self.level, KIND_BASE if kind == "base" else KIND_LOW,
                              phase=self._phase or 0, interval=interval)
        out = greedy_edge_color(edges, bound, [f"{prefix}{s}" for s in range(size)])
        self._collector.note_emission((kind, self.epoch, self.level, None, None, interval), size, out)
        return out

    def _start_phase(self, phase: int) -> None:
        self._phase = phase
        self._phase_edges = 0
        self.phases += 1
        cfg = self.config
        self._states = {
            d: ClassState(
                epoch=self.epoch,
                level=self.level,
                phase=phase,
                d=d,
                delta=cfg.delta,
                kappa=cfg.kappa,
                sigma_source=self._sigma.child("p", phase, "d", d),
                offset_source=self._offset.child("p", phase, "d", d),
                meter=self.meter,
                trace=self._trace,
            )
            for d in degree_classes(cfg.delta)
        }

    def class_phases(self) -> list[tuple[ClassPhaseStat, int, dict[tuple[str, int], int]]]:
        """(stats, budget, slot masks) of each class of the open phase, if
        any, in class order."""
        return [
            (
                ClassPhaseStat(
                    epoch=self.epoch,
                    level=self.level,
                    phase=self._phase,
                    d=d,
                    sqrt_delta=self.config.sqrt_delta,
                    index_inserts=sum(map(len, state.index_sets.values())),
                    counter_creates=len(state.counters),
                    phase_edges=self._phase_edges,
                ),
                state.budget,
                state.slot_masks,
            )
            for d, state in sorted(self._states.items())
        ]

    def _end_phase(self) -> None:
        """Close the class scopes of the open phase, if any, and release its states."""
        for phase in self.class_phases():
            self._collector.note_class_phase(*phase)
        for state in self._states.values():
            state.release()
        self._states = {}
        self._phase = None

    def _process_interval(self) -> tuple[Emissions, list[Row]]:
        cfg = self.config
        if self.fresh:
            edges = self._take()
            bound = max(compute_degrees(edges).values())
            out = self._greedy("fresh", edges, bound, 2 * cfg.delta - 1)
            self.interval_index += 1
            return out, []

        index = self.interval_index
        phase = index // cfg.sqrt_delta
        if self._phase is None:
            self._start_phase(phase)
        assert self._phase == phase

        edges = self._take()
        deg = compute_degrees(edges)
        if self._trace is not None:
            # deg is never mutated after this, so the record can hold it
            self._trace.emit({"kind": "interval-degrees", "epoch": self.epoch, "level": self.level,
                              "interval": index, "deg": deg})

        low, per_class, high_by_class = classify_interval(edges, deg, cfg.delta)

        emissions = self._greedy("low", low, cfg.sqrt_delta - 1, 2 * cfg.sqrt_delta - 1)
        leftovers: list[Row] = []

        for d, state in sorted(self._states.items()):
            h1, h2 = per_class.get(d, ([], []))
            state.begin_interval(index)
            high = high_by_class.get(d, set())
            em1, left1, usable = step1_high_high(h1, h2, high, state)
            em2, left2 = step2_high_low(h2, usable, high, deg, state)
            state.end_interval()
            emissions += em1 + em2
            leftovers += left1 + left2

        leftovers.sort(key=_seq)
        self.deferred += len(leftovers)

        seen = {e[2] for e, _ in emissions} | set(map(_seq, leftovers))
        expect = set(map(_seq, edges))
        if seen != expect or len(emissions) + len(leftovers) != len(edges):
            raise EngineInvariantError(
                f"interval {index} at level {self.level}: "
                f"{len(emissions)} colored + {len(leftovers)} deferred "
                f"!= {len(edges)} buffered"
            )

        self._phase_edges += len(edges)
        self.interval_index = index + 1
        if self.interval_index % cfg.sqrt_delta == 0:
            self._end_phase()
        return emissions, leftovers
