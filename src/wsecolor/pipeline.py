"""The single-pass driver: input validation, degree accounting, epoch
routing, the recursion cascade and the depth cap.

StreamColorer is the engine's one input boundary.  It checks each edge
once, counts degrees to enforce a known bound or to pick the degree regime
(epoch) when the bound is unknown, and hands the edge to that epoch's
level-0 engine.  Every deferred edge flows to the next level, which runs
the same machinery with its own randomness and colors; a level at the
depth cap colors each interval from a fresh palette and never defers, so
runs always terminate.  run_baseline colors the raw stream that same way
for comparison runs.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from .audit import MetricsCollector, RunMetrics, TraceRecorder
from .model import Edge, RunConfig, StreamInputError, epoch_config
from .phase_engine import Emissions, PhaseEngine
from .primitives import RandomSource

__all__ = ["StreamColorer", "run_baseline", "run_stream"]


class StreamColorer:
    """Single-pass driver: assigns arrival sequence numbers, validates and
    degree-counts each edge, routes it to its epoch's level-0 engine, and
    owns each epoch's chain of levels and the run's metrics, trace and
    random roots.

    A known degree bound, and the baseline, use epoch 0 and reject the first
    edge that lifts an endpoint above config.declared_delta, the bound as
    given rather than as normalized.  An unknown bound routes each edge to
    the epoch of the running max degree, (top - 1).bit_length(), whose
    engines run at epoch_config(config, epoch).

    Both random roots derive from config.seed; engines are built on first
    use, so a root replaced before the first feed seeds every engine.
    """

    def __init__(
        self, config: RunConfig, *, trace: TraceRecorder | None = None, baseline: bool = False
    ) -> None:
        self.config = config
        self.trace = trace
        self.baseline = baseline
        self.collector = MetricsCollector()
        self.sigma_root = RandomSource(config.seed, ("sigma",))
        self.offset_root = RandomSource(config.seed, ("offsets",))
        self._seq = 0
        self._deg = [0] * config.n
        self._top = 0
        # None routes by the running max degree instead of enforcing a bound
        self._bound = (
            None if config.delta_mode == "unknown" and not baseline else config.declared_delta
        )
        # each epoch's chain of engines, indexed by level
        self._epochs: dict[int, list[PhaseEngine]] = {}

    def feed(self, u: int, v: int, edge: Edge | None = None) -> Emissions:
        """Take the next arrival (u, v).  edge, an Edge of u and v, is
        passed on as is when its seq is this arrival's; otherwise the edge
        is rebuilt with the arrival seq."""
        seq = self._seq
        self._seq += 1
        n = self.config.n
        if u == v:
            raise StreamInputError(f"self-loop at vertex {u} (seq {seq})")
        if not (0 <= u < n and 0 <= v < n):
            x = v if 0 <= u < n else u
            raise StreamInputError(f"vertex {x} outside [0, {n}) (seq {seq})")
        du = self._deg[u] + 1
        dv = self._deg[v] + 1
        if self._bound is None:
            self._top = max(self._top, du, dv)
            epoch = (self._top - 1).bit_length()
        elif du > self._bound or dv > self._bound:
            x, dx = (u, du) if du > self._bound else (v, dv)
            raise StreamInputError(
                f"degree {dx} at vertex {x} exceeds the configured bound {self._bound} (seq {seq})"
            )
        else:
            epoch = 0
        self._deg[u] = du
        self._deg[v] = dv
        chain = self._epochs.get(epoch)
        if chain is None:
            config = self.config if self.baseline else epoch_config(self.config, epoch)
            chain = self._epochs[epoch] = [self._engine(config, epoch, 0)]
        if edge is None or edge.seq != seq or type(edge) is not Edge:
            edge = Edge(u, v, seq)
        return self._submit(chain, 0, edge)

    def finalize(self) -> Emissions:
        # every epoch still holds buffered edges; drain them in epoch order,
        # and walk each chain top-down: flush, close, forward.  enumerate
        # reads the live list, so it reaches the levels a flush appends.
        out: Emissions = []
        for epoch in sorted(self._epochs):
            chain = self._epochs[epoch]
            for level, engine in enumerate(chain):
                emissions, leftovers = engine.flush()
                engine.close()
                out.extend(emissions)
                out.extend(self._forward(chain, level, leftovers))
        return out

    def run(self, edges: Iterable[Edge]) -> Iterator[tuple[Edge, str]]:
        """Feed every edge, then finalize, yielding emissions as they appear."""
        for e in edges:
            yield from self.feed(e.u, e.v, e)
        yield from self.finalize()

    def engines(self) -> list[PhaseEngine]:
        """Every level's engine, in epoch and level order."""
        return [x for epoch in sorted(self._epochs) for x in self._epochs[epoch]]

    def metrics(self, *, wall_ms: float) -> RunMetrics:
        return self.collector.build(
            config=self.config, engines=self.engines(), input_edges=self._seq, wall_ms=wall_ms
        )

    def _engine(self, config: RunConfig, epoch: int, level: int) -> PhaseEngine:
        fresh = self.baseline or level >= config.max_depth
        role = ("baseline" if self.baseline else "fallback") if fresh else None
        return PhaseEngine(
            config,
            epoch=epoch,
            level=level,
            role=role,
            sigma_source=self.sigma_root.child("e", epoch, "l", level),
            offset_source=self.offset_root.child("e", epoch, "l", level),
            collector=self.collector,
            trace=self.trace,
        )

    def _submit(self, chain: list[PhaseEngine], level: int, e: Edge) -> Emissions:
        emissions, leftovers = chain[level].ingest(e)
        if leftovers:
            emissions = emissions + self._forward(chain, level, leftovers)
        return emissions

    def _forward(self, chain: list[PhaseEngine], level: int, leftovers: list[Edge]) -> Emissions:
        """Submit the edges deferred at level to the level below it."""
        if not leftovers:
            return []
        if len(chain) == level + 1:
            chain.append(self._engine(chain[level].config, chain[level].epoch, level + 1))
        out: Emissions = []
        for e in leftovers:
            out.extend(self._submit(chain, level + 1, e))
        return out


def _run(
    config: RunConfig,
    edges: Iterable[Edge],
    *,
    trace: TraceRecorder | None,
    baseline: bool,
) -> tuple[Emissions, RunMetrics]:
    start = time.perf_counter()
    colorer = StreamColorer(config, trace=trace, baseline=baseline)
    emissions = list(colorer.run(edges))
    wall_ms = (time.perf_counter() - start) * 1000.0
    return emissions, colorer.metrics(wall_ms=wall_ms)


def run_stream(
    config: RunConfig, edges: Iterable[Edge], *, trace: TraceRecorder | None = None
) -> tuple[Emissions, RunMetrics]:
    """Color a stream in one pass; returns the (edge, color token)
    emissions and the run's metrics.  Edges are re-sequenced by arrival
    order, so iterables of bare (u, v) carriers work as long as .u/.v/.seq
    exist."""
    return _run(config, edges, trace=trace, baseline=False)


def run_baseline(config: RunConfig, edges: Iterable[Edge]) -> tuple[Emissions, RunMetrics]:
    """Color a stream with the per-interval fresh-palette reference scheme."""
    return _run(config, edges, trace=None, baseline=True)
