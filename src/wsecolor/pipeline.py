"""The single-pass driver: input validation, degree accounting, epoch
routing, the recursion cascade and the depth cap.

StreamColorer is the engine's one input boundary.  It checks each edge
once, counts degrees to enforce a known bound or to pick the degree regime
(epoch) when the bound is unknown, and hands the edge to that epoch's
level-0 instance.  Every deferred edge flows to the next level, which runs
the same machinery with its own randomness and colors; a level at the
depth cap switches to a per-interval fresh-palette colorer that never
defers, so runs always terminate.  run_baseline drives that same colorer
over the raw stream for comparison runs.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from .audit import MeterHandle, MetricsCollector, RunMetrics, SpaceMeter, TraceRecorder
from .model import ColorId, Edge, RunConfig, StreamInputError, resolve_config
from .phase_engine import FILLING, PhaseEngine, color_greedy, compute_degrees
from .primitives import RandomSource

__all__ = ["IntervalColorer", "LevelInstance", "StreamColorer", "run_baseline", "run_stream"]

Emissions = list[tuple[Edge, ColorId]]


class IntervalColorer:
    """Buffered greedy coloring with a fresh palette per interval.

    Twice the degree bound minus one fresh colors per interval, zero
    leftovers.  Serves as the baseline algorithm and as the terminal engine
    once the recursion depth cap is reached.
    """

    def __init__(
        self,
        config: RunConfig,
        *,
        epoch: int,
        level: int,
        role: str,
        meter: MeterHandle,
        collector: MetricsCollector,
    ) -> None:
        assert role in ("baseline", "fallback")
        self.config = config
        self.epoch = epoch
        self.level = level
        self.role = role
        self._meter = meter
        self._collector = collector
        self._buffer: list[Edge] = []
        self.interval_index = 0

    def ingest(self, e: Edge) -> tuple[Emissions, list[Edge]]:
        self._buffer.append(e)
        if len(self._buffer) >= self.config.interval_size:
            return self._process(), []
        return FILLING

    def flush(self) -> tuple[Emissions, list[Edge]]:
        if self._buffer:
            return self._process(), []
        return [], []

    def close(self) -> None:
        pass

    def _process(self) -> Emissions:
        index = self.interval_index
        edges = self._buffer
        self._buffer = []
        self._meter.pulse("buffer", len(edges))
        self._collector.note_interval(self.epoch, self.level)
        if self.role == "fallback":
            self._collector.note_fallback_interval()
        self.interval_index = index + 1
        bound = max(compute_degrees(edges).values())
        palette = [
            ColorId.low(self.epoch, self.level, 0, index, s)
            for s in range(2 * self.config.delta - 1)
        ]
        scope = ("fresh", self.epoch, self.level, index)
        return color_greedy(edges, bound, palette, scope, self._collector)


class LevelInstance:
    """One recursion level plus the lazily created level below it.

    Run-wide state (meter, metrics, trace, random roots, baseline mode)
    is read from the owning StreamColorer.
    """

    def __init__(self, owner: StreamColorer, config: RunConfig, epoch: int, level: int) -> None:
        self.owner = owner
        self.config = config
        self.epoch = epoch
        self.level = level
        self.child: LevelInstance | None = None
        meter = MeterHandle(owner.meter, epoch, level)
        if owner.baseline or level >= config.max_depth:
            self.engine: PhaseEngine | IntervalColorer = IntervalColorer(
                config,
                epoch=epoch,
                level=level,
                role="baseline" if owner.baseline else "fallback",
                meter=meter,
                collector=owner.collector,
            )
        else:
            self.engine = PhaseEngine(
                config,
                epoch=epoch,
                level=level,
                sigma_source=owner.sigma_root.child("e", epoch, "l", level),
                offset_source=owner.offset_root.child("e", epoch, "l", level),
                meter=meter,
                collector=owner.collector,
                trace=owner.trace,
            )

    def submit(self, e: Edge) -> Emissions:
        emissions, leftovers = self.engine.ingest(e)
        if leftovers:
            emissions = emissions + self._forward(leftovers)
        return emissions

    def finalize(self) -> Emissions:
        """Flush this level only; callers then finalize self.child in turn."""
        emissions, leftovers = self.engine.flush()
        self.engine.close()
        return emissions + self._forward(leftovers)

    def _forward(self, leftovers: list[Edge]) -> Emissions:
        if not leftovers:
            return []
        if self.child is None:
            self.child = LevelInstance(self.owner, self.config, self.epoch, self.level + 1)
        out: Emissions = []
        for e in leftovers:
            out.extend(self.child.submit(e))
        return out


class StreamColorer:
    """Single-pass driver: assigns arrival sequence numbers, validates and
    degree-counts each edge, routes it to its epoch's level-0 instance, and
    owns the run's meter, metrics, trace and random roots.

    A known degree bound, and the baseline, use epoch 0 and reject the first
    edge that lifts an endpoint above config.delta.  An unknown bound routes
    each edge to the epoch of the running max degree, (top - 1).bit_length(),
    whose instance is configured for delta 2**epoch.
    """

    def __init__(
        self, config: RunConfig, *, trace: TraceRecorder | None = None, baseline: bool = False
    ) -> None:
        self.config = config
        self.trace = trace
        self.baseline = baseline
        self.meter = SpaceMeter()
        self.collector = MetricsCollector()
        self.sigma_root = RandomSource(
            config.seed if config.sigma_seed is None else config.sigma_seed, ("sigma",)
        )
        self.offset_root = RandomSource(
            config.seed if config.offset_seed is None else config.offset_seed, ("offsets",)
        )
        self._seq = 0
        self._deg = [0] * config.n
        self._top = 0
        # None routes by the running max degree instead of enforcing a bound
        self._bound = (
            None if config.delta_mode == "unknown" and not baseline else config.delta
        )
        self._epochs: dict[int, LevelInstance] = {}

    def feed(self, u: int, v: int) -> Emissions:
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
        inst = self._epochs.get(epoch)
        if inst is None:
            inst = self._epochs[epoch] = LevelInstance(self, self._epoch_config(epoch), epoch, 0)
        return inst.submit(Edge(u, v, seq))

    def finalize(self) -> Emissions:
        # every epoch still holds buffered edges; drain them in epoch order,
        # and walk each chain top-down, since flushing a level can push new
        # edges into its child
        out: Emissions = []
        for epoch in sorted(self._epochs):
            node: LevelInstance | None = self._epochs[epoch]
            while node is not None:
                out.extend(node.finalize())
                node = node.child
        return out

    def run(self, edges: Iterable[Edge]) -> Iterator[tuple[Edge, ColorId]]:
        """Feed every edge, then finalize, yielding emissions as they appear."""
        for e in edges:
            yield from self.feed(e.u, e.v)
        yield from self.finalize()

    def metrics(self, *, wall_ms: float) -> RunMetrics:
        return self.collector.build(
            config=self.config, meter=self.meter, input_edges=self._seq, wall_ms=wall_ms
        )

    def _epoch_config(self, epoch: int) -> RunConfig:
        base = self.config
        if self._bound is not None:
            return base
        return resolve_config(
            n=base.n,
            delta=1 << epoch,
            kappa=base.kappa,
            seed=base.seed,
            interval_size=base.interval_size,
            max_depth=base.max_depth,
            delta_mode="unknown",
            sigma_seed=base.sigma_seed,
            offset_seed=base.offset_seed,
        )


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
    """Color a stream in one pass.  Edges are re-sequenced by arrival order,
    so iterables of bare (u, v) carriers work as long as .u/.v/.seq exist."""
    return _run(config, edges, trace=trace, baseline=False)


def run_baseline(
    config: RunConfig, edges: Iterable[Edge], *, trace: TraceRecorder | None = None
) -> tuple[Emissions, RunMetrics]:
    """Color a stream with the per-interval fresh-palette reference scheme."""
    return _run(config, edges, trace=trace, baseline=True)
