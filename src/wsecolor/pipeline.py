"""The single-pass driver: input validation, degree accounting, epoch
routing, the recursion cascade and the depth cap.

StreamColorer is the engine's one input boundary.  It takes arrivals as
lists of (u, v, seq) rows, checks each row once, counts degrees to enforce
a known bound or to pick the degree regime (epoch) when the bound is
unknown, and hands each epoch's level-0 engine its rows an interval at a
time.  Every deferred edge flows to the next level, which runs the same
machinery with its own randomness and colors; a level at the depth cap
colors each interval from a fresh palette and never defers, so runs always
terminate.  The baseline is that level alone: baseline_config caps the
depth at 0.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Iterable, Iterator

from .audit import MetricsCollector, RunMetrics, TraceRecorder
from .model import Row, RunConfig, StreamInputError, epoch_config
from .phase_engine import Emissions, PhaseEngine
from .primitives import RandomSource

__all__ = ["StreamColorer", "baseline_config", "run_baseline", "run_stream"]


class StreamColorer:
    """Single-pass driver: assigns arrival sequence numbers, validates and
    degree-counts each row, routes it to its epoch's level-0 engine, and
    owns each epoch's chain of levels and the run's metrics, trace and
    random roots.

    A known degree bound uses epoch 0 and rejects the first row that lifts
    an endpoint above config.declared_delta, the bound as given rather than
    as normalized.  An unknown bound routes each row to the epoch of the
    running max degree, (top - 1).bit_length(), whose engines run at
    epoch_config(config, epoch).

    Both random roots derive from config.seed; engines are built on first
    use, so a root replaced before the first feed seeds every engine.
    """

    def __init__(self, config: RunConfig, *, trace: TraceRecorder | None = None) -> None:
        self.config = config
        self.trace = trace
        self.collector = MetricsCollector()
        self.sigma_root = RandomSource(config.seed, ("sigma",))
        self.offset_root = RandomSource(config.seed, ("offsets",))
        self._seq = 0
        self._deg = [0] * config.n
        self._top = 0
        # None routes by the running max degree instead of enforcing a bound
        self._bound = None if config.delta_mode == "unknown" else config.declared_delta
        # each epoch's chain of engines, indexed by level
        self._epochs: dict[int, list[PhaseEngine]] = {}
        # the emissions of a feed stopped by a bad row, owed to the next call
        self._owed: Emissions = []

    def feed(self, rows: Iterable[Row]) -> Emissions:
        """Take the next arrivals, rows that unpack as (u, v, seq), and
        return the emissions of every interval they complete.  Each row is
        emitted as (u, v, seq) with seq its arrival position; the seq it
        carries is not read.

        A bad row raises StreamInputError naming its seq.  The rows before
        it are taken as if fed alone: buffered, counted, and their
        emissions returned by the next feed or finalize.  The bad row uses
        up its seq and leaves no degree behind; the rows after it are not
        read."""
        n, deg, bound = self.config.n, self._deg, self._bound
        seq, top = self._seq, self._top
        epoch = max(top - 1, 0).bit_length()  # 0 for a known bound, whose top stays 0
        out, self._owed = self._owed, []
        accepted: list[Row] = []
        failed = True
        try:
            for u, v, _ in rows:
                if u == v:
                    raise StreamInputError(f"self-loop at vertex {u} (seq {seq})")
                if not (0 <= u < n and 0 <= v < n):
                    x = v if 0 <= u < n else u
                    raise StreamInputError(f"vertex {x} outside [0, {n}) (seq {seq})")
                du = deg[u] + 1
                dv = deg[v] + 1
                if bound is None:
                    if du > top or dv > top:
                        top = du if du > dv else dv
                        if (top - 1).bit_length() != epoch:
                            # the epochs only rise: the rows so far are all epoch's
                            if accepted:
                                out += self._submit(self._chain(epoch), 0, accepted)
                                accepted = []
                            epoch = (top - 1).bit_length()
                elif du > bound or dv > bound:
                    x, dx = (u, du) if du > bound else (v, dv)
                    raise StreamInputError(
                        f"degree {dx} at vertex {x} exceeds the configured bound {bound} (seq {seq})"
                    )
                deg[u] = du
                deg[v] = dv
                accepted.append((u, v, seq))
                seq += 1
            failed = False
        finally:
            self._seq = seq + failed
            self._top = top
            if accepted:
                out += self._submit(self._chain(epoch), 0, accepted)
            if failed:
                self._owed = out
        return out

    def finalize(self) -> Emissions:
        # every epoch still holds buffered edges; drain them in epoch order,
        # and walk each chain top-down: flush, then forward.  enumerate
        # reads the live list, so it reaches the levels a flush appends.
        out, self._owed = self._owed, []
        for epoch in sorted(self._epochs):
            chain = self._epochs[epoch]
            for level, engine in enumerate(chain):
                emissions, leftovers = engine.flush()
                out += emissions
                out += self._forward(chain, level, leftovers)
        return out

    def run(self, rows: Iterable[Row]) -> Iterator[tuple[Row, str]]:
        """Feed rows an interval-sized chunk at a time, then finalize,
        yielding emissions as they appear.  If reading rows fails, the rows
        read before the failure are fed first, so a bad row among them is
        the error raised, as it is the first in arrival order."""
        rows = iter(rows)
        size = self.config.interval_size
        while True:
            chunk: list[Row] = []
            try:
                chunk.extend(islice(rows, size))  # keeps what it read if rows raises
            except Exception:
                yield from self.feed(chunk)
                raise
            if not chunk:
                break
            yield from self.feed(chunk)
        yield from self.finalize()

    def engines(self) -> list[PhaseEngine]:
        """Every level's engine, in epoch and level order."""
        return [x for epoch in sorted(self._epochs) for x in self._epochs[epoch]]

    def metrics(self, *, wall_ms: float) -> RunMetrics:
        return self.collector.build(
            config=self.config, engines=self.engines(), input_edges=self._seq, wall_ms=wall_ms
        )

    def _engine(self, config: RunConfig, epoch: int, level: int) -> PhaseEngine:
        return PhaseEngine(
            config,
            epoch=epoch,
            level=level,
            sigma_source=self.sigma_root.child("e", epoch, "l", level),
            offset_source=self.offset_root.child("e", epoch, "l", level),
            collector=self.collector,
            trace=self.trace,
        )

    def _chain(self, epoch: int) -> list[PhaseEngine]:
        chain = self._epochs.get(epoch)
        if chain is None:
            chain = self._epochs[epoch] = [self._engine(epoch_config(self.config, epoch), epoch, 0)]
        return chain

    def _submit(self, chain: list[PhaseEngine], level: int, rows: list[Row]) -> Emissions:
        """Hand rows to chain[level] an interval at a time, forwarding the
        edges each full interval defers before handing it more."""
        engine = chain[level]
        out: Emissions = []
        start = 0
        while start < len(rows):
            stop = start + engine.room
            emissions, leftovers = engine.ingest(rows[start:stop])
            out += emissions
            out += self._forward(chain, level, leftovers)
            start = stop
        return out

    def _forward(self, chain: list[PhaseEngine], level: int, leftovers: list[Row]) -> Emissions:
        """Submit the edges deferred at level to the level below it."""
        if not leftovers:
            return []
        if len(chain) == level + 1:
            chain.append(self._engine(chain[level].config, chain[level].epoch, level + 1))
        return self._submit(chain, level + 1, leftovers)


def baseline_config(config: RunConfig) -> RunConfig:
    """The baseline run of config: the per-interval fresh-palette colorer,
    which is the depth-0 level under the declared bound."""
    return config._replace(max_depth=0, delta_mode="known")


def run_stream(
    config: RunConfig, edges: Iterable[Row], *, trace: TraceRecorder | None = None
) -> tuple[Emissions, RunMetrics]:
    """Color a stream in one pass; returns the ((u, v, seq), color token)
    emissions and the run's metrics.  edges are rows that unpack as
    (u, v, seq), such as Edges or read_stream's body; each is re-sequenced
    by arrival order, so the seq it carries is not read."""
    start = time.perf_counter()
    colorer = StreamColorer(config, trace=trace)
    emissions = list(colorer.run(edges))
    wall_ms = (time.perf_counter() - start) * 1000.0
    return emissions, colorer.metrics(wall_ms=wall_ms)


def run_baseline(config: RunConfig, edges: Iterable[Row]) -> tuple[Emissions, RunMetrics]:
    """Color a stream with the per-interval fresh-palette reference scheme."""
    return run_stream(baseline_config(config), edges)
