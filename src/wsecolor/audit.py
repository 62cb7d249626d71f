"""Verification, oracles, space accounting, run metrics, decision traces,
and the statistical checks behind the acceptance suite.

Everything here observes the engine from the outside.  verify_proper is the
ground truth for output correctness; the trace audits re-derive the slot
structure that the colorer is supposed to maintain; the space meter counts
the words the algorithm is actually allowed to keep.
"""

from __future__ import annotations

import json
import math
from array import array
from typing import IO, Iterable, NamedTuple

from .model import Edge, EngineInvariantError, RunConfig, epoch_config
from .primitives import RandomSource

__all__ = [
    "ClassPhaseStat",
    "LeftoverReport",
    "MetricsCollector",
    "RunMetrics",
    "ScopeStat",
    "SpaceMeter",
    "TraceRecorder",
    "VerifyResult",
    "assignment_structure_audit",
    "audit_gate",
    "color_budget_check",
    "counter_trace",
    "depth_gate",
    "leftover_stats",
    "offset_independence_check",
    "saturated_index_audit",
    "space_check",
    "space_gate",
    "trace_audit",
    "verify_proper",
]


# ---------------------------------------------------------------------------
# decision traces


class TraceRecorder:
    """Collects the decision records emitted by the engine as JSON lines.

    Record kinds: interval-degrees, class-interval, offset-draw,
    counter-init, counter-bump, high-assign, exile, and mixed-decision.
    Each record is a JSON object whose first key is 'kind', held as its
    line in processing order.  A record is rendered once, where it is
    emitted: emit takes a dict, rendered as json.dumps gives it, or a line
    the emitter already rendered to those bytes.  .records is the held
    lines as json.loads reads them, so in-memory audits see what a reader
    of the trace file sees.

    Without a sink every line stays held until dump; with one, emit writes
    each line to it at once and holds nothing, so dump has nothing left to
    write.
    """

    __slots__ = ("_lines", "_parsed", "_write")

    def __init__(self, sink: IO[str] | None = None) -> None:
        self._lines: list[str] = []
        # the leading held lines that .records has parsed so far
        self._parsed: list[dict] = []
        self._write = self._lines.append if sink is None else sink.write

    def emit(self, record: dict | str) -> None:
        """Take one record: a dict, or its JSON line ending in a newline."""
        self._write(record if type(record) is str else json.dumps(record) + "\n")

    @property
    def records(self) -> list[dict]:
        """The held records, each line parsed once: a new list on every
        read, of dicts shared between reads and so not to be mutated."""
        parsed = self._parsed
        parsed += map(json.loads, self._lines[len(parsed):])
        return parsed.copy()

    def dump(self, fh: IO[str]) -> None:
        """Write the held lines, then forget them."""
        fh.writelines(self._lines)
        self._lines.clear()
        self._parsed.clear()


# ---------------------------------------------------------------------------
# space accounting

class SpaceMeter:
    """Tracked-word accounting for the persistent stores of one level.

    One word per buffered edge, map entry, or set element, across six
    categories: the interval buffer, slot offsets, palette index sets,
    per-(vertex, index) counters, prior-interval tallies, and the conflict
    window.  Transient per-interval scratch (the degree map, the classified
    buckets) is not tracked.  Each PhaseEngine owns one meter.  The engines
    charge a whole interval's buffer when they process it, not per edge;
    the high-water marks come out the same.
    """

    __slots__ = ("current", "total", "peak", "category_peaks")

    def __init__(self) -> None:
        self.current: dict[str, int] = {}
        self.total = 0
        self.peak = 0
        self.category_peaks: dict[str, int] = {}

    def add(self, category: str, amount: int) -> None:
        if not amount:
            return
        value = self.current.get(category, 0) + amount
        if value < 0:
            raise EngineInvariantError(f"space meter went negative: {category}")
        self.current[category] = value
        self.total += amount
        if self.total > self.peak:
            self.peak = self.total
        if value > self.category_peaks.get(category, 0):
            self.category_peaks[category] = value

    def pulse(self, category: str, amount: int) -> None:
        """Charge amount words and hand them straight back.  Records the
        high-water mark of a store, such as the interval buffer, that fills
        while nothing else at this level changes and empties at once."""
        self.add(category, amount)
        self.add(category, -amount)


# ---------------------------------------------------------------------------
# run metrics


class ScopeStat(NamedTuple):
    """Distinct-color usage of one palette scope against its budget."""

    kind: str  # "class" | "low" | "base" | "fresh"
    epoch: int
    level: int
    budget: int
    distinct: int
    phase: int | None = None
    d: int | None = None
    interval: int | None = None


class ClassPhaseStat(NamedTuple):
    """Per-(phase, class) structural tallies used by the space check."""

    epoch: int
    level: int
    phase: int
    d: int
    sqrt_delta: int
    index_inserts: int
    counter_creates: int
    phase_edges: int


def _level_key(epoch: int, level: int) -> str:
    return f"e{epoch}.l{level}"


class RunMetrics(NamedTuple):
    """Everything a finished run reports about itself.

    Dict fields are keyed by (epoch, level) tuples in memory and by
    "e<epoch>.l<level>" strings in to_dict()/JSON form.
    """

    config: RunConfig
    input_edges: int
    colors_used: int
    colors_per_level: dict[tuple[int, int], int]
    colored_per_level: dict[tuple[int, int], int]
    leftover_per_level: dict[tuple[int, int], int]
    depth: int
    interval_count: dict[tuple[int, int], int]
    phase_count: dict[tuple[int, int], int]
    peak_words_per_level: dict[tuple[int, int], int]
    peak_words_by_category: dict[tuple[int, int], dict[str, int]]
    fallback_intervals: int
    base_cases: dict[tuple[int, int], int]
    scopes: list[ScopeStat]
    class_phase_stats: list[ClassPhaseStat]
    wall_ms: float

    def level0_peak(self) -> int:
        return self.peak_words_per_level.get((0, 0), 0)

    def level0_leftover(self) -> int:
        return self.leftover_per_level.get((0, 0), 0)

    def to_dict(self) -> dict:
        """The fields in declaration order, after a schema tag; every dict
        field but config is re-keyed by level and sorted."""
        doc = {
            "schema": "wsecolor-metrics-v1",
            **self._asdict(),
            "config": self.config._asdict(),
            "scopes": [s._asdict() for s in self.scopes],
            "class_phase_stats": [s._asdict() for s in self.class_phase_stats],
        }
        for name, value in doc.items():
            if isinstance(value, dict) and name != "config":
                doc[name] = {_level_key(e, l): v for (e, l), v in sorted(value.items())}
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _close_class_scope(counts: dict, stat: ClassPhaseStat, budget: int, masks: dict) -> None:
    """Count the class scope of stat's phase, unless it colored nothing."""
    if masks:
        scope = ("class", stat.epoch, stat.level, stat.phase, stat.d, None)
        counts[scope] = (budget, sum(mask.bit_count() for mask in masks.values()))


class MetricsCollector:
    """Accumulates the palette scopes as the engines close them; build()
    freezes them, together with the counts each level's engine holds, into
    a RunMetrics.  The colored edges are such a count: an engine's taken
    minus its deferred, so no emission is counted here.

    No two palette scopes share a color token (every token embeds its
    scope's epoch and level, plus its phase and class or its interval), so
    distinct colors add up over scopes.  A scope therefore keeps only
    (budget, distinct) once its palette is done: LOW, fresh and base scopes
    at once, since each is one greedy palette noted in one call, and a
    class scope when note_class_phase closes its phase.  Until then the
    class's state holds the scope's slot masks, one int per family and
    palette index, and no token is kept.  The class-phase stats stay in one
    list, in the order the phases end.
    """

    def __init__(self) -> None:
        self._counts: dict[tuple, tuple[int, int]] = {}
        self._class_phase_stats: list[ClassPhaseStat] = []

    def note_emission(self, scope: tuple, budget: int, emissions: list[tuple[tuple, str]]) -> None:
        """Record the (edge, color) emissions of one greedy palette, a LOW,
        fresh or base scope, handed out in one go.  scope is its ScopeStat's
        (kind, epoch, level, phase, d, interval), None if unused.  A palette
        that colored nothing adds no scope."""
        if emissions:
            self._counts[scope] = (budget, len({color for _, color in emissions}))

    def note_class_phase(self, stat: ClassPhaseStat, budget: int, masks: dict) -> None:
        """Record a finished (phase, class) and close its palette scope,
        whose colors are the set bits of masks."""
        self._class_phase_stats.append(stat)
        _close_class_scope(self._counts, stat, budget, masks)

    def build(
        self, *, config: RunConfig, engines: Iterable, input_edges: int, wall_ms: float
    ) -> RunMetrics:
        """engines are the run's PhaseEngines, in epoch and level order.
        From each, build reads epoch, level, fresh, interval_index (its
        interval count), phases, taken (edges taken out of its buffer),
        deferred (edges deferred by its class intervals), base_bound (the
        degree bound of its base case, or None), meter (its SpaceMeter) and
        class_phases() (the classes of its open phase, whose scopes count as
        they stand).  A level's colored count, taken - deferred, appears
        only if it is nonzero, and depth is the deepest such level.  A
        level's peaks appear only if its meter was charged, its interval
        count only if it is nonzero, its phase and leftover counts only if
        it ran a phase, and its base case only if it had one."""
        levels = {(x.epoch, x.level): x for x in engines}
        counts = dict(self._counts)
        for x in levels.values():
            for stat, budget, masks in x.class_phases():
                _close_class_scope(counts, stat, budget, masks)
        scope_stats: list[ScopeStat] = []
        per_level_colors: dict[tuple[int, int], int] = {}
        for scope, (budget, distinct) in sorted(counts.items(), key=lambda kv: repr(kv[0])):
            kind, epoch, level, phase, d, interval = scope
            scope_stats.append(ScopeStat(kind, epoch, level, budget, distinct, phase, d, interval))
            per_level_colors[(epoch, level)] = per_level_colors.get((epoch, level), 0) + distinct
        colored = {k: x.taken - x.deferred for k, x in levels.items() if x.taken > x.deferred}
        return RunMetrics(
            config=config,
            input_edges=input_edges,
            colors_used=sum(per_level_colors.values()),
            colors_per_level=per_level_colors,
            colored_per_level=colored,
            leftover_per_level={k: x.deferred for k, x in levels.items() if x.phases},
            depth=max((level for _, level in colored), default=0),
            interval_count={k: x.interval_index for k, x in levels.items() if x.interval_index},
            phase_count={k: x.phases for k, x in levels.items() if x.phases},
            peak_words_per_level={k: x.meter.peak for k, x in levels.items() if x.meter.peak},
            peak_words_by_category={
                k: dict(x.meter.category_peaks) for k, x in levels.items() if x.meter.peak
            },
            fallback_intervals=sum(x.interval_index for x in levels.values() if x.fresh),
            base_cases={k: x.base_bound for k, x in levels.items() if x.base_bound is not None},
            scopes=scope_stats,
            class_phase_stats=list(self._class_phase_stats),
            wall_ms=wall_ms,
        )


# ---------------------------------------------------------------------------
# output verification


class VerifyResult(NamedTuple):
    """Outcome of verify_proper: ok, a color conflict, or a multiset
    mismatch between input and output."""

    status: str  # "ok" | "conflict" | "mismatch"
    detail: str = ""
    first: Edge | None = None
    second: Edge | None = None
    color: str | None = None  # the conflict's color token

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# verify_proper's table from color to its head and slot holds at most
# this many colors and is cleared when full
PARSED = 4096
_UNMATCHED = -2  # the slot of a seq that no colored line has matched yet


def _clashes(seqs: array, slots: array, us: array, vs: array, seen: array | dict) -> bool:
    """True when two edges of one color among a head's seqs share a vertex.
    Sorted by slot, the seqs run through one color after another, and
    seen[x] names the last color seen at vertex x by its first seq there,
    which needs no check.  The order within a color does not matter."""
    slot = _UNMATCHED
    for s in sorted(seqs, key=slots.__getitem__):
        u, v = us[s], vs[s]
        if slots[s] != slot:
            slot = slots[s]
            c = seen[u] = seen[v] = s
        elif seen[u] == c or seen[v] == c:
            return True
        else:
            seen[u] = seen[v] = c
    return False


def verify_proper(
    colored: Iterable[tuple[Iterable[int], str]], input_edges: Iterable[Iterable[int]]
) -> VerifyResult:
    """Check conservation and properness of a colored stream.

    Ok iff the multiset of colored (u, v, seq) triples equals the input
    multiset and no two distinct edge instances sharing an endpoint carry
    equal colors.  Colors are compared as strings, whatever object holds
    them.  Each edge is unpacked as (u, v, seq), so Edges and the readers'
    int rows both serve.  Both arguments may be one-shot iterables.
    input_edges is read to the end first and must be positional: the edge
    at position i has seq i, as read_stream, order_stream and run_stream
    produce; anything else raises ValueError.  colored is then read once.

    No table from color to edges is kept.  A color splits into its head,
    the text up to its last dot, and an int slot; a color whose slot is
    not canonical (ASCII digits, no leading zero, at most 9 of them, so
    it fits an int32) is a head of its own.  Each matched seq keeps its
    slot in an int32 array and each head keeps an int32 array of its seqs
    (int64 once m reaches 2**31); the endpoint columns are uint16 until an
    id outside 16 bits widens both to int64.  So an edge costs 12 bytes,
    and memory grows with the edges and the heads, not with the distinct
    colors.  A table of PARSED recent colors, cleared when full, spares
    re-parsing a color that repeats.  The conflict reported is the one an
    ascending-seq scan meets first.
    """
    us, vs = array("H"), array("H")
    for u, v, seq in input_edges:
        if seq != len(us):
            raise ValueError(f"input edge {Edge(u, v, seq)} at position {len(us)}: seq must equal position")
        try:
            us.append(u)
            vs.append(v)
        except OverflowError:  # an id outside uint16 widens both columns
            us, vs = array("q", us[: len(vs)]), array("q", vs)
            us.append(u)
            vs.append(v)
    m = len(us)
    wide = "i" if m < 2**31 else "q"  # the type of a column of seqs
    if m and min(min(us), min(vs)) < 0:
        raise ValueError("input vertices must be non-negative")

    # An input seq is matched by the first colored line with its exact
    # triple, keeps that line's slot and joins its head's seqs; every other
    # line is surplus, and only the smallest surplus triple is kept.  A
    # color that is a head of its own takes slot -1, so two colors are
    # equal exactly when head and slot are.
    slots = array("i", [_UNMATCHED]) * m
    heads: dict[str, array] = {}
    parsed: dict[str, tuple[array, int]] = {}  # color -> (its head's seqs, slot)
    surplus = None
    for (u, v, s), color in colored:
        if 0 <= s < m and slots[s] == _UNMATCHED and u == us[s] and v == vs[s]:
            got = parsed.get(color)
            if got is None:
                if len(parsed) >= PARSED:
                    parsed.clear()
                head, dot, slot = color.rpartition(".")
                # a canonical slot of at most 9 digits, which fits an int32
                if slot.isdigit() and slot.isascii() and dot and len(slot) < 10 and (slot[0] != "0" or slot == "0"):
                    value = int(slot)
                else:
                    head, value = color, -1
                seqs = heads.get(head)
                if seqs is None:
                    seqs = heads[head] = array(wide)
                got = parsed[color] = seqs, value
            seqs, slots[s] = got
            seqs.append(s)
        elif surplus is None or (u, v, s) < surplus:
            surplus = (u, v, s)
    parsed.clear()
    bits = []
    if _UNMATCHED in slots:
        missing = min((us[s], vs[s], s) for s in range(m) if slots[s] == _UNMATCHED)
        bits.append(f"missing {missing}")
    if surplus is not None:
        bits.append(f"unexpected {surplus}")
    if bits:
        return VerifyResult(status="mismatch", detail="; ".join(bits))

    n = max(max(us), max(vs)) + 1 if m else 0

    def table(fill):  # per vertex: over 0..n-1, or over the ids present if sparse
        return dict.fromkeys(us, fill) | dict.fromkeys(vs, fill) if n > 65536 + 8 * m else array(wide, [fill]) * n

    seen = table(-1)
    clashing = [head for head, seqs in heads.items() if _clashes(seqs, slots, us, vs, seen)]
    if not clashing:
        return VerifyResult(status="ok")

    # In a clashing head, seqs sorted by (slot, seq) chain each color's
    # edges in ascending seq, and a chain is named by its first seq.
    # Scanning a chain, held[x] is the name of the last chain seen at
    # vertex x and holder[x] its seq, so a chain's first repeat at u (then
    # v) is its earliest conflict.  The smallest second seq over all chains
    # is the conflict an ascending-seq scan of the stream meets first.
    held, holder = table(-1), table(0)
    limit = m
    for head in clashing:
        chain = sorted(heads[head])
        chain.sort(key=slots.__getitem__)
        slot = _UNMATCHED
        for s in chain:
            if s >= limit:
                continue
            u, v = us[s], vs[s]
            if slots[s] != slot:
                slot = slots[s]
                c = held[u] = held[v] = holder[u] = holder[v] = s
            elif held[u] == c:
                witness, limit = (s, holder[u], u, head), s
            elif held[v] == c:
                witness, limit = (s, holder[v], v, head), s
            else:
                held[u] = held[v] = c
                holder[u] = holder[v] = s
    second, first, x, head = witness
    color = head if slots[second] < 0 else f"{head}.{slots[second]}"
    return VerifyResult(
        status="conflict",
        detail=f"color {color} repeats at vertex {x}",
        first=Edge(us[first], vs[first], first),
        second=Edge(us[second], vs[second], second),
        color=color,
    )


# ---------------------------------------------------------------------------
# trace-based structural audits


def counter_trace(records: Iterable[dict], *, epoch: int = 0, level: int = 0) -> list[tuple]:
    """Time-ordered counter events (creations and bumps) of one level.

    Restricted to a single level because deeper levels consume deferred
    edges, whose membership legitimately depends on the offset draws.
    """
    out: list[tuple] = []
    for r in records:
        if r["kind"] not in ("counter-init", "counter-bump"):
            continue
        if r["epoch"] != epoch or r["level"] != level:
            continue
        out.append(
            (r["kind"], r["phase"], r["d"], r["interval"], r["vertex"], r["index"], r.get("value", 0))
        )
    return out


def offset_independence_check(
    config: RunConfig,
    edges: list[Edge],
    *,
    offset_seed_a: int,
    offset_seed_b: int,
) -> tuple[bool, str, int]:
    """Run the colorer twice with identical index draws and different offset
    seeds; pass iff the level-0 counter traces of every epoch match event
    for event.  Epoch routing reads only arrival degrees, so each epoch's
    level 0 sees the same edges in both runs.  Returns (ok, detail, the
    first run's counter events)."""
    from .pipeline import StreamColorer  # deferred: pipeline imports this module

    traces = []
    for offset_seed in (offset_seed_a, offset_seed_b):
        recorder = TraceRecorder()
        colorer = StreamColorer(config, trace=recorder)
        colorer.offset_root = RandomSource(offset_seed, ("offsets",))
        list(colorer.run(edges))
        records = recorder.records
        epochs = sorted({r["epoch"] for r in records})
        traces.append([(e, *ev) for e in epochs for ev in counter_trace(records, epoch=e)])
    events = len(traces[0])
    if traces[0] == traces[1]:
        return True, f"{events} counter events identical", events
    for i in range(min(events, len(traces[1]))):
        if traces[0][i] != traces[1][i]:
            return False, f"first divergence at event {i}: {traces[0][i]} vs {traces[1][i]}", events
    return False, f"trace lengths differ: {events} vs {len(traces[1])}", events


def assignment_structure_audit(records: Iterable[dict], config: RunConfig) -> list[str]:
    """Re-derive the slot structure of every counter-family and block-family
    assignment from the decision trace.

    Counter-family slots at a low endpoint must be its offset plus the
    counter value, with values strictly increasing and below 2d.  Block-
    family slots must decompose as offset + enumeration index + block
    width * prior-interval tally, with the index under the block width, the
    tally under its cap, one tally per interval, and tallies distinct across
    intervals.  Reads records once, so a one-shot iterator, such as a trace
    file read line by line, works.  Returns human-readable violations;
    empty means clean.
    """
    offsets: dict[tuple, int] = {}
    counter_groups: dict[tuple, list[dict]] = {}
    block_groups: dict[tuple, list[dict]] = {}
    for r in records:
        kind = r["kind"]
        if kind == "offset-draw":
            offsets[(r["epoch"], r["level"], r["phase"], r["d"], r["vertex"])] = r["offset"]
        elif kind == "mixed-decision":
            group = (r["epoch"], r["level"], r["phase"], r["d"], r["low"], r["index"])
            if r["case"] == "counter-assign":
                counter_groups.setdefault(group, []).append(r)
            elif r["case"] == "block-assign":
                block_groups.setdefault(group, []).append(r)

    violations: list[str] = []

    for group, events in counter_groups.items():
        epoch, level, phase, d, low, _ = group
        size = 2 * config.kappa * d
        r_u = offsets.get((epoch, level, phase, d, low))
        if r_u is None:
            violations.append(f"counter-family at {group}: no offset draw recorded")
            continue
        last = -1
        for ev in events:
            value = ev["counter"]
            if not 0 <= value < 2 * d:
                violations.append(f"counter-family at {group}: counter {value} outside [0, {2 * d})")
            if value <= last:
                violations.append(f"counter-family at {group}: counter {value} not increasing past {last}")
            last = value
            if ev["slot"] != (r_u + value) % size:
                violations.append(
                    f"counter-family at {group}: slot {ev['slot']} != offset {r_u} + counter {value} mod {size}"
                )

    for group, events in block_groups.items():
        epoch, level, phase, d, low, _ = group
        size = 2 * config.kappa * d
        width = epoch_config(config, epoch).sqrt_delta
        cap = 2 * d // width
        r_u = offsets.get((epoch, level, phase, d, low))
        if r_u is None:
            violations.append(f"block-family at {group}: no offset draw recorded")
            continue
        tally_by_interval: dict[int, int] = {}
        for ev in events:
            b, prior = ev["b"], ev["prior"]
            if b >= width:
                violations.append(f"block-family at {group}: enumeration index {b} >= width {width}")
            if prior >= cap:
                violations.append(f"block-family at {group}: prior tally {prior} >= cap {cap}")
            if ev["slot"] != (r_u + b + width * prior) % size:
                violations.append(
                    f"block-family at {group}: slot {ev['slot']} != {r_u}+{b}+{width}*{prior} mod {size}"
                )
            known = tally_by_interval.get(ev["interval"])
            if known is not None and known != prior:
                violations.append(f"block-family at {group}: two tallies in interval {ev['interval']}")
            tally_by_interval[ev["interval"]] = prior
        tallies = list(tally_by_interval.values())
        if len(set(tallies)) != len(tallies):
            violations.append(f"block-family at {group}: tally reused across intervals")
    return violations


def saturated_index_audit(records: Iterable[dict], config: RunConfig) -> list[str]:
    """Check that, at every interval boundary, no vertex has more than
    delta/(2d) palette indices whose accumulated interval degree reached 2d.

    Reconstructed from the per-interval degree logs and the per-class
    interval records, so it exercises the degree bookkeeping end to end.
    """
    degs: dict[tuple[int, int, int], dict] = {}
    class_intervals: dict[tuple[int, int, int, int], list[dict]] = {}
    for r in records:
        if r["kind"] == "interval-degrees":
            degs[(r["epoch"], r["level"], r["interval"])] = r["deg"]
        elif r["kind"] == "class-interval":
            class_intervals.setdefault((r["epoch"], r["level"], r["phase"], r["d"]), []).append(r)

    violations: list[str] = []
    for (epoch, level, phase, d), events in class_intervals.items():
        delta = epoch_config(config, epoch).delta
        allowed = delta // (2 * d)
        sums: dict[tuple[int, int], int] = {}
        saturated: dict[int, set[int]] = {}
        for ev in sorted(events, key=lambda r: r["interval"]):
            deg = degs.get((epoch, level, ev["interval"]), {})
            index = ev["sigma"]
            for v, dv in deg.items():
                key = (v, index)
                total = sums.get(key, 0) + dv
                sums[key] = total
                if total >= 2 * d:
                    marks = saturated.setdefault(v, set())
                    marks.add(index)
                    if len(marks) > allowed:
                        violations.append(
                            f"class d={d} phase {phase} level {level}: vertex {v} saturated "
                            f"{len(marks)} indices, allowed {allowed}"
                        )
    return violations


def trace_audit(records: Iterable[dict], config: RunConfig) -> tuple[bool, str, int]:
    """Both structural audits on one run's trace, as (ok, detail, the
    counter- and block-family assignments audited).  Reads records once and
    keeps only the kinds each audit reads, so a one-shot iterator, such as a
    trace file read line by line, works."""
    structure: list[dict] = []
    saturation: list[dict] = []
    assigned = 0
    for r in records:
        if r["kind"] in ("interval-degrees", "class-interval"):
            saturation.append(r)
        elif r["kind"] == "offset-draw":
            structure.append(r)
        elif r.get("case") in ("counter-assign", "block-assign"):
            structure.append(r)
            assigned += 1
    violations = assignment_structure_audit(structure, config) + saturated_index_audit(saturation, config)
    detail = "; ".join([f"{len(violations)} violations over {assigned} B/C assignments", *violations])
    return not violations, detail, assigned


# ---------------------------------------------------------------------------
# metric-level checks: each gate turns per-run results into (ok, detail)


def audit_gate(results: list[tuple[bool, str, int]], unit: str) -> tuple[bool, str]:
    """Per-run (ok, detail, items audited), as offset_independence_check and
    trace_audit return them: every run clean, and some item audited, since
    an audit that sees nothing shows nothing."""
    failed = [detail for ok, detail, _ in results if not ok]
    seen = sum(r[2] for r in results)
    detail = f"{len(results) - len(failed)}/{len(results)} runs clean across {seen} {unit}"
    return not failed and seen > 0, "; ".join([detail, *failed[:1]])


def color_budget_check(metrics: RunMetrics) -> tuple[int, int, list[str]]:
    """Compare distinct emitted colors against the summed budgets of every
    palette scope that was actually touched.  Returns (used, budget,
    violations); clean runs have used <= budget and no per-scope overflow."""
    budget = sum(s.budget for s in metrics.scopes)
    violations = [
        f"scope {s.kind} e{s.epoch}.l{s.level} phase={s.phase} d={s.d} interval={s.interval}: "
        f"{s.distinct} distinct > budget {s.budget}"
        for s in metrics.scopes
        if s.distinct > s.budget
    ]
    if metrics.colors_used > budget:
        violations.append(f"{metrics.colors_used} colors used > total budget {budget}")
    return metrics.colors_used, budget, violations


# the largest mean level-0 peak ratio allowed when n doubles
SPACE_RATIO_LIMIT = 2.5


def space_check(metrics: RunMetrics) -> list[str]:
    """Structural space findings on one run; empty means clean.

    Index-set growth needs a high-degree vertex per entry and counter
    creation needs an over-threshold degree, so both are bounded by the
    phase's edge volume.
    """
    findings: list[str] = []
    for s in metrics.class_phase_stats:
        if s.index_inserts * s.d > 2 * s.phase_edges:
            findings.append(
                f"phase {s.phase} d={s.d} level {s.level}: {s.index_inserts} index inserts "
                f"exceed 2*{s.phase_edges}/{s.d}"
            )
        if s.counter_creates * s.sqrt_delta > 2 * s.phase_edges:
            findings.append(
                f"phase {s.phase} d={s.d} level {s.level}: {s.counter_creates} counter creations "
                f"exceed 2*{s.phase_edges}/{s.sqrt_delta}"
            )
    return findings


def space_gate(pairs: list[tuple[RunMetrics, RunMetrics]]) -> tuple[bool, str]:
    """Runs of one recipe at n and 2n: no run has a space_check finding, and
    the mean level-0 peak ratio is at most SPACE_RATIO_LIMIT."""
    import statistics  # only the check gates need it, so runs never load it

    findings = sum(len(space_check(m)) for pair in pairs for m in pair)
    mean = statistics.fmean(big.level0_peak() / small.level0_peak() for small, big in pairs)
    detail = (f"mean level-0 peak ratio {mean:.3f} at doubled n (limit {SPACE_RATIO_LIMIT}), "
              f"{findings} structural findings")
    return findings == 0 and mean <= SPACE_RATIO_LIMIT, detail


def depth_gate(runs: list[RunMetrics], delta: int) -> tuple[bool, str]:
    """At least 90% of the runs recurse no deeper than 2*log2(delta) + 4,
    and no interval falls back at the depth cap."""
    bound = 2 * int(math.log2(delta)) + 4
    within = sum(m.depth <= bound for m in runs)
    fallbacks = sum(m.fallback_intervals for m in runs)
    detail = f"{within}/{len(runs)} runs within depth {bound}, {fallbacks} fallback intervals"
    return within >= math.ceil(0.9 * len(runs)) and fallbacks == 0, detail


class LeftoverReport(NamedTuple):
    runs: int
    mean: float
    ci_low: float
    ci_high: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.mean <= self.threshold

    @property
    def detail(self) -> str:
        return (f"mean level-0 leftover fraction {self.mean:.4f}, 95% ci [{self.ci_low:.4f}, "
                f"{self.ci_high:.4f}], threshold {self.threshold:.4f}, {self.runs} runs")


# the fewest runs leftover_stats judges: below that the mean is too noisy
LEFTOVER_MIN_RUNS = 20


def leftover_stats(metrics_list: list[RunMetrics], kappa: int) -> LeftoverReport:
    """Mean level-0 leftover fraction across runs with a normal-theory 95%
    interval, judged against 7/kappa plus fixed slack.  Refuses fewer than
    LEFTOVER_MIN_RUNS runs."""
    if len(metrics_list) < LEFTOVER_MIN_RUNS:
        raise ValueError(
            f"need at least {LEFTOVER_MIN_RUNS} runs for a stable leftover mean, got {len(metrics_list)}"
        )
    import statistics

    fractions = []
    for m in metrics_list:
        if m.input_edges <= 0:
            raise ValueError("leftover fraction undefined for an empty stream")
        fractions.append(m.level0_leftover() / m.input_edges)
    mean = statistics.fmean(fractions)
    spread = statistics.stdev(fractions) if len(fractions) > 1 else 0.0
    half = 1.96 * spread / math.sqrt(len(fractions))
    return LeftoverReport(
        runs=len(fractions),
        mean=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        threshold=7 / kappa + 0.05,
    )
