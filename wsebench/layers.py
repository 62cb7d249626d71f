"""Layer-timing run: the CLI path, in process, with every layer timed from
outside.

The run calls wsecolor.cli.main(["gen", ...]) once, then repeats
main(["color", ...]) and main(["verify", ...]) for the measuring time,
alternating an untimed repetition with a timed one.  For the timed one,
each public function of the engine modules, and the methods named in
METHODS, is replaced by a wrapper that counts calls and takes
perf_counter_ns at entry and exit.  Nothing under src/ changes: the
wrappers are installed on the module and class attributes, including every
module that imported a wrapped function by name, and removed afterwards.

Self time of a wrapped function is its duration minus the time of wrapped
calls nested inside it.  Functions in INLINED are small helpers whose cost
belongs to the stage that calls them: they are counted and timed, but their
time stays in the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import inspect
import io
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

from workloads import (
    BenchError,
    Workload,
    count_lines,
    load_metrics,
    metrics_digest,
    repeat_for,
    sha256_file,
)

MODULES = ("workload", "model", "primitives", "phase_engine", "class_colorer", "pipeline", "audit")

METHODS = {
    "primitives": ("RandomSource.randrange",),
    "phase_engine": ("PhaseEngine.ingest",),
    "class_colorer": ("ClassState.offset_of",),
    "pipeline": ("StreamColorer.feed",),
    "audit": (
        "SpaceMeter.add",
        "MetricsCollector.note_emission",
        "MetricsCollector.build",
        "TraceRecorder.emit",
        "TraceRecorder.dump",
    ),
}

INLINED = frozenset(
    (
        "primitives.first_fit_slots",
        "primitives.greedy_slot_assign",
        "primitives.gap_check",
        "primitives.mod_slot",
    )
)

# read_stream returns (header, lazy body); the body iterator is timed too
LAZY_RESULT = frozenset(("workload.read_stream",))

# timed once, in the gen call that writes the stream
GEN_KEYS = ("workload.gen_multigraph", "workload.order_stream", "workload.write_stream")

ALL = ("uniform", "adversarial", "burst-traced")
CLASS_PATH = ("adversarial", "burst-traced")

# Wrapped functions that must see calls on a workload.  A refactor that
# moves a call site past the wrapper then fails the run instead of
# reporting 0 ns.
EXPECT_CALLS = {
    "workload.gen_multigraph": ALL,
    "workload.order_stream": ALL,
    "workload.write_stream": ALL,
    "workload.read_stream": ALL,
    "workload.colored_line": ALL,
    "workload.read_colored": ALL,
    "model.decode_color": ALL,
    "model.encode_color": ALL,
    "primitives.greedy_edge_color": ALL,
    "primitives.RandomSource.randrange": ALL,
    "phase_engine.PhaseEngine.ingest": ALL,
    "phase_engine.compute_degrees": ALL,
    "phase_engine.classify_interval": ALL,
    "class_colorer.step1_high_high": ALL,
    "class_colorer.step2_high_low": ALL,
    "class_colorer.ClassState.offset_of": CLASS_PATH,
    "pipeline.StreamColorer.feed": ALL,
    "audit.SpaceMeter.add": ALL,
    "audit.MetricsCollector.note_emission": ALL,
    "audit.MetricsCollector.build": ALL,
    "audit.TraceRecorder.emit": ("burst-traced",),
    "audit.TraceRecorder.dump": ("burst-traced",),
    "audit.verify_proper": ALL,
}


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class LayerTimer:
    """Installs and removes the timing wrappers and owns their counters."""

    def __init__(self, package: str) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[int] = []  # nested wrapped time, one slot per open frame
        self._patches: list[tuple[object, str, object]] = []
        self._package = package

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls = stat.total_ns = stat.self_ns = 0
        self._stack.clear()

    def _record(self, stat: Stat, dt: int, nested: int, inlined: bool) -> None:
        stat.calls += 1
        stat.total_ns += dt
        if inlined:
            return
        stat.self_ns += dt - nested
        if self._stack:
            self._stack[-1] += dt

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        record = self._record
        inlined = key in INLINED
        lazy = key in LAZY_RESULT
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not inlined:
                stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                record(stat, dt, 0 if inlined else stack.pop(), inlined)
            if lazy:
                header, body = result
                return header, self._timed_iter(stat, body)
            return result

        return wrapper

    def _timed_iter(self, stat: Stat, body):
        stack = self._stack
        clock = time.perf_counter_ns
        while True:
            stack.append(0)
            t0 = clock()
            try:
                item = next(body)
            except StopIteration:
                return
            finally:
                self._record(stat, clock() - t0, stack.pop(), False)
            yield item

    def install(self) -> None:
        replace: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"{self._package}.{short}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._wrap(f"{short}.{name}", obj)
            for qual in METHODS.get(short, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(f"{short}.{qual}", cls.__dict__[meth]))
        # patch every module attribute that holds a wrapped function, so names
        # imported with `from .x import f` are timed where they are looked up
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != self._package and not mod_name.startswith(self._package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# running the CLI in process


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    cli = importlib.import_module("wsecolor.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported wsecolor from {cli.__file__}, not from {src}")
    return cli


def call_main(cli, args: list[str]) -> str:
    """Run wsecolor.cli.main quietly; return its stdout, raise unless it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    if code != 0:
        tail = " | ".join(err.getvalue().strip().splitlines()[-3:])
        raise BenchError(f"wsecolor {args[0]} exited {code}: {tail} {out.getvalue()[:200]}")
    return out.getvalue()


def color_and_verify(cli, w: Workload, stream: Path, work: Path) -> tuple[float, tuple[str, ...]]:
    """One in-process color + verify; returns its wall time and the output
    digests, and raises if the output is not correct."""
    out, metrics, trace = work / "colored.txt", work / "metrics.json", None
    if w.traced:
        trace = work / "trace.jsonl"
    gc.collect()
    start = time.perf_counter()
    call_main(cli, w.color_args(stream, out, metrics, trace))
    said = call_main(cli, ["verify", str(out), str(stream)])
    wall = time.perf_counter() - start
    if not said.startswith("ok:"):
        raise BenchError(f"verify did not report ok: {said[:200]}")
    lines = count_lines(out)
    if lines != w.m:
        raise BenchError(f"colored file holds {lines} lines, expected {w.m}")
    digests = [sha256_file(out), metrics_digest(load_metrics(metrics))]
    if trace is not None:
        digests.append(sha256_file(trace))
    return wall, tuple(digests)


# ---------------------------------------------------------------------------
# per-layer metrics


def token_counts(colored: Path) -> tuple[int, int]:
    """(LOW-palette emissions, level-0 family A/B/C emissions) in a colored file."""
    low = class0 = 0
    with open(colored, "r", encoding="ascii") as fh:
        for line in fh:
            token = line.rsplit(" ", 1)[1]
            parts = token.split(".")
            if len(parts) == 6 and parts[4] == "LOW":
                low += 1
            elif len(parts) == 6 and parts[1] == "L0" and parts[4][0] in "ABC":
                class0 += 1
    return low, class0


def output_metrics(w: Workload, work: Path) -> dict[str, float]:
    """Per-layer counts read from the outputs of a color run."""
    doc = load_metrics(work / "metrics.json")
    m = w.m
    low, class0 = token_counts(work / "colored.txt")
    leftover = doc["leftover_per_level"]
    leftover0 = sum(v for k, v in leftover.items() if k.endswith(".l0"))
    epochs = {k.split(".")[0] for k in doc["colored_per_level"]}
    trace = work / "trace.jsonl"
    return {
        "phase_engine.low_frac": low / m,
        "class_colorer.leftover0_frac": leftover0 / m,
        "class_colorer.assign_ratio": class0 / (class0 + leftover0) if class0 + leftover0 else 0.0,
        "pipeline.forwarded_per_edge": sum(leftover.values()) / m,
        "pipeline.depth": doc["depth"],
        "pipeline.epochs": len(epochs),
        "audit.MetricsCollector.stored_tokens": sum(s["distinct"] for s in doc["scopes"]),
        "audit.trace_bytes": trace.stat().st_size if w.traced else 0,
    }


# Timed metrics are named <layer key>.<quantity>; every one is lower-is-better.
QUANTITY_UNITS = {
    "s": "s",  # inclusive seconds over all calls
    "ns_per_edge": "ns/edge",  # inclusive time / m
    "self_ns_per_edge": "ns/edge",  # self time / m
    "calls_per_edge": "calls/edge",
}

TIMED = (
    "workload.gen_multigraph.s",
    "workload.order_stream.s",
    "workload.write_stream.s",
    "workload.read_stream.ns_per_edge",
    "workload.colored_line.ns_per_edge",
    "workload.read_colored.ns_per_edge",
    "model.decode_color.ns_per_edge",
    "model.encode_color.calls_per_edge",
    "model.encode_color.ns_per_edge",
    "primitives.greedy_edge_color.self_ns_per_edge",
    "primitives.RandomSource.randrange.calls_per_edge",
    "primitives.RandomSource.randrange.self_ns_per_edge",
    "phase_engine.PhaseEngine.ingest.self_ns_per_edge",
    "phase_engine.compute_degrees.self_ns_per_edge",
    "phase_engine.classify_interval.self_ns_per_edge",
    "class_colorer.step1_high_high.self_ns_per_edge",
    "class_colorer.step2_high_low.self_ns_per_edge",
    "class_colorer.ClassState.offset_of.calls_per_edge",
    "pipeline.StreamColorer.feed.self_ns_per_edge",
    "audit.SpaceMeter.add.calls_per_edge",
    "audit.SpaceMeter.add.self_ns_per_edge",
    "audit.MetricsCollector.note_emission.self_ns_per_edge",
    "audit.MetricsCollector.build.s",
    "audit.TraceRecorder.emit.calls_per_edge",
    "audit.TraceRecorder.emit.self_ns_per_edge",
    "audit.TraceRecorder.dump.s",
    "audit.verify_proper.ns_per_edge",
)

COUNTED = (
    ("phase_engine.low_frac", "share", "higher"),
    ("class_colorer.leftover0_frac", "share", "lower"),
    ("class_colorer.assign_ratio", "share", "higher"),
    ("pipeline.forwarded_per_edge", "edges/edge", "lower"),
    ("pipeline.depth", "count", "lower"),
    ("pipeline.epochs", "count", "lower"),
    ("audit.MetricsCollector.stored_tokens", "count", "lower"),
    ("audit.trace_bytes", "bytes", "lower"),
    ("layer.trace_overhead_ratio", "ratio", "lower"),
)

PER_LAYER = tuple(
    (name, QUANTITY_UNITS[name.rsplit(".", 1)[1]], "lower") for name in TIMED
) + COUNTED


def timed_metrics(stats: dict[str, Stat], m: int) -> dict[str, float]:
    out = {}
    for name in TIMED:
        key, quantity = name.rsplit(".", 1)
        stat = stats[key]
        out[name] = {
            "s": stat.total_ns / 1e9,
            "ns_per_edge": stat.total_ns / m,
            "self_ns_per_edge": stat.self_ns / m,
            "calls_per_edge": stat.calls / m,
        }[quantity]
    return out


def check_calls(stats: dict[str, Stat], workload: str) -> None:
    silent = [
        key for key, where in EXPECT_CALLS.items()
        if workload in where and (key not in stats or stats[key].calls == 0)
    ]
    if silent:
        raise BenchError(
            f"wrapped functions saw no calls on {workload}: {', '.join(silent)}; "
            "a call site moved past the layer wrappers"
        )


def self_ns(stats: dict[str, Stat]) -> dict[str, int]:
    return {key: stat.self_ns for key, stat in stats.items() if stat.self_ns}


def self_shares(per_pair: list[dict[str, int]]) -> list[tuple[str, float]]:
    """Each layer's share of all self time, summed over the timed pairs."""
    sums: dict[str, int] = {}
    for ns in per_pair:
        for key, value in ns.items():
            sums[key] = sums.get(key, 0) + value
    total = sum(sums.values())
    return sorted(((key, value / total) for key, value in sums.items()), key=lambda kv: -kv[1])


class Pair(NamedTuple):
    """One untimed and one timed color+verify pair."""

    plain_wall: float
    timed_wall: float
    digests: tuple[str, ...]
    metrics: dict[str, float]
    self_ns: dict[str, int]


def run_layers(w: Workload, seed: int, seconds: float, work: Path, src: Path) -> dict:
    cli = import_cli(src)
    timer = LayerTimer("wsecolor")
    stream = work / "stream.wse"
    with timer.active():
        call_main(cli, w.gen_args(seed, stream))
    gen_stats = {key: timer.stats.pop(key) for key in GEN_KEYS}

    def one_pair() -> Pair:
        plain_wall, digests = color_and_verify(cli, w, stream, work)
        timer.reset()
        with timer.active():
            timed_wall, timed_digests = color_and_verify(cli, w, stream, work)
        if timed_digests != digests:
            raise BenchError("layer timing changed the colored output, metrics or trace")
        stats = {**timer.stats, **gen_stats}
        check_calls(stats, w.name)
        return Pair(plain_wall, timed_wall, digests, timed_metrics(stats, w.m),
                    self_ns(timer.stats))

    pairs = repeat_for(seconds, one_pair)
    if len({p.digests for p in pairs}) != 1:
        raise BenchError("colored output, metrics or trace differ between runs of one input")
    reps = [p.metrics for p in pairs]
    values = {name: statistics.median(r[name] for r in reps) for name in TIMED}
    values.update(output_metrics(w, work))
    values["layer.trace_overhead_ratio"] = (
        statistics.median(p.timed_wall for p in pairs)
        / statistics.median(p.plain_wall for p in pairs)
    )
    info = {"runs": len(reps)}
    for key, share in self_shares([p.self_ns for p in pairs])[:12]:
        info[f"self share {key}"] = f"{share:.3f}"
    return {
        "correct": True,
        "attempted": len(reps),
        "failed": 0,
        "values": values,
        "units": {name: (unit, better) for name, unit, better in PER_LAYER},
        "info": info,
    }
