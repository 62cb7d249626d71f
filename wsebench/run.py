"""Benchmark of the wsecolor command line: generate, color, verify.

Usage, from the root of a source checkout:

    python3 wsebench/run.py --workload uniform --seed 1 --seconds 30 --trace 0

With --trace 0 every step runs as its own child process (`python3 -m
wsecolor ...` against the checkout's src/), one at a time, and the run
reports the end-to-end metrics.  With --trace 1 the same path runs in this
process through wsecolor.cli.main, with the public functions of each module
wrapped by timers (see layers.py), and the run reports the per-layer
metrics.  Either way the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The stream seed is the only input that varies between runs; the colorer
always gets --kappa 32 --seed 7.  README.md in this directory documents the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    WORKLOADS,
    BenchError,
    Workload,
    count_lines,
    load_metrics,
    metered_peak_words,
    metrics_digest,
    repeat_for,
    sha256_file,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".wsebench_work"

# gen runs this many times per invocation; setup_s is their median
SETUP_REPS = 3
# a child that burns this much CPU is killed by the kernel and counts as failed
CHILD_CPU_LIMIT_S = 150

# (name, unit, better) in print order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("color_edges_per_s", "edges/s", "higher"),
    ("color_peak_rss_mb", "MB", "lower"),
    ("verify_edges_per_s", "edges/s", "higher"),
    ("verify_peak_rss_mb", "MB", "lower"),
    ("colors_used", "count", "lower"),
    ("colors_per_baseline", "ratio", "lower"),
    ("metered_peak_words", "words", "lower"),
    ("verified_frac", "share", "higher"),
)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def run_child(args: list[str], log: Path) -> ChildRun:
    """Run `python -m wsecolor <args>` to completion and reap it with wait4,
    so the peak RSS is this child's own rather than the running maximum over
    every child that RUSAGE_CHILDREN would give."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "wsecolor", *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out_fh,
            stderr=err_fh,
            preexec_fn=_limit_cpu,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        exit_code=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def _require_ok(step: str, run: ChildRun) -> None:
    if run.exit_code != 0:
        tail = run.stderr.strip().splitlines()[-3:]
        raise BenchError(f"{step} exited {run.exit_code}: {' | '.join(tail)}")


# ---------------------------------------------------------------------------
# end-to-end run


@dataclass
class Cycle:
    color: ChildRun
    verify: ChildRun | None
    ok: bool
    digests: tuple[str, ...] = ()
    colors_used: int = 0
    peak_words: int = 0
    problems: list[str] = field(default_factory=list)


def color_and_verify(w: Workload, stream: Path) -> Cycle:
    out = WORK / "colored.txt"
    metrics_path = WORK / "metrics.json"
    trace = WORK / "trace.jsonl" if w.traced else None
    for p in (out, metrics_path, trace):
        if p is not None and p.exists():
            p.unlink()
    color = run_child(w.color_args(stream, out, metrics_path, trace), WORK / "color")
    if color.exit_code != 0:
        return Cycle(color, None, False, problems=[f"color exited {color.exit_code}"])
    verify = run_child(["verify", str(out), str(stream)], WORK / "verify")
    cycle = Cycle(color, verify, True)
    if verify.exit_code != 0 or not verify.stdout.startswith("ok:"):
        cycle.problems.append(f"verify exited {verify.exit_code}: {verify.stdout.strip()[:200]}")
    lines = count_lines(out)
    if lines != w.m:
        cycle.problems.append(f"colored file holds {lines} lines, expected {w.m}")
    doc = load_metrics(metrics_path)
    if doc.get("input_edges") != w.m:
        cycle.problems.append(f"metrics report {doc.get('input_edges')} input edges")
    cycle.colors_used = doc["colors_used"]
    cycle.peak_words = metered_peak_words(doc)
    digests = [sha256_file(out), metrics_digest(doc)]
    if trace is not None:
        digests.append(sha256_file(trace))
    cycle.digests = tuple(digests)
    cycle.ok = not cycle.problems
    return cycle


def run_end_to_end(w: Workload, seed: int, seconds: float) -> dict:
    stream = WORK / "stream.wse"
    setup_times = []
    stream_digests = set()
    for _ in range(SETUP_REPS):
        if stream.exists():
            stream.unlink()
        gen = run_child(w.gen_args(seed, stream), WORK / "gen")
        _require_ok("gen", gen)
        setup_times.append(gen.wall_s)
        stream_digests.add(sha256_file(stream))
    if len(stream_digests) != 1:
        raise BenchError("gen wrote different streams for the same seed")

    base_out, base_metrics = WORK / "baseline.txt", WORK / "baseline.json"
    baseline = run_child(w.baseline_args(stream, base_out, base_metrics), WORK / "baseline")
    _require_ok("baseline", baseline)
    baseline_colors = load_metrics(base_metrics)["colors_used"]

    cycles = repeat_for(seconds, lambda: color_and_verify(w, stream))

    # a run whose output differs from the first passing run's is a failure:
    # the same input and seed must give byte-identical results
    reference = next((c.digests for c in cycles if c.ok), None)
    for c in cycles:
        if c.ok and c.digests != reference:
            c.ok = False
            c.problems.append("colored output, metrics or trace differ from the first run")
    problems = [p for c in cycles for p in c.problems]
    good = [c for c in cycles if c.ok]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    if not good:
        raise BenchError(f"no color+verify run passed: {problems[:3]}")

    failed = len(cycles) - len(good)
    colors_used = good[0].colors_used
    values = {
        "setup_s": statistics.median(setup_times),
        "color_edges_per_s": w.m / statistics.median(c.color.wall_s for c in good),
        "color_peak_rss_mb": statistics.median(c.color.peak_rss_mb for c in good),
        "verify_edges_per_s": w.m / statistics.median(c.verify.wall_s for c in good),
        "verify_peak_rss_mb": statistics.median(c.verify.peak_rss_mb for c in good),
        "colors_used": colors_used,
        "colors_per_baseline": colors_used / baseline_colors,
        "metered_peak_words": good[0].peak_words,
        "verified_frac": len(good) / len(cycles),
    }
    info = {
        "runs": len(cycles),
        "baseline_colors_used": baseline_colors,
        "baseline_wall_s": baseline.wall_s,
        "color_wall_s": " ".join(f"{c.color.wall_s:.3f}" for c in good),
        "verify_wall_s": " ".join(f"{c.verify.wall_s:.3f}" for c in good),
        "setup_wall_s": " ".join(f"{t:.3f}" for t in setup_times),
        "stream_sha256": stream_digests.pop(),
        "colored_sha256": good[0].digests[0],
        "metrics_sha256": good[0].digests[1],
    }
    if w.traced:
        info["trace_sha256"] = good[0].digests[2]
    return {
        "correct": not problems,
        "attempted": len(cycles),
        "failed": failed,
        "values": values,
        "units": {name: (unit, better) for name, unit, better in END_TO_END},
        "info": info,
    }


# ---------------------------------------------------------------------------
# entry point


def check_checkout() -> None:
    if not (SRC / "wsecolor" / "cli.py").is_file():
        raise BenchError(f"no wsecolor sources under {SRC}; run from a source checkout")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="stream seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: in-process layer-timing run instead of the end-to-end run")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        check_checkout()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        try:
            if args.trace:
                from layers import run_layers

                result = run_layers(w, args.seed, args.seconds, WORK, SRC)
            else:
                result = run_end_to_end(w, args.seed, args.seconds)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    except BenchError as err:
        print(f"wsebench: {err}", file=sys.stderr)
        return 1

    print(f"workload {w.name} (seed {args.seed}): {w.why}")
    for key, value in result["info"].items():
        print(f"  info {key}: {value}")
    for name, value in result["values"].items():
        unit, better = result["units"][name]
        print(f"  {name:<58} {value:>16.6g} {unit:<10} ({better} is better)")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name][0]}
            for name, value in result["values"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
