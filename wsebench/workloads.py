"""Workload definitions and output checks shared by the end-to-end run
(run.py) and the layer-timing run (layers.py)."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")

KAPPA = 32
COLOR_SEED = 7


class BenchError(Exception):
    """A run failed in a way that leaves no result to report."""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    delta: int
    m: int
    order: str
    unknown_delta: bool = False
    traced: bool = False
    why: str = ""

    def gen_args(self, seed: int, out: Path) -> list[str]:
        return [
            "gen", "--n", str(self.n), "--delta", str(self.delta), "--m", str(self.m),
            "--seed", str(seed), "--order", self.order, "--order-seed", str(seed), str(out),
        ]

    def color_args(self, stream: Path, out: Path, metrics: Path, trace: Path | None) -> list[str]:
        args = [
            "color", str(stream), "--out", str(out), "--metrics", str(metrics),
            "--kappa", str(KAPPA), "--seed", str(COLOR_SEED),
        ]
        if self.unknown_delta:
            args.append("--unknown-delta")
        if trace is not None:
            args += ["--trace", str(trace)]
        return args

    def baseline_args(self, stream: Path, out: Path, metrics: Path) -> list[str]:
        return [
            "baseline", str(stream), "--out", str(out), "--metrics", str(metrics),
            "--kappa", str(KAPPA), "--seed", str(COLOR_SEED),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Mechanism-bypass workload: ~100% of edges take the per-interval LOW
        # palette at depth 0, so a class_colorer change should not move it.
        Workload(
            "uniform", n=2048, delta=256, m=131072, order="arrival-random",
            why="arrival-random order: nearly every edge takes the per-interval LOW palette "
            "at depth 0, so I/O, the phase engine and low-bucket greedy carry the cost",
        ),
        Workload(
            "adversarial", n=1024, delta=256, m=65536, order="vertex-sorted",
            why="vertex-sorted order drives the class palettes (step 2 dominates), "
            "defers edges to deeper levels and mints many more colors than the baseline",
        ),
        # The traced path is measured on its own so a change that cheapens
        # the untraced path cannot hide a cost to the traced one.
        Workload(
            "burst-traced", n=1024, delta=256, m=65536, order="degree-burst",
            unknown_delta=True, traced=True,
            why="degree-burst order with unknown delta and a decision trace: epoch routing "
            "and the trace recorder are on the measured path",
        ),
    )
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_metrics(path: Path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def metrics_digest(doc: dict) -> str:
    """sha256 of the metrics document with its one wall-clock field dropped."""
    doc = {k: v for k, v in doc.items() if k != "wall_ms"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("ascii")).hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def metered_peak_words(doc: dict) -> int:
    """The algorithm's own space claim: peak words summed over every
    (epoch, level) the run touched."""
    return sum(doc["peak_words_per_level"].values())


def repeat_for(seconds: float, step: Callable[[], T]) -> list[T]:
    """Run step at least once, and again while one more run as long as the
    last would still end within `seconds` of the start."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        begin = time.perf_counter()
        results.append(step())
        end = time.perf_counter()
        if end + (end - begin) > deadline:
            return results
