"""Command-line surface: generate streams, color them in one pass, verify
output, run the buffered baseline, sweep benchmark grids, and execute the
statistical self-checks.

Every subcommand prints its fully resolved configuration as one JSON line
on stderr; replaying the same invocation reproduces the output (wall-clock
fields excepted).  Exit codes: 0 success, 1 verification or check failure,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
import time
from typing import IO, Callable, ContextManager, Iterator

from .audit import (
    LEFTOVER_MIN_RUNS,
    TraceRecorder,
    audit_gate,
    depth_gate,
    leftover_stats,
    offset_independence_check,
    space_gate,
    trace_audit,
    verify_proper,
)
from .model import EngineInvariantError, Row, RunConfig, StreamInputError, resolve_config
from .pipeline import StreamColorer, baseline_config, run_baseline, run_stream
from .workload import (
    ORDER_POLICIES,
    gen_multigraph,
    order_stream,
    read_colored,
    read_stream,
    write_colored,
    write_stream,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@contextlib.contextmanager
def _open_in(path: str) -> Iterator[IO[str]]:
    """Open an input file, or '-' for stdin, as ASCII text.  A byte outside
    ASCII reads as a lone surrogate, which no field accepts, so the parser
    rejects its line by number; stdin is read the same way whatever the
    locale, so a non-ASCII digit is not taken for a number."""
    if path != "-":
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            yield fh
    elif not hasattr(sys.stdin, "buffer"):  # a text stream standing in for stdin
        yield sys.stdin
    else:
        fh = io.TextIOWrapper(sys.stdin.buffer, encoding="ascii", errors="surrogateescape")
        try:
            yield fh
        finally:
            fh.detach()  # leave sys.stdin's buffer open


@contextlib.contextmanager
def _staged_outputs() -> Iterator[Callable[[str], ContextManager[IO[str]]]]:
    """Yield an opener for output paths that writes each file to a temp
    sibling.  The temps replace their targets only when the block exits
    cleanly and are removed otherwise, so a failed run leaves no partial
    output and keeps what was there.  '-' is stdout; an existing non-regular
    file, such as /dev/null, is written in place, and a symlink's target is
    replaced rather than the link."""
    pending: list[tuple[str, str]] = []

    @contextlib.contextmanager
    def open_out(path: str) -> Iterator[IO[str]]:
        if path == "-":
            yield sys.stdout
            return
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="ascii") as fh:
                yield fh
            return
        target = os.path.realpath(path)
        head, name = os.path.split(target)
        tmp = os.path.join(head, f".{name}.{os.getpid()}.{len(pending)}.tmp")
        pending.append((tmp, target))
        with open(tmp, "x", encoding="ascii") as fh:
            yield fh

    try:
        yield open_out
        while pending:
            os.replace(*pending[0])
            pending.pop(0)
    finally:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _effective(command: str, **fields: object) -> None:
    doc: dict = {"command": command}
    doc.update(fields)
    print(json.dumps(doc, sort_keys=False), file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    edges = gen_multigraph(
        args.n, args.delta, args.m, allow_parallel=not args.simple, seed=args.seed
    )
    if args.order != "none":
        edges = order_stream(edges, args.order, seed=args.order_seed)
    _effective(
        "gen",
        n=args.n,
        delta=args.delta,
        m=args.m,
        seed=args.seed,
        allow_parallel=not args.simple,
        order=args.order,
        order_seed=args.order_seed,
        out=args.out,
    )
    with _staged_outputs() as open_out, open_out(args.out) as fh:
        write_stream(fh, args.n, args.delta, edges)
    return EXIT_OK


def _fstat(stream: IO[str]) -> os.stat_result | None:
    """The stat of a standard stream's descriptor, or None if it has none."""
    try:
        return os.fstat(stream.fileno())
    except (OSError, ValueError):  # io.UnsupportedOperation: no descriptor
        return None


def _run_from_file(args: argparse.Namespace) -> int:
    out_path = args.out
    if out_path is None:
        if args.stream == "-":
            raise StreamInputError("reading from stdin requires an explicit --out path")
        out_path = args.stream + ".colored"
    trace_path = getattr(args, "trace", None)
    # staged files replace their targets one by one, so two outputs on one file
    # or on the input stream, stdin's file included, would leave only the last,
    # and two on stdout, by any name, would interleave; devices are written in
    # place and may be shared
    stdout = _fstat(sys.stdout)
    stdin = _fstat(sys.stdin) if args.stream == "-" else None
    named = {"<stdin>" if args.stream == "-" else os.path.realpath(args.stream): "the input stream"}
    for option, path in (("--out", out_path), ("--metrics", args.metrics), ("--trace", trace_path)):
        if path is None:
            continue
        key = path if path == "-" else os.path.realpath(path)
        if key != "-" and os.path.exists(path):
            st = os.stat(path)
            if stdin is not None and stat.S_ISREG(st.st_mode) and os.path.samestat(st, stdin):
                key = "<stdin>"  # a real path is absolute, so never this
            elif stdout is not None and os.path.samestat(st, stdout) and not stat.S_ISCHR(st.st_mode):
                key = "-"
            elif not stat.S_ISREG(st.st_mode):
                continue
        first = named.setdefault(key, option)
        if first != option:
            raise StreamInputError(f"{first} and {option} name the same file {path!r}")
    with _staged_outputs() as open_out, _open_in(args.stream) as fh:
        header, body = read_stream(fh)
        config = resolve_config(
            n=header.n,
            delta=header.delta,
            kappa=args.kappa,
            seed=args.seed,
            m=header.m,
            interval_factor=args.interval_factor,
            max_depth=getattr(args, "max_depth", None),
            delta_mode="unknown" if getattr(args, "unknown_delta", False) else "known",
        )
        if args.command == "baseline":
            config = baseline_config(config)
        _effective(
            args.command,
            stream=args.stream,
            out=out_path,
            metrics=args.metrics,
            trace=trace_path,
            config=config._asdict(),
        )
        # the trace streams into its staged file as the run goes, so the
        # closing dump writes nothing
        with open_out(trace_path) if trace_path else contextlib.nullcontext() as tfh:
            trace = TraceRecorder(sink=tfh) if tfh is not None else None
            colorer = StreamColorer(config, trace=trace)
            start = time.perf_counter()
            with open_out(out_path) as out_fh:
                write_colored(out_fh, colorer.run(body))
            wall_ms = (time.perf_counter() - start) * 1000.0
            if trace is not None:
                trace.dump(tfh)
        metrics = colorer.metrics(wall_ms=wall_ms)
        with open_out(args.metrics) as mfh:
            mfh.write(metrics.to_json())
            mfh.write("\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.colored == args.stream == "-":
        raise StreamInputError("verify can read only one of its two files from stdin")
    with _open_in(args.colored) as cfh, _open_in(args.stream) as sfh:
        header, body = read_stream(sfh)
        result = verify_proper(read_colored(cfh), body)
    _effective("verify", colored=args.colored, stream=args.stream)
    if result.ok:
        print(f"ok: {header.m} edges, coloring is proper")
        return EXIT_OK
    if result.status == "conflict":
        print(
            f"conflict: {result.detail}; edges ({result.first.u},{result.first.v}) "
            f"seq {result.first.seq} and ({result.second.u},{result.second.v}) "
            f"seq {result.second.seq}"
        )
    else:
        print(f"mismatch: {result.detail}")
    return EXIT_FAIL


BENCH_COLUMNS = [
    "n",
    "delta",
    "m",
    "kappa",
    "order",
    "seed",
    "algorithm",
    "colors_used",
    "depth",
    "leftover0",
    "peak_words_l0",
    "wall_ms",
]


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers, as bench --n and --delta take."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _edge_count(n: int, delta: int, edge_factor: float) -> int:
    """m = int(n*delta*edge_factor), the edge count bench and check
    generate; a factor that gives no finite count is a usage error."""
    m = n * delta * edge_factor
    if not math.isfinite(m):
        raise StreamInputError(f"edge factor must give a finite edge count, got {edge_factor}")
    return int(m)


def cmd_bench(args: argparse.Namespace) -> int:
    orders = args.orders.split(",")
    algorithms = args.algorithms.split(",")
    for policy in orders:
        if policy not in ORDER_POLICIES:
            raise StreamInputError(f"unknown order policy {policy!r}")
    for algorithm in algorithms:
        if algorithm not in ("wse", "baseline"):
            raise StreamInputError(f"unknown algorithm {algorithm!r}; choose wse or baseline")
    if args.seeds < 1:
        raise StreamInputError(f"bench needs at least one seed, got --seeds {args.seeds}")
    edge_counts = {(n, delta): _edge_count(n, delta, args.edge_factor) for n in args.n for delta in args.delta}
    _effective(
        "bench",
        n=args.n,
        delta=args.delta,
        edge_factor=args.edge_factor,
        orders=orders,
        seeds=args.seeds,
        algorithms=algorithms,
        kappa=args.kappa,
        seed=args.seed,
        out=args.out,
    )
    with _staged_outputs() as open_out, open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_COLUMNS)
        for n in args.n:
            for delta in args.delta:
                m = edge_counts[n, delta]
                for policy in orders:
                    for s in range(args.seeds):
                        seed = args.seed + s
                        config, edges = _workload(n, delta, m, policy, seed, args.kappa)
                        for algorithm in algorithms:
                            runner = run_baseline if algorithm == "baseline" else run_stream
                            _, metrics = runner(config, edges)
                            writer.writerow(
                                [
                                    n,
                                    delta,
                                    m,
                                    args.kappa,
                                    policy,
                                    seed,
                                    algorithm,
                                    metrics.colors_used,
                                    metrics.depth,
                                    metrics.level0_leftover(),
                                    metrics.level0_peak(),
                                    f"{metrics.wall_ms:.3f}",
                                ]
                            )
    return EXIT_OK


def _workload(
    n: int, delta: int, m: int, policy: str, seed: int, kappa: int
) -> tuple[RunConfig, list[Row]]:
    """A generated stream in the given arrival order, and its run config."""
    edges = order_stream(gen_multigraph(n, delta, m, seed=seed), policy, seed=seed + 10_007)
    return resolve_config(n=n, delta=delta, kappa=kappa, seed=seed, m=m), edges


def _check_runs(args: argparse.Namespace, runs: int, n: int) -> Iterator:
    """(i, order, config, edges) with n vertices: run i has seed args.seed + i
    and cycles the arrival orders."""
    m = _edge_count(n, args.delta, args.edge_factor)
    for i in range(runs):
        order = ORDER_POLICIES[i % len(ORDER_POLICIES)]
        yield (i, order, *_workload(n, args.delta, m, order, args.seed + i, args.kappa))


def _check_metrics(args: argparse.Namespace, runs: int, n: int) -> Iterator:
    for i, order, config, edges in _check_runs(args, runs, n):
        _, metrics = run_stream(config, edges)
        print(f"run {i} {order} n={config.n}: depth {metrics.depth}, "
              f"level-0 leftover {metrics.level0_leftover()}, peak {metrics.level0_peak()}")
        yield metrics


def _check_ind(args: argparse.Namespace, runs: int) -> tuple[bool, str]:
    results = []
    for i, order, config, edges in _check_runs(args, runs, args.n):
        results.append(
            offset_independence_check(config, edges, offset_seed_a=7_001 + i, offset_seed_b=9_103 + i)
        )
        print(f"run {i} {order}: {results[-1][1]}")
    return audit_gate(results, "counter events")


def _check_crange(args: argparse.Namespace, runs: int) -> tuple[bool, str]:
    results = []
    for i, order, config, edges in _check_runs(args, runs, args.n):
        trace = TraceRecorder()
        run_stream(config, edges, trace=trace)
        results.append(trace_audit(trace.records, config))
        print(f"run {i} {order}: {results[-1][1]}")
    return audit_gate(results, "B/C assignments")


def _check_leftover(args: argparse.Namespace, runs: int) -> tuple[bool, str]:
    report = leftover_stats(list(_check_metrics(args, runs, args.n)), args.kappa)
    return report.ok, report.detail


# target -> (default runs, fewest runs, handler judging that many runs)
CHECKS: dict[str, tuple[int, int, Callable[[argparse.Namespace, int], tuple[bool, str]]]] = {
    "ind": (5, 1, _check_ind),
    "crange": (5, 1, _check_crange),
    "leftover": (LEFTOVER_MIN_RUNS, LEFTOVER_MIN_RUNS, _check_leftover),
    "space": (10, 1, lambda args, runs: space_gate(
        list(zip(_check_metrics(args, runs, args.n), _check_metrics(args, runs, 2 * args.n)))
    )),
    "depth": (20, 1, lambda args, runs: depth_gate(list(_check_metrics(args, runs, args.n)), args.delta)),
}


def cmd_check(args: argparse.Namespace) -> int:
    default_runs, fewest, handler = CHECKS[args.target]
    runs = default_runs if args.runs is None else args.runs
    if runs < fewest:
        # refused before the first run, which may take minutes
        least = "one run" if fewest == 1 else f"{fewest} runs"
        raise StreamInputError(f"check {args.target} needs at least {least}, got --runs {runs}")
    m = _edge_count(args.n, args.delta, args.edge_factor)
    if m < 1:
        raise StreamInputError(
            f"check {args.target} needs at least one edge per run, got m = int(n*delta*edge_factor) = {m}"
        )
    _effective(
        "check",
        target=args.target,
        runs=runs,
        orders=ORDER_POLICIES[:runs],
        n=args.n,
        delta=args.delta,
        edge_factor=args.edge_factor,
        kappa=args.kappa,
        seed=args.seed,
    )
    ok, detail = handler(args, runs)
    print(f"check {args.target}: {'PASS' if ok else 'FAIL'} ({detail})")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=int, default=32, help="palette multiplier, power of two >= 32")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument(
        "--interval-factor",
        default=None,
        help="interval size as a multiple of n: a number, or 'logn'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsecolor",
        description="single-pass bounded-memory edge coloring for multigraph streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random degree-bounded multigraph stream")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--delta", type=int, required=True, help="max degree")
    p.add_argument("--m", type=int, required=True, help="edge count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--simple", action="store_true", help="disallow parallel edges")
    p.add_argument(
        "--order",
        default="none",
        choices=("none",) + ORDER_POLICIES,
        help="arrival order applied after generation",
    )
    p.add_argument("--order-seed", type=int, default=1, help="seed for the order policy")
    p.add_argument("out", help="output stream path, or - for stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("color", help="color a stream file in one pass")
    p.add_argument("stream", help="input stream path, or - for stdin")
    p.add_argument("--out", default=None, help="colored output path (default: <stream>.colored)")
    p.add_argument("--metrics", default="-", help="metrics JSON path (default: stdout)")
    p.add_argument("--trace", default=None, help="write decision trace JSON lines here")
    p.add_argument("--unknown-delta", action="store_true", help="ignore the declared max degree")
    p.add_argument("--max-depth", type=int, default=None, help="recursion depth cap override")
    _add_engine_flags(p)
    p.set_defaults(func=_run_from_file)

    p = sub.add_parser("verify", help="verify a colored file against its stream")
    p.add_argument("colored", help="colored output path")
    p.add_argument("stream", help="input stream path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("baseline", help="color with the per-interval fresh-palette reference")
    p.add_argument("stream", help="input stream path, or - for stdin")
    p.add_argument("--out", default=None, help="colored output path (default: <stream>.colored)")
    p.add_argument("--metrics", default="-", help="metrics JSON path (default: stdout)")
    _add_engine_flags(p)
    p.set_defaults(func=_run_from_file)

    p = sub.add_parser("bench", help="run a benchmark grid and emit CSV")
    p.add_argument("--n", type=_int_list, default="64,256", help="comma-separated vertex counts")
    p.add_argument("--delta", type=_int_list, default="16,64,256", help="comma-separated degree bounds")
    p.add_argument("--edge-factor", type=float, default=0.25, help="m = n * delta * factor")
    p.add_argument("--orders", default=",".join(ORDER_POLICIES))
    p.add_argument("--seeds", type=int, default=10, help="number of seeds per grid point")
    p.add_argument("--algorithms", default="wse,baseline")
    p.add_argument("--kappa", type=int, default=32)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--out", default="-", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check", help="run one of the statistical self-checks")
    p.add_argument("target", choices=tuple(CHECKS))
    p.add_argument("--runs", type=int, default=None, help="seeded runs (default depends on target)")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--delta", type=int, default=64)
    p.add_argument("--edge-factor", type=float, default=0.25)
    p.add_argument("--kappa", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StreamInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except EngineInvariantError as err:
        print(f"internal invariant violated: {err}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
