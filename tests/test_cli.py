"""End-to-end command-line coverage, run in process through main()."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from wsecolor import (
    TraceRecorder,
    gen_multigraph,
    order_stream,
    resolve_config,
    run_stream,
    write_stream,
)
from wsecolor import audit
from wsecolor.audit import LEFTOVER_MIN_RUNS, PARSED, trace_audit
from wsecolor.cli import BENCH_COLUMNS, main
from wsecolor.workload import ORDER_POLICIES, SPELLINGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def stream_path(tmp_path, capsys):
    path = tmp_path / "g.wse"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "64", "--delta", "16", "--m", "256",
        "--seed", "3", "--order", "vertex-sorted", str(path),
    )
    assert code == 0
    return path


def corrupt_with_adjacent_color(path):
    """Overwrite one line's color with that of an earlier line sharing a
    vertex, which must turn a proper coloring improper."""
    lines = [line.split() for line in path.read_text().splitlines()]
    for j in range(1, len(lines)):
        for i in range(j):
            shared = {lines[i][0], lines[i][1]} & {lines[j][0], lines[j][1]}
            if shared and lines[i][3] != lines[j][3]:
                lines[j][3] = lines[i][3]
                path.write_text("".join(" ".join(f) + "\n" for f in lines))
                return
    raise AssertionError("no adjacent pair to corrupt")


# -- gen ---------------------------------------------------------------------


def test_gen_writes_header_and_body(stream_path):
    lines = stream_path.read_text().splitlines()
    assert lines[0] == "wse v1 64 16 256"
    assert len(lines) == 257


def test_gen_to_stdout(capsys):
    code, out, err = run_cli(capsys, "gen", "--n", "4", "--delta", "2", "--m", "2", "-")
    assert code == 0
    assert out.splitlines()[0] == "wse v1 4 2 2"
    assert json.loads(err.splitlines()[0])["command"] == "gen"


# sha256 of `gen --n 64 --delta 16 --m 400 --seed 3 --order <order> --order-seed 4`,
# frozen from the Random.randrange / Random.shuffle generator
GEN_SHA256 = {
    "none": "d8f211b34d9435595f571e4c5a1b7c8f6953b52fd3456ae5c13922b47d0bcabd",
    "arrival-random": "328324649ca5411076af201a6bdfc54a0ec83ad33ec57c91c0fe758fffa70460",
    "vertex-sorted": "fbebd369b9e3fec80a48c6d3e48b8b8b6d1a95bfa132b2c37e535c9ffce0ece0",
    "degree-burst": "71b024b1491dccc2a471d8cf70bef8c5894970208a5c7fd3377d2c3dc1e90ad3",
}


@pytest.mark.parametrize("order", GEN_SHA256)
def test_gen_stream_bytes_are_frozen(order, capsys, tmp_path):
    path = tmp_path / "g.wse"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "64", "--delta", "16", "--m", "400",
        "--seed", "3", "--order", order, "--order-seed", "4", str(path),
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_SHA256[order]


@pytest.mark.parametrize("delta", ["0", "-1"])
def test_gen_rejects_a_bound_color_refuses(delta, capsys, tmp_path):
    # every colorer takes delta >= 1, so gen writes no stream it would refuse
    code, _, err = run_cli(
        capsys, "gen", "--n", "4", "--delta", delta, "--m", "0", str(tmp_path / "z.wse")
    )
    assert code == 2
    assert f"degree bound must be >= 1, got {delta}" in err
    assert list(tmp_path.iterdir()) == []


def test_gen_rejects_overfull_request(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "gen", "--n", "4", "--delta", "2", "--m", "50", str(tmp_path / "x.wse")
    )
    assert code == 2
    assert "error:" in err
    assert list(tmp_path.iterdir()) == []


# -- color / verify ----------------------------------------------------------


def test_color_then_verify_roundtrip(stream_path, capsys):
    code, out, err = run_cli(capsys, "color", str(stream_path))
    assert code == 0
    effective = json.loads(err.splitlines()[0])
    assert effective["command"] == "color"
    assert effective["config"]["n"] == 64
    assert effective["config"]["delta"] == 16
    metrics = json.loads(out)
    assert metrics["schema"] == "wsecolor-metrics-v1"
    assert metrics["input_edges"] == 256

    colored = stream_path.with_suffix(".wse.colored")
    assert colored.exists()
    code, out, _ = run_cli(capsys, "verify", str(colored), str(stream_path))
    assert code == 0
    assert out.startswith("ok: 256 edges, coloring is proper")


def test_color_output_is_byte_deterministic(stream_path, tmp_path, capsys):
    a, b = tmp_path / "a.colored", tmp_path / "b.colored"
    for target in (a, b):
        code, _, _ = run_cli(
            capsys, "color", str(stream_path), "--out", str(target),
            "--metrics", str(tmp_path / (target.name + ".json")),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_color_seed_changes_output(stream_path, tmp_path, capsys):
    a, b = tmp_path / "a.colored", tmp_path / "b.colored"
    for target, seed in ((a, "0"), (b, "1")):
        code, _, _ = run_cli(
            capsys, "color", str(stream_path), "--out", str(target),
            "--seed", seed, "--metrics", str(tmp_path / (target.name + ".json")),
        )
        assert code == 0
    assert a.read_bytes() != b.read_bytes()


def test_color_writes_trace_jsonl(stream_path, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    code, _, _ = run_cli(
        capsys, "color", str(stream_path), "--out", str(tmp_path / "o.colored"),
        "--metrics", str(tmp_path / "m.json"), "--trace", str(trace),
    )
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records and all("kind" in r for r in records)


def burst_stream(path, n, delta, m, seed=1):
    edges = order_stream(gen_multigraph(n, delta, m, seed=seed), "degree-burst", seed=seed)
    with open(path, "w", encoding="ascii") as fh:
        write_stream(fh, n, delta, edges)
    return edges


def test_streamed_trace_matches_in_memory_dump(tmp_path, capsys):
    n, delta, m = 512, 64, 8192
    stream = tmp_path / "b.wse"
    edges = burst_stream(stream, n, delta, m)
    trace = tmp_path / "t.jsonl"
    code, _, _ = run_cli(
        capsys, "color", str(stream), "--out", str(tmp_path / "o.colored"),
        "--metrics", str(tmp_path / "m.json"), "--unknown-delta", "--trace", str(trace),
    )
    assert code == 0
    recorder = TraceRecorder()
    config = resolve_config(n=n, delta=delta, m=m, delta_mode="unknown")
    run_stream(config, edges, trace=recorder)
    assert len(recorder.records) > m  # a trace longer than the stream, streamed out as the run went
    held = io.StringIO()
    recorder.dump(held)
    assert trace.read_text(encoding="ascii") == held.getvalue()


def test_trace_file_audits_as_the_in_memory_trace(tmp_path, capsys):
    n, delta, m = 64, 256, 4096
    stream = tmp_path / "b.wse"
    edges = burst_stream(stream, n, delta, m)
    trace = tmp_path / "t.jsonl"
    code, _, _ = run_cli(
        capsys, "color", str(stream), "--out", str(tmp_path / "o.colored"),
        "--metrics", str(tmp_path / "m.json"), "--unknown-delta", "--trace", str(trace),
    )
    assert code == 0
    config = resolve_config(n=n, delta=delta, m=m, delta_mode="unknown")
    with open(trace, encoding="ascii") as fh:
        from_file = trace_audit((json.loads(line) for line in fh), config)
    recorder = TraceRecorder()
    run_stream(config, edges, trace=recorder)
    assert from_file == trace_audit(recorder.records, config)
    ok, _, assigned = from_file
    assert ok and assigned > 0


def test_failed_color_leaves_no_trace_file(tmp_path, capsys):
    stream = tmp_path / "b.wse"
    burst_stream(stream, 512, 64, 8192)
    with open(stream, "a", encoding="ascii") as fh:
        fh.write("0 1\n")  # one edge past the declared count, after every batch
    trace = tmp_path / "t.jsonl"
    code, _, err = run_cli(
        capsys, "color", str(stream), "--out", str(tmp_path / "o.colored"),
        "--metrics", str(tmp_path / "m.json"), "--unknown-delta", "--trace", str(trace),
    )
    assert code == 2 and "more than the declared" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.wse"]


def _traced_color_peak(tmp_path, capsys, m):
    stream = tmp_path / f"b{m}.wse"
    burst_stream(stream, 1024, 64, m)
    args = [
        "color", str(stream), "--out", str(tmp_path / f"o{m}.colored"),
        "--metrics", str(tmp_path / f"m{m}.json"), "--unknown-delta",
        "--trace", str(tmp_path / f"t{m}.jsonl"),
    ]
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    return peak


def test_traced_color_memory_does_not_grow_with_the_stream(tmp_path, capsys):
    # trace records and closed palette scopes are not held for the whole
    # run, so four times the edges may not cost four times the memory
    small = _traced_color_peak(tmp_path, capsys, 4096)
    large = _traced_color_peak(tmp_path, capsys, 16384)
    assert large <= 1.6 * small, (small, large)


def test_color_from_stdin_needs_out(capsys):
    code, _, err = run_cli(capsys, "color", "-")
    assert code == 2
    assert "requires an explicit --out" in err


def test_color_rejects_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.wse"
    bad.write_text("not a stream\n")
    code, _, err = run_cli(capsys, "color", str(bad))
    assert code == 2
    assert "error:" in err


def test_verify_detects_planted_conflict(stream_path, capsys):
    run_cli(capsys, "color", str(stream_path))
    colored = stream_path.with_suffix(".wse.colored")
    corrupt_with_adjacent_color(colored)
    code, out, _ = run_cli(capsys, "verify", str(colored), str(stream_path))
    assert code == 1
    assert out.startswith("conflict:")
    assert "repeats at vertex" in out


def test_verify_detects_truncation(stream_path, capsys):
    run_cli(capsys, "color", str(stream_path))
    colored = stream_path.with_suffix(".wse.colored")
    lines = colored.read_text().splitlines(keepends=True)
    colored.write_text("".join(lines[:-1]))
    code, out, _ = run_cli(capsys, "verify", str(colored), str(stream_path))
    assert code == 1
    assert out.startswith("mismatch:")
    assert "missing" in out


def test_verify_rejects_garbage_color_token(stream_path, capsys):
    run_cli(capsys, "color", str(stream_path))
    colored = stream_path.with_suffix(".wse.colored")
    lines = colored.read_text().splitlines()
    fields = lines[0].split()
    fields[3] = "E0.L0.NOPE.3"
    lines[0] = " ".join(fields)
    colored.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "verify", str(colored), str(stream_path))
    assert code == 2
    assert "error:" in err


def test_verify_reads_the_whole_stream_before_its_verdict(stream_path, capsys):
    run_cli(capsys, "color", str(stream_path))
    colored = stream_path.with_suffix(".wse.colored")
    with open(stream_path, "a") as fh:
        fh.write("not an edge\n")
    code, out, err = run_cli(capsys, "verify", str(colored), str(stream_path))
    assert code == 2
    assert "line 258" in err
    assert out == ""


def test_verify_reads_the_colored_file_from_stdin(stream_path, capsys, monkeypatch):
    run_cli(capsys, "color", str(stream_path))
    colored = stream_path.with_suffix(".wse.colored")
    _, from_path, _ = run_cli(capsys, "verify", str(colored), str(stream_path))
    monkeypatch.setattr("sys.stdin", io.StringIO(colored.read_text()))
    code, from_stdin, _ = run_cli(capsys, "verify", "-", str(stream_path))
    assert code == 0
    assert from_stdin == from_path == "ok: 256 edges, coloring is proper\n"


def test_verify_reads_at_most_one_file_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("wse v1 2 1 1\n0 1\n"))
    code, out, err = run_cli(capsys, "verify", "-", "-")
    assert code == 2 and out == ""
    assert "only one of its two files from stdin" in err


def test_verify_memory_per_edge_is_bounded(tmp_path, capsys):
    # verify keeps int columns per edge, not every parsed (Edge, color)
    # pair: materializing the pairs costs about 370 B/edge at this size,
    # the columns about 40.  m is half of n*delta/2, as in the uniform
    # benchmark workload, so generation does not run into the degree cap.
    m = 32768
    stream = tmp_path / "u.wse"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "1024", "--delta", "128", "--m", str(m),
        "--seed", "1", "--order", "arrival-random", str(stream),
    )
    assert code == 0
    assert run_cli(capsys, "color", str(stream))[0] == 0
    tracemalloc.start()
    try:
        code = main(["verify", str(stream.with_suffix(".wse.colored")), str(stream)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == f"ok: {m} edges, coloring is proper\n"
    assert peak / m < 150, peak / m


def test_verify_compares_canonical_colors(tmp_path, capsys):
    stream = tmp_path / "s.wse"
    stream.write_text("wse v1 3 2 2\n0 1\n1 2\n")
    colored = tmp_path / "s.colored"
    colored.write_text("0 1 0 E01.L0.BASE.3\n1 2 1 E1.L0.BASE.3\n")
    code, out, _ = run_cli(capsys, "verify", str(colored), str(stream))
    assert code == 1
    assert out.startswith("conflict: color E1.L0.BASE.3 repeats at vertex 1")


def test_verify_finds_a_conflict_across_the_spelling_table_bound(tmp_path, capsys):
    # the conflict's two lines, one padded, are read with more distinct
    # colors between them than the reader's and the verifier's tables hold
    k = max(SPELLINGS, PARSED) + 10
    stream = tmp_path / "s.wse"
    stream.write_text(f"wse v1 4 {k + 2} {k + 2}\n0 1\n" + "2 3\n" * k + "1 2\n")
    colored = tmp_path / "s.colored"
    colored.write_text(
        "0 1 0 E0.L0.BASE.3\n"
        + "".join(f"2 3 {seq} E0.L0.BASE.{seq + 9}\n" for seq in range(1, k + 1))
        + f"1 2 {k + 1} E0.L0.BASE.03\n"
    )
    code, out, _ = run_cli(capsys, "verify", str(colored), str(stream))
    assert code == 1
    assert out == f"conflict: color E0.L0.BASE.3 repeats at vertex 1; edges (0,1) seq 0 and (1,2) seq {k + 1}\n"


def test_verify_reads_vertex_ids_past_16_bits(tmp_path, capsys):
    # ids past uint16 widen verify's endpoint columns; the verdicts and the
    # conflict line read as they do for small ids
    stream = tmp_path / "w.wse"
    pairs = [(0, 69999), (69999, 65536), (65536, 1), (1, 0), (65536, 69998), (69998, 65535), (65535, 0)]
    stream.write_text(f"wse v1 70000 3 {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs))
    assert run_cli(capsys, "color", str(stream))[0] == 0
    colored = stream.with_suffix(".wse.colored")
    code, out, _ = run_cli(capsys, "verify", str(colored), str(stream))
    assert (code, out) == (0, f"ok: {len(pairs)} edges, coloring is proper\n")
    # plant seq 0's color on seq 1, which shares vertex 69999 with it
    lines = [line.split() for line in colored.read_text().splitlines()]
    assert [line[2] for line in lines[:2]] == ["0", "1"]
    lines[1][3] = lines[0][3]
    colored.write_text("".join(" ".join(f) + "\n" for f in lines))
    code, out, _ = run_cli(capsys, "verify", str(colored), str(stream))
    assert code == 1
    assert out == (
        f"conflict: color {lines[0][3]} repeats at vertex 69999; edges (0,69999) seq 0 and (69999,65536) seq 1\n"
    )


@pytest.mark.parametrize("command", ["color", "baseline"])
def test_failed_run_leaves_no_partial_output(command, tmp_path, capsys):
    bad = tmp_path / "bad.wse"
    bad.write_text("wse v1 4 2 3\n0 1\n1 2\n2 9\n")
    code, _, err = run_cli(capsys, command, str(bad), "--metrics", str(tmp_path / "m.json"))
    assert code == 2
    assert "line 4: vertex 9" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.wse"]

    kept = tmp_path / "kept.colored"
    kept.write_text("earlier output\n")
    code, _, _ = run_cli(
        capsys, command, str(bad), "--out", str(kept), "--metrics", str(tmp_path / "m.json")
    )
    assert code == 2
    assert kept.read_text() == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.wse", "kept.colored"]


@pytest.mark.parametrize("command", ["color", "baseline"])
def test_over_degree_stream_rejected_without_output(command, tmp_path, capsys):
    bad = tmp_path / "deg.wse"
    bad.write_text("wse v1 4 1 3\n0 1\n2 3\n0 2\n")
    code, _, err = run_cli(capsys, command, str(bad), "--metrics", str(tmp_path / "m.json"))
    assert code == 2
    assert "degree 2 at vertex 0 exceeds the configured bound 1 (seq 2)" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deg.wse"]


def declared_17_stream(path):
    """The n=64 stream of true max degree 44, declared as delta 17."""
    edges = gen_multigraph(64, 64, 1024, seed=1)
    path.write_text("wse v1 64 17 1024\n" + "".join(f"{u} {v}\n" for u, v, _ in edges))


@pytest.mark.parametrize("command", ["color", "baseline"])
def test_declared_bound_rejected_as_declared_without_output(command, tmp_path, capsys):
    # 17 normalizes to 64, above the true max degree; the declared 17 rejects
    stream = tmp_path / "d17.wse"
    declared_17_stream(stream)
    argv = [command, str(stream), "--out", str(tmp_path / "o.colored"), "--metrics", str(tmp_path / "m.json")]
    if command == "color":
        argv += ["--trace", str(tmp_path / "t.jsonl")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "exceeds the configured bound 17 (seq " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d17.wse"]


def with_bytes_at_line(path, lineno, raw):
    """Replace line lineno (1-based) of a text file with raw bytes."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = raw
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("command", ["color", "baseline"])
def test_non_ascii_stream_byte_is_an_input_error_without_output(command, stream_path, capsys):
    with_bytes_at_line(stream_path, 200, b"0 \xc3\xa9\n")
    out_dir = stream_path.parent
    argv = [command, str(stream_path), "--out", str(out_dir / "o.colored"), "--metrics", str(out_dir / "m.json")]
    if command == "color":
        argv += ["--trace", str(out_dir / "t.jsonl")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        r"error: line 200: endpoints must be integers, got '0 \udcc3\udca9'"
    ]
    assert sorted(p.name for p in out_dir.iterdir()) == ["g.wse"]


# int() reads each of these as a number; the file grammar does not
@pytest.mark.parametrize(
    "text, error",
    [
        ("wse v1 16 4 2\n0 1\n1_0 +3\n", "line 3: endpoints must be integers, got '1_0 +3'"),
        ("wse v1 16 4 2\n0 1\n+1 2\n", "line 3: endpoints must be integers, got '+1 2'"),
        ("wse v1 16 4 2\n0 1\n-1 2\n", "line 3: endpoints must be integers, got '-1 2'"),
        ("wse v1 1_6 4 1\n0 1\n", "line 1: expected header 'wse v1 <n> <delta> <m>', got 'wse v1 1_6 4 1'"),
    ],
    ids=["underscore-and-plus", "plus", "minus", "header-underscore"],
)
def test_non_decimal_stream_integers_are_input_errors_without_output(text, error, tmp_path, capsys):
    stream = tmp_path / "s.wse"
    stream.write_text(text)
    colored = tmp_path / "fine.colored"
    colored.write_text("0 1 0 E0.L0.BASE.0\n")
    code, _, err = run_cli(capsys, "color", str(stream), "--metrics", str(tmp_path / "m.json"))
    assert (code, err.splitlines()[-1]) == (2, f"error: {error}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fine.colored", "s.wse"]
    code, out, err = run_cli(capsys, "verify", str(colored), str(stream))
    assert (code, out, err.splitlines()[-1]) == (2, "", f"error: {error}")


@pytest.mark.parametrize("line", ["1_0 1 0", "+0 1 0", "0 -1 0", "0 1 +0", "0 1 -0"])
def test_non_decimal_colored_integers_are_input_errors(line, stream_path, capsys):
    colored = stream_path.parent / "g.colored"
    assert run_cli(capsys, "color", str(stream_path), "--out", str(colored))[0] == 0
    with_bytes_at_line(colored, 100, f"{line} E0.L0.BASE.0\n".encode())
    code, out, err = run_cli(capsys, "verify", str(colored), str(stream_path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: line 100: endpoints and seq must be integers, got '{line} E0.L0.BASE.0'"
    ]


def test_a_bad_row_is_reported_before_a_bad_line_after_it(tmp_path, capsys):
    # the engine reads the stream an interval at a time; an error is still
    # the first one in arrival order, here a degree before a malformed line
    stream = tmp_path / "s.wse"
    stream.write_text("wse v1 8 1 4\n0 1\n0 2\n3 x\n4 5\n")
    code, _, err = run_cli(capsys, "color", str(stream), "--metrics", str(tmp_path / "m.json"))
    assert code == 2
    assert err.splitlines()[-1] == "error: degree 2 at vertex 0 exceeds the configured bound 1 (seq 1)"
    assert [p.name for p in tmp_path.iterdir()] == ["s.wse"]


def test_non_ascii_colored_byte_is_an_input_error(stream_path, capsys):
    colored = stream_path.parent / "g.colored"
    assert run_cli(capsys, "color", str(stream_path), "--out", str(colored))[0] == 0
    with_bytes_at_line(colored, 100, b"1 2 99 E0.L0.BASE.\xff\n")
    code, out, err = run_cli(capsys, "verify", str(colored), str(stream_path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [r"error: line 100: field 'slot': expected a decimal integer, got '\udcff'"]


def test_stdin_reads_ascii_whatever_the_locale(tmp_path, capsys, monkeypatch):
    # U+0663, an Arabic-Indic digit three, is a number to int() but not ASCII
    stdin = io.TextIOWrapper(io.BytesIO("wse v1 4 2 1\n0 \u0663\n".encode()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = run_cli(capsys, "color", "-", "--out", str(tmp_path / "o.colored"))
    assert code == 2
    assert err.splitlines()[-1] == r"error: line 2: endpoints must be integers, got '0 \udcd9\udca3'"
    assert list(tmp_path.iterdir()) == []
    assert not stdin.buffer.closed


def test_declared_bound_ignored_with_unknown_delta(tmp_path, capsys):
    stream = tmp_path / "d17.wse"
    declared_17_stream(stream)
    colored = tmp_path / "o.colored"
    code, _, _ = run_cli(
        capsys, "color", str(stream), "--out", str(colored), "--metrics", str(tmp_path / "m.json"),
        "--unknown-delta",
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(colored), str(stream))
    assert code == 0 and out.startswith("ok: 1024 edges, coloring is proper")


def test_color_replaces_existing_outputs_on_success(stream_path, tmp_path, capsys):
    out, metrics, trace = tmp_path / "o.colored", tmp_path / "m.json", tmp_path / "t.jsonl"
    real = tmp_path / "real.colored"
    out.symlink_to(real)
    for path in (real, metrics, trace):
        path.write_text("stale\n")
    code, _, _ = run_cli(
        capsys, "color", str(stream_path), "--out", str(out),
        "--metrics", str(metrics), "--trace", str(trace),
    )
    assert code == 0
    assert out.is_symlink()
    assert len(real.read_text().splitlines()) == 256
    assert json.loads(metrics.read_text())["input_edges"] == 256
    assert trace.read_text() != "stale\n"
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


# (command, first, second): every pair of a command's outputs
OUTPUT_PAIRS = [
    ("color", "--out", "--metrics"),
    ("color", "--out", "--trace"),
    ("color", "--metrics", "--trace"),
    ("baseline", "--out", "--metrics"),
]


@pytest.mark.parametrize("command, first, second", OUTPUT_PAIRS)
def test_two_outputs_on_one_file_are_rejected_without_output(command, first, second, stream_path, tmp_path, capsys):
    # each staged output replaces its target, so one file could keep only one
    paths = {"--out": str(tmp_path / "o.colored"), "--metrics": str(tmp_path / "m.json")}
    if command == "color":
        paths["--trace"] = str(tmp_path / "t.jsonl")
    paths[first] = str(tmp_path / "same.txt")
    paths[second] = f"{tmp_path}/./same.txt"  # another spelling of the same file
    argv = [arg for option, path in paths.items() for arg in (option, path)]
    code, _, err = run_cli(capsys, command, str(stream_path), *argv)
    assert code == 2
    assert f"{first} and {second} name the same file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.wse"]


@pytest.mark.parametrize("command, first, second", OUTPUT_PAIRS)
def test_two_outputs_on_stdout_are_rejected_without_output(command, first, second, stream_path, tmp_path, capsys):
    # two outputs on stdout would interleave, and verify would refuse the mix
    paths = {"--out": str(tmp_path / "o.colored"), "--metrics": str(tmp_path / "m.json")}
    if command == "color":
        paths["--trace"] = str(tmp_path / "t.jsonl")
    paths[first] = paths[second] = "-"
    argv = [arg for option, path in paths.items() for arg in (option, path)]
    code, out, err = run_cli(capsys, command, str(stream_path), *argv)
    assert code == 2
    assert out == ""
    assert f"{first} and {second} name the same file '-'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.wse"]


def test_outputs_on_stdout_or_a_device_may_coincide(stream_path, capsys):
    code, out, _ = run_cli(
        capsys, "color", str(stream_path), "--out", "/dev/null", "--metrics", "-", "--trace", "/dev/null"
    )
    assert code == 0
    assert json.loads(out)["input_edges"] == 256


# every output option of each command that colors a stream
OUTPUT_OPTIONS = [("color", "--out"), ("color", "--metrics"), ("color", "--trace"),
                  ("baseline", "--out"), ("baseline", "--metrics")]


@pytest.mark.parametrize("command, option", OUTPUT_OPTIONS)
def test_an_output_on_the_input_stream_is_rejected_without_output(command, option, stream_path, tmp_path, capsys):
    # the staged output would replace the stream it was colored from
    before = stream_path.read_bytes()
    paths = {"--out": str(tmp_path / "o.colored"), "--metrics": str(tmp_path / "m.json")}
    if command == "color":
        paths["--trace"] = str(tmp_path / "t.jsonl")
    paths[option] = f"{tmp_path}/./g.wse"
    argv = [arg for flag, path in paths.items() for arg in (flag, path)]
    code, out, err = run_cli(capsys, command, str(stream_path), *argv)
    assert code == 2
    assert out == ""
    assert f"the input stream and {option} name the same file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.wse"]
    assert stream_path.read_bytes() == before


@pytest.mark.parametrize("command, option", OUTPUT_OPTIONS + [("color", None), ("baseline", None)])
def test_an_output_on_stdins_file_is_rejected_without_output(command, option, stream_path, tmp_path):
    # run as a child with stdin redirected from the stream file, as `< g.wse`
    # does: a staged output on that file would replace the stream being read
    env = {**os.environ, "PYTHONPATH": str(Path(audit.__file__).resolve().parents[1])}
    before = stream_path.read_bytes()
    paths = {"--out": "o.colored", "--metrics": "m.json"}
    if command == "color":
        paths["--trace"] = "t.jsonl"
    if option is not None:
        paths[option] = "./g.wse"
    argv = [arg for flag, path in paths.items() for arg in (flag, path)]
    with open(stream_path, "rb") as stdin:
        done = subprocess.run([sys.executable, "-m", "wsecolor", command, "-", *argv], cwd=tmp_path, env=env,
                              stdin=stdin, capture_output=True, text=True, timeout=60)
    assert stream_path.read_bytes() == before
    if option is None:  # outputs elsewhere: stdin's file is read as usual
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["g.wse", *paths.values()])
        return
    assert done.returncode == 2
    assert f"the input stream and {option} name the same file" in done.stderr
    assert done.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.wse"]


@pytest.mark.parametrize("stdout, out", [("pipe", "/dev/stdout"), ("file", "/dev/stdout"), ("file", "captured")])
def test_stdout_by_another_name_counts_as_stdout(stdout, out, stream_path, tmp_path):
    # run as a child, since capsys gives sys.stdout no descriptor; with the
    # default --metrics -, a name for the file stdout writes to is a second
    # output on stdout
    env = {**os.environ, "PYTHONPATH": str(Path(audit.__file__).resolve().parents[1])}
    captured = tmp_path / "captured"
    command = [sys.executable, "-m", "wsecolor", "color", str(stream_path), "--out", out]
    with open(captured, "w") as fh:
        done = subprocess.run(command, cwd=tmp_path, env=env, stdout=subprocess.PIPE if stdout == "pipe" else fh,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 2
    assert "--out and --metrics name the same file" in done.stderr
    assert not done.stdout and captured.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["captured", "g.wse"]


def test_baseline_output_verifies(stream_path, tmp_path, capsys):
    out_path = tmp_path / "b.colored"
    code, out, _ = run_cli(
        capsys, "baseline", str(stream_path), "--out", str(out_path),
        "--metrics", str(tmp_path / "m.json"),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(out_path), str(stream_path))
    assert code == 0
    assert out.startswith("ok:")


@pytest.mark.parametrize("order", ORDER_POLICIES)
def test_baseline_is_color_at_depth_cap_zero(order, tmp_path, capsys):
    stream = tmp_path / "s.wse"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "64", "--delta", "16", "--m", "256", "--seed", "5", "--order", order, str(stream)
    )
    assert code == 0
    docs = {}
    for command, extra in (("baseline", ()), ("color", ("--max-depth", "0"))):
        out, metrics = tmp_path / f"{command}.colored", tmp_path / f"{command}.json"
        code, _, err = run_cli(capsys, command, str(stream), "--out", str(out), "--metrics", str(metrics), *extra)
        assert code == 0
        assert json.loads(err)["config"]["max_depth"] == 0
        docs[command] = json.loads(metrics.read_text())
        del docs[command]["wall_ms"]
    assert (tmp_path / "baseline.colored").read_bytes() == (tmp_path / "color.colored").read_bytes()
    assert docs["baseline"] == docs["color"]
    assert docs["baseline"]["fallback_intervals"] == sum(docs["baseline"]["interval_count"].values())


def test_baseline_refuses_a_depth_cap(stream_path, capsys):
    # the baseline is the depth-0 colorer; another cap would not be a baseline
    with pytest.raises(SystemExit) as exit_info:
        main(["baseline", str(stream_path), "--max-depth", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --max-depth 1" in capsys.readouterr().err
    assert sorted(p.name for p in stream_path.parent.iterdir()) == ["g.wse"]


# -- bench -------------------------------------------------------------------


def test_bench_grid_shape(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--n", "8", "--delta", "4", "--seeds", "2",
        "--orders", "arrival-random", "--algorithms", "wse,baseline",
        "--out", str(out_path),
    )
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_COLUMNS
    assert len(rows) == 1 + 2 * 2  # seeds x algorithms
    algorithms = {row[6] for row in rows[1:]}
    assert algorithms == {"wse", "baseline"}
    for row in rows[1:]:
        assert row[0] == "8" and row[1] == "4" and row[2] == "8"


def test_failed_bench_leaves_no_partial_csv(tmp_path, capsys):
    # n=1 is rejected before the n=64 row is run
    argv = ("bench", "--n", "64,1", "--delta", "16", "--seeds", "1",
            "--orders", "arrival-random", "--algorithms", "wse")
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "error:" in err
    assert list(tmp_path.iterdir()) == []

    kept = tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    code, _, _ = run_cli(capsys, *argv, "--out", str(kept))
    assert code == 2
    assert kept.read_text() == "earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


@pytest.mark.parametrize(
    "factor, error",
    [
        ("nan", "must be positive, got nan"),
        ("inf", "must give a finite interval size, got inf"),
        ("1e400", "must give a finite interval size, got inf"),
    ],
)
@pytest.mark.parametrize("command", ["color", "baseline"])
def test_non_finite_interval_factor_is_a_usage_error_without_output(command, factor, error, stream_path, capsys):
    metrics = str(stream_path.parent / "m.json")
    code, out, err = run_cli(capsys, command, str(stream_path), "--metrics", metrics, "--interval-factor", factor)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: interval factor {error}"]
    assert sorted(p.name for p in stream_path.parent.iterdir()) == ["g.wse"]


@pytest.mark.parametrize("factor", ["nan", "inf", "-inf", "1e308"])
@pytest.mark.parametrize(
    "command", [("bench", "--seeds", "1"), ("check", "depth", "--runs", "1")], ids=["bench", "check"]
)
def test_non_finite_edge_factor_is_a_usage_error_without_output(command, factor, tmp_path, capsys):
    # 1e308 is finite, but n*delta*1e308 is not
    argv = (*command, "--n", "64", "--delta", "16", f"--edge-factor={factor}")
    if command[0] == "bench":
        argv += ("--out", str(tmp_path / "x.csv"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: edge factor must give a finite edge count, got {float(factor)}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_bench_rejects_fewer_than_one_seed_without_output(seeds, tmp_path, capsys):
    code, out, err = run_cli(capsys, "bench", "--seeds", seeds, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: bench needs at least one seed, got --seeds {seeds}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option, error",
    [
        ("--n=0", "vertex count must be >= 1, got 0"),
        ("--delta=0", "degree bound must be >= 1, got 0"),
        ("--n=1", "need at least 2 vertices for loop-free edges"),
        ("--edge-factor=-1", "edge count must be >= 0, got -1024"),
        ("--kappa=7", "kappa must be a power of two >= 32, got 7"),
    ],
)
def test_bench_rejects_a_bad_grid_point_before_the_header(option, error, capsys):
    code, out, err = run_cli(capsys, "bench", option, "--seeds", "1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {error}"]


# 10**15 vertices take 8 PB of list slots, which no 64-bit address space
# holds, so the allocation fails at once; never test with an n that could fit
HUGE_N = 10**15


@pytest.mark.parametrize("command", ["gen", "color", "baseline"])
def test_a_vertex_count_too_large_to_hold_is_a_usage_error_without_output(command, tmp_path, capsys):
    if command == "gen":
        argv = ("gen", "--n", str(HUGE_N), "--delta", "4", "--m", "1", str(tmp_path / "g.wse"))
    else:
        stream = tmp_path / "big.wse"
        stream.write_text(f"wse v1 {HUGE_N} 4 1\n0 1\n")
        argv = (command, str(stream))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if not line.startswith("{")]
    assert errors == ["error: out of memory: the input's vertex or edge count is too large"]
    assert [p.name for p in tmp_path.iterdir()] == ([] if command == "gen" else ["big.wse"])


def test_bench_rejects_unknown_algorithm(capsys):
    code, _, err = run_cli(capsys, "bench", "--algorithms", "magic")
    assert code == 2
    assert "unknown algorithm" in err


# -- check -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "ind", "--n", "64", "--delta", "16", "--runs", "2"),
        ("check", "crange", "--n", "64", "--delta", "16", "--runs", "2"),
        ("check", "depth", "--n", "64", "--delta", "16", "--runs", "3"),
        ("check", "space", "--n", "64", "--delta", "16", "--runs", "2"),
        ("check", "leftover", "--n", "64", "--delta", "16"),
    ],
)
def test_check_targets_pass_on_small_grids(argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert f"check {argv[1]}: PASS" in out


def test_check_space_fails_above_ratio_limit(capsys, monkeypatch):
    # audit.space_gate owns the peak-ratio gate; every measured ratio exceeds 0
    monkeypatch.setattr(audit, "SPACE_RATIO_LIMIT", 0.0)
    code, out, _ = run_cli(capsys, "check", "space", "--n", "64", "--delta", "16", "--runs", "2")
    assert code == 1
    assert "check space: FAIL" in out and "0 structural findings" in out


@pytest.mark.parametrize("target", ["ind", "crange"])
def test_check_fails_when_it_sees_nothing(target, capsys):
    # run 0 is arrival-random, where at the defaults no counter fires and
    # no B/C color is assigned, so the check has nothing to judge
    code, out, _ = run_cli(capsys, "check", target, "--runs", "1")
    assert code == 1
    assert f"check {target}: FAIL" in out and "across 0 " in out


def test_check_runs_cycle_the_arrival_orders(capsys):
    code, out, err = run_cli(capsys, "check", "depth", "--n", "64", "--delta", "16", "--runs", "3")
    assert code == 0
    lines = out.splitlines()
    for i, order in enumerate(("arrival-random", "vertex-sorted", "degree-burst")):
        assert lines[i].startswith(f"run {i} {order} ")
    assert json.loads(err)["orders"] == ["arrival-random", "vertex-sorted", "degree-burst"]


def test_check_rejects_zero_runs(capsys):
    # with no runs, a gate would judge nothing: a usage error, not a pass
    code, out, err = run_cli(capsys, "check", "depth", "--runs", "0")
    assert code == 2
    assert "at least one run" in err and "check depth" not in out


@pytest.mark.parametrize("flag", ["--n", "--delta"])
def test_bench_rejects_a_non_integer_list_entry(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", flag, "64,x", "--seeds", "1"])
    assert exit_info.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "Traceback" not in cap.err
    assert cap.err.splitlines()[-1].endswith(
        f"error: argument {flag}: expected comma-separated integers, got '64,x'"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "space", "--runs", "1", "--n", "64", "--edge-factor", "0"),
        ("check", "leftover", "--n", "16", "--delta", "4", "--edge-factor", "0"),
    ],
)
def test_check_rejects_an_empty_stream_before_running(argv, capsys):
    # m = int(n * delta * edge_factor) is 0: refused before the first run
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: check {argv[1]} needs at least one edge per run, got m = int(n*delta*edge_factor) = 0"
    ]


@pytest.mark.parametrize("runs", ["1", "19"])
def test_check_leftover_rejects_runs_below_its_floor_before_running(runs, capsys):
    # leftover_stats judges no fewer than LEFTOVER_MIN_RUNS runs; a smaller
    # --runs is a usage error, refused before the first coloring
    code, out, err = run_cli(capsys, "check", "leftover", "--n", "64", "--delta", "16", "--runs", runs)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: check leftover needs at least {LEFTOVER_MIN_RUNS} runs, got --runs {runs}"]
