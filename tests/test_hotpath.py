"""Structural guard on the untraced color path: rows enter the engine an
interval at a time, as plain tuples, bookkeeping happens per interval or
per scope, not per edge, and colors stay token strings from palette to
file.  The gen path builds plain rows and makes its draws inline.  Counts
calls instead of timing them, so it holds on any machine."""

import random
import sys

import pytest

import wsecolor
from wsecolor.audit import MetricsCollector, SpaceMeter
from wsecolor.cli import main
from wsecolor.model import ColorId, Edge
from wsecolor.phase_engine import PhaseEngine
from wsecolor.pipeline import StreamColorer

N, DELTA, M = 256, 64, 4096


def counted(calls, key, fn):
    """fn, counting its calls in calls[key]."""

    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def counts(monkeypatch):
    """Count calls to encode_color (wherever it was imported by name),
    SpaceMeter.add, MetricsCollector.note_emission, StreamColorer.feed,
    PhaseEngine.ingest, and every ColorId(...) and Edge(...) construction."""
    calls = dict.fromkeys(
        ("encode_color", "SpaceMeter.add", "note_emission", "ColorId", "feed", "ingest", "Edge"), 0
    )
    original = wsecolor.model.encode_color
    wrapped = counted(calls, "encode_color", original)
    for name, module in list(sys.modules.items()):
        if name.startswith("wsecolor") and getattr(module, "encode_color", None) is original:
            monkeypatch.setattr(module, "encode_color", wrapped)
    monkeypatch.setattr(SpaceMeter, "add", counted(calls, "SpaceMeter.add", SpaceMeter.add))
    monkeypatch.setattr(
        MetricsCollector,
        "note_emission",
        counted(calls, "note_emission", MetricsCollector.note_emission),
    )
    monkeypatch.setattr(StreamColorer, "feed", counted(calls, "feed", StreamColorer.feed))
    monkeypatch.setattr(PhaseEngine, "ingest", counted(calls, "ingest", PhaseEngine.ingest))
    monkeypatch.setattr(ColorId, "__new__", counted(calls, "ColorId", ColorId.__new__))
    monkeypatch.setattr(Edge, "__new__", counted(calls, "Edge", Edge.__new__))
    return calls


@pytest.mark.parametrize("order", ["none", "arrival-random", "vertex-sorted", "degree-burst"])
def test_gen_path_builds_rows_and_draws_inline(order, tmp_path, capsys, counts, monkeypatch):
    # each endpoint and each swap is drawn with getrandbits as randrange and
    # shuffle draw it, without a Python frame per draw; no Edge is built
    for name in ("randrange", "shuffle"):
        counts[name] = 0
        monkeypatch.setattr(random.Random, name, counted(counts, name, getattr(random.Random, name)))
    stream = tmp_path / "g.wse"
    gen = ["gen", "--n", str(N), "--delta", str(DELTA), "--m", str(M), "--simple"]
    assert main([*gen, "--seed", "1", "--order", order, str(stream)]) == 0
    capsys.readouterr()

    assert len(stream.read_text().splitlines()) == M + 1
    assert counts["Edge"] == counts["randrange"] == counts["shuffle"] == 0


def test_color_path_does_per_interval_bookkeeping(tmp_path, capsys, counts):
    stream = tmp_path / "g.wse"
    gen = ["gen", "--n", str(N), "--delta", str(DELTA), "--m", str(M)]
    assert main([*gen, "--seed", "1", "--order", "arrival-random", str(stream)]) == 0
    for key in counts:
        counts[key] = 0

    out = tmp_path / "g.colored"
    args = ["color", str(stream), "--out", str(out), "--metrics", str(tmp_path / "m.json")]
    assert main(args) == 0
    capsys.readouterr()

    assert len(out.read_text().splitlines()) == M
    # colors are written as the tokens the palettes hold: nothing encodes
    # a color or builds a ColorId on the way to the file
    assert counts["encode_color"] == 0
    assert counts["ColorId"] == 0
    assert counts["SpaceMeter.add"] < 0.1 * M
    assert counts["note_emission"] < 0.1 * M
    # the file's int rows reach the engines as they are, an interval at a
    # time: no Edge, and no feed or ingest call per edge
    assert counts["Edge"] == 0
    assert 0 < counts["feed"] < 0.1 * M
    assert 0 < counts["ingest"] < 0.1 * M

    # the counters see the read side: verify decodes each distinct head (the
    # token up to its last dot) once, and only appends the slots after it
    tokens = {line.split()[3] for line in out.read_text().splitlines()}
    heads = {token.rpartition(".")[0] for token in tokens}
    assert main(["verify", str(out), str(stream)]) == 0
    capsys.readouterr()
    assert counts["encode_color"] == counts["ColorId"] == len(heads)
    assert len(heads) < len(tokens)


def test_class_path_meters_per_interval(tmp_path, capsys, counts):
    # vertex-sorted order drives families A, B and C; the conflict window is
    # metered per interval, not per colored edge
    n, delta, m = 512, 256, 32768
    stream = tmp_path / "v.wse"
    gen = ["gen", "--n", str(n), "--delta", str(delta), "--m", str(m)]
    assert main([*gen, "--seed", "1", "--order", "vertex-sorted", str(stream)]) == 0
    for key in counts:
        counts[key] = 0

    out = tmp_path / "v.colored"
    args = ["color", str(stream), "--out", str(out), "--metrics", str(tmp_path / "m.json")]
    assert main(args) == 0
    capsys.readouterr()

    assert counts["encode_color"] == 0
    assert counts["ColorId"] == 0
    assert counts["SpaceMeter.add"] < 0.2 * m
    assert counts["Edge"] == 0
    assert 0 < counts["feed"] < 0.1 * m
    assert 0 < counts["ingest"] < 0.1 * m
