"""Golden-output lock: byte-identical colored lines, metrics and traces.

Each cell colors one generated stream twice, with run_stream (trace
attached) and with run_baseline, and hashes what a CLI run would write: the
colored lines, the metrics JSON without wall_ms, and the JSONL trace.  The
digests (sha256, first 16 hex digits) were frozen from the code before the
engine stack was collapsed.  A change that moves a random draw, a color
token or a metric must update them on purpose and say why.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from wsecolor import (
    TraceRecorder,
    gen_multigraph,
    order_stream,
    resolve_config,
    run_baseline,
    run_stream,
)
from wsecolor.workload import ORDER_POLICIES, colored_line


def _cells() -> dict[str, tuple[int, int, int, str, dict]]:
    cells = {}
    for n in (64, 256):
        for delta in (16, 256):
            for order in ORDER_POLICIES:
                cells[f"n{n}-d{delta}-{order}"] = (n, delta, n * delta // 4, order, {})
    cells["unknown-delta"] = (64, 256, 4096, "vertex-sorted", {"delta_mode": "unknown"})
    cells["max-depth-0"] = (64, 256, 4096, "degree-burst", {"max_depth": 0})
    cells["max-depth-1"] = (64, 256, 4096, "degree-burst", {"max_depth": 1})
    cells["base-case-20"] = (64, 16, 20, "arrival-random", {})
    return cells


CELLS = _cells()

# cell -> (stream colored, stream metrics, stream trace, baseline colored, baseline metrics)
GOLDEN = {
    "base-case-20": ("c5cc92b739bfccef", "27a742bba127e443", "e3b0c44298fc1c14", "a055380ec0d8be3f", "072995570e3cd165"),
    "max-depth-0": ("16b84cd2d945c59a", "332c5af2f407307d", "e3b0c44298fc1c14", "16b84cd2d945c59a", "5bd3c4ff9239e842"),
    "max-depth-1": ("24f47def44f403dd", "3a89eebbe5d4d11f", "e35ed851712c3f75", "16b84cd2d945c59a", "1224fad73aa8d135"),
    "n256-d16-arrival-random": ("c9445a6d1f75d79a", "ad52f46c73a74be9", "1ca19537ef583571", "42ef215aac55983d", "7679da498937ea4c"),
    "n256-d16-degree-burst": ("d4f71f4222e31ba8", "903bb3694c20d003", "4415658ce1d600ad", "2248c7415e8a99ec", "7e65927f50761993"),
    "n256-d16-vertex-sorted": ("4f4f55b72c881388", "fad12df0d608d79d", "7da677290b334468", "760fe1ed93d1fd1a", "918eec0e99658953"),
    "n256-d256-arrival-random": ("b345a0bfb639f36d", "2ab699a7712ab840", "e7695ba30bba3da9", "3f5fcc8f362b7b00", "25fb5ba8ea56016d"),
    "n256-d256-degree-burst": ("2e41ce2b7974f8ff", "f989d7213309981d", "581413f999e08ba5", "cc732c094c2620ea", "5775c3af95de3f37"),
    "n256-d256-vertex-sorted": ("e2488fcf210146ea", "cc22b44965f0f2a0", "112ee08d4ee21e94", "5e910fa655c405a7", "91099fde7e4b9eb0"),
    "n64-d16-arrival-random": ("7dbea14d260521eb", "6a446f54847e4465", "d72270966682663e", "0895b0469089c4f0", "6f43de1f8b6888b6"),
    "n64-d16-degree-burst": ("15287167fb4f38e1", "d645fbb92e04c313", "d1d06b4fb03a8850", "1486d43f7728c9b4", "64381cdbc15982bb"),
    "n64-d16-vertex-sorted": ("20b9d1bfad71b50a", "918059ab86584f40", "f0fd6db538e209a9", "65b8676d73bfb613", "948c8c4d11b2674a"),
    "n64-d256-arrival-random": ("469c53a08f1827e0", "099beb0c6ab12df8", "9603fc968b314748", "709234245f6897e8", "7db969d4f765dec1"),
    "n64-d256-degree-burst": ("24f47def44f403dd", "ec2f3076a6273b07", "16ac427c2b2161cb", "16b84cd2d945c59a", "94a8bc95f48ad8c0"),
    "n64-d256-vertex-sorted": ("8dfea86783ead105", "79b68698bd0412c2", "7e5d66e067c89c90", "a5cceef42b42fe57", "6897b6b9bb4f92e4"),
    "unknown-delta": ("cb3d291364c08c35", "01ea44c50edc92e3", "c5afbf634bad0398", "a5cceef42b42fe57", "8a7afaf62cd1b08c"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _run_digests(emissions, metrics) -> tuple[str, str]:
    colored = "".join(colored_line(e, c) for e, c in emissions)
    doc = metrics.to_dict()
    del doc["wall_ms"]
    return _digest(colored), _digest(json.dumps(doc, indent=2))


def cell_digests(name: str) -> tuple[str, ...]:
    n, delta, m, order, overrides = CELLS[name]
    edges = order_stream(gen_multigraph(n, delta, m, seed=1), order, seed=2)
    config = resolve_config(n=n, delta=delta, seed=1, m=m, **overrides)
    trace = TraceRecorder()
    stream = _run_digests(*run_stream(config, edges, trace=trace))
    buf = io.StringIO()
    trace.dump(buf)
    baseline = _run_digests(*run_baseline(config, edges))
    return (*stream, _digest(buf.getvalue()), *baseline)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_digests(name):
    assert cell_digests(name) == GOLDEN[name]
