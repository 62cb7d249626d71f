"""Golden-output lock: byte-identical colored lines, metrics and traces.

Each cell colors one generated stream twice, with run_stream (trace
attached) and with run_baseline, and hashes what a CLI run would write: the
colored lines, the metrics JSON without wall_ms, and the JSONL trace.  The
digests (sha256, first 16 hex digits) were frozen from the code before the
engine stack was collapsed.  A change that moves a random draw, a color
token or a metric must update them on purpose and say why.

The two metrics columns were regenerated when RunConfig shrank to the
values a run chooses: the metrics `config` block gained declared_delta and
lost phase_len, sigma_seed and offset_seed.  Every other metric, and every
colored and trace digest, stayed as it was.

The baseline metrics column was regenerated when the baseline became the
depth-0 colorer under the declared bound (baseline_config): its metrics now
report max_depth 0, delta_mode "known" and every interval as a
fallback_interval, so in max-depth-0 both baseline digests equal the stream
digests.  The four other columns stayed as they were.
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
    "base-case-20": ("c5cc92b739bfccef", "bbfb10f650c9e780", "e3b0c44298fc1c14", "a055380ec0d8be3f", "b6982c56cbac85be"),
    "max-depth-0": ("16b84cd2d945c59a", "9bf3d651a6bc5b58", "e3b0c44298fc1c14", "16b84cd2d945c59a", "9bf3d651a6bc5b58"),
    "max-depth-1": ("24f47def44f403dd", "58259a98ec56f9f3", "e35ed851712c3f75", "16b84cd2d945c59a", "9bf3d651a6bc5b58"),
    "n256-d16-arrival-random": ("c9445a6d1f75d79a", "8e06267609b1b68f", "1ca19537ef583571", "42ef215aac55983d", "44778acb2623aff6"),
    "n256-d16-degree-burst": ("d4f71f4222e31ba8", "71b21c82e93f8ee8", "4415658ce1d600ad", "2248c7415e8a99ec", "f27b02b39f581a44"),
    "n256-d16-vertex-sorted": ("4f4f55b72c881388", "92f98740587f1708", "7da677290b334468", "760fe1ed93d1fd1a", "0cc4291f4f8d6f42"),
    "n256-d256-arrival-random": ("b345a0bfb639f36d", "8592f1d8d98d80b1", "e7695ba30bba3da9", "3f5fcc8f362b7b00", "eb9f29e4952239e9"),
    "n256-d256-degree-burst": ("2e41ce2b7974f8ff", "9528460739c02805", "581413f999e08ba5", "cc732c094c2620ea", "d8a7a422ee4ff069"),
    "n256-d256-vertex-sorted": ("e2488fcf210146ea", "d5a1835f9fdc7519", "112ee08d4ee21e94", "5e910fa655c405a7", "4820c6dab16b6814"),
    "n64-d16-arrival-random": ("7dbea14d260521eb", "96681a4c8cc6feb2", "d72270966682663e", "0895b0469089c4f0", "1909f58073ec3f13"),
    "n64-d16-degree-burst": ("15287167fb4f38e1", "e44efc06a2d444bd", "d1d06b4fb03a8850", "1486d43f7728c9b4", "e5ee444abbe12ff5"),
    "n64-d16-vertex-sorted": ("20b9d1bfad71b50a", "ecc999dd6bb84979", "f0fd6db538e209a9", "65b8676d73bfb613", "fee1ce9d87d2b972"),
    "n64-d256-arrival-random": ("469c53a08f1827e0", "8145614ef7dacc3f", "9603fc968b314748", "709234245f6897e8", "3c9b53c4457a2daf"),
    "n64-d256-degree-burst": ("24f47def44f403dd", "8c341cf898f7017d", "16ac427c2b2161cb", "16b84cd2d945c59a", "9bf3d651a6bc5b58"),
    "n64-d256-vertex-sorted": ("8dfea86783ead105", "7479402b9f6e4a14", "7e5d66e067c89c90", "a5cceef42b42fe57", "3d552b8e747cfc38"),
    "unknown-delta": ("cb3d291364c08c35", "b28ba7fde39941e0", "c5afbf634bad0398", "a5cceef42b42fe57", "3d552b8e747cfc38"),
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
