"""The benchmark's layer-timing run wraps engine functions by name and fails
when a name it expects calls on is gone, or when the wrappers change the
output.  This checks those names without running it, then runs one layer
pass per workload, so a refactor that drops one fails here first."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import wsecolor

BENCH = Path(__file__).resolve().parents[1] / "wsebench"
# the source tree of the wsecolor these tests import, which the layer pass
# must run
SRC = Path(wsecolor.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def layers():
    """wsebench/layers.py, imported without writing bytecode next to it."""
    sys.path.insert(0, str(BENCH))
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("layers")
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
        sys.modules.pop("layers", None)
        sys.modules.pop("workloads", None)


def test_expected_layer_names_resolve(layers):
    assert layers.EXPECT_CALLS
    for key in layers.EXPECT_CALLS:
        short, *qual = key.split(".")
        mod = importlib.import_module(f"wsecolor.{short}")
        if len(qual) == 1:
            (name,) = qual
            assert name in mod.__all__, f"{key}: not in {mod.__name__}.__all__"
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, (
                f"{key}: not a function defined in {mod.__name__}"
            )
        else:
            cls_name, meth = qual
            assert meth in vars(getattr(mod, cls_name)), f"{key}: not defined on {cls_name}"


@pytest.mark.parametrize("name", ["uniform", "adversarial", "burst-traced"])
def test_one_layer_pass_per_workload(layers, name, tmp_path):
    # run_layers puts SRC on sys.path to import the CLI from it
    path = list(sys.path)
    try:
        result = layers.run_layers(importlib.import_module("workloads").WORKLOADS[name], 1, 0.0, tmp_path, SRC)
    finally:
        sys.path[:] = path
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
