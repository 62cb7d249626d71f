"""Source hygiene: every name a module of the package imports is used, every
function and method it defines is named somewhere in it, the parsed color form stays at the modules that parse or re-export it, the
release gates stay defined in one module, the file readers build no
per-line Edge, and importing the command line loads no module a run does
not use."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wsecolor import primitives
from wsecolor.cli import CHECKS
from wsecolor.workload import ORDER_POLICIES

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wsecolor").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source that nothing references.  A name
    listed in __all__ counts as referenced; __future__ imports are skipped."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from json import dumps as write\n"
        "__all__ = ['write']\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: field"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and class methods that no source names.  A
    definition counts as named when any of the sources reads its name as a
    name or an attribute, or lists it in an __all__; dunders are exempt."""
    defined: list[tuple[str, str, str]] = []
    named: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (module, f"{node.name}.{fn.name}", fn.name)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                named.update(ast.literal_eval(node.value))
    return [
        f"{module}: {qualified}"
        for module, qualified, name in defined
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    ]


def test_dead_definitions_are_found():
    sources = {
        "a.py": (
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def helper(): pass\n"
            "def dead(): return helper()\n"
            "class Store:\n"
            "    def __len__(self): return 0\n"
            "    @property\n"
            "    def size(self): return 1\n"
            "    def unread(self): return self.size\n"
        ),
        "b.py": "from .a import Store\nx = Store().unread\ndef orphan():\n    pass\n",
    }
    assert dead_definitions(sources) == ["a.py: dead", "b.py: orphan"]


def test_no_dead_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert dead_definitions(sources) == []


# the engine passes colors as token strings; only these modules may name the
# parsed form or its codec
COLOR_CODEC = frozenset(("ColorId", "decode_color", "encode_color"))
CODEC_MODULES = frozenset(("model.py", "workload.py", "__init__.py"))


def codec_imports(source: str) -> list[str]:
    """The names of COLOR_CODEC that source imports."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in COLOR_CODEC
    ]


def test_codec_imports_are_found():
    source = (
        "from .model import Edge, decode_color\n"
        "def f():\n"
        "    from .model import ColorId as C\n"
    )
    assert codec_imports(source) == ["line 1: decode_color", "line 3: ColorId"]


ENGINE_SOURCES = [p for p in SOURCES if p.name not in CODEC_MODULES]


@pytest.mark.parametrize("path", ENGINE_SOURCES, ids=lambda p: p.name)
def test_engine_modules_do_not_import_the_color_codec(path):
    assert codec_imports(path.read_text(encoding="utf-8")) == []


def names_of(source: str, name: str) -> list[str]:
    """Where source names name: as a name, an attribute or an imported alias."""
    return [
        f"line {node.lineno}: {name}"
        for node in ast.walk(ast.parse(source))
        if name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    ]


def test_names_are_found():
    source = (
        "from .audit import SPACE_RATIO_LIMIT\n"
        "import wsecolor.audit as audit\n"
        "limit = audit.SPACE_RATIO_LIMIT\n"
    )
    assert names_of(source, "SPACE_RATIO_LIMIT") == ["line 1: SPACE_RATIO_LIMIT", "line 3: SPACE_RATIO_LIMIT"]


# each release gate is defined once, in audit.py, so only audit.py names its limits
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "audit.py"], ids=lambda p: p.name)
def test_only_audit_names_the_space_ratio_limit(path):
    assert names_of(path.read_text(encoding="utf-8"), "SPACE_RATIO_LIMIT") == []


def test_default_check_runs_visit_every_arrival_order():
    assert {target: runs for target, (runs, _, _) in CHECKS.items() if runs < len(ORDER_POLICIES)} == {}


# the readers yield plain int rows, and the engine takes them as they are
FILE_READERS = frozenset(("read_stream", "read_colored"))


def edge_names_in(source: str, functions: frozenset[str]) -> list[str]:
    """Where the named top-level functions of source, nested functions
    included, name Edge: a call, or Edge passed on as a value."""
    return [
        f"{fn.name} line {node.lineno}"
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef) and fn.name in functions
        for node in ast.walk(fn)
        if "Edge" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]


def test_edge_names_are_found():
    source = (
        "def read_stream(fh):\n"
        "    def body():\n"
        "        yield Edge(0, 1, 0)\n"
        "    return body()\n"
        "def read_colored(fh):\n"
        "    return map(model.Edge, fh)\n"
        "def order_stream(edges):\n"
        "    return [Edge(*e) for e in edges]\n"
    )
    assert edge_names_in(source, FILE_READERS) == ["read_stream line 3", "read_colored line 6"]


def test_file_readers_build_no_edges():
    workload = next(p for p in SOURCES if p.name == "workload.py")
    assert edge_names_in(workload.read_text(encoding="utf-8"), FILE_READERS) == []


# gen builds, orders and writes plain int rows too
GENERATOR = frozenset(("gen_multigraph", "order_stream", "write_stream"))


def test_generator_builds_no_edges():
    workload = next(p for p in SOURCES if p.name == "workload.py")
    assert edge_names_in(workload.read_text(encoding="utf-8"), GENERATOR) == []


# OpenSSL (which `import hashlib` loads) and statistics with decimal are
# megabytes of every color, verify and gen child's resident floor
# dataclasses pulls in inspect, with ast, dis and tokenize: about 1 MB more
UNUSED_AT_RUNTIME = ("_hashlib", "statistics", "decimal", "dataclasses", "inspect")


def test_cli_import_leaves_unused_modules_unloaded():
    probe = "import sys, wsecolor.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(primitives.__file__).resolve().parents[1])}
    # -S runs no site hooks, so only the package's own imports are counted
    command = [sys.executable, "-S", "-c", probe, *UNUSED_AT_RUNTIME]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_draws_hash_with_the_blake2b_hashlib_serves():
    # so taking blake2b from _blake2 moves no draw
    assert primitives.blake2b is hashlib.blake2b
