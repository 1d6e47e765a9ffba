"""The package's public names and the names the benchmark's tracer
wraps must all exist, so deleting a function cannot leave a stale export
or silently break ``perfbench/``; and no module keeps an import or a
private helper that nothing uses once its caller is gone."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import lpgaps

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE_DIR = Path(lpgaps.__file__).resolve().parent


def load_spans(monkeypatch):
    """perfbench/spans.py uses only the standard library; load it from
    its path, registered for the test only, without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_all_is_unique_and_resolves():
    assert len(lpgaps.__all__) == len(set(lpgaps.__all__))
    missing = [name for name in lpgaps.__all__ if not hasattr(lpgaps, name)]
    assert missing == []


def test_benchmark_targets_exist(monkeypatch):
    targets = load_spans(monkeypatch).TARGETS
    assert targets
    missing = [
        (module, function)
        for module, function, _ in targets
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []
    assert isinstance(importlib.import_module("lpgaps.ilp").EXHAUSTIVE_CITY_LIMIT, int)


def unused_names(source: str) -> list[str]:
    """Imported names that are never read, and module-level private
    functions and classes that are never referenced, in one module."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"import {name}")
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and node.name not in read):
            unused.append(f"def {node.name}")
    return unused


def test_unused_names_finds_a_stale_import_and_helper():
    source = "from .errors import ValidationError\ndef _helper():\n    pass\n"
    assert unused_names(source) == ["import ValidationError", "def _helper"]


def test_modules_use_what_they_import_and_define():
    stale = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
        and (names := unused_names(path.read_text()))
    }
    assert stale == {}
