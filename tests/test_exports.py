"""The package's public names and the names the benchmark's tracer
wraps must all exist, so deleting a function cannot leave a stale export
or silently break ``perfbench/``; no module keeps an import or a
private helper that nothing uses once its caller is gone; and no public
function or class is kept for the tests alone."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import lpgaps

REPO_DIR = Path(__file__).resolve().parents[1]
SPANS_PATH = REPO_DIR / "perfbench" / "spans.py"
PACKAGE_DIR = Path(lpgaps.__file__).resolve().parent

# public names the tests alone may use, each with its reason
TEST_ONLY_PUBLIC = {
    # the exact-gap instance search (ROADMAP open item 4) is its caller
    "instance_from_cost_matrix",
}


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


def public_definitions(source: str) -> list[str]:
    """Module-level public functions and classes of one module."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def test_public_names_have_a_caller_outside_the_tests():
    """Each public function or class is named somewhere other than the
    tests, the package's export list and its own definition: elsewhere
    in the package, in scripts/, in perfbench/ or in the README."""
    elsewhere = [
        path.read_text()
        for path in [
            *(REPO_DIR / "scripts").glob("*.py"),
            *(REPO_DIR / "perfbench").glob("*.py"),
            REPO_DIR / "README.md",
        ]
    ]
    modules = {
        path: path.read_text()
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
    }
    unused = []
    for path, source in modules.items():
        for name in public_definitions(source):
            word = re.compile(rf"\b{name}\b")
            own = re.sub(rf"\b(def|class) {name}\b", "", source)
            texts = [own, *elsewhere, *(
                text for other, text in modules.items() if other != path
            )]
            if not any(word.search(text) for text in texts):
                unused.append(name)
    assert set(unused) == TEST_ONLY_PUBLIC
