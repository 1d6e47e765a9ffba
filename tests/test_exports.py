"""The package's public names and the names the benchmark's tracer
wraps must all exist, so deleting a function cannot leave a stale export
or silently break ``perfbench/``; no module keeps an import or a
private helper that nothing uses once its caller is gone; and no public
function, class, property or method is kept for the tests alone."""

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_names(source: str) -> list[str]:
    """Imported names that are never read, module-level private
    functions, classes and constants that are never referenced, and
    private methods that no ``._name`` attribute refers to, in one
    module."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    read = {
        node.id for node in nodes
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unused = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"import {name}")
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and _private(node.name) and node.name not in read):
            unused.append(f"def {node.name}")
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            unused.extend(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name) and _private(name.id)
                and name.id not in read
            )
        if isinstance(node, ast.ClassDef):
            unused.extend(
                f"def {node.name}.{method.name}" for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _private(method.name) and method.name not in attributes
            )
    return unused


def test_unused_names_finds_a_stale_import_and_helper():
    source = (
        "from .errors import ValidationError\n"
        "_TABLE = (1, 2)\n"
        "_LIMIT: int = 3\n"
        "def _helper():\n    pass\n"
        "class Kept:\n"
        "    def __init__(self):\n        self._used()\n"
        "    def _used(self):\n        return _LIMIT\n"
        "    def _stale(self):\n        pass\n"
    )
    assert unused_names(source) == [
        "import ValidationError", "_TABLE", "def _helper", "def Kept._stale"
    ]


def test_modules_use_what_they_import_and_define():
    paths = [
        *(path for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"),
        *(REPO_DIR / "scripts").glob("*.py"),
        *(REPO_DIR / "tests").glob("*.py"),
    ]
    stale = {
        str(path.relative_to(path.parents[1])): names
        for path in sorted(paths)
        if (names := unused_names(path.read_text()))
    }
    assert stale == {}


def public_definitions(source: str) -> list[str]:
    """Module-level public functions and classes of one module, then the
    public properties and methods of those classes, as Class.member."""
    public = [
        node for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    return [node.name for node in public] + [
        f"{node.name}.{member.name}"
        for node in public if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
    ]


def test_public_definitions_list_class_members():
    source = (
        "def run():\n    pass\n"
        "class Report:\n"
        "    rows: tuple = ()\n"
        "    @property\n    def complete(self):\n        return True\n"
        "    def render(self):\n        pass\n"
        "    def _cached(self):\n        pass\n"
        "class _Hidden:\n"
        "    def shown(self):\n        pass\n"
    )
    assert public_definitions(source) == [
        "run", "Report", "Report.complete", "Report.render"
    ]


def without_definitions(source: str, names: set[str]) -> str:
    """The source with each named public definition, as
    public_definitions names it, blanked out with its decorators."""
    lines = source.splitlines(keepends=True)
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        members = [] if isinstance(node, ast.FunctionDef) else [
            (f"{node.name}.{member.name}", member) for member in node.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for name, definition in [(node.name, node), *members]:
            if name in names:
                first = min(d.lineno for d in [definition, *definition.decorator_list])
                lines[first - 1:definition.end_lineno] = (
                    ["\n"] * (definition.end_lineno - first + 1)
                )
    return "".join(lines)


def uncalled_names(modules: dict[str, str], elsewhere: list[str]) -> set[str]:
    """The public definitions of the modules that nothing outside the
    tests names: a module-level name as a word, a member as ``.member``,
    in the texts of elsewhere, of the other modules or of its own module
    less its definition. A read inside a definition found uncalled is
    no caller, so the search runs again without those definitions until
    it finds no more."""
    uncalled: dict[str, set[str]] = {path: set() for path in modules}
    while True:
        texts = {
            path: without_definitions(source, uncalled[path])
            for path, source in modules.items()
        }
        found = {path: set() for path in modules}
        for path, source in modules.items():
            for name in public_definitions(source):
                member = name.rpartition(".")[2]
                word = re.compile(rf"\.{member}\b" if member != name else rf"\b{name}\b")
                own = re.sub(rf"\b(def|class) {member}\b", "", texts[path])
                callers = [own, *elsewhere, *(
                    text for other, text in texts.items() if other != path
                )]
                if not any(word.search(text) for text in callers):
                    found[path].add(name)
        if found == uncalled:
            return set().union(*uncalled.values())
        uncalled = found


def test_uncalled_names_follow_a_chain_of_uncalled_members():
    modules = {
        "report": (
            "class Row:\n"
            "    @property\n    def positive(self):\n        return True\n"
            "class Report:\n"
            "    def all_positive(self):\n"
            "        return all(row.positive for row in self.rows)\n"
            "    def render(self):\n        return str(self.rows)\n"
        ),
        "cli": "def main(report):\n    return report.render()\n",
    }
    assert uncalled_names(modules, ["main(Row(), Report())"]) == {
        "Report.all_positive", "Row.positive"
    }


def test_public_names_have_a_caller_outside_the_tests():
    """Each public function or class is named somewhere other than the
    tests, the package's export list and its own definition: elsewhere
    in the package, in scripts/, in perfbench/ or in the README. Each
    public property or method of a public class is read as an attribute,
    ``.name``, somewhere other than the tests and its own definition. A
    read inside a definition that has no such caller does not count."""
    elsewhere = [
        path.read_text()
        for path in [
            *(REPO_DIR / "scripts").glob("*.py"),
            *(REPO_DIR / "perfbench").glob("*.py"),
            REPO_DIR / "README.md",
        ]
    ]
    modules = {
        str(path): path.read_text()
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert uncalled_names(modules, elsewhere) == TEST_ONLY_PUBLIC
