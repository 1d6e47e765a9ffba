"""The package's public names and the names the benchmark's tracer
wraps must all exist, so deleting a function cannot leave a stale export
or silently break ``perfbench/``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import lpgaps

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
