"""scripts/code_lines.py counts the lines that hold code, leaving out
docstrings, comments and blank lines."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


class Box:
    """Class docstring."""

    # a comment line
    text = """a string on three lines
that is not a docstring,
so each of its lines counts"""

    def path(self):
        """Function
        docstring."""
        return os.sep
'''


def test_snippet_counts_its_code_lines():
    # import, class, the three string lines, def and return
    assert code_lines.code_lines(SNIPPET) == 7


def test_script_prints_a_count_per_file_and_a_total(tmp_path):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SNIPPET)
    second.write_text("x = 1\n\n# y = 2\n")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(first), str(second)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert [line.split()[0] for line in done.stdout.splitlines()] == ["7", "1", "8"]
