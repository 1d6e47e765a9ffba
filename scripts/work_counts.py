#!/usr/bin/env python3
"""Count the simplex work of one benchmark pass: LP solves, basis
changes, bound flips and row eliminations.

Runs the op list that perfbench/workloads.py makes for one workload and
seed through ``lpgaps.cli.main`` in this process, the lpgaps of this
checkout's src/, each report written to a temporary directory, and
prints the four counts as one JSON object. The counts are exact and
repeat from run to run, so they compare two revisions where wall time
cannot. A basis change is one ``_Tableau._replace``, a bound flip one
``_Tableau._flip`` and an elimination one row cleared by
``lp._eliminate``, a basis change's rows and a reduced row's alike.
Nothing under perfbench/ is written, its bytecode cache included.

Usage:
    python3 scripts/work_counts.py --workload hull-scan --seed 1
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("lp_solves", "basis_changes", "bound_flips", "row_eliminations")


def _on_path(directory: Path) -> None:
    if str(directory) not in sys.path:
        sys.path.insert(0, str(directory))


def _workloads():
    """perfbench/workloads.py, imported without writing its bytecode."""
    _on_path(ROOT / "perfbench")
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = writes
    return workloads


def work_counts(workload: str, seed: int) -> dict[str, int]:
    """The four counts of one pass of workload at seed. Every op must
    exit 0; a failing op raises SystemExit."""
    workloads = _workloads()
    _on_path(ROOT / "src")
    import lpgaps.cli
    from lpgaps import lp

    counts = dict.fromkeys(COUNTS, 0)
    solve, replace, flip, eliminate = (
        lp.solve_lp, lp._Tableau._replace, lp._Tableau._flip, lp._eliminate)

    def counting_solve(*args, **kwargs):
        counts["lp_solves"] += 1
        return solve(*args, **kwargs)

    def counting_replace(self, *args):
        counts["basis_changes"] += 1
        return replace(self, *args)

    def counting_flip(self, *args):
        counts["bound_flips"] += 1
        return flip(self, *args)

    def counting_eliminate(rows, *args):
        rows = list(rows)
        counts["row_eliminations"] += len(rows)
        return eliminate(rows, *args)

    # each module binds solve_lp by name, so every binding is replaced
    modules = [m for name, m in sys.modules.items()
               if name.startswith("lpgaps") and getattr(m, "solve_lp", None) is solve]
    patches = [(m, "solve_lp", counting_solve) for m in modules] + [
        (lp._Tableau, "_replace", counting_replace),
        (lp._Tableau, "_flip", counting_flip),
        (lp, "_eliminate", counting_eliminate),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        with tempfile.TemporaryDirectory() as tmp:
            for index, op in enumerate(workloads.make_ops(workload, seed)):
                argv = [*op.argv(), "--output", str(Path(tmp) / f"op{index}.json")]
                code = lpgaps.cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}")
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(_workloads().WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    counts = work_counts(args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **counts}))


if __name__ == "__main__":
    main()
