"""Command-line front door: every demonstration as one subcommand.

A run takes two steps. ``run`` parses flags and dispatches to exactly
one module pipeline, whose handler returns only its result;
``write_report`` renders that result's report document (JSON by
default, CSV projection on request) and writes it to stdout or
--output. The document records the run's configuration, a plain dict of
the parsed flags, so identical configurations produce byte-identical
reports. A CSV table is read off the document through _CSV_TABLES,
never built by a handler.

Exit codes: 0 success, 2 validation/usage error, 3 budget exhausted.
``main`` runs both steps and is the one place that maps an error to an
exit code.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from . import bounds, gaps, hull, valleys
from .errors import BudgetExceededError, ValidationError
from .rationals import parse_rational, require_int
from .valleys import DEFAULT_ROUNDS

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# built once per process, since building costs far more than a parse;
# no handler writes to a parsed value, so runs cannot leak state
# through a shared default (--threshold's [])
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpgaps",
        description=(
            "Exact LP/ILP experiments: adversarial objectives against "
            "truncated polytope models, valley TSP integrality gaps, "
            "cutting-plane traces, storage bounds, and the grid-model "
            "monotonicity demo."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="report path (default stdout)")

    p = sub.add_parser("hull-adversary", help="gap from omitting one facet")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--omit", type=int, required=True, help="facet index to omit")
    common(p)

    p = sub.add_parser("hull-scan", help="gaps over fixed-size kept-facet subsets")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--budget", type=int, required=True, help="facets the model keeps")
    # read only when the scan samples, which hull.subset_gap_scan decides
    p.add_argument("--samples", type=int,
                   help=f"subsets a sampled scan draws (default {hull.SAMPLE_COUNT})")
    p.add_argument("--seed", type=int,
                   help=f"seed of a sampled scan's draws (default {hull.SEED})")
    common(p)

    def instance_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--valleys", type=int, required=True)
        p.add_argument("--cities-per-valley", type=int, required=True)
        p.add_argument("--intra-cost", type=_rational_flag, default=Fraction(0))
        p.add_argument("--crossing-cost", type=_rational_flag, default=Fraction(1))

    def cut_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cut-valley",
            type=int,
            action="append",
            help="add the cut for this valley's cities (repeatable)",
        )
        p.add_argument(
            "--cut-cities",
            action="append",
            help="add the cut for this comma-separated city set (repeatable)",
        )

    def relaxation_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--relaxation", choices=gaps.RELAXATIONS)
        cut_flags(p)
        p.add_argument("--rounds", type=int)

    p = sub.add_parser("valley-gap", help="LP vs ILP gap report on a valley instance")
    instance_flags(p)
    relaxation_flags(p)
    p.add_argument(
        "--threshold",
        type=_rational_flag,
        action="append",
        default=[],
        help="record LP/ILP decision answers at this cost (repeatable)",
    )
    common(p)

    p = sub.add_parser("cutting-plane", help="cutting-plane loop trace")
    instance_flags(p)
    p.add_argument("--rounds", type=int)
    common(p)

    p = sub.add_parser("decide", help="is there a tour of cost at most X?")
    instance_flags(p)
    relaxation_flags(p)
    p.add_argument("--threshold", type=_rational_flag, required=True)
    p.add_argument("--via", choices=(gaps.VIA_LP, gaps.VIA_ILP), required=True)
    common(p)

    p = sub.add_parser("check-flow", help="validate a flow file against an instance")
    p.add_argument("--instance", required=True, help="lpgaps-instance file")
    p.add_argument("--flow", required=True, help="lpgaps-flow file")
    cut_flags(p)
    common(p)

    p = sub.add_parser("space-bounds", help="exact storage lower bounds")
    p.add_argument("--mode", choices=("single", "subset", "growth"), required=True)
    p.add_argument("--count", type=int, help="object count (single mode)")
    p.add_argument("--total", type=int, help="universe size (subset mode)")
    p.add_argument("--choose", type=int, help="subset size (subset mode)")
    p.add_argument("--n-from", type=int)
    p.add_argument("--n-to", type=int)
    common(p)

    p = sub.add_parser("model-demo", help="integer-grid monotonicity illusion")
    p.add_argument("--start", type=_rational_flag, default=Fraction(0))
    p.add_argument("--end", type=_rational_flag, default=Fraction(8))
    p.add_argument("--step", type=_rational_flag, default=Fraction(1))
    common(p)

    return parser


def _cut_subsets(args, inst: valleys.TspInstance) -> list[tuple[int, ...]]:
    subsets: list[tuple[int, ...]] = []
    for v in args.cut_valley:
        require_int(v, 0, inst.valley_count - 1, "valley index")
        subsets.append(inst.valley_cities(v))
    for listing in args.cut_cities:
        try:
            cities = tuple(int(t) for t in listing.split(","))
        except ValueError:
            raise ValidationError(f"bad city list {listing!r}") from None
        subsets.append(cities)
    return subsets


def _relaxation(args, inst: valleys.TspInstance) -> gaps.RelaxationDesc:
    # the cut flags are read only under degree+cuts, and --rounds only
    # under cutting-plane; elsewhere each is None
    cuts = _cut_subsets(args, inst) if args.relaxation == gaps.DEGREE_WITH_CUTS else ()
    return gaps.RelaxationDesc(args.relaxation, tuple(cuts), args.rounds or 0)


def _instance(args) -> valleys.TspInstance:
    return valleys.gen_valley_instance(
        args.valleys, args.cities_per_valley, args.intra_cost, args.crossing_cost
    )


def _run_hull_adversary(args) -> Any:
    poly = hull.gen_arc(args.vertices)
    return hull.adversarial_objective(poly, args.omit)


def _run_hull_scan(args) -> Any:
    poly = hull.gen_arc(args.vertices)
    report = hull.subset_gap_scan(
        poly, args.budget, sample_count=args.samples, seed=args.seed
    )
    # the config records what the scan drew, and nothing when it
    # enumerated, so an omitted flag reads as the value the scan used
    args.samples = None if report.enumerated else report.sample_count
    args.seed = report.seed
    return report


def _run_valley_gap(args) -> Any:
    inst = _instance(args)
    return gaps.integrality_gap(
        inst, _relaxation(args, inst), thresholds=args.threshold
    )


def _run_cutting_plane(args) -> Any:
    inst = _instance(args)
    trace = valleys.cutting_plane_loop(inst, args.rounds)
    try:
        oracle_cost = gaps.tour_optimum(inst, trace)
    except BudgetExceededError:
        oracle_cost = None  # the trace stands on its own beyond oracle reach
    return {"instance": inst.info, "trace": trace, "oracle_cost": oracle_cost}


def _run_decide(args) -> Any:
    inst = _instance(args)
    # the ilp route reads no relaxation, and its flags stay None
    relaxation = _relaxation(args, inst) if args.via == gaps.VIA_LP else None
    answer = gaps.decide_tour_at_most(inst, args.threshold, args.via, relaxation)
    return {
        "instance": inst.info,
        "threshold": args.threshold,
        "decision_form": gaps.DECISION_FORM,
        "via": args.via,
        "relaxation": relaxation,
        "answer": "YES" if answer else "NO",
    }


def _run_check_flow(args) -> Any:
    inst = valleys.instance_from_text(Path(args.instance).read_text())
    arcs = valleys.flow_arcs_from_text(Path(args.flow).read_text())
    return valleys.check_flow_feasibility(inst, arcs, _cut_subsets(args, inst))


def _run_space_bounds(args) -> Any:
    if args.mode == "single":
        if args.count is None:
            raise ValidationError("--count is required in single mode")
        return bounds.min_symbols_single(args.count)
    if args.mode == "subset":
        if args.total is None or args.choose is None:
            raise ValidationError("--total and --choose are required in subset mode")
        return bounds.min_symbols_subset(args.total, args.choose)
    table = bounds.subset_growth_table(args.n_from, args.n_to)
    doubling = all(b2 >= 2 * b1 for (_, b1), (_, b2) in zip(table, table[1:]))
    return {
        "table": [{"n": n, "min_bits": b} for n, b in table],
        "bits_at_least_double_per_step": doubling,
    }


def _run_model_demo(args) -> Any:
    return bounds.monotone_model_demo(args.start, args.end, args.step)


_HANDLERS = {
    "hull-adversary": _run_hull_adversary,
    "hull-scan": _run_hull_scan,
    "valley-gap": _run_valley_gap,
    "cutting-plane": _run_cutting_plane,
    "decide": _run_decide,
    "check-flow": _run_check_flow,
    "space-bounds": _run_space_bounds,
    "model-demo": _run_model_demo,
}

# the CSV table of each subcommand whose result holds one: the keys
# that lead from the report's result to its rows, and each column's
# header and row key
_CSV_TABLES = {
    "hull-scan": (("rows",), (
        ("subset_id", "subset_id"), ("omitted", "omitted"),
        ("worst_facet", "worst_facet"), ("objective", "objective"),
        ("true_max", "true_max"), ("relaxed_max", "relaxed_max"),
        ("gap", "gap"), ("bounded", "bounded"),
    )),
    "cutting-plane": (("trace", "rounds"), (
        ("round", "round_index"), ("lp_value", "lp_value"),
        ("cut_added", "cut_added"), ("constraint_count", "constraint_count"),
    )),
    "space-bounds": (("table",), (("n", "n"), ("min_bits", "min_bits"))),
}


# (flag, other flag, value, default): where a subcommand has the other
# flag, the flag is read only under that value and refused under any
# other, even at its default, so it parses to None when omitted and gets
# its default here only where it is read. An omitted --relaxation is
# degree, which no entry needs, so it may take its default after the
# entries that read it.
_READ_ONLY_UNDER = (
    ("rounds", "relaxation", gaps.CUTTING_PLANE, DEFAULT_ROUNDS),
    ("cut_valley", "relaxation", gaps.DEGREE_WITH_CUTS, ()),
    ("cut_cities", "relaxation", gaps.DEGREE_WITH_CUTS, ()),
    ("relaxation", "via", gaps.VIA_LP, gaps.DEGREE),
    ("count", "mode", "single", None),
    ("total", "mode", "subset", None),
    ("choose", "mode", "subset", None),
    ("n_from", "mode", "growth", bounds.DEFAULT_N_FROM),
    ("n_to", "mode", "growth", bounds.DEFAULT_N_TO),
)


def _resolve_flags(args) -> None:
    """Refuse every given flag that this run would not read, then fill
    each omitted flag of the table that the run reads with its default;
    a flag the run does not read stays None, so the report records it
    as null."""
    given = vars(args)
    for flag, other, value, _ in _READ_ONLY_UNDER:
        if given.get(flag) is not None and other in given and given[other] != value:
            name = flag.replace("_", "-")
            raise ValidationError(f"--{name} needs --{other} {value}")
    for flag, other, value, default in _READ_ONLY_UNDER:
        if flag in given and given[flag] is None and given.get(other, value) == value:
            setattr(args, flag, default)


def _check_output(path: str) -> None:
    """Refuse, before the run, an --output that names a directory (an
    empty one names the working directory) or whose parent directory
    does not exist: the report could not be written there."""
    target = Path(path)
    if target.is_dir():
        raise ValidationError(f"--output {path} is a directory")
    if not target.parent.is_dir():
        raise ValidationError(f"--output {path}: no directory {target.parent}")


def _config_from_args(args) -> dict[str, Any]:
    """The run's configuration as the report records it."""
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("subcommand", "format", "output")
    }
    seed = params.pop("seed", None)
    return {
        "subcommand": args.subcommand,
        "params": params,
        "seed": seed,
        "output_format": args.format,
        "output_path": args.output,
    }


def run(argv: Optional[list[str]] = None) -> tuple[argparse.Namespace, Any]:
    """Parse argv, refuse what the run would not read or could not
    write, and run the subcommand's handler; return the parsed flags and
    the handler's result."""
    args = build_parser().parse_args(argv)
    _resolve_flags(args)
    if args.output is not None:
        _check_output(args.output)
    return args, _HANDLERS[args.subcommand](args)


def write_report(args: argparse.Namespace, result: Any) -> None:
    """Render the report document of a run's result in args.format and
    write it to args.output, or to stdout when that is None."""
    from . import reports

    # after the run: a hull scan records the draws it made
    doc = reports.report_document(args.subcommand, _config_from_args(args), result)
    if args.format == "json":
        rendered = reports.render_json(doc)
    else:
        rendered = reports.render_csv(doc, _CSV_TABLES.get(args.subcommand))
    if args.output is not None:
        # a write can still fail after the check, say on a full disk
        reports.write_text(args.output, rendered)
    else:
        sys.stdout.write(rendered)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        write_report(*run(argv))
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
