"""Command-line front door: every demonstration as one subcommand.

Each run parses flags into a RunConfig, dispatches to exactly one
module pipeline, and writes one report document (JSON by default, CSV
projection on request) to stdout or --output. Runs are reproducible:
the report embeds the full configuration and identical configurations
produce byte-identical reports.

Exit codes: 0 success, 2 validation/usage error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from . import bounds, gaps, hull, valleys
from .ilp import tsp_oracle
from .errors import BudgetExceededError, ValidationError
from .rationals import parse_rational
from .valleys import DEFAULT_ROUNDS

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: dict[str, Any]
    seed: Optional[int]
    output_format: str
    output_path: Optional[str]


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

    def relaxation_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--relaxation",
            choices=(gaps.DEGREE, gaps.DEGREE_WITH_CUTS, gaps.CUTTING_PLANE),
        )
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
    p.add_argument("--cut-valley", type=int, action="append")
    p.add_argument("--cut-cities", action="append")
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
        if not 0 <= v < inst.valley_count:
            raise ValidationError(f"valley index {v} out of range")
        subsets.append(inst.valley_cities(v))
    for listing in args.cut_cities:
        try:
            cities = tuple(sorted(int(t) for t in listing.split(",") if t.strip()))
        except ValueError:
            raise ValidationError(f"bad city list {listing!r}") from None
        subsets.append(cities)
    return subsets


def _relaxation(args, inst: valleys.TspInstance) -> gaps.RelaxationDesc:
    if args.relaxation == gaps.DEGREE:
        return gaps.degree_relaxation()
    if args.relaxation == gaps.DEGREE_WITH_CUTS:
        return gaps.cuts_relaxation(_cut_subsets(args, inst))
    return gaps.cutting_plane_relaxation(args.rounds)


def _instance(args) -> valleys.TspInstance:
    return valleys.gen_valley_instance(
        args.valleys, args.cities_per_valley, args.intra_cost, args.crossing_cost
    )


Table = Optional[tuple[list[str], list[list[Any]]]]


def _run_hull_adversary(args) -> tuple[Any, Table]:
    poly = hull.gen_arc(args.vertices)
    return hull.adversarial_objective(poly, args.omit), None


def _run_hull_scan(args) -> tuple[Any, Table]:
    poly = hull.gen_arc(args.vertices)
    report = hull.subset_gap_scan(
        poly, args.budget, sample_count=args.samples, seed=args.seed
    )
    header = [
        "subset_id", "omitted", "worst_facet", "objective",
        "true_max", "relaxed_max", "gap", "bounded",
    ]
    rows = [
        [
            r.subset_id,
            list(r.omitted),
            r.worst_facet,
            list(r.objective) if r.objective else None,
            r.true_max,
            r.relaxed_max,
            r.gap,
            r.bounded,
        ]
        for r in report.rows
    ]
    return report, (header, rows)


def _run_valley_gap(args) -> tuple[Any, Table]:
    inst = _instance(args)
    report = gaps.integrality_gap(
        inst, _relaxation(args, inst), thresholds=args.threshold
    )
    return report, None


def _run_cutting_plane(args) -> tuple[Any, Table]:
    inst = _instance(args)
    trace = valleys.cutting_plane_loop(inst, args.rounds)
    result = {
        "instance": gaps.instance_info(inst),
        "trace": trace,
        "oracle_cost": None,
    }
    try:
        result["oracle_cost"] = tsp_oracle(inst).cost
    except BudgetExceededError:
        pass  # the trace stands on its own beyond oracle reach
    header = ["round", "lp_value", "cut_added", "constraint_count"]
    rows = [
        [r.round_index, r.lp_value, list(r.cut_added) if r.cut_added else None,
         r.constraint_count]
        for r in trace.rounds
    ]
    return result, (header, rows)


def _run_decide(args) -> tuple[Any, Table]:
    inst = _instance(args)
    relaxation = _relaxation(args, inst)
    answer = gaps.decide_tour_at_most(inst, args.threshold, args.via, relaxation)
    result = {
        "instance": gaps.instance_info(inst),
        "threshold": args.threshold,
        "decision_form": gaps.DECISION_FORM,
        "via": args.via,
        "relaxation": relaxation if args.via == gaps.VIA_LP else None,
        "answer": "YES" if answer else "NO",
    }
    return result, None


def _run_check_flow(args) -> tuple[Any, Table]:
    inst = valleys.instance_from_text(Path(args.instance).read_text())
    arcs = valleys.flow_arcs_from_text(Path(args.flow).read_text())
    flow = valleys.flow_from_arcs(inst, arcs)
    report = valleys.check_flow_feasibility(inst, flow, _cut_subsets(args, inst))
    return {"flow_total_cost": flow.total_cost, "report": report}, None


def _run_space_bounds(args) -> tuple[Any, Table]:
    if args.mode == "single":
        if args.count is None:
            raise ValidationError("--count is required in single mode")
        return bounds.min_symbols_single(args.count), None
    if args.mode == "subset":
        if args.total is None or args.choose is None:
            raise ValidationError("--total and --choose are required in subset mode")
        return bounds.min_symbols_subset(args.total, args.choose), None
    table = bounds.subset_growth_table(args.n_from, args.n_to)
    doubling = all(b2 >= 2 * b1 for (_, b1), (_, b2) in zip(table, table[1:]))
    result = {
        "table": [{"n": n, "min_bits": b} for n, b in table],
        "bits_at_least_double_per_step": doubling,
    }
    return result, (["n", "min_bits"], [[n, b] for n, b in table])


def _run_model_demo(args) -> tuple[Any, Table]:
    return bounds.monotone_model_demo(args.start, args.end, args.step), None


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


# (flag, other flag, value, default): where a subcommand has the other
# flag, the flag is read only under that value and refused under any
# other, even at its default, so it parses to None when omitted and gets
# its default here. An omitted --relaxation is degree, which no entry needs.
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
    each omitted flag of the table with its default."""
    given = vars(args)
    for flag, other, value, _ in _READ_ONLY_UNDER:
        if given.get(flag) is not None and other in given and given[other] != value:
            name = flag.replace("_", "-")
            raise ValidationError(f"--{name} needs --{other} {value}")
    for flag, _, _, default in _READ_ONLY_UNDER:
        if flag in given and given[flag] is None:
            setattr(args, flag, default)


def _config_from_args(args) -> RunConfig:
    skip = {"subcommand", "format", "output"}
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip
    }
    # hull-scan's --samples and --seed parse to None when omitted, so
    # that an enumerating scan can refuse them; the config records them
    # at the scan's defaults
    for key, default in (("samples", hull.SAMPLE_COUNT), ("seed", hull.SEED)):
        if key in params and params[key] is None:
            params[key] = default
    seed = params.pop("seed", None)
    return RunConfig(
        subcommand=args.subcommand,
        params=params,
        seed=seed,
        output_format=args.format,
        output_path=args.output,
    )


def main(argv: Optional[list[str]] = None) -> int:
    from . import reports

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_flags(args)
        config = _config_from_args(args)
        result, table = _HANDLERS[args.subcommand](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    doc = reports.report_document(args.subcommand, config, result)
    rendered = (
        reports.render_json(doc)
        if args.format == "json"
        else reports.render_csv(doc, table)
    )
    if args.output:
        Path(args.output).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
