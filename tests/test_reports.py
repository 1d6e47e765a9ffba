"""A CSV report is a projection of the JSON report of the same run: a
table's cells, its comment lines and a flat report's rows are the JSON
document's values, each written as one CSV cell."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from lpgaps import cli
from lpgaps.reports import _csv_cell, flatten, render_csv, report_document, to_jsonable

ROOT = Path(__file__).resolve().parents[1]

# each run whose CSV is a table: the keys that lead from the JSON
# result to the rows, and the headers that name another row key
TABLE_RUNS = [
    (["hull-scan", "--vertices", "8", "--budget", "6"], ("rows",), {}),
    (["hull-scan", "--vertices", "64", "--budget", "32", "--samples", "20",
      "--seed", "3"], ("rows",), {}),
    (["cutting-plane", "--valleys", "4", "--cities-per-valley", "2"],
     ("trace", "rounds"), {"round": "round_index"}),
    (["cutting-plane", "--valleys", "6", "--cities-per-valley", "2"],
     ("trace", "rounds"), {"round": "round_index"}),
    (["cutting-plane", "--valleys", "3", "--cities-per-valley", "3",
      "--intra-cost", "1/7", "--crossing-cost", "5/3"],
     ("trace", "rounds"), {"round": "round_index"}),
    (["space-bounds", "--mode", "growth"], ("table",), {}),
]


def json_and_csv(tmp_path, argv):
    """The JSON document of a run, with its config as the CSV run of the
    same flags records it, and the CSV report's text."""
    json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    assert cli.main([*argv, "--output", str(json_path)]) == 0
    assert cli.main([*argv, "--format", "csv", "--output", str(csv_path)]) == 0
    doc = json.loads(json_path.read_text())
    doc["config"]["output_format"] = "csv"
    doc["config"]["output_path"] = str(csv_path)
    return doc, csv_path.read_text()


@pytest.mark.parametrize("argv, path, renamed", TABLE_RUNS)
def test_csv_table_cells_are_the_json_values(tmp_path, argv, path, renamed):
    doc, text = json_and_csv(tmp_path, argv)
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert comments == [
        f"# schema={doc['schema']}",
        f"# subcommand={doc['subcommand']}",
        *(f"# {key}={value}" for key, value in flatten(doc["config"], "config")),
    ]
    header, *cells = csv.reader(ln for ln in text.splitlines() if not ln.startswith("#"))
    rows = doc["result"]
    for key in path:
        rows = rows[key]
    assert len(cells) == len(rows) > 0
    keys = [renamed.get(name, name) for name in header]
    for row, line in zip(rows, cells):
        assert line == [_csv_cell(row[key]) for key in keys]


@pytest.mark.parametrize("argv", [
    ["space-bounds", "--mode", "single", "--count", "3628800"],
    ["space-bounds", "--mode", "subset", "--total", "10", "--choose", "3"],
])
def test_csv_without_a_table_is_the_flat_json_document(tmp_path, argv):
    doc, text = json_and_csv(tmp_path, argv)
    header, *rows = csv.reader(text.splitlines())
    assert header == ["key", "value"]
    assert [tuple(row) for row in rows] == flatten(doc)


def test_demos_table_exactly_the_runs_whose_csv_is_a_table():
    # each demo runs once; its CSV projection is rendered, not written
    spec = importlib.util.spec_from_file_location(
        "run_all_demos", ROOT / "scripts" / "run_all_demos.py"
    )
    demos = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demos)
    tabled = set()
    for name, argv in demos.DEMOS:
        args, result = cli.run(argv)
        doc = report_document(args.subcommand, cli._config_from_args(args), result)
        if render_csv(doc, cli._CSV_TABLES.get(args.subcommand)).startswith("# schema="):
            tabled.add(name)
    assert tabled == demos.TABLED


def test_a_float_has_no_report_encoding():
    # every reported number is exact, so a float never reaches a report
    with pytest.raises(TypeError, match="no report encoding for <class 'float'>"):
        to_jsonable(1.5)
