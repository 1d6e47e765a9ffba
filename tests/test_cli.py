import contextlib
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import valley_internal_cycles_flow
from lpgaps import cli, hull, valleys
from lpgaps.rationals import parse_rational
from lpgaps.valleys import flow_arcs_to_text, gen_valley_instance, instance_to_text


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--output", str(out)])
    return code, out


def test_hull_adversary_worked_case(tmp_path):
    code, out = run_cli(
        tmp_path, "hull-adversary", "--vertices", "4", "--omit", "1"
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "lpgaps-report/1"
    assert doc["result"]["gap"] == "1"
    assert doc["result"]["true_max"] == "2"
    assert doc["result"]["relaxed_max"] == "3"
    assert doc["result"]["witness"] == ["3/2", "21/2"]
    assert doc["config"]["params"]["vertices"] == 4


def test_valley_gap_fast_instance(tmp_path):
    code, out = run_cli(
        tmp_path,
        "valley-gap", "--valleys", "4", "--cities-per-valley", "2",
        "--relaxation", "degree", "--threshold", "3",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["lp_value"] == "0"
    assert doc["result"]["ilp_value"] == "4"
    answer = doc["result"]["decision_answers"][0]
    assert answer["lp_answer"] is True and answer["ilp_answer"] is False


def test_valley_gap_headline_instance(tmp_path):
    code, out = run_cli(
        tmp_path,
        "valley-gap", "--valleys", "10", "--cities-per-valley", "2",
        "--relaxation", "degree",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["lp_value"] == "0"
    assert doc["result"]["ilp_value"] == "10"
    assert doc["result"]["gap"] == "10"


def test_space_bounds_single(tmp_path):
    code, out = run_cli(
        tmp_path, "space-bounds", "--mode", "single", "--count", "1"
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["min_bits"] == 0


def test_space_bounds_growth_csv(tmp_path):
    out = tmp_path / "growth.csv"
    code = cli.main([
        "space-bounds", "--mode", "growth", "--n-from", "4", "--n-to", "6",
        "--format", "csv", "--output", str(out),
    ])
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "n,min_bits"
    assert lines[1:] == ["4,11", "5,24", "6,49"]


@pytest.mark.parametrize("argv", [
    ["--mode", "single", "--count", "5", "--total", "9", "--choose", "3"],
    ["--mode", "single", "--count", "5", "--n-to", "6"],
    ["--mode", "subset", "--total", "9", "--choose", "3", "--count", "5"],
    ["--mode", "subset", "--total", "9", "--choose", "3", "--n-from", "5"],
    ["--mode", "growth", "--count", "5"],
    ["--mode", "growth", "--total", "9"],
    ["--mode", "growth", "--choose", "3"],
])
def test_space_bounds_refuses_flags_of_another_mode(tmp_path, argv):
    code = cli.main([
        "space-bounds", *argv, "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--mode", "single"], "--count is required in single mode"),
    (["--mode", "subset", "--total", "9"],
     "--total and --choose are required in subset mode"),
])
def test_space_bounds_needs_its_modes_flags(tmp_path, capsys, argv, message):
    code = cli.main([
        "space-bounds", *argv, "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv, message", [
    # the count renders past Python's 4,300-digit int-to-text limit
    (["space-bounds", "--mode", "subset", "--total", "15000", "--choose", "7500"],
     "total must be at most 14000"),
    (["space-bounds", "--mode", "growth", "--n-from", "20", "--n-to", "21"],
     "n_to must be at most 20, not 21"),
    (["model-demo", "--start", "0", "--end", "10000", "--step", "1"],
     "at most 10000 points, not 10001"),
    # a point off the exact path costs more digits as x grows
    (["model-demo", "--start", "100001/2", "--end", "110001/2", "--step", "1"],
     "must be at most 1000, not 100001/2"),
])
def test_bounds_commands_are_capped(tmp_path, capsys, argv, message):
    code = cli.main([*argv, "--output", str(tmp_path / "x.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


VALLEY_3_2 = ["valley-gap", "--valleys", "3", "--cities-per-valley", "2"]


@pytest.mark.parametrize("argv", [
    # the run would finish and then fail to render its 4,400-digit gap ratio
    [*VALLEY_3_2, "--intra-cost", "1e-2200", "--crossing-cost", "1e2200"],
    # expanding the exponent alone would take seconds
    [*VALLEY_3_2, "--threshold", "1e10000000"],
])
def test_oversized_rational_literals_are_refused(tmp_path, capsys, argv):
    start = time.perf_counter()
    # argparse refuses a bad flag value with exit status 2
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--output", str(tmp_path / "x.json")])
    assert time.perf_counter() - start < 1
    assert info.value.code == 2
    assert "rational literal too large" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_rational_literals_at_the_size_limit_are_read(tmp_path):
    code, out = run_cli(
        tmp_path, *VALLEY_3_2, "--intra-cost", "1e-1000", "--crossing-cost", "1e1000"
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["ilp_value"] == f"{3 * 10**2000 + 3}/{10**1000}"


def test_model_demo(tmp_path):
    code, out = run_cli(
        tmp_path, "model-demo", "--start", "0", "--end", "8", "--step", "1/2"
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["grid_monotone"] is False
    assert doc["result"]["witness"] == ["0", "1/2"]


def test_negative_fraction_flag_takes_the_equals_form(tmp_path):
    # argparse reads a bare -3/2 as an option, not a value
    code, out = run_cli(
        tmp_path, "model-demo", "--start=-3/2", "--end", "0", "--step", "1/2"
    )
    assert code == 0
    assert json.loads(out.read_text())["config"]["params"]["start"] == "-3/2"


def test_cutting_plane_beyond_oracle_reach_records_no_cost(tmp_path):
    # 22 cities are past the oracle's budget, and the trace stands alone
    code, out = run_cli(
        tmp_path,
        "cutting-plane", "--valleys", "11", "--cities-per-valley", "2",
        "--rounds", "1",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["oracle_cost"] is None
    assert len(doc["result"]["trace"]["rounds"]) == 1


def test_decide_and_cutting_plane(tmp_path):
    code, out = run_cli(
        tmp_path,
        "decide", "--valleys", "4", "--cities-per-valley", "2",
        "--threshold", "3", "--via", "lp-relaxation",
    )
    assert code == 0
    assert json.loads(out.read_text())["result"]["answer"] == "YES"

    code, out = run_cli(
        tmp_path,
        "cutting-plane", "--valleys", "4", "--cities-per-valley", "2",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["trace"]["final_value"] == "4"
    assert doc["result"]["oracle_cost"] == "4"
    assert doc["result"]["trace"]["complete"] is True


def test_check_flow_files(tmp_path):
    inst = gen_valley_instance(4, 2)
    instance_path = tmp_path / "instance.txt"
    flow_path = tmp_path / "flow.txt"
    instance_path.write_text(instance_to_text(inst))
    flow_path.write_text(flow_arcs_to_text(valley_internal_cycles_flow(inst)))
    out = tmp_path / "report.json"
    code = cli.main([
        "check-flow", "--instance", str(instance_path), "--flow", str(flow_path),
        "--cut-valley", "0", "--cut-valley", "1",
        "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["degree_ok"] is True
    assert doc["result"]["total_cost"] == "0"
    assert len(doc["result"]["violated_cuts"]) == 2


def write_instance_and_flow(tmp_path, inst):
    instance_path = tmp_path / "instance.txt"
    flow_path = tmp_path / "flow.txt"
    instance_path.write_text(instance_to_text(inst))
    flow_path.write_text(flow_arcs_to_text(valley_internal_cycles_flow(inst)))
    return str(instance_path), str(flow_path)


def test_cut_valley_out_of_range_exits_2(tmp_path, capsys):
    instance_path, flow_path = write_instance_and_flow(
        tmp_path, gen_valley_instance(3, 2)
    )
    for argv in ([*VALLEY_3_2, "--relaxation", "degree+cuts"],
                 ["check-flow", "--instance", instance_path, "--flow", flow_path]):
        code = cli.main([*argv, "--cut-valley", "3",
                         "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: valley index must be at most 2, not 3\n"
        assert not (tmp_path / "x.json").exists()


def test_a_cut_subset_named_twice_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = cli.main([*VALLEY_3_2, "--relaxation", "degree+cuts", "--cut-valley", "0",
                     "--cut-cities", "1,0", "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: cut subset [0, 1] is named more than once\n"
    assert not out.exists()
    # check-flow only evaluates its cuts, so a repeated one is read twice
    instance_path, flow_path = write_instance_and_flow(
        tmp_path, gen_valley_instance(3, 2)
    )
    code = cli.main(["check-flow", "--instance", instance_path, "--flow", flow_path,
                     "--cut-valley", "0", "--cut-valley", "0", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["result"]["violated_cuts"] == [
        [0, 1], [0, 1]
    ]


def test_check_flow_names_a_missing_instance_file(tmp_path, capsys):
    _, flow_path = write_instance_and_flow(tmp_path, gen_valley_instance(3, 2))
    code = cli.main(["check-flow", "--instance", str(tmp_path / "missing.txt"),
                     "--flow", flow_path, "--output", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory: ")
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_check_flow_refuses_a_malformed_flow_file(tmp_path, capsys):
    instance_path = tmp_path / "instance.txt"
    flow_path = tmp_path / "flow.txt"
    instance_path.write_text(instance_to_text(gen_valley_instance(2, 2)))
    flow_path.write_text("lpgaps-flow 1\nzero 1 1\n")
    out = tmp_path / "report.json"
    code = cli.main([
        "check-flow", "--instance", str(instance_path), "--flow", str(flow_path),
        "--output", str(out),
    ])
    assert code == 2
    assert "not an integer: 'zero'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("head", [
    # n one past the cap: refused at the n line
    f"n {valleys.MAX_FILE_CITIES + 1}\nvalleys 0 1\ncosts\n",
    # no n field: refused at the first cost row
    "valleys 0 1\ncosts\n" + "0 1\n" * valleys.MAX_FILE_CITIES,
])
def test_check_flow_refuses_an_instance_file_past_the_city_cap(tmp_path, capsys, head):
    # the cost row after the head cannot be parsed, so a refusal that
    # parsed it first would name it instead
    instance_path = tmp_path / "instance.txt"
    flow_path = tmp_path / "flow.txt"
    instance_path.write_text(f"lpgaps-instance 1\n{head}not a cost row\n")
    flow_path.write_text("lpgaps-flow 1\n0 1 1\n1 0 1\n")
    code = cli.main([
        "check-flow", "--instance", str(instance_path), "--flow", str(flow_path),
        "--output", str(tmp_path / "report.json"),
    ])
    assert code == 2
    assert (f"an instance file has at most {valleys.MAX_FILE_CITIES} cities"
            in capsys.readouterr().err)


@pytest.mark.parametrize("costs, message", [
    # a row as wide as 10,000 cities whose last entry is junk
    ("0 " * 9_999 + "junk\n1 0\n", "cost row 0 has 10000 entries, not n = 2"),
    # one row more than the n field allows, all of it junk
    ("0 1\n1 0\njunk junk\n", "an instance of 2 cities has 2 cost rows, not more"),
], ids=["wide-row", "extra-row"])
def test_check_flow_refuses_a_cost_row_before_parsing_it(
    tmp_path, capsys, costs, message
):
    instance_path = tmp_path / "instance.txt"
    flow_path = tmp_path / "flow.txt"
    instance_path.write_text(f"lpgaps-instance 1\nn 2\nvalleys 0 1\ncosts\n{costs}")
    flow_path.write_text("lpgaps-flow 1\n0 1 1\n1 0 1\n")
    code = cli.main([
        "check-flow", "--instance", str(instance_path), "--flow", str(flow_path),
        "--output", str(tmp_path / "report.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_flow_counts_valley_ids_before_parsing_them(tmp_path, capsys):
    # the last of 10,000 ids is junk, so a refusal that parsed the ids
    # first would name it instead
    instance_path = tmp_path / "instance.txt"
    flow_path = tmp_path / "flow.txt"
    ids = "0 " * 9_999 + "x"
    instance_path.write_text(f"lpgaps-instance 1\nn 2\nvalleys {ids}\ncosts\n0 1\n1 0\n")
    flow_path.write_text("lpgaps-flow 1\n0 1 1\n1 0 1\n")
    code = cli.main([
        "check-flow", "--instance", str(instance_path), "--flow", str(flow_path),
        "--output", str(tmp_path / "report.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: the valleys field has 10000 ids, not n = 2\n"


def test_check_flow_parses_at_most_one_flow_record_past_the_arcs(
    tmp_path, capsys, monkeypatch
):
    # a 2-city instance has 2 arcs, so the third record of this
    # 10,000-line flow repeats one and ends the read
    inst = gen_valley_instance(2, 1)
    instance_path = tmp_path / "instance.txt"
    flow_path = tmp_path / "flow.txt"
    instance_path.write_text(instance_to_text(inst))
    flow_path.write_text("lpgaps-flow 1\n" + "0 1 1/3\n1 0 1/3\n" * 5_000)
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse_rational(text)

    monkeypatch.setattr(valleys, "parse_rational", counting_parse)
    code = cli.main([
        "check-flow", "--instance", str(instance_path), "--flow", str(flow_path),
        "--output", str(tmp_path / "report.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: duplicate arc (0,1)\n"
    # the instance's costs are 0 and 1, so every 1/3 is a flow weight
    assert parsed.count("1/3") <= inst.n * (inst.n - 1) + 1


def test_check_flow_refuses_a_flow_it_could_not_render(tmp_path, capsys):
    # every weight is a literal within the size limit, but 30 distinct
    # denominators near 10**999 would give the flow's cost and degree
    # sums more digits than a report can render
    instance_path = tmp_path / "instance.txt"
    flow_path = tmp_path / "flow.txt"
    instance_path.write_text(instance_to_text(gen_valley_instance(3, 2)))
    arcs = valleys.arc_list(6)
    flow_path.write_text("lpgaps-flow 1\n" + "".join(
        f"{i} {j} 1/{10**999 + 2 * k + 1}\n" for k, (i, j) in enumerate(arcs)
    ))
    out = tmp_path / "report.json"
    code = cli.main([
        "check-flow", "--instance", str(instance_path), "--flow", str(flow_path),
        "--output", str(out),
    ])
    assert code == 2
    assert "arc weights need a common denominator of at most 10^1000" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_reports_are_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    argv = ["hull-scan", "--vertices", "64", "--budget", "32",
            "--samples", "6", "--seed", "3", "--output", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    out.unlink()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first


SCAN_V8 = ["hull-scan", "--vertices", "8", "--budget", "6"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_report_over_a_longer_stale_file_is_its_first_write(tmp_path, fmt):
    # reports embed --output, so both writes go to the same path
    out = tmp_path / f"report.{fmt}"
    argv = [*SCAN_V8, "--format", fmt, "--output", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    out.write_bytes(b"stale\n" * len(first))
    assert cli.main(argv) == 0
    assert out.read_bytes() == first


def test_an_overwrite_keeps_the_files_inode_and_mode(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("stale\n")
    out.chmod(0o600)
    before = out.stat()
    assert cli.main([*SCAN_V8, "--output", str(out)]) == 0
    after = out.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o600


def test_a_rerun_always_writes(tmp_path):
    # the same bytes are written again, never compared and skipped
    out = tmp_path / "report.json"
    argv = [*SCAN_V8, "--output", str(out)]
    assert cli.main(argv) == 0
    os.utime(out, (0, 0))
    assert cli.main(argv) == 0
    assert out.stat().st_mtime != 0


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_output_to_dev_null_exits_0():
    assert cli.main([*SCAN_V8, "--output", "/dev/null"]) == 0


# SHA-256 of each report, as written to a relative --output in the
# working directory (reports embed output_path); a refactor of a solver
# chain must leave every one of them unchanged. The two enumerated
# V=8 scans were re-recorded when their config and result stopped
# recording a sample count and seed the scan never read
PINNED_REPORTS = [
    (["hull-scan", "--vertices", "8", "--budget", "6"], "json",
     "626933adaae4a754489957f54c54c674e7d3a8e6896e413f744eb556c3027032"),
    (["hull-scan", "--vertices", "8", "--budget", "6"], "csv",
     "c756c0954bee0657820830d552257c5973532e45cb6e721cb15eebaeabea5ccf"),
    (["hull-scan", "--vertices", "64", "--budget", "32",
      "--samples", "3", "--seed", "0"], "json",
     "bb697d8cda14fa35ea63cbcc296430bfbcc481bfc3457f706c68e99a979cc454"),
    # the cutting-plane entries were re-recorded when the primal
    # feasibility search began to stop as soon as every row held, and
    # again when the loop's first round began
    # to start at a cycle cover and each later round to re-optimise by
    # the dual simplex: (4, 2) adds its second to fourth cuts in the
    # reverse order, with the same values, and ends on another optimal
    # tour; (6, 2) adds its 2-city-valley cuts in another order, with
    # the same values, and ends on another tour; and (3, 3) takes 7
    # rounds instead of 11, to the same value
    (["cutting-plane", "--valleys", "4", "--cities-per-valley", "2"], "json",
     "a51a5420a041ac3896c351b78ccdef7f3975ab881a87cb102af164807c5f3f38"),
    (["cutting-plane", "--valleys", "4", "--cities-per-valley", "2"], "csv",
     "be32d44cd707e7e66eb75b53d57b65a413e98c3765ac4a09c544968e90034273"),
    # re-recorded when refused flags began to record null: rounds, read
    # only by the cutting-plane relaxation, went from 50 to null
    (["valley-gap", "--valleys", "6", "--cities-per-valley", "2",
      "--relaxation", "degree+cuts", "--cut-valley", "0"], "json",
     "1ee4d0b995c6ecb5e50aabdd38f734340f606174c9ffe25de69f08d57e03bd5f"),
    # re-recorded then too: cut_valley and cut_cities, read only by
    # degree+cuts, went from [] to null
    (["decide", "--valleys", "5", "--cities-per-valley", "2",
      "--threshold", "4", "--via", "lp-relaxation",
      "--relaxation", "cutting-plane"], "json",
     "b931071ff5092c4fa54f1040361cf912af869bd5d7e25b4c7ba0ef4d6659d18d"),
    # the loop that ended on a fractional point before the primal
    # feasibility search stopped as soon as every row held; it now ends
    # on a tour
    (["cutting-plane", "--valleys", "6", "--cities-per-valley", "2"], "json",
     "eecc5d855cf2813af155170cef5424fe6051767a244e4f30715d053b6ff6271b"),
    (["cutting-plane", "--valleys", "3", "--cities-per-valley", "3",
      "--intra-cost", "1/7", "--crossing-cost", "5/3"], "csv",
     "a39fd4d54c4219fdd09c02fa4e2bd17b434deadaf155f586f78a5a66e5933dc9"),
]


def test_report_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = []
    for argv, fmt, _ in PINNED_REPORTS:
        name = f"report.{fmt}"
        assert cli.main([*argv, "--format", fmt, "--output", name]) == 0, argv
        digests.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
    assert digests == [digest for _, _, digest in PINNED_REPORTS]


def test_scan_csv_has_table(tmp_path):
    out = tmp_path / "scan.csv"
    code = cli.main([
        "hull-scan", "--vertices", "8", "--budget", "6",
        "--format", "csv", "--output", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "# config.params.vertices=8" in text
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0].startswith("subset_id,omitted,")
    assert len(lines) == 1 + 7


def test_validation_exit_code(tmp_path):
    code = cli.main([
        "valley-gap", "--valleys", "1", "--cities-per-valley", "2",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2


@pytest.mark.parametrize("output", ["missing/x.json", ".", ""])
def test_unwritable_output_is_refused_before_the_run(
    tmp_path, monkeypatch, capsys, output
):
    # a missing parent directory, a directory itself, or the empty path,
    # which names the working directory and is passed as given
    def no_run(args):
        raise AssertionError("the run started")

    monkeypatch.setitem(cli._HANDLERS, "hull-scan", no_run)
    code = cli.main([
        "hull-scan", "--vertices", "8", "--budget", "4",
        "--output", str(tmp_path / output) if output else output,
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --output ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_output_write_exits_2(capsys):
    # the check passes, and the write fails with ENOSPC
    code = cli.main(["hull-scan", "--vertices", "8", "--budget", "4",
                     "--output", "/dev/full"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


class FailingStream:
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_stdout_write_exits_2(capsys):
    # a report to stdout fails as one to --output does
    with contextlib.redirect_stdout(FailingStream()):
        code = cli.main(["hull-scan", "--vertices", "8", "--budget", "4"])
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_scan_rejects_sample_count_below_one(tmp_path, capsys, samples):
    # 32 of 63 facets leave too many subsets to enumerate, so the scan
    # samples and reads the count
    code = cli.main([
        "hull-scan", "--vertices", "64", "--budget", "32",
        "--samples", samples, "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "sample count must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_scan_refuses_more_samples_than_subsets(tmp_path, capsys):
    code = cli.main([
        "hull-scan", "--vertices", "17", "--budget", "8", "--samples", "13000",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "sample count must be at most 12870, not 13000" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_sampled_scan_refuses_a_negative_seed(tmp_path, capsys):
    # random.Random seeds from |seed|, so --seed -5 would draw the
    # subsets of --seed 5 and record -5
    code = cli.main([
        "hull-scan", "--vertices", "64", "--budget", "32", "--seed", "-5",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "seed must be at least 0, not -5" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flags", [
    ["--samples", "3", "--seed", "99"], ["--samples", "100"], ["--seed", "0"],
])
def test_enumerating_scan_refuses_samples_and_seed(tmp_path, capsys, flags):
    # 4 of 7 facets leave 35 subsets, all scanned: a sample count or
    # seed would go unread, even at its default
    code = cli.main([
        "hull-scan", "--vertices", "8", "--budget", "4", *flags,
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "35 subsets" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_enumerated_scan_records_no_draws(tmp_path):
    # 4 of 7 facets leave 35 subsets, all scanned: no sample count or
    # seed was read, so none is recorded
    code, out = run_cli(tmp_path, "hull-scan", "--vertices", "8", "--budget", "4")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["params"]["samples"] is None
    assert doc["config"]["seed"] is None
    assert doc["result"]["seed"] is None
    assert doc["result"]["enumerated"] is True


@pytest.mark.parametrize("argv", [
    ["hull-adversary", "--omit", "1"],
    ["hull-scan", "--budget", "1", "--samples", "1"],
])
def test_hull_commands_cap_vertices(tmp_path, capsys, argv):
    code = cli.main([
        *argv, "--vertices", str(hull.MAX_VERTICES + 1),
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert f"vertex count must be at most {hull.MAX_VERTICES}, not" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["cutting-plane", "--rounds", "5"],
    ["decide", "--threshold", "5", "--via", "lp-relaxation"],
    # above the cap the size check comes before the oracle budget (exit 3)
    ["valley-gap", "--relaxation", "degree"],
])
def test_valley_commands_cap_cities(tmp_path, capsys, argv):
    code = cli.main([
        *argv, "--valleys", str(valleys.MAX_CITIES + 1),
        "--cities-per-valley", "1", "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert f"at most {valleys.MAX_CITIES} cities" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_budget_exit_code(tmp_path):
    code = cli.main([
        "decide", "--valleys", "11", "--cities-per-valley", "2",
        "--threshold", "5", "--via", "ilp",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 3


@pytest.mark.parametrize("valleys_flag", ["8", "21"])
def test_bad_cut_subset_exits_2_on_either_side_of_the_oracle_budget(
    tmp_path, capsys, valleys_flag
):
    # 21 cities are past the oracle's budget (exit 3), but the cut subset
    # is checked first
    code = cli.main([
        "valley-gap", "--valleys", valleys_flag, "--cities-per-valley", "1",
        "--relaxation", "degree+cuts", "--cut-cities", "0,99",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    n = int(valleys_flag)
    assert f"city indices must be ints in 0..{n - 1}, not 99" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("listing, message", [
    ("0,0,1", "[0, 0, 1] names a city more than once"),
    ("0,,1", "bad city list '0,,1'"),
    ("0,1,", "bad city list '0,1,'"),
])
def test_cut_city_list_with_a_repeat_or_an_empty_item_exits_2(
    tmp_path, capsys, listing, message
):
    # each was accepted: 0,0,1 ran the cut of {0, 1} and reported
    # [0, 0, 1], and an empty item was skipped
    inst = gen_valley_instance(3, 2)
    instance_path = tmp_path / "instance.txt"
    flow_path = tmp_path / "flow.txt"
    instance_path.write_text(instance_to_text(inst))
    flow_path.write_text(flow_arcs_to_text(valley_internal_cycles_flow(inst)))
    for argv in (
        ["valley-gap", "--valleys", "3", "--cities-per-valley", "2",
         "--relaxation", "degree+cuts"],
        ["check-flow", "--instance", str(instance_path), "--flow", str(flow_path)],
    ):
        out = tmp_path / "x.json"
        code = cli.main([*argv, "--cut-cities", listing, "--output", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_scan_over_the_work_limit_exits_3(tmp_path, capsys):
    code = cli.main([
        "hull-scan", "--vertices", "256", "--budget", "254",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 3
    assert "work units" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("subcommand", [
    ["valley-gap", "--relaxation", "cutting-plane"],
    ["decide", "--relaxation", "cutting-plane", "--threshold", "3",
     "--via", "lp-relaxation"],
])
def test_zero_rounds_is_rejected(tmp_path, subcommand):
    code = cli.main([
        *subcommand, "--valleys", "3", "--cities-per-valley", "2",
        "--rounds", "0", "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("cut_flag", [
    ["--cut-valley", "0"], ["--cut-cities", "0,1"],
])
def test_cut_flags_need_the_cuts_relaxation(tmp_path, cut_flag):
    instance = ["valley-gap", "--valleys", "3", "--cities-per-valley", "2"]
    for relaxation in ("degree", "cutting-plane"):
        code = cli.main([
            *instance, "--relaxation", relaxation, *cut_flag,
            "--output", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert not (tmp_path / "x.json").exists()
    code, out = run_cli(tmp_path, *instance, "--relaxation", "degree+cuts", *cut_flag)
    assert code == 0
    assert json.loads(out.read_text())["result"]["relaxation"]["cut_subsets"] != []


def test_cut_cities_are_recorded_sorted(tmp_path):
    # the relaxation stores each subset sorted, so the order the cities
    # are listed in leaves the report's result as it is
    results = []
    for listing in ("3,2", "2,3"):
        code, out = run_cli(
            tmp_path, "valley-gap", "--valleys", "3", "--cities-per-valley", "2",
            "--relaxation", "degree+cuts", "--cut-cities", listing,
        )
        assert code == 0
        results.append(json.loads(out.read_text())["result"])
    assert results[0]["relaxation"]["cut_subsets"] == [[2, 3]]
    assert results[0] == results[1]


@pytest.mark.parametrize("argv", [
    ["valley-gap", "--relaxation", "degree"],
    ["valley-gap", "--relaxation", "degree+cuts", "--cut-valley", "0"],
    ["decide", "--relaxation", "degree", "--threshold", "3",
     "--via", "lp-relaxation"],
])
def test_rounds_need_the_cutting_plane_relaxation(tmp_path, argv):
    instance = ["--valleys", "3", "--cities-per-valley", "2"]
    code = cli.main([
        *argv, *instance, "--rounds", "7", "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert not (tmp_path / "x.json").exists()
    code, out = run_cli(
        tmp_path, "valley-gap", *instance,
        "--relaxation", "cutting-plane", "--rounds", "7",
    )
    assert code == 0
    assert json.loads(out.read_text())["result"]["relaxation"]["max_rounds"] == 7


@pytest.mark.parametrize("relaxation_flags", [
    ["--relaxation", "degree+cuts", "--cut-valley", "0"],
    ["--relaxation", "degree+cuts", "--cut-cities", "0,1"],
    ["--relaxation", "cutting-plane"],
    ["--rounds", "7"],
    ["--relaxation", "cutting-plane", "--rounds", "7"],
    ["--relaxation", "degree"],
])
def test_ilp_decision_takes_no_relaxation_flags(tmp_path, relaxation_flags):
    decide = [
        "decide", "--valleys", "3", "--cities-per-valley", "2",
        "--threshold", "3", "--via", "ilp",
    ]
    code = cli.main([
        *decide, *relaxation_flags, "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert not (tmp_path / "x.json").exists()
    code, out = run_cli(tmp_path, *decide)
    assert code == 0
    assert json.loads(out.read_text())["result"]["answer"] == "YES"


INSTANCE = ["--valleys", "3", "--cities-per-valley", "2"]


@pytest.mark.parametrize("argv", [
    ["valley-gap", *INSTANCE, "--relaxation", "degree", "--rounds", "50"],
    ["decide", *INSTANCE, "--threshold", "3", "--via", "lp-relaxation",
     "--rounds", "50"],
    ["space-bounds", "--mode", "single", "--count", "5", "--n-from", "4"],
    ["space-bounds", "--mode", "subset", "--total", "9", "--choose", "3",
     "--n-to", "12"],
])
def test_unread_flag_is_refused_at_its_default(tmp_path, argv):
    code = cli.main([*argv, "--output", str(tmp_path / "x.json")])
    assert code == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("omitted, given", [
    (["cutting-plane", *INSTANCE], ["--rounds", "50"]),
    (["valley-gap", *INSTANCE], ["--relaxation", "degree"]),
    (["valley-gap", *INSTANCE, "--relaxation", "cutting-plane"],
     ["--rounds", "50"]),
    (["space-bounds", "--mode", "growth"], ["--n-from", "4", "--n-to", "12"]),
    # 16 facets keep 8 in 12870 ways, so the scan samples
    (["hull-scan", "--vertices", "17", "--budget", "8"],
     ["--samples", "100", "--seed", "0"]),
])
def test_omitted_flag_reports_its_default(tmp_path, omitted, given):
    code, out = run_cli(tmp_path, *omitted)
    assert code == 0
    first = out.read_bytes()
    code, out = run_cli(tmp_path, *omitted, *given)
    assert code == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("argv, unread", [
    (["valley-gap", *INSTANCE, "--relaxation", "degree"],
     ["rounds", "cut_valley", "cut_cities"]),
    (["valley-gap", *INSTANCE, "--relaxation", "degree+cuts", "--cut-valley", "0"],
     ["rounds"]),
    (["decide", *INSTANCE, "--threshold", "3", "--via", "ilp"],
     ["relaxation", "rounds", "cut_valley", "cut_cities"]),
    (["space-bounds", "--mode", "single", "--count", "5"],
     ["n_from", "n_to", "total", "choose"]),
    (["space-bounds", "--mode", "growth"], ["count", "total", "choose"]),
])
def test_unread_flag_records_null(tmp_path, argv, unread):
    # a default is filled only where the run reads the flag, so a report
    # never records a value that played no part in it
    code, out = run_cli(tmp_path, *argv)
    assert code == 0
    params = json.loads(out.read_text())["config"]["params"]
    assert [name for name, value in params.items() if value is None] == sorted(unread)


def test_repeated_runs_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process; runs with and without the
    # repeatable --threshold, whose default list every run shares, must
    # each write what a fresh process writes
    assert cli.build_parser() is cli.build_parser()
    base = ["valley-gap", "--valleys", "3", "--cities-per-valley", "2"]
    runs = [base, [*base, "--threshold", "3"], base,
            [*base, "--threshold", "2", "--threshold", "7/2"], base]
    in_process = []
    for argv in runs:
        assert cli.main(argv) == 0
        in_process.append(capsys.readouterr().out)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    fresh = {
        key: subprocess.run(
            [sys.executable, "-m", "lpgaps.cli", *key],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        for key in dict.fromkeys(map(tuple, runs))
    }
    assert in_process == [fresh[tuple(argv)] for argv in runs]
    assert len(set(in_process)) == 3


IMPORT_FOOTPRINT_PROBE = """
import contextlib, io, json, sys
from lpgaps import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()

def loaded():
    return [name for name in ("numpy", "mpmath") if name in sys.modules]

steps = {}
run("hull-scan", "--vertices", "8", "--budget", "4")
run("space-bounds", "--mode", "single", "--count", "5")
# every point of an integer grid is on the demo's exact path
run("model-demo", "--start", "0", "--end", "3", "--step", "1")
steps["neither"] = loaded()
report = json.loads(run("valley-gap", "--valleys", "3", "--cities-per-valley", "2"))
steps["oracle"] = loaded()
steps["ilp_value"] = report["result"]["ilp_value"]
run("model-demo", "--start", "0", "--end", "1", "--step", "1/2")
steps["demo"] = loaded()
print(json.dumps(steps))
"""


def test_numpy_and_mpmath_load_only_in_the_commands_that_use_them():
    # a fresh interpreter, so no earlier test has imported either library
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    steps = json.loads(subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT_PROBE],
        capture_output=True, text=True, env=env, check=True,
    ).stdout)
    assert steps["neither"] == []
    # the oracle's first call imports numpy and still answers exactly
    assert steps["oracle"] == ["numpy"]
    assert steps["ilp_value"] == "3"
    assert steps["demo"] == ["numpy", "mpmath"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2


def test_config_embeds_run_parameters(tmp_path):
    code, out = run_cli(
        tmp_path, "hull-scan", "--vertices", "64", "--budget", "32",
        "--samples", "9", "--seed", "11",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    config = doc["config"]
    assert config["subcommand"] == "hull-scan"
    assert config["seed"] == 11
    assert config["params"]["budget"] == 32
    assert config["params"]["samples"] == 9
    assert config["output_format"] == "json"
