import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import valley_internal_cycles_flow
from lpgaps import cli, hull, valleys
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
    # the count renders past Python's 4,300-digit int-to-text limit
    (["space-bounds", "--mode", "subset", "--total", "15000", "--choose", "7500"],
     "total must be at most 14000"),
    (["space-bounds", "--mode", "growth", "--n-from", "20", "--n-to", "21"],
     "n_to <= 20"),
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


def test_model_demo(tmp_path):
    code, out = run_cli(
        tmp_path, "model-demo", "--start", "0", "--end", "8", "--step", "1/2"
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["grid_monotone"] is False
    assert doc["result"]["witness"] == ["0", "1/2"]


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
    assert doc["result"]["report"]["degree_ok"] is True
    assert doc["result"]["report"]["total_cost"] == "0"
    assert len(doc["result"]["report"]["violated_cuts"]) == 2


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


def test_reports_are_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    argv = ["hull-scan", "--vertices", "64", "--budget", "32",
            "--samples", "6", "--seed", "3", "--output", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    out.unlink()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first


# SHA-256 of each report, as written to a relative --output in the
# working directory (reports embed output_path); a refactor of a solver
# chain must leave every one of them unchanged
PINNED_REPORTS = [
    (["hull-scan", "--vertices", "8", "--budget", "6"], "json",
     "ebd081b8d0a8ca186a3947073cc6ee94c954cdde8aaa822cec246a258cf308ef"),
    (["hull-scan", "--vertices", "8", "--budget", "6"], "csv",
     "a3b40ae26a00d6446dfa5455d86ed606a34d8ae4ca3b91775d93a13af43ab9cc"),
    (["hull-scan", "--vertices", "64", "--budget", "32",
      "--samples", "3", "--seed", "0"], "json",
     "bb697d8cda14fa35ea63cbcc296430bfbcc481bfc3457f706c68e99a979cc454"),
    (["cutting-plane", "--valleys", "4", "--cities-per-valley", "2"], "json",
     "97ed299ee18aed4a057e17edd0a0ab01b9cd9f29b9f9ef8c4a292b7ca7244e1d"),
    (["cutting-plane", "--valleys", "4", "--cities-per-valley", "2"], "csv",
     "79dab5f6dbcdf0b04c990d2fbe0c84d99b67fd326bc5dbd243beb640599b3d01"),
    (["valley-gap", "--valleys", "6", "--cities-per-valley", "2",
      "--relaxation", "degree+cuts", "--cut-valley", "0"], "json",
     "80f3da3855d8732d432c513272ea408ee32eee638f0041de6094018e80e892cc"),
    (["decide", "--valleys", "5", "--cities-per-valley", "2",
      "--threshold", "4", "--via", "lp-relaxation",
      "--relaxation", "cutting-plane"], "json",
     "1c09c9c1c4e6d31295b055ad12de3de15eaaa6e2c1760eaaca80caedc131330b"),
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


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_scan_rejects_sample_count_below_one(tmp_path, samples):
    code = cli.main([
        "hull-scan", "--vertices", "8", "--budget", "6",
        "--samples", samples, "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert not (tmp_path / "x.json").exists()


def test_scan_refuses_more_samples_than_subsets(tmp_path, capsys):
    code = cli.main([
        "hull-scan", "--vertices", "17", "--budget", "8", "--samples", "13000",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "12870 subsets" in capsys.readouterr().err
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
    assert f"2..{hull.MAX_VERTICES} vertices" in capsys.readouterr().err
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
])
def test_omitted_flag_reports_its_default(tmp_path, omitted, given):
    code, out = run_cli(tmp_path, *omitted)
    assert code == 0
    first = out.read_bytes()
    code, out = run_cli(tmp_path, *omitted, *given)
    assert code == 0
    assert out.read_bytes() == first


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
