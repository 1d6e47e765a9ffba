import json

import pytest

from lpgaps import cli
from lpgaps.valleys import (
    flow_arcs_to_text,
    gen_valley_instance,
    instance_to_text,
    valley_internal_cycles_flow,
)


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


def test_reports_are_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    argv = ["hull-scan", "--vertices", "16", "--budget", "8",
            "--samples", "6", "--seed", "3", "--output", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    out.unlink()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first


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


def test_budget_exit_code(tmp_path):
    code = cli.main([
        "decide", "--valleys", "11", "--cities-per-valley", "2",
        "--threshold", "5", "--via", "ilp",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 3


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
    code, out = run_cli(tmp_path, *decide, "--relaxation", "degree")
    assert code == 0
    assert json.loads(out.read_text())["result"]["answer"] == "YES"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2


def test_config_embeds_run_parameters(tmp_path):
    code, out = run_cli(
        tmp_path, "hull-scan", "--vertices", "8", "--budget", "6",
        "--samples", "9", "--seed", "11",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    config = doc["config"]
    assert config["subcommand"] == "hull-scan"
    assert config["seed"] == 11
    assert config["params"]["budget"] == 6
    assert config["params"]["samples"] == 9
    assert config["output_format"] == "json"
