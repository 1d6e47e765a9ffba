"""Pinned demo reports.

``scripts/run_all_demos.py`` writes every headline report. Each digest
below is the SHA-256 of one file it writes, recorded before the tableau
stopped storing columns that only its feasibility search read
(check-flow's when its report became
the FlowReport alone, without a second copy of the total; the
cutting-plane files when the primal feasibility search began to stop
as soon as every row held:
k4 keeps its cuts and values and ends on another optimal tour, k6 swaps
its fourth and fifth cuts and ends on a tour instead of a fractional
point; and again when the loop's first round began to start at a cycle
cover and each later round to re-optimise by the dual simplex: k4 and k6
add the same cuts, at the same values, in another order, and end on
other optimal tours). A kernel
change that moves any pivot, cut sequence, witness or report byte fails
here. The script runs as a user runs it, in a fresh process with
``--outdir out``, from a temporary working directory: the check-flow
report embeds its input paths, so the directory must be the same
relative one each time.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from lpgaps import cli

ROOT = Path(__file__).resolve().parents[1]

DEMO_SHA256 = {
    "check_flow_three_circulations.json":
        "45729a89a8372d7a80e4bb9660ffb553aa7e83edb8f6c8e7712a4f05afc7d877",
    "cutting_plane_k4.csv":
        "dd91ec400a5793c36f7164b3e0c3505b28037e94a4953dccf7f8f8a905867ac8",
    "cutting_plane_k4.json":
        "749e6e63bb757e5cad8df2ac5f99311fbeb00eac8b5cd849775018feab86f356",
    "cutting_plane_k6.csv":
        "d1a07bf6e7342dee786e7a3d3d13b5163e24315be99977e9b9b2c4a8a3e913b6",
    "cutting_plane_k6.json":
        "e5e1f636d9b2639dbcd6206bac49033244e1e77d54e812e8b45046b202ebcac2",
    "decide_k10_ilp.json":
        "ba52549705760e73f38405d290065f1a4236d14567519f274100b77eda58d7ba",
    "decide_k10_lp.json":
        "45c0c10dee674725b7dc0d8ed16374e1942ef2a5c9b07586218a3124ba1ee171",
    "hull_adversary_v4.json":
        "643af46a4dc6a18cac51eb93765f2eb48348926d0b08c9837d891e2e758854b4",
    "hull_scan_v64_half.csv":
        "bffb54adf03e58a337f3f73d09f26dad22ed4f6cee5fe049f40c22a40651cc9e",
    "hull_scan_v64_half.json":
        "399b32862e7f70a97fed1628c71c67bb9bc7e64284dbb65e6085427d7c5feab8",
    "hull_scan_v8_one_short.csv":
        "03f3a69f143f6a088b404d5f24dfe212ee00cb8db92af044b04191b92b70ebf7",
    "hull_scan_v8_one_short.json":
        "c9d4e0c37a8c553b4f60bd7474bd0b3c193861ec76d60a6f5640740d7c47c77f",
    "model_demo_half.json":
        "b55a2be21c34f67796d041f8d0f5f3b412dfe3c83cb141d8125aadb87467e16b",
    "model_demo_integer.json":
        "4e511e32eebfed11263eec07bdc97978c2001fc6dfc35e93a4f6f624719d07fe",
    "space_growth.csv":
        "2841bfc97a740a9861c7a30078572377cc8f2b8876ac83c95aad574be4d53125",
    "space_growth.json":
        "d596147644705976f8c08fe7b21ac934c6ba7f914f8829a52cd6851d66e564e0",
    "space_single_factorial.json":
        "573a2bdec92ceb9d0c1a2225e5cf714929900fb15a76a0c4d05393d3c577961c",
    "three_circulations.flow":
        "f86d9b4955ff064f58fb59ee0e25f03c353371bcdc99816df2f28b562a57d419",
    "valley_gap_k10.json":
        "68a8c191463106cd0bd7af2bda806a6ce84f64f37f3427df391a6c10a4441ae7",
    "valleys_k10.instance":
        "6f25d3c3bacb5d56c2f289f170341e57926710d17aaa6e2e9a8c18d8ad2dbb7c",
}


def test_demo_reports_are_pinned(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "run_all_demos.py"),
         "--outdir", "out"],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "out").iterdir()
    }
    assert written == DEMO_SHA256


def test_each_demo_runs_once(tmp_path, monkeypatch):
    # a tabled demo's CSV is rendered from its one run's result
    spec = importlib.util.spec_from_file_location(
        "run_all_demos", ROOT / "scripts" / "run_all_demos.py"
    )
    demos = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demos)
    runs = []

    def counting(subcommand, handler):
        def run(args):
            runs.append(subcommand)
            return handler(args)
        return run

    for subcommand, handler in list(cli._HANDLERS.items()):
        monkeypatch.setitem(cli._HANDLERS, subcommand, counting(subcommand, handler))
    outdir = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_all_demos.py", "--outdir", str(outdir)])
    demos.main()
    assert len(runs) == 13
    assert runs == [argv[0] for _, argv in demos.DEMOS] + ["check-flow"]
    assert {path.name for path in outdir.iterdir()} == DEMO_SHA256.keys()
