import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import uvflow
from uvflow import cli

CLI = [sys.executable, "-m", "uvflow.cli"]
# the child runs in tmp_path, where a relative PYTHONPATH entry points nowhere
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(uvflow.__file__)))


def run_cli(args, cwd, env_extra=None):
    """``uvflow <args>`` in this process, from ``cwd``, with stdout and
    stderr captured; an argparse exit becomes the return code, and any
    other exception escapes and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(cwd)
        mp.delenv("UVFLOW_OUTPUT_DIR", raising=False)
        for key, value in (env_extra or {}).items():
            mp.setenv(key, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_cli_process(args, cwd):
    """``python -m uvflow.cli <args>`` in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("UVFLOW_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run(CLI + args, cwd=cwd, env=env,
                          capture_output=True, text=True)


def read_csv_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_analyze_quartic_values(tmp_path):
    out = tmp_path / "q.json"
    res = run_cli(["analyze", "quartic", "--format", "json",
                   "--output", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    row = json.loads(out.read_text())["rows"][0]
    assert row["model"] == "quartic"
    assert abs(row["rg_energy"] - 1.0) < 1e-9
    assert abs(row["oracle_energy"] - 1.06036209047) < 1e-8
    assert abs(row["rel_error"] - 0.0569259227702) < 1e-8
    assert row["sign_branch"] == "positive"


def test_analyze_output_is_deterministic(tmp_path):
    # two interpreters, so no state carries over between the runs
    args = ["analyze", "quartic", "--format", "json", "--output", "det.json"]
    assert run_cli_process(args, tmp_path).returncode == 0
    first = (tmp_path / "det.json").read_bytes()
    assert run_cli_process(args, tmp_path).returncode == 0
    assert (tmp_path / "det.json").read_bytes() == first


def test_unknown_model_exits_2(tmp_path):
    res = run_cli(["analyze", "cubic"], tmp_path)
    assert res.returncode == 2


def test_missing_config_exits_2(tmp_path):
    # through the module entry point, whose sys.exit must carry the code
    res = run_cli_process(["analyze", "quartic", "--config", "absent.json"],
                          tmp_path)
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam0": 100.0, "g0": 1.0, "lam1": 1000.0}))
    out = tmp_path / "t.csv"
    res = run_cli(["flow", "quartic", "--config", str(cfg), "--lam0", "10",
                   "--output", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = read_csv_rows(out)
    assert float(rows[0]["lambda"]) == 10.0
    assert float(rows[-1]["lambda"]) == 1000.0  # config still supplies lam1


def test_output_dir_redirect(tmp_path):
    res = run_cli(["analyze", "quartic", "--output", "sub/dir/r.csv"],
                  tmp_path, env_extra={"UVFLOW_OUTPUT_DIR": str(tmp_path / "root")})
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "root" / "sub" / "dir" / "r.csv").exists()


def test_flow_abort_writes_partial_and_exits_1(tmp_path):
    out = tmp_path / "c.csv"
    res = run_cli(["flow", "coulomb", "--g0", "5.0", "--output", str(out)],
                  tmp_path)
    assert res.returncode == 1
    assert "IntegrationAbortError" in res.stderr
    assert read_csv_rows(out) == []  # header only, nothing sampled


def test_flow_kh_tracks_log_solution(tmp_path):
    out = tmp_path / "kh.json"
    res = run_cli(["flow", "kh", "--K", "1", "--lam0", "100",
                   "--lam1", "1e6", "--format", "json",
                   "--output", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = json.loads(out.read_text())["rows"]
    target = rows[0]["energy"]
    for row in rows:
        assert abs(row["coupling"] * math.log(row["lambda"]) - 1.0) < 1e-10
        assert abs(row["energy"] - target) < 1e-10 * abs(target)


def test_flow_on_fixed_point_conserves_energy(tmp_path):
    out = tmp_path / "fp.json"
    res = run_cli(["flow", "quartic", "--start-on-fixed-point",
                   "--lam0", "100", "--lam1", "10000", "--format", "json",
                   "--output", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    energies = [r["energy"] for r in json.loads(out.read_text())["rows"]]
    assert max(energies) - min(energies) < 1e-4


def test_kh_scan_limits(tmp_path):
    out = tmp_path / "scan.json"
    res = run_cli(["kh-scan", "--eps-exp", "10", "--lambdas", "100,1000",
                   "--format", "json", "--output", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    for row in payload["rows"]:
        assert abs(row["small_field_energy"] + 0.49) < 1e-10
        assert 0.8 < row["c2_over_log"] < 1.2
    branches = payload["limits"]["strong_field"]["branches"]
    assert abs(branches[0] - 103.556205277) < 1e-6
    assert abs(branches[1] - 23.7677491966) < 1e-6


def test_kh_scan_rejects_low_cutoffs(tmp_path):
    res = run_cli(["kh-scan", "--lambdas", "1.5,100"], tmp_path)
    assert res.returncode == 2
    assert "config error" in res.stderr


@pytest.mark.parametrize("args", [
    ["flow", "quartic", "--points", "0"],
    ["kh-scan", "--lambdas", "1e2,abc"],
])
def test_malformed_numbers_exit_2(tmp_path, args):
    res = run_cli(args, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args, config", [
    (["oracle", "quartic", "--n", "4000"], None),
    (["analyze", "--n", "4000"], None),
    (["oracle", "quartic"], {"n": "4001"}),
    (["analyze"], {"n": "4001"}),
    (["oracle", "quartic", "--half-width", "0"], None),
    (["analyze", "quartic", "--half-width", "-3"], None),
    (["oracle", "quartic", "--level", "-1"], None),
    (["oracle", "quartic"], {"level": -1}),
    (["analyze"], {"sign-policy": "bogus"}),
    (["analyze"], {"models": "quartic"}),
    (["oracle", "quartic"], {"format": "xml"}),
    (["oracle", "quartic"], {"output": 5}),
    (["oracle", "quartic"], {"params": [1]}),
    (["flow", "quartic", "--lam0", "1"], None),
    (["flow", "quartic", "--lam1", "1"], None),
    (["flow", "quartic", "--lam0", "100", "--lam1", "100"], None),
    (["kh-scan", "--points", "0"], None),
    (["kh-scan", "--lambdas", ",,"], None),
    (["kh-scan", "--n-fit", "3"], None),
    (["kh-scan", "--z-window", "0.5"], None),
    (["kh-scan", "--eps-exp", "0"], None),
    (["kh-scan"], {"z-window": "0.2"}),
    (["flow", "quartic"], {"g0": "1"}),
    (["oracle", "quartic"], {"g": "x"}),
    (["oracle", "quartic"], {"g": None}),
    (["flow", "quartic"], {"beta": ["closed"]}),
    (["kh-scan"], {"eps-exp": 2, "eps_exp": 3}),
], ids=["oracle-even-n", "analyze-even-n", "oracle-string-n",
        "analyze-string-n", "oracle-zero-half-width",
        "analyze-negative-half-width", "oracle-negative-level",
        "oracle-negative-level-config", "analyze-bogus-sign-policy",
        "analyze-models-string", "oracle-format-xml", "oracle-output-number",
        "oracle-params-list", "flow-lam0-at-floor", "flow-lam1-at-floor",
        "flow-equal-cutoffs", "kh-scan-zero-points", "kh-scan-empty-lambdas",
        "kh-scan-few-fit-samples", "kh-scan-wide-z-window",
        "kh-scan-zero-eps-exp", "kh-scan-string-z-window",
        "flow-string-g0", "oracle-string-param", "oracle-null-param",
        "flow-list-beta", "kh-scan-both-spellings"])
def test_bad_settings_exit_2(tmp_path, args, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = args + ["--config", "cfg.json"]
    res = run_cli(args, tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    assert "config error" in res.stderr
    assert "Traceback" not in res.stderr
    assert not list(tmp_path.glob("*.csv"))  # rejected before any report
    assert not list(tmp_path.glob("*.xml"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["kh-scan", "--eps-exp", "1e-120"],
    ["kh-scan", "--eps-exp", "1e160"],
    ["oracle", "quartic", "--half-width", "1e-160"],
    ["oracle", "quartic", "--half-width", "1e160"],
    ["flow", "quartic", "--g0", "1e300"],
    ["oracle", "quartic", "--g", "-1"],
], ids=["kh-scan-tiny-eps-exp", "kh-scan-huge-eps-exp",
        "oracle-tiny-half-width", "oracle-huge-half-width", "flow-huge-g0",
        "oracle-inverted-quartic"])
def test_extreme_numbers_exit_1(tmp_path, args):
    """Finite inputs whose numbers leave the float range end in one
    UVFlowError line and exit 1: no traceback, no RuntimeWarning, no hang."""
    res = run_cli(args, tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    assert re.search(r": \w+Error: ", res.stderr.splitlines()[0])
    assert "Traceback" not in res.stderr


def _long_options():
    """(subcommand, option, bad value) for every long option a config file
    may set; the value has the wrong JSON type for that option."""
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a.choices, dict))
    return [pytest.param(name, opt[2:], "yes" if action.nargs == 0 else True,
                         id=name + opt[1:])
            for name, sub in commands.items() for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt not in ("--help", "--config")]


@pytest.mark.parametrize("command, key, value", _long_options())
def test_config_sets_every_long_option(tmp_path, command, key, value):
    """A config key named like a long option reaches that option: a value
    of the wrong type is a config error, never ignored."""
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    args = [command] + (["quartic"] if command in ("flow", "oracle") else [])
    res = run_cli(args + ["--config", "cfg.json"], tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    assert "config error" in res.stderr
    assert not list(tmp_path.glob("*.csv"))


def test_config_keys_match_flags(tmp_path):
    """Config keys, with - or _, give the same report as the flags."""
    (tmp_path / "cfg.json").write_text(json.dumps({"g": 8, "half_width": 5}))
    res = run_cli(["oracle", "quartic", "--config", "cfg.json",
                   "--output", "config.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli(["oracle", "quartic", "--g", "8", "--half-width", "5",
                   "--output", "flags.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    config = (tmp_path / "config.csv").read_text()
    assert config == (tmp_path / "flags.csv").read_text()
    assert read_csv_rows(tmp_path / "config.csv")[0]["half_width"] == "5"


def test_oracle_morse(tmp_path):
    out = tmp_path / "m.json"
    res = run_cli(["oracle", "morse", "--A", "9", "--format", "json",
                   "--output", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    row = json.loads(out.read_text())["rows"][0]
    exact = -9.0 + math.sqrt(4.5) - 0.125
    assert abs(row["refinement_estimate"] - exact) < 1e-6
    assert row["parity"] == "none"


def test_paper_suite_passes(tmp_path):
    res = run_cli_process(["paper-suite"], tmp_path)  # as a user runs it
    assert res.returncode == 0, res.stdout + res.stderr
    assert "9/9 criteria passed" in res.stdout
