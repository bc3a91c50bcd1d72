import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings

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


# the line an exit-2 run ends on: argparse's usage errors and the CLI's
# config errors, "uvflow[ <command>]: [config ]error: ..."
ERROR_LINE = re.compile(r"^uvflow( [\w-]+)?: (config )?error: ", re.M)


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


def test_analyze_sign_branch_column(tmp_path):
    """The column reads "ambiguous" exactly where the flow limit carries
    both root branches; the kh row always does."""
    expected = {"morse": "positive", "quartic": "positive",
                "coulomb": "ambiguous", "kh": "ambiguous"}
    for fmt in ("csv", "json"):
        out = tmp_path / f"a.{fmt}"
        res = run_cli(["analyze", "--format", fmt, "--output", str(out)],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        rows = (read_csv_rows(out) if fmt == "csv"
                else json.loads(out.read_text())["rows"])
        assert {r["model"]: r["sign_branch"] for r in rows} == expected


def test_sign_policy_option_is_gone(tmp_path):
    res = run_cli(["analyze", "--sign-policy", "prefer-positive"], tmp_path)
    assert res.returncode == 2
    res = run_cli(["analyze", "quartic", "--sign-policy", "prefer-positive"],
                  tmp_path)
    assert res.returncode == 2
    assert "unrecognized arguments: --sign-policy" in res.stderr
    assert not list(tmp_path.glob("*.csv"))


def test_analyze_accepts_a_parameter_any_model_reads(tmp_path):
    """analyze takes a parameter that one of its models reads; the models
    that do not read it are unaffected."""
    out = tmp_path / "a.csv"
    res = run_cli(["analyze", "quartic", "kh", "--K", "2", "--output", str(out)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    rows = {r["model"]: r for r in read_csv_rows(out)}
    assert list(rows) == ["quartic", "kh"]
    assert float(rows["kh"]["rg_energy"]) == float(
        cli._fmt(uvflow.kh.scaled_energy_from_K(2.0, 1.0)))
    assert float(rows["quartic"]["rg_energy"]) == 1.0


def test_analyze_output_is_deterministic(tmp_path):
    # two interpreters, so no state carries over between the runs
    args = ["analyze", "quartic", "--format", "json", "--output", "det.json"]
    assert run_cli_process(args, tmp_path).returncode == 0
    first = (tmp_path / "det.json").read_bytes()
    assert run_cli_process(args, tmp_path).returncode == 0
    assert (tmp_path / "det.json").read_bytes() == first


# the reference reports: the file each writes, or None for its stdout
REFERENCE_REPORTS = [("analyze.csv", ["analyze"]),
                     ("analyze.json", ["analyze", "--format", "json"])] + [
    (f"oracle_{model}.csv", ["oracle", model])
    for model in ("morse", "quartic", "coulomb", "soft-coulomb")] + [
    (None, ["paper-suite"])]


def reference_reports(tmp_path):
    """The bytes of every reference report, keyed by command line."""
    reports = {}
    for name, args in REFERENCE_REPORTS:
        res = run_cli(args, tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        reports[" ".join(args)] = (res.stdout.encode() if name is None
                                   else (tmp_path / name).read_bytes())
    return reports


def test_reports_do_not_depend_on_how_levels_are_bracketed(tmp_path, monkeypatch):
    """Every reference report prints the same bytes whether each grid level
    is found in its predicted window, bisected by index, or found from a
    deliberately bad seed: the predicted seed moved by three window
    half-widths (3 x 0.5%), alternately above and below, so that its
    window misses the level, or holds it far off center (a ground state's
    window, which reaches down below the spectrum, seeded above it)."""
    from uvflow import eigensolver

    predicted = eigensolver._seed
    flips = itertools.count()

    def by_index(h, rungs):
        return None

    def bad_seed(h, rungs):
        seed = predicted(h, rungs)
        if seed is None:
            return None
        width = eigensolver._WINDOW * max(1.0, abs(seed))
        return seed + (3.0 if next(flips) % 2 == 0 else -3.0) * width

    reports = {}
    for route, seeding in (("predicted", predicted), ("index", by_index),
                           ("bad seed", bad_seed)):
        monkeypatch.setattr(eigensolver, "_seed", seeding)
        reports[route] = reference_reports(tmp_path)
    assert reports["index"] == reports["predicted"]
    assert reports["bad seed"] == reports["predicted"]
    # the digit that the level of the exact finite-difference matrix rounds to
    row = read_csv_rows(tmp_path / "oracle_soft-coulomb.csv")[0]
    assert row["eigenvalue"] == "-0.499964844036"


def test_unknown_model_exits_2(tmp_path):
    res = run_cli(["analyze", "cubic"], tmp_path)
    assert res.returncode == 2
    assert "invalid choice: 'cubic'" in res.stderr


def test_missing_config_exits_2(tmp_path):
    # through the module entry point, whose sys.exit must carry the code
    res = run_cli_process(["analyze", "quartic", "@absent.args"], tmp_path)
    assert res.returncode == 2
    assert "uvflow: error: " in res.stderr and "absent.args" in res.stderr
    assert "Traceback" not in res.stderr


def test_flag_overrides_config(tmp_path):
    """A setting given later wins, whether a flag or an args-file line."""
    (tmp_path / "run.args").write_text("--lam0=100\n--g0=1\n--lam1=1000\n")
    res = run_cli(["flow", "quartic", "@run.args", "--lam0", "10",
                   "--output", "later-flag.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = read_csv_rows(tmp_path / "later-flag.csv")
    assert float(rows[0]["lambda"]) == 10.0
    assert float(rows[-1]["lambda"]) == 1000.0  # the file still supplies lam1
    res = run_cli(["flow", "quartic", "--lam0", "10", "@run.args",
                   "--output", "later-file.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert float(read_csv_rows(tmp_path / "later-file.csv")[0]["lambda"]) == 100.0


@pytest.mark.parametrize("content", [b"@run.args\n", b"--g=8\n\xff\xfe\n"],
                         ids=["includes-itself", "not-text"])
def test_unreadable_args_file_exits_2(tmp_path, content):
    (tmp_path / "run.args").write_bytes(content)
    res = run_cli(["oracle", "quartic", "@run.args"], tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    # The message differs by environment: Python 3.12 decodes the file with
    # surrogateescape, so bytes that are not text become an unrecognized
    # argument, and a low open-file limit stops the self-inclusion with
    # argparse's own OSError message before RecursionError.
    assert ERROR_LINE.search(res.stderr)
    assert "Traceback" not in res.stderr
    assert not list(tmp_path.glob("*.csv"))


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


def test_flow_mid_flow_abort_writes_the_rows_reached(tmp_path, monkeypatch):
    def beta(spec, g, lam, _beta=cli.beta_closed_form):
        if lam > 100.0:
            raise uvflow.FlowUndefinedError("no beta above 100")
        return _beta(spec, g, lam)

    monkeypatch.setattr(cli, "beta_closed_form", beta)
    out = tmp_path / "q.csv"
    res = run_cli(["flow", "quartic", "--output", str(out)], tmp_path)
    assert res.returncode == 1
    assert "wrote partial trajectory" in res.stderr
    lams = [float(r["lambda"]) for r in read_csv_rows(out)]
    # 14 of the 41 samples lie below 100; the step that passes 100 fails
    assert lams[0] == 10.0 and 1 < len(lams) <= 14
    assert lams[-1] <= 100.0


def test_flow_zero_g0_writes_the_header_and_exits_1(tmp_path):
    out = tmp_path / "q.csv"
    res = run_cli(["flow", "quartic", "--g0", "0", "--output", str(out)],
                  tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("flow/quartic: IntegrationAbortError: ")
    assert read_csv_rows(out) == []


@pytest.mark.parametrize("model", ["coulomb", "soft-coulomb"])
def test_flow_coulomb_shapes_reach_large_cutoffs(tmp_path, model):
    """The coupling falls as Lambda^-3 towards 0 from below and the flow
    follows it to 1e8, holding the family's energy law."""
    out = tmp_path / "c.csv"
    res = run_cli(["flow", model, "--lam1", "1e8", "--output", str(out)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    rows = read_csv_rows(out)
    assert len(rows) == 41 and float(rows[-1]["lambda"]) == 1.0e8
    law = uvflow.uv_energy_law(cli.build_spec(model, {}))
    levels = [law(float(r["coupling"]), float(r["lambda"])) for r in rows]
    assert max(abs(e / levels[0] - 1.0) for e in levels) < 1e-7


def test_flow_soft_coulomb_reaches_cutoffs_where_its_curvature_is_finite(tmp_path):
    """V'' of the softened shape grows as Lambda^3 and stays finite to
    about 8e102, so the flow reaches 1e100."""
    out = tmp_path / "s.csv"
    res = run_cli(["flow", "soft-coulomb", "--lam1", "1e100", "--output", str(out)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    rows = read_csv_rows(out)
    assert len(rows) == 41 and float(rows[-1]["lambda"]) == 1.0e100


def test_flow_energy_failure_writes_the_rows_before_it(tmp_path):
    """A row whose reduced level leaves the float range ends the report
    there, and an integration abort before it is still reported."""
    out = tmp_path / "q.csv"
    res = run_cli(["flow", "quartic", "--g0", "1e155", "--output", str(out)],
                  tmp_path)
    assert res.returncode == 1
    assert "flow/quartic: DomainError: the reduction at cutoff" in res.stderr
    assert "wrote partial trajectory" in res.stderr
    rows = read_csv_rows(out)
    assert 10 < len(rows) < 41 and float(rows[0]["lambda"]) == 10.0

    res = run_cli(["flow", "quartic", "--g0", "1e200", "--output", str(out)],
                  tmp_path)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert lines[0].startswith("flow/quartic: IntegrationAbortError: ")
    assert lines[1].startswith("flow/quartic: DomainError: ")
    assert read_csv_rows(out) == []  # the first row already fails

    # kh: downward from 1e4, K**2/ln(lam) with K = 1.2e154 overflows below lam = e
    res = run_cli(["flow", "kh", "--K", "1.2e154", "--lam0", "1e4", "--lam1", "2.1",
                   "--points", "5", "--output", str(out)], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("flow/kh: DomainError: ")
    assert "wrote partial trajectory" in res.stderr
    assert len(read_csv_rows(out)) == 4


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


@pytest.mark.parametrize("model, g0", [
    ("morse", "4"), ("quartic", "1"), ("coulomb", "-1"), ("soft-coulomb", "-1"),
])
def test_flow_default_g0_is_where_beta_is_defined(tmp_path, model, g0):
    """By default g0 is the model's coupling on the side where the family's
    beta is defined, that of its canonical fixed point: g < 0 for the
    Coulomb shapes."""
    res = run_cli(["flow", model, "--output", "default.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli(["flow", model, "--g0", g0, "--output", "given.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    default = (tmp_path / "default.csv").read_text()
    assert default == (tmp_path / "given.csv").read_text()
    assert len(read_csv_rows(tmp_path / "default.csv")) == 41


def test_flow_on_fixed_point_conserves_energy(tmp_path):
    out = tmp_path / "fp.json"
    res = run_cli(["flow", "quartic", "--start-on-fixed-point",
                   "--lam0", "100", "--lam1", "10000", "--format", "json",
                   "--output", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    energies = [r["energy"] for r in json.loads(out.read_text())["rows"]]
    assert max(energies) - min(energies) < 1e-4


def test_flow_morse_starts_on_the_exact_fixed_point(tmp_path):
    """The Morse fixed point is the pointwise stiffness match
    1/(4 e^(-2/lam) - 2 e^(-1/lam)) for A = 4, read at lam0 = 10 itself."""
    out = tmp_path / "fp.json"
    res = run_cli(["flow", "morse", "--start-on-fixed-point", "--format", "json",
                   "--output", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    first = json.loads(out.read_text())["rows"][0]
    exact = 1.0 / (4.0 * math.exp(-0.2) - 2.0 * math.exp(-0.1))
    assert first["lambda"] == 10.0
    assert abs(first["coupling"] - exact) < 1e-11 * exact


def test_kh_scan_limits(tmp_path):
    out = tmp_path / "scan.json"
    res = run_cli(["kh-scan", "--eps-exp", "10", "--lam0", "100", "--lam1", "1000",
                   "--points", "2", "--format", "json", "--output", str(out)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert [row["lambda"] for row in payload["rows"]] == [100.0, 1000.0]
    for row in payload["rows"]:
        assert abs(row["small_field_energy"] + 0.49) < 1e-10
        assert 0.8 < row["c2_over_log"] < 1.2
    limits = payload["limits"]
    assert abs(limits["small_field"]["K"]
               + math.sqrt(2.0 / (math.pi * 1000.0))) < 1e-12
    strong = limits["strong_field"]
    branches = strong["branches"]
    assert abs(branches[0] - 103.556205277) < 1e-6
    assert abs(branches[1] - 23.7677491966) < 1e-6
    assert strong["energy"] == branches[0]
    assert strong["K_squared"] == 10.0


def test_kh_scan_rejects_low_cutoffs(tmp_path):
    res = run_cli(["kh-scan", "--lam0", "1.5"], tmp_path)
    assert res.returncode == 2
    assert "uvflow kh-scan: error: argument --lam0: " in res.stderr


@pytest.mark.parametrize("args", [
    ["flow", "quartic", "--points", "0"],
    ["kh-scan", "--lam1", "1e2abc"],
])
def test_malformed_numbers_exit_2(tmp_path, args):
    res = run_cli(args, tmp_path)
    assert res.returncode == 2, res.stderr
    option = next(arg for arg in args if arg.startswith("--"))
    assert f"error: argument {option}: " in res.stderr
    assert "Traceback" not in res.stderr


# what rejects a bad setting, as its stderr says: argparse, for an option
# outside its type or choices, or for an unknown or conflicting option; or
# the command, for the rules that involve two settings or the file system.
# An unknown option is named even where its value is read as analyze's
# model, which is checked after parsing.
UNKNOWN = "unrecognized arguments"
CONFIG = "config error"


def _arg(option):
    return f"error: argument {option}: "


HUGE = "1" + "0" * 30  # 10**30, past the largest array numpy can size


@pytest.mark.parametrize("args, lines, expect", [
    (["oracle", "quartic", "--n", "4000"], None, _arg("--n")),
    (["analyze", "--n", "4000"], None, UNKNOWN + ": --n"),
    (["oracle", "quartic", "--half-width", "0"], None, _arg("--half-width")),
    (["analyze", "quartic", "--half-width", "-3"], None, UNKNOWN),
    (["oracle", "quartic", "--level", "-1"], None, _arg("--level")),
    (["oracle", "quartic"], ["--level=-1"], _arg("--level")),
    (["analyze"], ["--sign-policy=bogus"], UNKNOWN),
    (["analyze"], ["--models=quartic"], UNKNOWN),
    (["oracle", "quartic"], ["--format=xml"], _arg("--format")),
    (["oracle", "quartic"], ["--params=1"], UNKNOWN),
    (["flow", "quartic", "--lam0", "1"], None, _arg("--lam0")),
    (["flow", "quartic", "--lam1", "1"], None, _arg("--lam1")),
    (["flow", "quartic", "--lam0", "100", "--lam1", "100"], None, CONFIG),
    (["kh-scan", "--points", "0"], None, _arg("--points")),
    (["kh-scan", "--lambdas", ",,"], None, UNKNOWN),
    (["kh-scan", "--n-fit", "3"], None, _arg("--n-fit")),
    (["kh-scan", "--z-window", "0.5"], None, _arg("--z-window")),
    (["kh-scan", "--eps-exp", "0"], None, _arg("--eps-exp")),
    (["oracle", "quartic"], ["--g=x"], _arg("--g")),
    (["oracle", "quartic"], ["--g="], _arg("--g")),
    (["flow", "quartic"], ["--beta=closed,numeric"], _arg("--beta")),
    (["kh-scan"], ["--eps-exp=2", "--eps_exp=3"], UNKNOWN),
    (["flow", "kh", "--g0", "5"], None, CONFIG),
    (["flow", "kh", "--beta", "numeric"], None, CONFIG),
    (["flow", "kh", "--start-on-fixed-point"], None, CONFIG),
    (["flow", "kh", "--alpha", "2"], None, CONFIG),
    (["flow", "kh"], ["--lam=100"], CONFIG),
    (["flow", "kh"], ["--start-on-fixed-point"], CONFIG),
    (["oracle", "quartic", "--K", "5", "--A", "3", "--eps-exp", "2"], None,
     CONFIG),
    (["oracle", "quartic"], ["--K=5"], CONFIG),
    (["oracle", "morse", "--g", "5"], None, CONFIG),
    (["oracle", "morse"], ["--g=5"], CONFIG),
    (["oracle", "kh", "--K", "2"], None, CONFIG),
    (["flow", "quartic", "--alpha", "5"], None, CONFIG),
    (["flow", "quartic"], ["--alpha=3"], CONFIG),
    (["analyze", "--lam", "100"], None, CONFIG),
    (["analyze"], ["--lam=100"], CONFIG),
    (["analyze", "kh", "--alpha", "2"], None, CONFIG),
    (["flow", "morse", "--points", HUGE], None, _arg("--points")),
    (["flow", "morse", "--points", str(cli.MAX_COUNT + 1)], None,
     _arg("--points")),
    (["kh-scan", "--points", HUGE], None, _arg("--points")),
    (["kh-scan", "--n-fit", HUGE], None, _arg("--n-fit")),
    (["oracle", "quartic", "--n", HUGE + "1"], None, _arg("--n")),
    (["oracle", "quartic", "--level", HUGE], None, _arg("--level")),
    (["analyze", "quartic", "--n", HUGE + "1"], None, UNKNOWN),
    (["oracle", "quartic"], ["--n=" + HUGE + "1"], _arg("--n")),
    (["flow", "morse", "--output", "."], None, CONFIG),
    (["kh-scan", "--lambdas", "1e2", "--points", "0", "--lam0", "1"], None,
     _arg("--points")),
    (["analyze", "kh", "--n", "101", "--half-width", "0.5"], None, UNKNOWN),
    (["flow", "quartic", "--g0", "5", "--start-on-fixed-point"], None,
     _arg("--start-on-fixed-point") + "not allowed with argument --g0"),
    (["oracle", "quartic", "--n", "101", "--level", "49"], None,
     CONFIG + r": --level 49 .* refines 49 levels"),
    (["oracle", "coulomb", "--n", "101", "--level", "24"], None,
     CONFIG + r": --level 24 .* refines 24 levels"),
    (["oracle", "quartic", "--level", "1999"], None,
     CONFIG + r": --level 1999 .* refines 1999 levels"),
    (["oracle", "coulomb", "--n", "4001", "--level", "1500"], None,
     CONFIG + r": --level 1500 .* refines 999 levels"),
    (["oracle", "morse", "--a", "-1"], None, _arg("--a")),
    (["oracle", "morse", "--m", "0"], None, _arg("--m")),
    (["oracle", "soft-coulomb", "--lam", "0"], None, _arg("--lam")),
    (["flow", "kh", "--eps-exp", "-1"], None, _arg("--eps-exp")),
    (["analyze", "kh", "--eps-exp", "0"], None, _arg("--eps-exp")),
], ids=["oracle-even-n", "analyze-even-n", "oracle-zero-half-width",
        "analyze-negative-half-width", "oracle-negative-level",
        "oracle-negative-level-config", "analyze-bogus-sign-policy",
        "analyze-models-string", "oracle-format-xml", "oracle-params-list",
        "flow-lam0-at-floor", "flow-lam1-at-floor",
        "flow-equal-cutoffs", "kh-scan-zero-points", "kh-scan-empty-lambdas",
        "kh-scan-few-fit-samples", "kh-scan-wide-z-window",
        "kh-scan-zero-eps-exp", "oracle-string-param", "oracle-null-param",
        "flow-list-beta", "kh-scan-both-spellings", "flow-kh-g0",
        "flow-kh-beta", "flow-kh-start-on-fixed-point", "flow-kh-alpha",
        "flow-kh-lam-config", "flow-kh-fixed-point-config",
        "oracle-quartic-unread-params", "oracle-quartic-unread-config",
        "oracle-morse-unread-g", "oracle-morse-unread-g-config",
        "oracle-kh-unread-K", "flow-quartic-unread-alpha",
        "flow-quartic-unread-alpha-config", "analyze-unread-lam",
        "analyze-unread-lam-config", "analyze-kh-unread-alpha",
        "flow-huge-points", "flow-points-above-cap", "kh-scan-huge-points",
        "kh-scan-huge-n-fit", "oracle-huge-n", "oracle-huge-level",
        "analyze-huge-n", "oracle-huge-n-config", "flow-output-directory",
        "kh-scan-lambdas-with-bad-range", "analyze-box",
        "flow-g0-and-fixed-point", "oracle-level-past-full-line",
        "oracle-level-past-odd-sector", "oracle-level-past-companion",
        "oracle-level-past-odd-companion", "oracle-negative-morse-a",
        "oracle-zero-morse-m", "oracle-zero-soft-coulomb-lam",
        "flow-kh-negative-eps-exp", "analyze-kh-zero-eps-exp"])
def test_bad_settings_exit_2(tmp_path, args, lines, expect):
    """Each setting is rejected before any report is written, and stderr
    says what rejected it, matching ``expect``; a row with ``lines`` gives its
    settings in an args file, which is rejected as the same flags are."""
    if lines is not None:
        (tmp_path / "run.args").write_text("".join(ln + "\n" for ln in lines))
        args = args + ["@run.args"]
    res = run_cli(args, tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    assert ERROR_LINE.search(res.stderr)
    assert re.search(expect, res.stderr), res.stderr
    assert (CONFIG in res.stderr) == expect.startswith(CONFIG)
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
    ["flow", "quartic", "--g0", "1e200"],
    ["flow", "quartic", "--g0", "1e155"],
    ["oracle", "quartic", "--g", "-1"],
    ["oracle", "soft-coulomb", "--lam", "1e300"],
    ["flow", "kh", "--K", "1e200"],
    ["flow", "kh", "--K", "1e150", "--eps-exp", "1e-10"],
    ["flow", "coulomb", "--lam0", "1e200", "--lam1", "1e201"],
    ["flow", "soft-coulomb", "--lam0", "1e103", "--lam1", "1e104"],
], ids=["kh-scan-tiny-eps-exp", "kh-scan-huge-eps-exp",
        "oracle-tiny-half-width", "oracle-huge-half-width", "flow-huge-g0",
        "flow-overflowing-offset", "flow-offset-overflows-mid-trajectory",
        "oracle-inverted-quartic", "oracle-soft-coulomb-huge-lam",
        "flow-kh-huge-K", "flow-kh-overflowing-level",
        "flow-coulomb-huge-cutoffs", "flow-soft-coulomb-huge-cutoffs"])
def test_extreme_numbers_exit_1(tmp_path, args):
    """Finite inputs whose numbers leave the float range end in
    UVFlowError lines and exit 1: no traceback, no RuntimeWarning, no hang,
    and no report cell that is not a finite number."""
    res = run_cli(args, tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    assert re.search(r": \w+Error: ", res.stderr.splitlines()[0])
    assert "Traceback" not in res.stderr
    for path in tmp_path.glob("*.csv"):
        cells = {cell for row in read_csv_rows(path) for cell in row.values()}
        assert not cells & {"inf", "-inf", "nan"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["analyze", "soft-coulomb", "--lam", "1e300"],
    ["analyze", "kh", "--K", "1e200"],
], ids=["soft-coulomb-huge-lam", "kh-huge-K"])
def test_analyze_row_out_of_float_range_fails(tmp_path, args):
    """analyze reports a row's error in its notes and exits 1; the row
    holds no number that is not finite."""
    res = run_cli(args, tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "Traceback" not in res.stderr
    row, = read_csv_rows(tmp_path / "analyze.csv")
    assert ": DomainError: " in row["notes"]
    for column in ("rg_energy", "oracle_energy", "rel_error", "flow_law"):
        assert not re.search(r"\b(inf|nan)\b", row[column])


@pytest.mark.parametrize("args", [
    ["oracle", "quartic", "--g", "-1"],
    ["oracle", "kh"],
], ids=["inverted-quartic", "kh-defaults"])
def test_oracle_without_bound_state_says_so(tmp_path, args):
    """A level pressed against a wall where V is lowest is no bound state,
    and no larger box would help."""
    res = run_cli(args, tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "NoBoundStateError" in res.stderr
    assert "enlarge half_width" not in res.stderr


@pytest.mark.parametrize("args", [
    ["oracle", "quartic", "--n", "3"],
    ["oracle", "quartic", "--n", "5"],
    ["oracle", "quartic", "--n", "3", "--parity", "even"],
], ids=["n-3", "n-5", "n-3-even"])
def test_oracle_on_one_row_sectors_exits_1(tmp_path, args):
    """A grid whose sector, or whose companion's, has one row is solved,
    and on so coarse a grid the level has not decayed at the box edge; the
    message names the spacing and both remedies, a wider box or a finer
    grid."""
    res = run_cli(args, tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "DomainTooSmallError" in res.stderr
    spacing = 12.0 / (int(args[3]) - 1)
    assert (f"enlarge half_width, or n if the grid spacing {spacing:.6g} is too "
            "coarse for the level") in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ["oracle", "quartic", "--g", "1e170"],
    ["oracle", "quartic", "--g", "1e300"],
    ["oracle", "morse", "--A", "1e200"],
], ids=["quartic-g-1e170", "quartic-g-1e300", "morse-A-1e200"])
def test_oracle_on_a_huge_potential_exits_1(tmp_path, args):
    """A solve whose vector overflows the float range fails, naming the
    overflow, before numpy can warn of it or a NaN level can seed the next
    rung's window, which no Sturm count can certify."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_cli(args, tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "IterationLimitError" in res.stderr
    assert "overflows the float range" in res.stderr
    assert "Traceback" not in res.stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("g", ["1e16", "1e18", "1e20", "1e30"])
def test_oracle_refuses_a_level_the_grid_does_not_resolve(tmp_path, g):
    """A quartic level narrower than a few grid spacings, whose Richardson
    correction is 14% to 80% of it, exits 1 naming the grid size, with no
    traceback and no report."""
    res = run_cli(["oracle", "quartic", "--g", g], tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "DomainTooSmallError: level 0 is not resolved on 4001 points" in res.stderr
    assert "enlarge n" in res.stderr
    assert "Traceback" not in res.stderr
    assert not list(tmp_path.glob("*.csv"))


def run_python(code, args=(), cwd=None):
    """``python -c <code> <args>`` in a fresh interpreter; returns the JSON
    object the code prints on its last stdout line."""
    env = dict(os.environ)
    env.pop("UVFLOW_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


# the scipy modules loaded so far, as a child interpreter prints them
SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy():
    """Start-up stays on numpy: neither the package nor its CLI loads any
    scipy module."""
    loaded = run_python(
        f"import json, sys; import uvflow; first = {SCIPY_LOADED}; "
        f"import uvflow.cli; print(json.dumps([first, {SCIPY_LOADED}]))")
    assert loaded == [[], []]


@pytest.mark.parametrize("prelude, linalg", [
    ("", False),
    ("importlib.machinery.EXTENSION_SUFFIXES[:] = []; ", True),
], ids=["from-its-file", "file-not-found"])
def test_both_lapack_routes_solve_to_the_same_bits(prelude, linalg):
    """The grid oracle loads scipy's LAPACK extension from its file, and
    the scipy.linalg package only where no file is found (as when no
    extension suffix matches); either way a fresh interpreter solves to
    the bits of this one, which has imported scipy.linalg."""
    loaded, bits = run_python(
        f"import importlib.machinery, json, sys; {prelude}"
        "from uvflow import eigensolver, quartic; "
        "r = eigensolver.ground_state(quartic(1.0), eigensolver.Grid(6.0, 4001)); "
        f"print(json.dumps([{SCIPY_LOADED}, "
        "[r.eigenvalue.hex(), r.refinement_estimate.hex()]]))")
    here = uvflow.ground_state(uvflow.quartic(1.0), uvflow.Grid(6.0, 4001))
    assert bits == [here.eigenvalue.hex(), here.refinement_estimate.hex()]
    assert "scipy.linalg._flapack" in loaded
    assert ("scipy.linalg" in loaded) == linalg


def test_shooting_runs_without_scipy(tmp_path):
    """With scipy unimportable, the shooting oracle returns the same level
    to the bit, and the commands that solve no grid still run."""
    commands = ["flow morse", "kh-scan", "analyze kh"]
    level, codes = run_python(
        "import json, sys; sys.modules['scipy'] = None; "
        "from uvflow import Parity, cli, quartic, shooting; "
        "e = shooting.shooting_ground_energy(quartic(1.0), 6.0, parity=Parity.EVEN); "
        "codes = [cli.main(c.split()) for c in sys.argv[1:]]; "
        "print(json.dumps([e.hex(), codes]))", commands, cwd=tmp_path)
    here = uvflow.shooting_ground_energy(uvflow.quartic(1.0), 6.0,
                                         parity=uvflow.Parity.EVEN)
    assert level == here.hex()
    assert codes == [0] * len(commands)


def test_public_surface_is_unchanged():
    """The grid oracle's names load on first use, yet read as before."""
    namespace = {}
    exec("from uvflow import *", namespace)
    assert set(uvflow.__all__) <= set(namespace)
    assert uvflow.Grid is uvflow.eigensolver.Grid
    assert uvflow.Parity is uvflow.potentials.Parity is uvflow.eigensolver.Parity
    assert uvflow.shooting_ground_energy is uvflow.shooting.shooting_ground_energy
    assert set(uvflow.__all__) <= set(dir(uvflow))
    with pytest.raises(AttributeError):
        uvflow.no_such_name


@pytest.mark.parametrize("args, grid", [
    (["flow", "morse"], False),
    (["kh-scan"], False),
    (["analyze", "kh"], False),
    (["oracle", "quartic"], True),
], ids=["flow-morse", "kh-scan", "analyze-kh", "oracle-quartic"])
def test_only_grid_commands_load_scipy(tmp_path, args, grid):
    """A command that solves no grid runs on numpy alone; the grid oracle
    solves with scipy's LAPACK extension, never loading the scipy.linalg
    package."""
    code, loaded = run_python(
        "import json, sys; from uvflow import cli; code = cli.main(sys.argv[1:]); "
        f"print(json.dumps([code, {SCIPY_LOADED}]))", args, cwd=tmp_path)
    assert code == 0
    assert "scipy.linalg" not in loaded
    assert ("scipy.linalg._flapack" in loaded) == grid
    assert bool(loaded) == grid


def _long_options():
    """(subcommand, option) for every long option of every subcommand."""
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a.choices, dict))
    return [pytest.param(name, opt, id=name + opt[1:])
            for name, sub in commands.items() for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"]


@pytest.mark.parametrize("command, option", _long_options())
def test_config_sets_every_long_option(tmp_path, command, option):
    """An args-file line sets its option and passes the same checks as a
    flag: an invalid value is an error, never ignored.  nan is invalid for
    every option but --output, which gets a path under the args file."""
    value = "run.args/report.csv" if option == "--output" else "nan"
    (tmp_path / "run.args").write_text(f"{option}={value}\n")
    args = [command] + (["quartic"] if command in ("flow", "oracle") else [])
    res = run_cli(args + ["@run.args"], tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    assert ERROR_LINE.search(res.stderr)
    assert "Traceback" not in res.stderr
    assert not list(tmp_path.glob("*.csv"))


def test_config_keys_match_flags(tmp_path):
    """An args file gives the same report as the same flags."""
    (tmp_path / "run.args").write_text("--g=8\n--half-width\n5\n")
    res = run_cli(["oracle", "quartic", "@run.args", "--output", "file.csv"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli(["oracle", "quartic", "--g", "8", "--half-width", "5",
                   "--output", "flags.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    from_file = (tmp_path / "file.csv").read_text()
    assert from_file == (tmp_path / "flags.csv").read_text()
    assert read_csv_rows(tmp_path / "file.csv")[0]["half_width"] == "5"


def test_args_file_skips_blank_lines(tmp_path):
    (tmp_path / "run.args").write_text("--g=8\n\n--half-width=5\n")
    res = run_cli(["oracle", "quartic", "@run.args", "--output", "file.csv"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli(["oracle", "quartic", "--g", "8", "--half-width", "5",
                   "--output", "flags.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    from_file = (tmp_path / "file.csv").read_text()
    assert from_file == (tmp_path / "flags.csv").read_text()


def test_count_cap_is_inclusive():
    args = cli.build_parser().parse_args(
        ["flow", "morse", "--points", str(cli.MAX_COUNT)])
    assert args.points == cli.MAX_COUNT


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
