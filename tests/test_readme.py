"""The README's Python examples run against the current API, and its
command examples run against the current command line."""

import os
import re
import shlex
import subprocess

import pytest

from uvflow import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
with open(README) as fh:
    TEXT = fh.read()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.splitlines() if line.strip()]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, README, "exec"), {"__name__": "readme"})


def test_readme_commands_run(tmp_path, monkeypatch):
    """Every line of the README's sh blocks exits 0, run in order in one
    empty directory; a uvflow line calls the entry point in process, any
    other line runs in the shell."""
    assert any(line.startswith("uvflow ") for line in COMMANDS)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("UVFLOW_OUTPUT_DIR", raising=False)
    for line in COMMANDS:
        if line.startswith("uvflow "):
            try:
                code = cli.main(shlex.split(line)[1:])
            except SystemExit as exc:
                code = exc.code
        else:
            code = subprocess.run(line, shell=True).returncode
        assert code == 0, line


def _subcommand_options():
    """{subcommand: its long options but --help}, read from the parser."""
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a.choices, dict))
    return {name: {opt for action in sub._actions
                   for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, sub in commands.items()}


# the README's synopses: fenced blocks without a language that start with
# "uvflow <command>"
SYNOPSES = re.findall(r"^```\n(uvflow [\w-]+.*?)^```", TEXT, re.M | re.S)


def test_readme_synopses_list_only_parser_options():
    options = _subcommand_options()
    assert {block.split()[1] for block in SYNOPSES} == set(options)
    for block in SYNOPSES:
        command = block.split()[1]
        listed = set(re.findall(r"--[\w-]+", block))
        assert listed <= options[command], (command, listed - options[command])


def test_readme_names_every_option():
    for command, options in _subcommand_options().items():
        for option in options:
            assert re.search(rf"(?<![\w-]){option}(?![\w-])", TEXT), \
                (command, option)
