"""The README's Python examples run against the current API."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
with open(README) as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, README, "exec"), {"__name__": "readme"})
