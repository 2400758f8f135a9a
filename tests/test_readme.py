"""The README's Python API example runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    oi, verdict = out.getvalue().splitlines()
    assert float(oi) == pytest.approx(3.9, abs=0.05)
    assert verdict == "capacity_exceeded 2"
