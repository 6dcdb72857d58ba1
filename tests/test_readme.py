"""The README's library example runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from seqgme import generate_schedule, witness_value

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert match, "README has no python block under '## Library example'"
    return match.group(1)


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    schedule = generate_schedule(0.05, epsilon=0.05, max_k=8)
    # One row per planned observer, each detecting; then the mixed family's flags.
    assert len(lines) == len(schedule.values) + 3
    assert all(line.endswith(" True") for line in lines[: len(schedule.values)])
    assert lines[len(schedule.values)].startswith("[True")
    # The dense value of observer 3 is the closed form's.
    assert float(lines[-1]) == pytest.approx(witness_value(3, schedule.values), abs=1e-12)
