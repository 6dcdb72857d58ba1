"""Golden outputs: CLI commands compared with files captured from a known-good build.

Every column must match byte for byte, except the two that come from dense
floating-point sums, `witness_value_dense` and `max_residual`, which may move
by 1e-15. Regenerate a file only when a change of output is intended:

    PYTHONPATH=src python -m seqgme.cli <argv...> > tests/golden/<name>.csv
"""

import csv
import io
from pathlib import Path

import pytest

from seqgme.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_COLUMNS = ("witness_value_dense", "max_residual")
FLOAT_TOL = 1e-15
PLAN = "l1=0.05,eps=0.05"

CASES = {
    # The commands of the README's CLI section, in order.
    "readme_run_ghz_plan": ["run", "--state", "ghz", "--N", "4", "--plan", PLAN, "--mode", "both"],
    "readme_run_ghz_lambdas": ["run", "--state", "ghz", "--N", "3", "--lambdas", "1,1"],
    "readme_run_cluster": ["run", "--state", "cluster", "--N", "5", "--lambdas", "0.3"],
    "readme_run_mixed": [
        "run", "--state", "mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4", "--N", "3", "--plan", PLAN,
    ],
    "readme_sweep": ["sweep", "--lambda1-grid", "0.5,0.1,0.01,0.001"],
    "readme_plan": ["plan", "--n", "6", "--epsilon", "0.05"],
    "readme_verify_all": ["verify", "all", "--seed", "7"],
    # A second seed pins another set of biseparable minima and residuals.
    "verify_all_seed3": ["verify", "all", "--seed", "3"],
    # A third seed pins the order of the random draws of the stacked suites.
    "verify_all_seed11": ["verify", "all", "--seed", "11"],
    # Scaled thresholds of the generalized GHZ family, and the largest dense runs.
    "run_gghz_n6": ["run", "--state", "gghz:alpha=0.3", "--N", "6", "--plan", PLAN],
    "run_ghz_n10": ["run", "--state", "ghz", "--N", "10", "--plan", PLAN, "--mode", "both"],
    "run_cluster_n10": ["run", "--state", "cluster", "--N", "10", "--plan", PLAN, "--mode", "both"],
    # A GHZ witness on a mixed state at the largest dense size: its terms
    # share two X parts, so its dense column pins the bits of the folded read.
    "run_mixed_n10": [
        "run", "--state", "mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4", "--N", "10", "--plan", PLAN,
        "--mode", "both",
    ],
    # Edge sharpnesses of the dense read: a subnormal and a tiny slope, and
    # λ = 0, whose witness columns are W(0)'s.
    "run_ghz_n10_edge": [
        "run", "--state", "ghz", "--N", "10", "--mode", "dense", "--lambdas", "5e-324,0.3,1e-300,1,0",
    ],
    # One chain read in blocks of observers that share a term layout: λ = 0
    # takes W(0)'s columns, a block of its own, and 5e-324 keeps its
    # subnormal slope, so it shares a block with 0.2 and 1.
    "run_gghz_n6_edge": [
        "run", "--state", "gghz:alpha=0.3", "--N", "6", "--mode", "both",
        "--lambdas", "0.3,0,0.2,5e-324,1",
    ],
}


def _cells(text: str) -> tuple[str, list[dict]]:
    header, _, body = text.partition("\n")
    return header, list(csv.DictReader(io.StringIO(body)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN_DIR / f"{name}.csv").read_text()
    got_header, got_rows = _cells(got)
    want_header, want_rows = _cells(want)
    assert got_header == want_header
    assert got.splitlines()[1] == want.splitlines()[1]  # column names
    assert len(got_rows) == len(want_rows)
    for index, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
        for column, expected in want_row.items():
            actual = got_row[column]
            if column in FLOAT_COLUMNS and actual != expected:
                assert abs(float(actual) - float(expected)) <= FLOAT_TOL, (index, column)
            else:
                assert actual == expected, (index, column)
