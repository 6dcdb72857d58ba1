"""The benchmark's workloads: inputs made from the seed, one pass over a fixed
set of operations, and a check on every operation. NOTES.md says why each
workload was chosen.

Calls go through module attributes (``densesim.expectation``, not a name
imported here), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from seqgme import analytic, cli, densesim, planner, states, witness

DENSE_CASES = (("ghz", 9), ("cluster", 10))
DENSE_OBSERVERS = 8
SYMBOLIC_FAMILIES = ("ghz", "cluster")
SYMBOLIC_SIZES = range(3, 11)
SYMBOLIC_LAMBDAS_PER_SIZE = 8
SYMBOLIC_TOL = 1e-12


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run the seqgme CLI in this process; its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def warm_up() -> None:
    """Pay lazy set-up (first BLAS/LAPACK calls, first CLI call) before timing."""
    call_cli(["run", "--state", "ghz", "--N", "3", "--lambdas", "0.5", "--format", "json"])
    states.stabilizer_expectation(
        witness.build_modified_ghz_witness(3, 0.5), states.stabilizer_generators("ghz", 3)
    )
    np.linalg.eigh(np.eye(4, dtype=complex))


def _modified_witness(family: str):
    if family == "cluster":
        return witness.build_modified_cluster_witness
    return witness.build_modified_ghz_witness


class Dense:
    """`seqgme run --mode both` on GHZ N=9 and cluster N=10, planned schedules.

    One operation is one CLI run. It passes when the CLI exits 0 (analytic and
    dense agree within AGREEMENT_TOL) with 8 rows that all detect. A traced
    pass replays cmd_run's steps instead, and must print the CLI's rows.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.cases = []
        for state, n in DENSE_CASES:
            lambda_1 = math.exp(rng.uniform(math.log(0.01), math.log(0.05)))
            epsilon = float(rng.uniform(0.01, 0.05))
            self.cases.append((state, n, lambda_1, epsilon))
        self.cli_output: dict[str, str] = {}

    @staticmethod
    def _rows_ok(text: str) -> bool:
        rows = json.loads(text)
        return (
            len(rows) == DENSE_OBSERVERS
            and all(row["detected"] for row in rows)
            and cli.run_disagreement(rows) <= cli.AGREEMENT_TOL
        )

    def run_pass(self, tracer=None) -> tuple[int, int]:
        failed = 0
        for state, n, lambda_1, epsilon in self.cases:
            if tracer is None:
                plan = f"l1={lambda_1!r},eps={epsilon!r},max_k={DENSE_OBSERVERS}"
                code, text = call_cli(
                    ["run", "--mode", "both", "--state", state, "--N", str(n),
                     "--plan", plan, "--format", "json"]
                )
                self.cli_output[state] = text
                failed += not (code == 0 and self._rows_ok(text))
            else:
                tracer.next_op()
                text = self.replay(state, n, lambda_1, epsilon)
                failed += not (text == self.cli_output.get(state) and self._rows_ok(text))
        return len(self.cases), failed

    @staticmethod
    def replay(state: str, n: int, lambda_1: float, epsilon: float) -> str:
        """cmd_run's steps for a ghz/cluster state in `both` mode, rendered as JSON."""
        family = states.StateFamily.parse(state, n)
        lambdas = planner.generate_schedule(lambda_1, epsilon, DENSE_OBSERVERS).values
        analytic_values = [r.witness_value for r in analytic.full_sequence_report(family, lambdas)]
        build = _modified_witness(family.witness_family)
        rho = family.density_matrix()
        dense_values = []
        for lam in lambdas:
            dense_values.append(densesim.expectation(rho, build(n, lam)))
            rho = densesim.luders_update(rho, lam)
        rows = [
            {
                "k": index + 1,
                "lambda_k": lam,
                "witness_value_analytic": value,
                "witness_value_dense": dense,
                "detected": value < 0.0,
                "margin": abs(value),
            }
            for index, (lam, value, dense) in enumerate(zip(lambdas, analytic_values, dense_values))
        ]
        return cli.render_rows(rows, cli.RUN_COLUMNS, "", "json")


class Symbolic:
    """Witness build, stabilizer generators and GF(2) evaluation, no dense matrices.

    One operation is one (family, N, lambda); it passes when the GF(2) value of
    the modified witness equals observer 1's closed-form value within 1e-12.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.cases = [
            (family, n, float(lam))
            for family in SYMBOLIC_FAMILIES
            for n in SYMBOLIC_SIZES
            for lam in rng.uniform(size=SYMBOLIC_LAMBDAS_PER_SIZE)
        ]

    def run_pass(self, tracer=None) -> tuple[int, int]:
        failed = 0
        for family, n, lam in self.cases:
            if tracer is not None:
                tracer.next_op()
            expr = _modified_witness(family)(n, lam)
            generators = states.stabilizer_generators(family, n)
            value = states.stabilizer_expectation(expr, generators)
            expected = analytic.full_sequence_report(family, [lam])[0].witness_value
            failed += not abs(value - expected) <= SYMBOLIC_TOL
        return len(self.cases), failed


class Verify:
    """`seqgme verify all --seed S`; one operation is one check row."""

    def __init__(self, seed: int) -> None:
        self.argv = ["verify", "all", "--seed", str(seed), "--format", "json"]

    def run_pass(self, tracer=None) -> tuple[int, int]:
        if tracer is not None:
            tracer.next_op()
        code, text = call_cli(self.argv)
        rows = json.loads(text) if code in (0, 1) else []
        failed = sum(not row["passed"] for row in rows)
        if not rows or (code != 0 and failed == 0):
            return max(len(rows), 1), max(failed, 1)
        return len(rows), failed


WORKLOADS = {"dense": Dense, "symbolic": Symbolic, "verify": Verify}
