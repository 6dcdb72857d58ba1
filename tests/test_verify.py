"""The verification suites' use of the dense engine."""

import math
from unittest import mock

import numpy as np
import pytest

from seqgme import densesim, verify
from seqgme.errors import ValidationError
from seqgme.pauli import OperatorExpr, PauliString
from seqgme.verify import verify_biseparable, verify_recursion
from seqgme.witness import build_modified_witness

SHARPNESS_GRID = (0.0, 0.3, 0.7, 1.0)


def _stack_sizes(calls) -> list[int]:
    """The number of matrices in the first argument of each mocked call."""
    return [math.prod(call.args[0].shape[:-2]) for call in calls]


def test_recursion_suite_validates_each_schedule_once():
    # One validation per qubit count, of the stack of its start states: each
    # schedule's state once, and no state of a chain after it.
    with mock.patch.object(
        densesim, "validate_density_matrix", wraps=densesim.validate_density_matrix
    ) as check:
        results = verify_recursion(seed=5, schedules=4)
    assert all(result.passed for result in results)
    assert sum(_stack_sizes(check.call_args_list)) == 4
    dims = [call.args[0].shape[-1] for call in check.call_args_list]
    assert len(dims) == len(set(dims))


def test_recursion_suite_checks_each_observable_once():
    # Per qubit count, three Hermiticity sweeps: the start states' (in their
    # validation), then the z and the x observables', each against all six
    # states of the chain. Checked one call at a time, the 10 schedules made
    # 10 + 2 * 6 * 10 = 130 checks.
    schedules = 10
    with (
        mock.patch.object(densesim, "_max_asymmetry", wraps=densesim._max_asymmetry) as check,
        mock.patch.object(verify, "expectation", wraps=densesim.expectation) as evaluate,
    ):
        results = verify_recursion(seed=5, schedules=schedules)
    assert all(result.passed for result in results)
    assert sum(_stack_sizes(check.call_args_list)) == 3 * schedules
    groups = len({call.args[0].shape[-1] for call in check.call_args_list})
    assert check.call_count == 3 * groups
    assert evaluate.call_count == 2 * groups
    assert all(call.args[0].shape[0] == 6 for call in evaluate.call_args_list)


def test_biseparable_values_match_each_witness_complex_expectation():
    seen = []
    evaluate = verify._product_values

    def spy(rows, stacked):
        values = evaluate(rows, stacked)
        seen.append((rows.copy(), stacked, values))
        return values

    with mock.patch.object(verify, "_product_values", spy):
        verify_biseparable(seed=3, samples=300)
    # 2 families x (3 + 7 bipartitions) x 2 blocks: 256 rows, then 44.
    assert len(seen) == 40
    eps = np.finfo(float).eps
    for index, (rows, stacked, values) in enumerate(seen):
        family = "ghz" if index < 20 else "cluster"
        n = rows.shape[1].bit_length() - 1
        witnesses = [build_modified_witness(family, n, lam).to_matrix() for lam in SHARPNESS_GRID]
        assert np.array_equal(stacked, np.concatenate(witnesses, axis=1).real)
        assert values.shape == (len(rows), len(witnesses))
        for column, matrix in zip(values.T, witnesses):
            complex_values = np.einsum("bi,bi->b", rows.conj() @ matrix, rows)
            # The rounding scale of both sums: |psi|^T |W| |psi|.
            scale = np.einsum("bi,bi->b", np.abs(rows) @ np.abs(matrix), np.abs(rows))
            assert np.all(np.abs(column - complex_values.real) <= 4 * eps * scale)


def _reported_minimum(result) -> float:
    return float(result.detail.rsplit(" ", 1)[1])


# The sampler's minima at this seed are 0.334 (ghz) and 0.264 (cluster), so
# W - 0.05 I stays positive there; W - 0.5 I goes negative and must fail.
@pytest.mark.parametrize("shift", [0.05, 0.5])
def test_shifted_witness_moves_the_reported_minimum(shift):
    plain = verify_biseparable(seed=3, samples=200)

    def shifted(family, n, sharpness):
        return build_modified_witness(family, n, sharpness) - shift * OperatorExpr.identity(n)

    with mock.patch.object(verify, "build_modified_witness", shifted):
        moved = verify_biseparable(seed=3, samples=200)
    for before, after in zip(plain, moved):
        minimum = _reported_minimum(after)
        assert minimum == pytest.approx(_reported_minimum(before) - shift, abs=1e-3)
        assert after.passed == (minimum >= 0)
        assert after.residual == pytest.approx(max(-minimum, 0.0), rel=1e-3)


def test_witness_with_an_imaginary_entry_is_refused():
    def complex_witness(family, n, sharpness):
        y_on_first = OperatorExpr.from_terms(n, [PauliString("Y" + "I" * (n - 1), 0.1)])
        return build_modified_witness(family, n, sharpness) + y_on_first

    with mock.patch.object(verify, "build_modified_witness", complex_witness):
        with pytest.raises(ValidationError, match="imaginary entries"):
            verify_biseparable(seed=3, samples=10)


@pytest.mark.parametrize("samples", [0, verify.MAX_SAMPLES + 1])
def test_library_call_refuses_a_sample_count_out_of_range(samples):
    # Refused before any batch is drawn, as the CLI's --samples is.
    with mock.patch.object(verify, "biseparable_statevectors") as sampler:
        with pytest.raises(ValueError, match=f"samples must be at (least|most) .*got {samples}"):
            verify_biseparable(seed=3, samples=samples)
    sampler.assert_not_called()
