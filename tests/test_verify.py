"""The verification suites' use of the dense engine."""

import math
from unittest import mock

import numpy as np
import pytest

from seqgme import densesim, verify
from seqgme.pauli import OperatorExpr, expand_projector_product
from seqgme.states import stabilizer_generators
from seqgme.verify import verify_biseparable, verify_oracle, verify_recursion
from seqgme.witness import build_modified_witness

SHARPNESS_GRID = (0.0, 0.3, 0.7, 1.0)


def _stack_sizes(calls) -> list[int]:
    """The number of matrices in the first argument of each mocked call."""
    return [math.prod(call.args[0].shape[:-2]) for call in calls]


def test_recursion_suite_validates_each_schedule_once(monkeypatch):
    # One validation per qubit count, of the stack of its start states: each
    # schedule's state once, and no state of a chain after it.
    monkeypatch.setattr(verify, "_RECURSION_SCHEDULES", 4)
    with mock.patch.object(
        densesim, "validate_density_matrix", wraps=densesim.validate_density_matrix
    ) as check:
        results = verify_recursion(seed=5)
    assert all(result.passed for result in results)
    assert sum(_stack_sizes(check.call_args_list)) == 4
    dims = [call.args[0].shape[-1] for call in check.call_args_list]
    assert len(dims) == len(set(dims))


def test_recursion_suite_checks_each_observable_once(monkeypatch):
    # Per qubit count, three Hermiticity sweeps: the start states' (in their
    # validation), then the z and the x observables', each against all six
    # states of the chain. Checked one call at a time, the 10 schedules made
    # 10 + 2 * 6 * 10 = 130 checks.
    schedules = 10
    monkeypatch.setattr(verify, "_RECURSION_SCHEDULES", schedules)
    with (
        mock.patch.object(densesim, "_max_asymmetry", wraps=densesim._max_asymmetry) as check,
        mock.patch.object(verify, "expectation", wraps=densesim.expectation) as evaluate,
    ):
        results = verify_recursion(seed=5)
    assert all(result.passed for result in results)
    assert sum(_stack_sizes(check.call_args_list)) == 3 * schedules
    groups = len({call.args[0].shape[-1] for call in check.call_args_list})
    assert check.call_count == 3 * groups
    assert evaluate.call_count == 2 * groups
    assert all(call.args[0].shape[0] == 6 for call in evaluate.call_args_list)


def _ghz_witness(n, sharpness, scaled=0, drop_last=False):
    """3I - 2[(I + S_1)/2 + prod_{m>=2} (I + S_m)/2] built by hand, with the
    sharpness on generator `scaled` (0, the X..X one, is right) and without
    the last ZZ generator if drop_last."""
    gens = stabilizer_generators("ghz", n)
    gens[scaled] = gens[scaled].with_coeff(sharpness)
    x, *zz = gens
    if drop_last:
        zz = zz[:-1]
    projectors = expand_projector_product([x], n_qubits=n) + expand_projector_product(zz, n_qubits=n)
    return OperatorExpr.identity(n, 3.0) - 2.0 * projectors


def _ghz_mutant(**fault):
    """build_modified_witness with the GHZ witness replaced by a faulty one."""

    def build(family, n, sharpness):
        if family == "ghz":
            return _ghz_witness(n, sharpness, **fault)
        return build_modified_witness(family, n, sharpness)

    return build


def test_hand_built_ghz_witness_is_the_library_one():
    for n in (3, 4, 5, 6):
        for lam in SHARPNESS_GRID:
            built = _ghz_witness(n, lam).to_matrix()
            assert np.allclose(built, build_modified_witness("ghz", n, lam).to_matrix(), atol=1e-15)


# W - s I lowers both W(0)'s and W(1)'s bound by s, so the proof reads -s. The
# Haar sampler it replaces saw minima about 0.1 above 0 and passed s = 0.05.
@pytest.mark.parametrize("shift", [0.05, 0.5])
def test_shifted_witness_moves_the_reported_minimum(shift):
    def shifted(family, n, sharpness):
        return build_modified_witness(family, n, sharpness) - shift * OperatorExpr.identity(n)

    with mock.patch.object(verify, "build_modified_witness", shifted):
        results = verify_biseparable(seed=3)
    assert [result.passed for result in results] == [False, False]
    for result in results:
        assert result.residual == pytest.approx(shift, abs=1e-12)


def test_dropped_ghz_generator_fails_the_ghz_row():
    # Without the last ZZ projector, W(1) has eigenvalue -1 on a second state
    # besides GHZ, so W(1) - I + 2|psi><psi| has eigenvalue -2.
    with mock.patch.object(verify, "build_modified_witness", _ghz_mutant(drop_last=True)):
        ghz, cluster = verify_biseparable(seed=3)
    assert not ghz.passed
    assert ghz.residual == pytest.approx(2.0, abs=1e-12)
    assert cluster.passed


def test_sharpness_on_the_wrong_ghz_generator_is_caught_by_the_oracle_only():
    # Sharpness on the first ZZ generator instead of X..X leaves W(0) PSD, so
    # the witness is still valid and the biseparable proof holds; its values
    # on the observers' states no longer match the closed form.
    with mock.patch.object(verify, "build_modified_witness", _ghz_mutant(scaled=1)):
        biseparable = verify_biseparable(seed=3)
        oracle = {result.name: result for result in verify_oracle(seed=3)}
    assert all(result.passed for result in biseparable)
    assert not oracle["ghz closed form matches dense simulation"].passed
    assert oracle["cluster closed form matches dense simulation"].passed


def test_biseparable_rows_are_plain_python_values():
    # So that `verify --format json` can serialise them.
    for result in verify_biseparable(seed=3):
        assert type(result.passed) is bool
        assert type(result.residual) is float
