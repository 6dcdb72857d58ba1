"""The verification suites' use of the dense engine."""

import math
from unittest import mock

import numpy as np
import pytest
from dense_spectra import (
    all_bipartitions,
    difference_operator,
    eigen_spectrum,
    from_ops,
    reduced_state,
    to_matrix,
)

from seqgme import densesim, verify, witness
from seqgme.cli import main
from seqgme.errors import CapacityError, ValidationError
from seqgme.pauli import DENSE_QUBIT_LIMIT, OperatorExpr, PauliString, expand_projector_product
from seqgme.states import StateFamily, stabilizer_generators, syndrome_spectrum
from seqgme.verify import verify_biseparable, verify_oracle, verify_psd, verify_recursion
from seqgme.witness import build_modified_witness

SHARPNESS_GRID = (0.0, 0.3, 0.7, 1.0)


def _stack_sizes(calls) -> list[int]:
    """The number of matrices in the first argument of each mocked call."""
    return [math.prod(call.args[0].shape[:-2]) for call in calls]


def test_a_channel_group_that_fails_its_cholesky_reports_the_eigvalsh_minimum():
    # Every 2-qubit output is pushed below zero; the other groups still pass
    # their Cholesky and add nothing.
    outputs = []

    def shifted_update(rho, sharpness, target=None):
        out = densesim.luders_update(rho, sharpness, target)
        if out.shape[-1] == 4:
            out = out - 0.1 * np.eye(4)
        outputs.append(out)
        return out

    with mock.patch.object(verify, "luders_update", shifted_update):
        rows = verify.verify_channel(seed=3)
    (positivity,) = (row for row in rows if row.name == "positivity preserved")
    lowest = min(float(np.linalg.eigvalsh(out)[..., 0].min()) for out in outputs)
    assert lowest < -1e-10
    assert not positivity.passed and positivity.residual == -lowest


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
            built = to_matrix(_ghz_witness(n, lam))
            assert np.allclose(built, to_matrix(build_modified_witness("ghz", n, lam)), atol=1e-15)


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


def _off_group_ghz(family, n, sharpness):
    """build_modified_witness with 0.1·Z on qubit 1 added to the GHZ witness:
    a string outside the GHZ stabilizer group."""
    built = build_modified_witness(family, n, sharpness)
    if family != "ghz":
        return built
    return built + OperatorExpr.from_terms(n, [from_ops(n, {0: "Z"}, 0.1)])


def test_off_group_term_fails_the_psd_and_biseparable_ghz_rows(capsys):
    # Every suite builds its witnesses by verify's own import.
    with mock.patch.object(verify, "build_modified_witness", _off_group_ghz):
        psd = verify_psd(seed=3)
        biseparable = verify_biseparable(seed=3)
        assert main(["verify", "all", "--seed", "3"]) == 1
    assert [row.passed for row in psd] == [False, False, True, True]
    assert [row.passed for row in biseparable] == [False, True]
    for row in (*psd[:2], biseparable[0]):
        assert row.detail == "term +0.1·ZII is outside the stabilizer group"
        assert row.residual == 1.0
    # The fourth failure is the oracle's mixed row: <Z_1> = p1 (2 alpha - 1) there.
    assert capsys.readouterr().err == "error: 4 verification check(s) failed\n"


def never_made(*args, **kwargs):
    raise AssertionError("a witness's terms were made")


def test_the_spectral_suites_expand_no_witness():
    # syndrome_spectrum reads a built witness's columns, never its terms.
    expected = repr(verify_psd(seed=3) + verify_biseparable(seed=3))
    with mock.patch.object(witness, "_EXPAND", (never_made, witness._columns)):
        results = verify_psd(seed=3) + verify_biseparable(seed=3)
    assert repr(results) == expected
    assert all(result.passed for result in results)


def test_spectral_suites_use_no_dense_matrix_and_the_oracle_stacks_its_traces():
    with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError) as solve:
        assert all(row.passed for row in verify_psd(seed=3) + verify_biseparable(seed=3))
    assert solve.call_count == 0
    # One ragged chain per (n, family), from the family's entries, and one
    # for the prefixes of the mixed grid's schedules: no state in rho's
    # layout. Chains per (n, k) group made 24 expectation calls.
    with (
        mock.patch.object(verify, "observer_states", side_effect=AssertionError),
        mock.patch.object(StateFamily, "density_matrix", side_effect=AssertionError),
        mock.patch.object(
            verify, "_last_observer_values", wraps=densesim._last_observer_values
        ) as chain,
    ):
        assert all(row.passed for row in verify_oracle(seed=3))
    rows = [call.args[0] for call in chain.call_args_list]
    families = [(family, n) for n in range(3, 7) for family in ("ghz", "cluster")]
    assert [(row[0][0].kind, row[0][0].n_qubits) for row in rows] == [*families, ("mixed", 3)]
    assert all(len({start for start, _ in family_rows}) == 1 for family_rows in rows[:-1])
    assert sum(len(family_rows) for family_rows in rows[:-1]) == 2 * verify._ORACLE_SCHEDULES
    assert len(rows[-1]) == 9 * 4


@pytest.mark.parametrize("family", ["ghz", "cluster"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_syndrome_spectra_equal_the_dense_spectra(family, n):
    generators = stabilizer_generators(family, n)
    plain = syndrome_spectrum(build_modified_witness(family, n, 1.0), generators)
    for lam in SHARPNESS_GRID:
        built = build_modified_witness(family, n, lam)
        difference = difference_operator(family, n, lam)
        modified = syndrome_spectrum(built, generators)
        # Each operator's own spectrum, and verify psd's W(lam) - lam * W(1).
        for spectrum, expr in (
            (modified, built),
            (syndrome_spectrum(difference, generators), difference),
            (modified - lam * plain, difference),
        ):
            dense = eigen_spectrum(to_matrix(expr))
            np.testing.assert_allclose(np.sort(spectrum), dense, rtol=0, atol=1e-13)


@pytest.mark.parametrize("family", ["ghz", "cluster"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cut_rank_weights_equal_the_dense_reduced_states(family, n):
    generators = stabilizer_generators(family, n)
    rho = StateFamily(family, n).density_matrix()
    for part in all_bipartitions(n):
        cut = sum(1 << (n - 1 - q) for q in part)
        dense = eigen_spectrum(reduced_state(rho, n, part))[-1]
        assert verify._schmidt_weight(generators, cut) == pytest.approx(dense, rel=0, abs=1e-15)


def test_syndrome_spectrum_names_a_term_outside_the_group():
    generators = stabilizer_generators("cluster", 3)
    expr = OperatorExpr.from_terms(3, [PauliString("XZI"), PauliString("IIZ", -0.5)])
    with pytest.raises(ValidationError, match=r"^term -0\.5·IIZ is outside the stabilizer group$"):
        syndrome_spectrum(expr, generators)
    # Index 0 is the state itself; XZI is generator 0, so it flips on odd syndromes.
    values = syndrome_spectrum(OperatorExpr.from_terms(3, [PauliString("XZI", 2.0)]), generators)
    assert values.tolist() == [2.0, -2.0] * 4


@pytest.mark.parametrize("imag", [2e-12, float("nan")])
def test_syndrome_spectrum_refuses_non_real_coefficients(imag):
    expr = OperatorExpr.from_terms(3, [PauliString("XZI", complex(1.0, imag))])
    with pytest.raises(ValidationError, match="^operator has non-real Pauli coefficients$"):
        syndrome_spectrum(expr, stabilizer_generators("cluster", 3))


def test_syndrome_spectrum_refuses_more_than_the_dense_limit_of_entries():
    # 2^N entries; checked before the generators or terms are read.
    n = DENSE_QUBIT_LIMIT + 1
    with pytest.raises(CapacityError, match=f"{n} qubits exceeds dense limit"):
        syndrome_spectrum(OperatorExpr.identity(n), stabilizer_generators("ghz", n))


# The real function, which the mutants call while the module's is patched.
_ragged_prefixes = densesim._ragged_prefixes


def _unsorted(lengths):
    """_ragged_prefixes without the sort: the caller's order, the same prefixes."""
    _, prefixes = _ragged_prefixes(lengths)
    return list(range(len(lengths))), prefixes


def _short_prefixes(lengths):
    """_ragged_prefixes with each step's prefix one row short."""
    order, prefixes = _ragged_prefixes(lengths)
    return order, [count - 1 for count in prefixes]


def _long_prefixes(lengths):
    """_ragged_prefixes with each step's prefix one row long, where there is one."""
    order, prefixes = _ragged_prefixes(lengths)
    return order, [min(count + 1, len(lengths)) for count in prefixes]


@pytest.mark.parametrize("mutant", [_unsorted, _short_prefixes, _long_prefixes])
def test_a_chain_stepping_the_wrong_rows_fails_the_oracle(mutant):
    with mock.patch.object(densesim, "_ragged_prefixes", mutant):
        oracle = {result.name: result for result in verify_oracle(seed=3)}
    assert not oracle["ghz closed form matches dense simulation"].passed
    assert not oracle["mixed-family closed form matches dense simulation"].passed
