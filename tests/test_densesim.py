"""Dense simulator: channel forms, decay of correlators, sampling, spectra."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgme import densesim
from seqgme.densesim import (
    EIGENVALUE_FLOOR,
    MeasurementEffect,
    all_bipartitions,
    apply_channel_k_times,
    biseparable_statevectors,
    channel_closed_form,
    eigen_spectrum,
    expectation,
    load_density_matrix,
    luders_update,
    observer_effects,
    observer_states,
    sample_biseparable,
    save_density_matrix,
    validate_density_matrix,
)
from seqgme.errors import CapacityError, DimensionError, ValidationError
from seqgme.pauli import DENSE_QUBIT_LIMIT, OperatorExpr, PauliString

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(rng, n):
    dim = 1 << n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def embed(op, n, target):
    return np.kron(np.kron(np.eye(1 << target), op), np.eye(1 << (n - 1 - target)))


def ghz3():
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_measurement_effects_are_valid_povm_pairs():
    for setting in ("x", "z"):
        for lam in (0.0, 0.3, 0.7, 1.0):
            plus = MeasurementEffect(setting, "+", lam)
            minus = MeasurementEffect(setting, "-", lam)
            np.testing.assert_allclose(
                plus.operator() + minus.operator(), np.eye(2), atol=1e-15
            )
            for effect in (plus, minus):
                assert np.linalg.eigvalsh(effect.operator())[0] >= -1e-15
                root = effect.sqrt_operator()
                np.testing.assert_allclose(root @ root, effect.operator(), atol=1e-15)


def test_observer_effects_pairs_and_validation():
    effects = observer_effects(0.4, target=2)
    assert [(e.setting, e.outcome) for e in effects] == [
        ("x", "+"), ("x", "-"), ("z", "+"), ("z", "-")
    ]
    assert effects[0].sharpness == 0.4
    assert effects[2].sharpness == 1.0  # z setting stays sharp
    with pytest.raises(ValueError):
        MeasurementEffect("y", "+", 0.5)
    with pytest.raises(ValueError):
        MeasurementEffect("x", "0", 0.5)
    with pytest.raises(ValueError):
        MeasurementEffect("x", "+", 1.5)


def test_sharpness_zero_only_dephases():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        rho = random_density(rng, n)
        z = embed(SZ, n, n - 1)
        expected = 0.75 * rho + 0.25 * (z @ rho @ z)
        np.testing.assert_allclose(luders_update(rho, 0.0), expected, atol=1e-12)


def test_sharpness_one_is_projective_average():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        rho = random_density(rng, n)
        x = embed(SX, n, n - 1)
        z = embed(SZ, n, n - 1)
        expected = 0.5 * (rho + 0.5 * (z @ rho @ z) + 0.5 * (x @ rho @ x))
        np.testing.assert_allclose(luders_update(rho, 1.0), expected, atol=1e-12)


def test_update_matches_closed_form_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        rho = random_density(rng, n)
        lam = float(rng.uniform())
        target = int(rng.integers(n))
        np.testing.assert_allclose(
            luders_update(rho, lam, target),
            channel_closed_form(rho, lam, target),
            atol=1e-12,
        )


def test_update_preserves_trace_and_positivity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        rho = random_density(rng, n)
        out = luders_update(rho, float(rng.uniform()), int(rng.integers(n)))
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-10
        validate_density_matrix(out)


def test_channel_is_unital():
    for n in (1, 2, 4):
        rho = np.eye(1 << n, dtype=complex) / (1 << n)
        for lam in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(luders_update(rho, lam), rho, atol=1e-12)


def test_invalid_inputs_rejected():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        luders_update(rho, 1.5)
    with pytest.raises(ValidationError):
        luders_update(np.eye(2, dtype=complex), 0.5)  # trace 2
    with pytest.raises(DimensionError):
        luders_update(np.eye(3, dtype=complex) / 3, 0.5)


def test_apply_channel_empty_schedule_is_identity_map():
    rho = ghz3()
    np.testing.assert_allclose(apply_channel_k_times(rho, []), rho, atol=0)


def test_apply_channel_examples_on_ghz3():
    rho = ghz3()
    zz = PauliString("ZZI")
    xxx = PauliString("XXX")
    dephased = apply_channel_k_times(rho, [0.0])
    assert expectation(dephased, zz) == pytest.approx(1.0, abs=1e-12)
    sharp = apply_channel_k_times(rho, [1.0])
    assert expectation(sharp, xxx) == pytest.approx(0.5, abs=1e-12)


def test_correlator_decay_factors():
    # z correlators shrink by prod_{j<k} (1+sqrt(1-l_j^2))/2, x by 1/2^(k-1);
    # the product runs over the k-1 applied updates, not k of them.
    rng = np.random.default_rng(4)
    for n in (3, 4, 5):
        for _ in range(12):
            rho1 = random_density(rng, n)
            lambdas = rng.uniform(size=4)
            half = 1 << (n - 1)
            g = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
            a = g + g.conj().T
            obs_z = np.kron(a, SZ)
            obs_x = np.kron(a, SX)
            base_z = expectation(rho1, obs_z)
            base_x = expectation(rho1, obs_x)
            rho = rho1
            for k in range(2, 6):
                rho = luders_update(rho, lambdas[k - 2])
                z_factor = np.prod([(1 + np.sqrt(1 - l * l)) / 2 for l in lambdas[: k - 1]])
                assert expectation(rho, obs_z) == pytest.approx(
                    z_factor * base_z, abs=1e-10
                )
                assert expectation(rho, obs_x) == pytest.approx(
                    base_x / 2 ** (k - 1), abs=1e-10
                )


def test_y_correlator_decays_at_least_as_fast_as_x():
    rng = np.random.default_rng(5)
    sy = np.array([[0, -1j], [1j, 0]])
    for _ in range(20):
        n = int(rng.integers(3, 5))
        rho = random_density(rng, n)
        half = 1 << (n - 1)
        g = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        obs_y = np.kron(g + g.conj().T, sy)
        base = abs(expectation(rho, obs_y))
        for k in range(2, 5):
            rho = luders_update(rho, float(rng.uniform()))
            assert abs(expectation(rho, obs_y)) <= base / 2 ** (k - 1) + 1e-10


def test_expectation_basics():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    assert expectation(ket0, SZ) == pytest.approx(1.0)
    assert expectation(ghz3(), PauliString("XXX")) == pytest.approx(1.0, abs=1e-12)


def test_expectation_rejects_bad_observables():
    rho = ghz3()
    with pytest.raises(ValidationError):
        expectation(rho, PauliString("XXX", 1.0j))
    nonherm = np.zeros((8, 8), dtype=complex)
    nonherm[0, 1] = 1.0
    with pytest.raises(ValidationError):
        expectation(rho, nonherm)
    with pytest.raises(DimensionError):
        expectation(rho, PauliString("XX"))


def test_eigen_spectrum_identity_and_rejection():
    np.testing.assert_allclose(eigen_spectrum(np.eye(4, dtype=complex)), np.ones(4))
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValidationError):
        eigen_spectrum(bad)


def test_all_bipartitions_counts():
    assert len(all_bipartitions(3)) == 3
    assert len(all_bipartitions(4)) == 7
    assert all(0 in part for part in all_bipartitions(5))


def test_sample_biseparable_is_seeded_product_state():
    rho = sample_biseparable(4, (0, 2), rng_seed=42)
    np.testing.assert_allclose(rho, sample_biseparable(4, (0, 2), rng_seed=42), atol=0)
    validate_density_matrix(rho)
    # Pure product state across {0,2}|{1,3}: rank-1 reshuffled amplitude matrix.
    vals, vecs = np.linalg.eigh(rho)
    psi = vecs[:, -1]
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    block = psi.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    singular = np.linalg.svd(block, compute_uv=False)
    assert singular[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(singular[1:] < 1e-12)


def test_sample_biseparable_rejects_trivial_split():
    with pytest.raises(ValueError):
        sample_biseparable(3, (), 1)
    with pytest.raises(ValueError):
        sample_biseparable(3, (0, 1, 2), 1)


def test_biseparable_batch_shape_and_norm():
    rng = np.random.default_rng(7)
    batch = biseparable_statevectors(4, (0, 1), 50, rng)
    assert batch.shape == (50, 16)
    np.testing.assert_allclose(np.linalg.norm(batch, axis=1), np.ones(50), atol=1e-12)


def test_density_matrix_io_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    rho = random_density(rng, 3)
    path = tmp_path / "state.json"
    save_density_matrix(path, rho)
    np.testing.assert_allclose(load_density_matrix(path), rho, atol=1e-15)


def test_load_density_matrix_rejects_non_positive_state(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n_qubits": 1, "real": [[2, 0], [0, -1]], "imag": [[0, 0], [0, 0]]}))
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        load_density_matrix(path)


def test_load_density_matrix_checks_header_before_entries(tmp_path):
    path = tmp_path / "state.json"
    # The entries are inconsistent with the header; the capacity check comes first.
    path.write_text(
        json.dumps({"n_qubits": DENSE_QUBIT_LIMIT + 1, "real": [[1]], "imag": [[0]]})
    )
    with pytest.raises(CapacityError):
        load_density_matrix(path)
    path.write_text(json.dumps({"n_qubits": "1", "real": [[1]], "imag": [[0]]}))
    with pytest.raises(ValidationError, match="not a count"):
        load_density_matrix(path)


def _non_finite_states():
    nan_everywhere = np.full((2, 2), np.nan, dtype=complex)
    nan_entry = np.diag([1.0, 0.0]).astype(complex)
    nan_entry[1, 1] = np.nan
    inf_diagonal = np.diag([np.inf, 0.0]).astype(complex)
    inf_coherence = np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex)
    return [nan_everywhere, nan_entry, inf_diagonal, inf_coherence]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "rho", _non_finite_states(), ids=["nan", "nan-entry", "inf-diag", "inf-offdiag"]
)
def test_non_finite_states_are_rejected(rho, tmp_path):
    with pytest.raises(ValidationError):
        validate_density_matrix(rho)
    with pytest.raises(ValidationError):
        luders_update(rho, 0.5)
    path = tmp_path / "state.json"
    # json writes NaN and Infinity tokens and reads them back.
    payload = {"n_qubits": 1, "real": rho.real.tolist(), "imag": rho.imag.tolist()}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError):
        load_density_matrix(path)


# Property tests of the matrix-free engine against dense, kron-embedded oracles.
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def pauli_sums(draw):
    """A Hermitian Pauli sum on 1..6 qubits with at least one Y letter."""
    n = draw(st.integers(1, 6))
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(letters, coeffs), min_size=1, max_size=12))
    y_qubit = draw(st.integers(0, n - 1))
    first = terms[0][0]
    terms[0] = (first[:y_qubit] + "Y" + first[y_qubit + 1 :], terms[0][1])
    return OperatorExpr.from_terms(n, [PauliString(w, c) for w, c in terms])


@PROPERTY_SETTINGS
@given(expr=pauli_sums(), seed=st.integers(0, 2**32 - 1))
def test_expectation_of_pauli_sum_matches_dense_trace(expr, seed):
    rho = random_density(np.random.default_rng(seed), expr.n_qubits)
    dense = complex(np.einsum("ij,ji->", rho, expr.to_matrix())).real
    assert abs(expectation(rho, expr) - dense) <= 1e-12


def kraus_oracle(rho, lam, target):
    n = int(np.log2(rho.shape[0]))
    out = np.zeros_like(rho)
    for effect in observer_effects(lam, target):
        root = embed(effect.sqrt_operator(), n, target)
        out += root @ rho @ root.conj().T
    return out / 2


def three_term_oracle(rho, lam, target):
    n = int(np.log2(rho.shape[0]))
    s = np.sqrt(1 - lam * lam)
    x = embed(SX, n, target)
    z = embed(SZ, n, target)
    return ((2 + s) * rho + z @ rho @ z + (1 - s) * (x @ rho @ x)) / 4


@PROPERTY_SETTINGS
@given(
    n=st.integers(1, 5),
    lam=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_forms_match_embedded_oracles_on_every_target(n, lam, seed):
    rho = random_density(np.random.default_rng(seed), n)
    for target in range(n):
        np.testing.assert_allclose(
            luders_update(rho, lam, target), kraus_oracle(rho, lam, target), atol=1e-13
        )
        np.testing.assert_allclose(
            channel_closed_form(rho, lam, target),
            three_term_oracle(rho, lam, target),
            atol=1e-13,
        )
    np.testing.assert_allclose(luders_update(rho, lam), kraus_oracle(rho, lam, n - 1), atol=1e-13)


@PROPERTY_SETTINGS
@given(
    n=st.integers(1, 5),
    lambdas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_observer_states_match_the_stepwise_chain(n, lambdas, seed):
    rho1 = random_density(np.random.default_rng(seed), n)
    for target in (None, *range(n)):
        with mock.patch.object(densesim, "_observer_step", wraps=densesim._observer_step) as step:
            seen = list(observer_states(rho1, lambdas, target))
        assert len(seen) == len(lambdas)
        assert step.call_count == len(lambdas) - 1
        expected = rho1
        for k, rho in enumerate(seen):
            if k:
                expected = luders_update(expected, lambdas[k - 1], target)
            assert np.array_equal(rho, expected)
            validate_density_matrix(rho)
        assert np.array_equal(apply_channel_k_times(rho1, lambdas[:-1], target), seen[-1])


_MIXED_QUBIT = np.eye(2, dtype=complex) / 2


@pytest.mark.parametrize(
    "rho1, lambdas, target, error, match",
    [
        (np.diag([1.5, -0.5]).astype(complex), [0.5, 0.5], None, ValidationError, "eigenvalue"),
        (np.full((2, 2), np.nan, dtype=complex), [0.5, 0.5], None, ValidationError, "NaN"),
        (np.eye(2, dtype=complex), [0.5, 0.5], None, ValidationError, "trace"),
        (_MIXED_QUBIT, [0.5, 0.5, 1.5], None, ValueError, "sharpness 1.5"),
        (_MIXED_QUBIT, [0.5], 1, ValueError, "target qubit"),
    ],
    ids=["non-psd", "nan", "trace-2", "last-lambda", "target"],
)
def test_observer_states_reject_bad_input_before_any_step(rho1, lambdas, target, error, match):
    with mock.patch.object(densesim, "_observer_step") as step:
        with pytest.raises(error, match=match):
            next(observer_states(rho1, lambdas, target))
    step.assert_not_called()


@pytest.mark.parametrize("n", [1, 3])
def test_channel_rejects_out_of_range_target(n):
    rho = np.eye(1 << n, dtype=complex) / (1 << n)
    for target in (-1, n):
        with pytest.raises(ValueError, match="target qubit"):
            luders_update(rho, 0.5, target)
        with pytest.raises(ValueError, match="target qubit"):
            channel_closed_form(rho, 0.5, target)


@PROPERTY_SETTINGS
@given(
    n=st.integers(1, 6),
    offset=st.sampled_from([-2e-10, -5e-11, 5e-11, 2e-10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_psd_gate_decides_like_eigvalsh(n, offset, seed):
    # Plant the smallest eigenvalue just below or above the floor.
    rng = np.random.default_rng(seed)
    dim = 1 << n
    lowest = EIGENVALUE_FLOOR + offset
    rest = rng.uniform(0.1, 1.0, size=dim - 1)
    spectrum = np.concatenate([[lowest], rest * (1 - lowest) / rest.sum()])
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, _ = np.linalg.qr(g)
    rho = (unitary * spectrum) @ unitary.conj().T
    rho = (rho + rho.conj().T) / 2
    eigvalsh_passes = np.linalg.eigvalsh(rho)[0] >= EIGENVALUE_FLOOR
    assert eigvalsh_passes == (offset > 0)
    if eigvalsh_passes:
        validate_density_matrix(rho)
    else:
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            validate_density_matrix(rho)
