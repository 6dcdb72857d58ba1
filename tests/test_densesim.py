"""Dense simulator: channel forms, decay of correlators, spectra."""

import json
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from dense_spectra import all_bipartitions, bit_masks, eigen_spectrum, to_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqgme import densesim
from seqgme.densesim import (
    EIGENVALUE_FLOOR,
    channel_closed_form,
    expectation,
    load_density_matrix,
    luders_update,
    observer_states,
    save_density_matrix,
    validate_density_matrix,
)
from seqgme.errors import CapacityError, DimensionError, ValidationError
from seqgme.pauli import DENSE_QUBIT_LIMIT, OperatorExpr, PauliString
from seqgme.states import StateFamily

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


def observer_effects(lam):
    """The four effects of one observer: (I +- lam X)/2 and the sharp (I +- Z)/2."""
    return [(np.eye(2) + sign * sharpness * sigma) / 2
            for sigma, sharpness in ((SX, lam), (SZ, 1.0)) for sign in (1, -1)]


def effect_sqrt(effect):
    """The effect's square root from its spectrum, computed at 50 digits.

    Near sharpness 1 the x effect (I - lam X)/2 is nearly singular, and
    scipy.linalg.sqrtm is off there by about 1e-10; the spectral root stays
    exact to double precision, as it does on the singular sharp z projectors.
    """
    with mpmath.workdps(50):
        values, vectors = mpmath.eigh(mpmath.matrix(effect.tolist()))
        roots = mpmath.diag([mpmath.sqrt(max(value, 0)) for value in values])
        root = vectors * roots * vectors.H
        return np.array([[complex(entry) for entry in row] for row in root.tolist()])


def package_roots(lam):
    """The square roots densesim applies, in the order of observer_effects."""
    return list(densesim._sqrt_effects(lam))


def test_measurement_effects_are_valid_povm_pairs():
    for lam in (0.0, 0.3, 0.7, 1.0):
        roots = package_roots(lam)
        for pair in (roots[:2], roots[2:]):
            # Completeness of each setting: sum of K^dagger K is the identity.
            np.testing.assert_allclose(
                sum(root.conj().T @ root for root in pair), np.eye(2), atol=1e-15
            )
        for root, effect in zip(roots, observer_effects(lam)):
            np.testing.assert_allclose(root, root.conj().T, atol=0)
            assert np.linalg.eigvalsh(root)[0] >= -1e-15
            np.testing.assert_allclose(root @ root, effect, atol=1e-15)


def test_observer_effects_pairs_and_validation():
    for lam in (0.0, 0.4, 1.0):
        for root, effect in zip(package_roots(lam), observer_effects(lam)):
            np.testing.assert_allclose(root, effect_sqrt(effect), atol=1e-15)
    rho = ghz3()
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="sharpness"):
            luders_update(rho, bad)
        with pytest.raises(ValueError, match="sharpness"):
            list(observer_states(rho, [0.5, bad]))


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
    # The first observer sees the start state: no channel has acted yet.
    rho = ghz3()
    np.testing.assert_allclose(next(observer_states(rho, [0.3])), rho, atol=0)
    assert list(observer_states(rho, [])) == []


def test_apply_channel_examples_on_ghz3():
    rho = ghz3()
    zz = PauliString("ZZI")
    xxx = PauliString("XXX")
    _, dephased = observer_states(rho, [0.0, 0.0])
    assert expectation(dephased, zz) == pytest.approx(1.0, abs=1e-12)
    _, sharp = observer_states(rho, [1.0, 0.0])
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


def test_density_matrix_io_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    rho = random_density(rng, 3)
    path = tmp_path / "state.json"
    save_density_matrix(path, rho)
    loaded = load_density_matrix(path)
    assert loaded.dtype == np.complex128
    np.testing.assert_allclose(loaded, rho, atol=1e-15)


def test_real_state_reloads_as_float64(tmp_path):
    rho = StateFamily("cluster", 3).density_matrix()
    path = tmp_path / "state.json"
    save_density_matrix(path, rho)
    loaded = load_density_matrix(path)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, rho)


def test_load_density_matrix_rejects_mismatched_parts(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n_qubits": 1, "real": [[1, 0], [0, 0]], "imag": [[0]]}))
    with pytest.raises(ValidationError, match="imag entries of shape"):
        load_density_matrix(path)


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


@pytest.mark.parametrize("key", ["n_qubits", "real", "imag"])
def test_load_density_matrix_names_a_missing_entry(key, tmp_path):
    path = tmp_path / "state.json"
    payload = {"n_qubits": 1, "real": [[1, 0], [0, 0]], "imag": [[0, 0], [0, 0]]}
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match=f"no '{key}' entry"):
        load_density_matrix(path)


def test_load_density_matrix_refuses_a_top_level_list(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps([[1, 0], [0, 0]]))
    with pytest.raises(ValidationError, match="JSON list, not an object"):
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
    dense = complex(np.einsum("ij,ji->", rho, to_matrix(expr))).real
    assert abs(expectation(rho, expr) - dense) <= 1e-12


def kraus_oracle(rho, lam, target):
    """First-principles update: the spectral square root of each effect, kron-embedded."""
    n = int(np.log2(rho.shape[0]))
    out = np.zeros_like(rho)
    for effect in observer_effects(lam):
        root = embed(effect_sqrt(effect), n, target)
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
@example(n=3, lam=0.9999999999999999, seed=1)
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
    n=st.integers(1, 8),
    offset=st.sampled_from([-2e-10, -5e-11, 5e-11, 2e-10, -EIGENVALUE_FLOOR]),
    rank=st.integers(1, 5) | st.none(),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
)
def test_psd_gate_decides_like_eigvalsh(n, offset, rank, seed, real):
    # Plant the smallest eigenvalue just below or above the floor, or at 0,
    # in a real state (a real Cholesky decides) or a complex one. Besides it
    # the state has `rank` positive eigenvalues (all the others when None),
    # so from 7 qubits on the low-rank states meet the pivoted certificate.
    rng = np.random.default_rng(seed)
    dim = 1 << n
    positive = dim - 1 if rank is None else min(rank, dim - 1)
    lowest = EIGENVALUE_FLOOR + offset
    rest = rng.uniform(0.1, 1.0, size=positive)
    spectrum = np.concatenate([[lowest], rest * (1 - lowest) / rest.sum()])
    g = rng.standard_normal((dim, positive + 1))
    if not real:
        g = g + 1j * rng.standard_normal((dim, positive + 1))
    basis, _ = np.linalg.qr(g)
    rho = (basis * spectrum) @ basis.conj().T
    rho = (rho + rho.conj().T) / 2
    eigvalsh_passes = np.linalg.eigvalsh(rho)[0] >= EIGENVALUE_FLOOR
    assert eigvalsh_passes == (offset > 0)
    if eigvalsh_passes:
        validate_density_matrix(rho)
    else:
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            validate_density_matrix(rho)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_psd_gate_factors_in_the_state_dtype(dtype):
    rho = np.eye(4, dtype=dtype) / 4
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as factor:
        validate_density_matrix(rho)
    assert factor.call_args.args[0].dtype == dtype


CHAIN_SHARPNESSES = [1.0, 0.9, 0.5, 0.3, 0.05, 0.0021, 1e-6, 0.0]
FAMILY_LABELS = ["ghz", "cluster", "gghz:alpha=0.3", "mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4"]


def _complex_pure_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_low_rank_states_are_certified_without_cholesky(n):
    # Every family has rank <= 2, and a one-qubit chain from a pure state or
    # from the GHZ mixture stays at rank <= 4, so from dimension 128 on the
    # pivoted certificate decides alone; the complex chain catches a residual
    # taken against L L^T instead of L L^dagger.
    starts = [StateFamily.parse(label, n).density_matrix() for label in FAMILY_LABELS]
    chains = [starts[0], starts[1], starts[3], _complex_pure_state(n, seed=n)]
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as factor:
        for rho in starts:
            validate_density_matrix(rho)
        for start in chains:
            for rho in observer_states(start, CHAIN_SHARPNESSES):
                validate_density_matrix(rho)
    assert factor.call_count == 0


def test_states_the_certificate_cannot_decide_reach_cholesky():
    rng = np.random.default_rng(5)
    dim = 1 << 7
    g = rng.standard_normal((dim, dim))
    full_rank = g @ g.T / np.trace(g @ g.T)
    # Rank 2 plus an eigenvalue planted below the floor.
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
    below_floor = (basis * [0.7, 0.3 - 2 * EIGENVALUE_FLOOR, 2 * EIGENVALUE_FLOOR]) @ basis.T
    below_floor = (below_floor + below_floor.T) / 2
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as factor:
        validate_density_matrix(full_rank)
        assert factor.call_count == 1
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            validate_density_matrix(below_floor)
        assert factor.call_count == 2


def _floor_state(excess):
    """|+>^8<+|^8 - t (sigma sigma^T - diag(sigma^2)), every entry exact.

    sigma is 0 at indices 0 and 1, alternates +-1 elsewhere and is orthogonal
    to |+>^8, so it is an eigenvector with eigenvalue -253 t. The single pivot
    step takes column 0, which carries no coherence, so it leaves exactly the
    coherence term, whose rows sum to 253 t without rounding: t is the
    multiple of 2^-60 that puts 253 t at |EIGENVALUE_FLOOR| - excess.
    """
    dim = 256
    units = round((-EIGENVALUE_FLOOR - excess) / 253 * 2.0**60)
    t = units * 2.0**-60
    sigma = np.zeros(dim)
    sigma[2:] = np.tile([1.0, -1.0], (dim - 2) // 2)
    coherence = -t * (np.outer(sigma, sigma) - np.diag(sigma**2))
    return np.full((dim, dim), 1.0 / dim) + coherence, 253 * t


@pytest.mark.parametrize("excess, certified", [(5e-11, True), (2e-16, False), (-1e-11, False)])
def test_certificate_keeps_a_rounding_margin_below_the_floor(excess, certified):
    # Each row's residual sums to exactly 253 t, so the decision rests on the
    # rounding margin: a residual within it of the floor, or past the floor,
    # is left to the Cholesky gate.
    rho, row_sum = _floor_state(excess)
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-row_sum, abs=1e-15)
    assert densesim._certified_low_rank(rho, 0.0) is certified


@pytest.mark.parametrize("n", [1, 5, 7, 9])
def test_tiled_hermiticity_gate_matches_the_whole_matrix(n):
    rng = np.random.default_rng(n)
    dim = 1 << n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op = (g + g.conj().T) / 2
    assert densesim._max_asymmetry(op) == 0.0
    i, j = rng.integers(dim, size=2)
    op[i, j] += 1e-9j
    assert densesim._max_asymmetry(op) == np.max(np.abs(op - op.conj().T))
    with pytest.raises(ValidationError, match="not Hermitian"):
        validate_density_matrix(op / np.trace(op).real)
    with pytest.raises(ValidationError, match="not Hermitian"):
        expectation(np.eye(dim) / dim, op)
    with pytest.raises(ValidationError, match="not Hermitian"):
        eigen_spectrum(op)


@st.composite
def density_matrices(draw):
    """A random full-rank state on 1..5 qubits, real symmetric or complex Hermitian."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 1 << n
    g = rng.standard_normal((dim, dim))
    if not draw(st.booleans()):
        g = g + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


@settings(max_examples=60, deadline=None)
@given(rho=density_matrices(), lam=st.floats(0.0, 1.0))
@example(rho=np.diag([0.25, 0.75]), lam=1.0)
def test_channel_keeps_the_state_dtype_and_is_cptp_and_unital(rho, lam):
    n = densesim.n_qubits_of(rho)
    dim = 1 << n
    mixed = np.eye(dim, dtype=rho.dtype) / dim
    for target in range(n):
        updated = luders_update(rho, lam, target)
        closed = channel_closed_form(rho, lam, target)
        assert updated.dtype == closed.dtype == rho.dtype
        np.testing.assert_allclose(updated, closed, rtol=0, atol=1e-13)
        assert abs(np.trace(updated) - 1.0) <= 1e-12
        assert np.max(np.abs(updated - updated.conj().T)) <= 1e-15
        assert np.linalg.eigvalsh(updated)[0] >= -1e-12
        np.testing.assert_allclose(luders_update(mixed, lam, target), mixed, rtol=0, atol=1e-15)
        if rho.dtype == np.float64:
            # The real kernels give exactly the complex kernels' numbers.
            widened = rho.astype(complex)
            assert np.array_equal(updated, luders_update(widened, lam, target))
            assert np.array_equal(closed, channel_closed_form(widened, lam, target))


@PROPERTY_SETTINGS
@given(expr=pauli_sums(), seed=st.integers(0, 2**32 - 1))
def test_real_state_expectation_matches_its_complex_copy(expr, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << expr.n_qubits
    g = rng.standard_normal((dim, dim))
    rho = g @ g.T / np.trace(g @ g.T)
    # Only the order of the gathered sums differs: a few ulps per unit weight.
    bound = 8 * np.finfo(float).eps * sum(abs(t.coeff) for t in expr.terms)
    assert abs(expectation(rho, expr) - expectation(rho.astype(complex), expr)) <= bound


@pytest.mark.parametrize(
    "dtype, kept",
    [
        (np.bool_, np.float64),
        (np.int8, np.float64),
        (np.int64, np.float64),
        (np.float16, np.float64),
        (np.float32, np.float64),
        (np.float64, np.float64),
        (np.complex64, np.complex128),
        (np.complex128, np.complex128),
    ],
)
def test_state_dtype_follows_the_input(dtype, kept):
    rho = np.array([[1, 0], [0, 0]], dtype=dtype)
    validate_density_matrix(rho)
    assert luders_update(rho, 0.5).dtype == kept
    assert channel_closed_form(rho, 0.5).dtype == kept
    assert next(observer_states(rho, [0.5])).dtype == kept
    assert list(observer_states(rho, [0.5, 0.5]))[-1].dtype == kept


def test_real_start_state_is_not_copied():
    rho = np.eye(4) / 4
    assert next(observer_states(rho, [0.5])) is rho


def test_array_like_states_are_accepted():
    rho = [[0.5, 0.0], [0.0, 0.5]]
    validate_density_matrix(rho)
    np.testing.assert_allclose(luders_update(rho, 0.5), np.eye(2) / 2, rtol=0, atol=1e-15)
    np.testing.assert_allclose(channel_closed_form(rho, 0.5), np.eye(2) / 2, rtol=0, atol=1e-15)
    assert expectation(rho, PauliString("Z")) == 0.0


_STATE_ENTRY_POINTS = {
    "validate_density_matrix": validate_density_matrix,
    "luders_update": lambda rho: luders_update(rho, 0.5),
    "observer_states": lambda rho: next(observer_states(rho, [0.5])),
    "channel_closed_form": lambda rho: channel_closed_form(rho, 0.5),
    "expectation": lambda rho: expectation(rho, PauliString("Z")),
}


@pytest.mark.parametrize("entry", sorted(_STATE_ENTRY_POINTS))
@pytest.mark.parametrize(
    "rho, match",
    [
        (np.full((2, 2), None), "dtype object"),
        (np.array([["0.5", "0"], ["0", "0.5"]]), "dtype <U3"),
        ([[0.5, 0.0], [0.5]], "not a numeric array"),
    ],
    ids=["none-objects", "strings", "ragged"],
)
def test_non_numeric_states_are_rejected_at_the_boundary(entry, rho, match):
    with pytest.raises(ValidationError, match=match):
        _STATE_ENTRY_POINTS[entry](rho)


# The channel step and the per-X-part gather against whole-matrix oracles.
def whole_matrix_step(rho, lam, target):
    """The update as one tensordot over the whole matrix."""
    n = densesim.n_qubits_of(rho)
    blocks = densesim._target_blocks(rho, n, target)
    roots = np.array(package_roots(lam))
    superop = np.einsum("kab,kcd->acbd", roots, roots.conj()) / 2.0
    out = np.tensordot(superop, blocks, axes=([2, 3], [1, 4]))
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(rho.shape)


def target_major_step(rho, lam, target):
    """luders_update's arithmetic without its checks: into target-major
    order, one step, and back."""
    n = densesim.n_qubits_of(rho)
    state = densesim._observer_step(densesim._to_target_major(rho, n, target), lam)
    return densesim._from_target_major(state, rho.shape[:-2], n, target)


# The step itself has no tiles. The checks luders_update runs first do: the
# Hermiticity sweep and the certificate's row sweep, where 128 tiles a
# power-of-two matrix evenly and 37 leaves a ragged last tile.
@pytest.mark.parametrize("tile", [128, 37])
@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_tiled_channel_step_matches_the_whole_matrix_product(tile, n, real):
    rng = np.random.default_rng(n)
    dim = 1 << n
    # Rank 4, as in a chain from a pure state, so the certificate decides.
    g = rng.standard_normal((dim, 4))
    if not real:
        g = g + 1j * rng.standard_normal((dim, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    bound = 4 * np.finfo(float).eps * np.max(np.abs(rho))
    with mock.patch.object(densesim, "_TILE", tile):
        for target in range(n):
            step = luders_update(rho, 0.3, target)
            assert step.dtype == rho.dtype
            assert np.max(np.abs(step - whole_matrix_step(rho, 0.3, target))) <= bound


def per_root_step(rho, lam, target):
    """The update with every root built on its own by 2x2 arithmetic,
    hi * P+ + lo * P- and lo * P+ + hi * P-, as one whole-matrix product."""
    n = densesim.n_qubits_of(rho)
    roots = []
    for sigma, sharpness in ((SX, lam), (SZ, 1.0)):
        hi = math.sqrt((1.0 + sharpness) / 2.0)
        lo = math.sqrt((1.0 - sharpness) / 2.0)
        plus, minus = ((np.eye(2) + sigma) / 2.0).real, ((np.eye(2) - sigma) / 2.0).real
        roots += [hi * plus + lo * minus, lo * plus + hi * minus]
    roots = np.array(roots)
    superop = (np.einsum("kab,kcd->acbd", roots, roots.conj()) / 2.0).reshape(4, 4)
    a, b = 1 << target, 1 << (n - 1 - target)
    operand = rho.reshape(a, 2, b, a, 2, b).transpose(1, 4, 0, 2, 3, 5).reshape(4, -1)
    out = np.dot(superop, operand).reshape(2, 2, a, b, a, b)
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(rho.shape)


# The step is that whole-matrix product at every size, so it must equal it bit
# for bit.
@pytest.mark.parametrize("n", range(1, DENSE_QUBIT_LIMIT + 1))
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_channel_step_is_bit_identical_to_per_root_arithmetic(n, real):
    rho = random_density(np.random.default_rng(n), n)
    if real:
        rho = rho.real.copy()
    for lam in (0.0, 1e-300, 0.3, 0.999, 1.0):
        for target in range(n):
            step = target_major_step(rho, lam, target)
            assert step.dtype == rho.dtype
            assert np.array_equal(step, per_root_step(rho, lam, target))


def test_channel_step_allocates_only_its_output():
    state = densesim._to_target_major(StateFamily("cluster", 10).density_matrix(), 10, 9)
    tracemalloc.start()
    try:
        out = densesim._observer_step(state, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 << 20
    assert peak <= out.nbytes + (1 << 20)


def per_term_gather_trace(rho, expr):
    """Tr[rho * expr] with one gather of rho[j, j ^ f] for every term."""
    rows = np.arange(rho.shape[0])
    sums, phases = [], []
    for term in expr.terms:
        flip, sign, phase = bit_masks(term)
        gathered = rho[rows, rows ^ flip]
        parity = np.bitwise_count(rows & sign) & 1
        sums.append(np.where(parity, -gathered, gathered).sum())
        phases.append(phase)
    per_term = np.array(sums, dtype=complex) * np.array(phases, dtype=complex)
    return math.fsum(per_term.real.tolist())


@st.composite
def shared_x_part_sums(draw):
    """A Hermitian Pauli sum on 1..6 qubits whose terms use 1..3 X parts, or
    whose terms each have an X part of their own (as in the cluster witness)."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        x_of_terms = draw(st.lists(masks, min_size=1, max_size=16, unique=True))
    else:
        x_parts = draw(st.lists(masks, min_size=1, max_size=3))
        x_of_terms = draw(st.lists(st.sampled_from(x_parts), min_size=1, max_size=16))
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    terms = []
    for x_part in x_of_terms:
        z_part = draw(masks)
        coeff = draw(st.floats(-2.0, 2.0, allow_nan=False))
        word = "".join(
            letters[(x_part >> (n - 1 - q)) & 1, (z_part >> (n - 1 - q)) & 1] for q in range(n)
        )
        terms.append(PauliString(word, coeff))
    return OperatorExpr.from_terms(n, terms)


class GatherCountingState(np.ndarray):
    """Flat states that count the rows gathered from them: take's index
    array holds one row of offsets per gathered row."""

    rows_gathered = 0

    def take(self, indices, *args, **kwargs):
        GatherCountingState.rows_gathered += np.shape(indices)[0]
        # A plain array: what is taken from the gathered rows is not counted.
        return super().take(indices, *args, **kwargs).view(np.ndarray)


@PROPERTY_SETTINGS
@given(
    expr=shared_x_part_sums(),
    rows_at_once=st.integers(2, 5),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# Every term with its own X part, as in the cluster chain's witnesses.
@example(
    expr=OperatorExpr.from_terms(
        3, [PauliString("XZI", 1.0), PauliString("ZXZ", 0.5), PauliString("IZX", -0.25)]
    ),
    rows_at_once=4,
    real=False,
    seed=3,
)
def test_expectation_with_shared_x_parts_matches_per_term_gathers(
    expr, rows_at_once, real, seed
):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, expr.n_qubits)
    if real:
        rho = rho.real
    # A budget of a few rows splits the parts and the terms into several blocks.
    dim = rho.shape[0]
    with mock.patch.object(densesim, "_GATHER_ELEMENTS", rows_at_once * dim):
        assert expectation(rho, expr) == per_term_gather_trace(rho, expr)
        GatherCountingState.rows_gathered = 0
        flat = rho.reshape(1, -1).view(GatherCountingState)
        densesim._pauli_sum_trace(flat, expr, densesim._positions(expr.n_qubits, None))
    # One row rho[j, j ^ f] per distinct X part f.
    assert GatherCountingState.rows_gathered == len({term.x_mask for term in expr.terms})


@st.composite
def pauli_sum_stacks(draw):
    """A stack of 1..8 random states on 1..5 qubits, real or complex, and one
    random Pauli sum of up to 12 terms."""
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = np.stack([random_density(rng, n) for _ in range(count)])
    if draw(st.booleans()):
        rho = rho.real.copy()
    masks = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    terms = []
    for x_part, z_part in draw(st.lists(masks, min_size=1, max_size=12)):
        word = "".join(
            letters[(x_part >> (n - 1 - q)) & 1, (z_part >> (n - 1 - q)) & 1]
            for q in range(n)
        )
        terms.append(PauliString(word, draw(st.floats(-2.0, 2.0, allow_nan=False))))
    return rho, OperatorExpr.from_terms(n, terms)


@PROPERTY_SETTINGS
@given(stack=pauli_sum_stacks(), rows_at_once=st.sampled_from([None, 2, 3, 5]))
def test_stacked_pauli_sum_traces_equal_their_per_element_calls(stack, rows_at_once):
    rho, expr = stack
    own = [expectation(one, expr) for one in rho]
    # A budget of a few rows in all splits the parts, the terms and the stack.
    budget = densesim._GATHER_ELEMENTS if rows_at_once is None else rows_at_once * rho.shape[-1]
    with mock.patch.object(densesim, "_GATHER_ELEMENTS", budget):
        assert expectation(rho, expr).tolist() == own
    # A stack with more than one axis takes one sum for every element.
    assert expectation(rho[None], expr).tolist() == [own]


# Stacks of states: every kernel on a (..., d, d) stack against its call on
# each element alone.
STACK_SHARPNESS = st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def state_stacks(draw, max_qubits=6):
    """A stack of 1..8 random full-rank states on 1..max_qubits qubits, real
    or complex, and one sharpness per element."""
    n = draw(st.integers(1, max_qubits))
    count = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 1 << n
    g = rng.standard_normal((count, dim, dim))
    if not draw(st.booleans()):
        g = g + 1j * rng.standard_normal((count, dim, dim))
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    lambdas = np.array(draw(st.lists(STACK_SHARPNESS, min_size=count, max_size=count)))
    return rho, lambdas


def _each(rho, call):
    """call(element, index) for every element of a stack, stacked again."""
    return np.array([call(rho[i], i) for i in range(len(rho))])


@PROPERTY_SETTINGS
@given(stack=state_stacks(), data=st.data())
def test_stacked_channel_kernels_equal_their_per_element_calls(stack, data):
    rho, lambdas = stack
    n = densesim.n_qubits_of(rho)
    validate_density_matrix(rho)
    for i in range(len(rho)):
        validate_density_matrix(rho[i])
    target = data.draw(st.sampled_from([None, *range(n)]))
    for kernel in (luders_update, channel_closed_form):
        stacked = kernel(rho, lambdas, target)
        assert stacked.dtype == rho.dtype
        assert np.array_equal(stacked, _each(rho, lambda one, i: kernel(one, lambdas[i], target)))
        # One sharpness for every element.
        shared = kernel(rho, lambdas[0], target)
        assert np.array_equal(shared, _each(rho, lambda one, i: kernel(one, lambdas[0], target)))


@PROPERTY_SETTINGS
@given(
    stack=state_stacks(),
    observers=st.integers(1, 4),
    data=st.data(),
)
def test_stacked_chain_and_dense_expectation_equal_their_per_element_calls(
    stack, observers, data
):
    rho, first = stack
    count, dim = rho.shape[0], rho.shape[-1]
    rest = data.draw(st.lists(
        st.lists(STACK_SHARPNESS, min_size=count, max_size=count),
        min_size=observers - 1, max_size=observers - 1,
    ))
    schedule = [first, *map(np.array, rest)]
    chain = np.array(list(observer_states(rho, schedule)))
    assert chain.shape == (observers, *rho.shape)
    for i in range(count):
        alone = list(observer_states(rho[i], [lams[i] for lams in schedule]))
        assert np.array_equal(chain[:, i], np.array(alone))
    # A stack of observables, one per element, met by every state of the chain.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((count, dim, dim))
    if data.draw(st.booleans()):
        h = h + 1j * rng.standard_normal((count, dim, dim))
    obs = h + h.conj().swapaxes(-1, -2)
    values = expectation(chain, obs)
    assert values.shape == (observers, count)
    for k in range(observers):
        for i in range(count):
            assert values[k, i] == expectation(chain[k, i], obs[i])
    # One observable for a stack of states, and one state for a stack of observables.
    assert np.array_equal(expectation(rho, obs[0]), _each(rho, lambda one, i: expectation(one, obs[0])))
    assert np.array_equal(expectation(rho[0], obs), _each(obs, lambda one, i: expectation(rho[0], one)))


def _spoil(rho, fault):
    """rho, no longer a valid state in the way fault names."""
    bad = rho.copy()
    if fault == "nan":
        bad[-1, 0] = np.nan
    elif fault == "non-hermitian":
        bad[-1, 0] += 1e-3
    else:  # non-psd, with unit trace and Hermitian
        bad[...] = 0.0
        bad[0, 0], bad[-1, -1] = 1.5, -0.5
    return bad


_FAULT_MESSAGES = {
    "nan": "density matrix has a NaN or infinite entry",
    "non-hermitian": "density matrix is not Hermitian",
    "non-psd": "density matrix has negative eigenvalue -0.5",
}


@PROPERTY_SETTINGS
@given(
    stack=state_stacks(max_qubits=4),
    fault=st.sampled_from(sorted(_FAULT_MESSAGES)),
    data=st.data(),
)
def test_a_stack_with_one_bad_element_names_it(stack, fault, data):
    rho, lambdas = stack
    bad = data.draw(st.integers(0, len(rho) - 1))
    rho[bad] = _spoil(rho[bad], fault)
    message = f"stack element {bad}: {_FAULT_MESSAGES[fault]}"
    for check in (
        validate_density_matrix,
        lambda states: luders_update(states, lambdas),
        lambda states: next(observer_states(states, [lambdas, lambdas])),
    ):
        with pytest.raises(ValidationError) as excinfo:
            check(rho)
        assert str(excinfo.value) == message
    # The same fault in a two-axis stack is named by its index pair.
    pair = np.stack([rho, rho[::-1]])
    with pytest.raises(ValidationError) as excinfo:
        validate_density_matrix(pair)
    assert str(excinfo.value) == f"stack element (0, {bad}): {_FAULT_MESSAGES[fault]}"
    if fault == "non-hermitian":
        with pytest.raises(ValidationError) as excinfo:
            expectation(np.eye(rho.shape[-1]) / rho.shape[-1], rho)
        assert str(excinfo.value) == f"stack element {bad}: observable is not Hermitian"


@PROPERTY_SETTINGS
@given(
    stack=state_stacks(max_qubits=4),
    fault=st.sampled_from(sorted(_FAULT_MESSAGES)),
    data=st.data(),
)
def test_a_broadcast_stack_is_checked_once_and_named_as_its_copy(stack, fault, data):
    rho, _ = stack
    copies = data.draw(st.integers(2, 4))
    count = len(rho)

    def broadcasts(states):
        # The repeated axis before, then after, the stack's own.
        yield np.broadcast_to(states, (copies, *states.shape))
        yield np.broadcast_to(states[:, None], (count, copies, *states.shape[1:]))

    for valid in broadcasts(rho):
        with mock.patch.object(densesim, "_max_asymmetry", wraps=densesim._max_asymmetry) as sweep:
            validate_density_matrix(valid)
        (call,) = sweep.call_args_list
        assert math.prod(call.args[0].shape[:-2]) == count
    bad = data.draw(st.integers(0, count - 1))
    rho[bad] = _spoil(rho[bad], fault)
    for invalid in broadcasts(rho):
        with pytest.raises(ValidationError) as materialized:
            validate_density_matrix(invalid.copy())
        with pytest.raises(ValidationError) as excinfo:
            validate_density_matrix(invalid)
        assert str(excinfo.value) == str(materialized.value)
    assert str(excinfo.value) == f"stack element ({bad}, 0): {_FAULT_MESSAGES[fault]}"


@PROPERTY_SETTINGS
@given(
    stack=state_stacks(max_qubits=3),
    outside=st.sampled_from([-1e-300, 1.5, np.inf, np.nan]),
    data=st.data(),
)
def test_a_sharpness_outside_the_unit_interval_names_its_element(stack, outside, data):
    rho, lambdas = stack
    bad = data.draw(st.integers(0, len(rho) - 1))
    lambdas[bad] = outside
    message = f"stack element {bad}: sharpness {outside} outside [0, 1]"
    for check in (
        lambda: luders_update(rho, lambdas),
        lambda: channel_closed_form(rho, lambdas),
        lambda: next(observer_states(rho, [0.5, lambdas])),
    ):
        with pytest.raises(ValueError) as excinfo:
            check()
        assert str(excinfo.value) == message


def test_single_state_messages_carry_no_stack_prefix():
    # The messages of a state on its own, byte for byte as before stacks.
    mixed = np.eye(2) / 2
    cases = [
        (lambda: validate_density_matrix(_spoil(mixed, "nan")), _FAULT_MESSAGES["nan"]),
        (lambda: validate_density_matrix(_spoil(mixed, "non-hermitian")),
         _FAULT_MESSAGES["non-hermitian"]),
        (lambda: validate_density_matrix(_spoil(mixed, "non-psd")), _FAULT_MESSAGES["non-psd"]),
        (lambda: validate_density_matrix(np.eye(2)), "density matrix trace 2.0 is not 1"),
        (lambda: validate_density_matrix(np.eye(2, dtype=complex)),
         "density matrix trace (2+0j) is not 1"),
        (lambda: luders_update(mixed, 1.5), "sharpness 1.5 outside [0, 1]"),
        (lambda: channel_closed_form(mixed, -0.25), "sharpness -0.25 outside [0, 1]"),
        (lambda: next(observer_states(mixed, [0.5, float("nan")])), "sharpness nan outside [0, 1]"),
        (lambda: expectation(mixed, _spoil(mixed, "non-hermitian")), "observable is not Hermitian"),
        (lambda: expectation(mixed, np.eye(4)), "observable shape (4, 4) vs state (2, 2)"),
        (lambda: expectation(np.array([[0.5, 0.5], [-0.5, 0.5]]), np.array([[0, 1j], [-1j, 0]])),
         "expectation has imaginary residue -1.0"),
        # A list of Pauli sums is not an observable.
        (lambda: expectation(mixed, [PauliString("Z"), PauliString("X")]),
         "expected a numeric array, got dtype object"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message
    # Refused at the boundary: a ValidationError raised from no numpy error.
    assert type(excinfo.value) is ValidationError
    assert excinfo.value.__context__ is None


def _floor_straddlers():
    """Two 4x4 states whose smallest eigenvalue lies within rounding of the
    floor, where the Cholesky gate and eigvalsh disagree: the first factors
    but eigvalsh puts it below the floor, the second fails to factor but
    eigvalsh puts it above. Each is valid on its own."""
    found = {}
    for seed in range(200):
        rng = np.random.default_rng(seed)
        rest = rng.uniform(0.1, 1.0, size=3)
        lowest = EIGENVALUE_FLOOR + 1e-17
        basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rho = (basis * np.concatenate([[lowest], rest * (1 - lowest) / rest.sum()])) @ basis.T
        rho = (rho + rho.T) / 2
        shifted = rho - EIGENVALUE_FLOOR * np.eye(4)
        try:
            np.linalg.cholesky(shifted)
            factors = True
        except np.linalg.LinAlgError:
            factors = False
        below = np.linalg.eigvalsh(rho)[0] < EIGENVALUE_FLOOR
        if factors == below:
            found.setdefault(factors, rho)
        if len(found) == 2:
            return found[True], found[False]
    pytest.fail("no states straddling the floor among 200 seeds")


def test_a_stack_decides_each_element_as_its_own_call_does():
    # The stack's factorisation fails for the second state, so its elements
    # are decided one by one: the first passes on its own factorisation,
    # which eigvalsh alone would have refused, and the second on its spectrum.
    factors, fails_to_factor = _floor_straddlers()
    for rho in (factors, fails_to_factor):
        validate_density_matrix(rho)
    validate_density_matrix(np.stack([factors, fails_to_factor]))
    negative = _spoil(np.eye(4) / 4, "non-psd")
    with pytest.raises(ValidationError, match=r"^stack element 2: .* eigenvalue -0\.5$"):
        validate_density_matrix(np.stack([factors, fails_to_factor, negative]))
