"""Witness builders: structure, expectations, PSD differences, biseparability."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqgme import witness
from seqgme.densesim import (
    all_bipartitions,
    biseparable_statevectors,
    eigen_spectrum,
    expectation,
)
from seqgme.pauli import OperatorExpr, PauliString, expand_projector_product
from seqgme.states import StateFamily, stabilizer_expectation, stabilizer_generators
from seqgme.witness import (
    build_modified_cluster_witness,
    build_modified_ghz_witness,
    build_modified_witness,
    difference_operator,
)

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(letters):
    out = np.array([[1.0 + 0j]])
    for c in letters:
        out = np.kron(out, SIGMA[c])
    return out


def dense_ghz_witness(n, lam):
    dim = 1 << n
    eye = np.eye(dim, dtype=complex)
    first = (eye + lam * kron_oracle("X" * n)) / 2
    rest = eye.copy()
    for m in range(2, n + 1):
        letters = ["I"] * n
        letters[m - 2] = letters[m - 1] = "Z"
        rest = rest @ (eye + kron_oracle("".join(letters))) / 2
    return 3 * eye - 2 * (first + rest)


def dense_cluster_witness(n, lam):
    dim = 1 << n
    eye = np.eye(dim, dtype=complex)
    gens = [g.letters for g in stabilizer_generators("cluster", n)]
    even = eye.copy()
    odd = eye.copy()
    for idx, letters in enumerate(gens, start=1):
        scale = lam if idx == n else 1.0
        factor = (eye + scale * kron_oracle(letters)) / 2
        if idx % 2 == 0:
            even = even @ factor
        else:
            odd = odd @ factor
    return 3 * eye - 2 * (even + odd)


def reference_modified_witness(family, n, lam):
    """The modified witness expanded afresh by OperatorExpr algebra on every call."""
    gens = stabilizer_generators(family, n)
    identity = PauliString("I" * n, 0.5)
    if family == "ghz":
        x_part = OperatorExpr.from_terms(n, [identity, gens[0].with_coeff(0.5 * lam)])
        z_part = expand_projector_product(gens[1:], n_qubits=n)
        return OperatorExpr.identity(n, 3.0) - 2.0 * (x_part + z_part)
    # The last generator is the x-type one on the measured qubit; its projector
    # carries the sharpness inside whichever parity class index n falls in.
    host = expand_projector_product(
        gens, n_qubits=n, select=lambda m: m % 2 == n % 2 and m != n
    )
    other = expand_projector_product(gens, n_qubits=n, select=lambda m: m % 2 != n % 2)
    scaled = host * OperatorExpr.from_terms(n, [identity, gens[-1].with_coeff(0.5 * lam)])
    return OperatorExpr.identity(n, 3.0) - 2.0 * (scaled + other)


def plain_witness(family, n):
    """3I - 2(P_1 + P_2) over the family's two generator classes, none scaled."""
    gens = stabilizer_generators(family, n)
    if family == "ghz":
        classes = (lambda m: m == 1, lambda m: m > 1)
    else:
        classes = (lambda m: m % 2 == 0, lambda m: m % 2 == 1)
    first, second = (expand_projector_product(gens, n_qubits=n, select=c) for c in classes)
    return OperatorExpr.identity(n, 3.0) - 2.0 * (first + second)


def term_bits(expr):
    """Each term's letters and the exact bits of its coefficient, sign of zero included."""
    return [(t.letters, t.coeff.real.hex(), t.coeff.imag.hex()) for t in expr.terms]


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 1.0))
@example(lam=0.0)
@example(lam=5e-324)
@example(lam=1e-310)
@example(lam=1.0)
def test_built_witness_is_bitwise_the_algebraic_expansion(lam):
    for family in ("ghz", "cluster"):
        for n in range(3, 11):
            built = build_modified_witness(family, n, lam)
            reference = reference_modified_witness(family, n, lam)
            assert term_bits(built) == term_bits(reference)


def test_each_family_and_size_is_expanded_once():
    witness._layout.cache_clear()
    with mock.patch.object(
        witness, "expand_projector_product", wraps=expand_projector_product
    ) as expand:
        for family, expansions in (("ghz", 1), ("cluster", 2)):
            for n in (3, 4, 5, 6):
                before = expand.call_count
                first = build_modified_witness(family, n, 0.4)
                assert expand.call_count == before + expansions
                for lam in (0.4, 0.9, 0.4):
                    again = build_modified_witness(family, n, lam)
                    assert again is not first
                    assert again == reference_modified_witness(family, n, lam)
                assert again == first
                assert expand.call_count == before + expansions


def test_ghz3_witness_terms():
    expr = build_modified_ghz_witness(3, 1.0)
    assert {t.letters: t.coeff for t in expr.terms} == {
        "III": 1.5,
        "XXX": -1.0,
        "ZZI": -0.5,
        "IZZ": -0.5,
        "ZIZ": -0.5,
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ghz_witness_term_count(n):
    assert len(build_modified_ghz_witness(n, 1.0).terms) == 2 ** (n - 1) + 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.0])
def test_modified_witnesses_match_dense_oracles(n, lam):
    np.testing.assert_allclose(
        build_modified_ghz_witness(n, lam).to_matrix(), dense_ghz_witness(n, lam), atol=1e-12
    )
    np.testing.assert_allclose(
        build_modified_cluster_witness(n, lam).to_matrix(),
        dense_cluster_witness(n, lam),
        atol=1e-12,
    )


def test_sharpness_one_reduces_to_plain_witnesses():
    for n in (3, 4, 5, 6):
        assert build_modified_ghz_witness(n, 1.0) == plain_witness("ghz", n)
        assert build_modified_cluster_witness(n, 1.0) == plain_witness("cluster", n)


def test_ghz_witness_values_on_reference_states():
    for n in (3, 4, 5):
        rho = StateFamily("ghz", n).density_matrix()
        gens = stabilizer_generators("ghz", n)
        expr = build_modified_ghz_witness(n, 1.0)
        assert expectation(rho, expr) == pytest.approx(-1.0, abs=1e-12)
        assert stabilizer_expectation(expr, gens) == pytest.approx(-1.0, abs=1e-12)
    zero3 = np.zeros((8, 8), dtype=complex)
    zero3[0, 0] = 1.0
    assert expectation(zero3, build_modified_ghz_witness(3, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_modified_ghz_witness_value_is_minus_sharpness():
    for n in (3, 4, 5, 6, 7, 8):
        gens = stabilizer_generators("ghz", n)
        for lam in (0.0, 0.25, 0.3, 0.9, 1.0):
            expr = build_modified_ghz_witness(n, lam)
            assert stabilizer_expectation(expr, gens) == -lam
        rho = StateFamily("ghz", min(n, 6)).density_matrix()
        if n <= 6:
            assert expectation(rho, build_modified_ghz_witness(n, 0.3)) == pytest.approx(
                -0.3, abs=1e-12
            )


def test_modified_cluster_witness_value_is_minus_sharpness():
    for n in (3, 4, 5, 6, 7, 8):
        gens = stabilizer_generators("cluster", n)
        for lam in (0.0, 0.25, 0.6, 1.0):
            expr = build_modified_cluster_witness(n, lam)
            assert stabilizer_expectation(expr, gens) == pytest.approx(-lam, abs=1e-15)


def test_cluster_witness_frozen_cross_values():
    # Dense evaluations recorded from the matrix oracle; no closed-form claim.
    plain = build_modified_cluster_witness(4, 1.0)
    rho_c4 = StateFamily("cluster", 4).density_matrix()
    assert expectation(rho_c4, plain) == pytest.approx(-1.0, abs=1e-12)
    plus4 = np.full((16, 16), 1.0 / 16.0, dtype=complex)
    assert expectation(plus4, plain) == pytest.approx(2.0, abs=1e-12)
    ghz4 = StateFamily("ghz", 4).density_matrix()
    assert expectation(ghz4, plain) == pytest.approx(2.0, abs=1e-12)


def test_ghz_witness_on_paired_bell_states_is_boundary():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    psi = np.kron(bell, bell)
    rho = np.outer(psi, psi.conj())
    value = expectation(rho, build_modified_ghz_witness(4, 1.0))
    assert value >= -1e-10
    assert value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family", ["ghz", "cluster"])
def test_difference_operator_spectra(family):
    allowed_multiples = {"ghz": (0.0, 2.0), "cluster": (0.0, 1.0, 2.0, 3.0)}[family]
    for n in (3, 4, 5, 6):
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            expr = difference_operator(family, n, lam)
            if lam == 1.0:
                assert expr.terms == ()
                continue
            spectrum = eigen_spectrum(expr.to_matrix())
            allowed = np.array([m * (1.0 - lam) for m in allowed_multiples])
            gaps = np.min(np.abs(spectrum[:, None] - allowed[None, :]), axis=1)
            assert np.max(gaps) < 1e-9
            assert spectrum[0] >= -1e-10


def test_difference_operator_psd_on_sharpness_grid():
    for family in ("ghz", "cluster"):
        for n in (3, 4, 5, 6):
            for lam in np.linspace(0.0, 1.0, 11):
                expr = difference_operator(family, n, float(lam))
                if not expr.terms:
                    continue
                assert eigen_spectrum(expr.to_matrix())[0] >= -1e-10


def test_witness_nonnegative_on_sampled_biseparable_states():
    rng = np.random.default_rng(123)
    for n in (3, 4):
        witnesses = [
            build_modified_ghz_witness(n, lam).to_matrix()
            for lam in (0.0, 0.3, 0.7, 1.0)
        ] + [
            build_modified_cluster_witness(n, lam).to_matrix()
            for lam in (0.0, 0.3, 0.7, 1.0)
        ]
        for part in all_bipartitions(n):
            batch = biseparable_statevectors(n, part, 500, rng)
            for w in witnesses:
                values = np.einsum("bi,ij,bj->b", batch.conj(), w, batch).real
                assert values.min() >= -1e-10


def test_mixed_family_detected_at_full_sharpness():
    # <W^1> = -2 p1 sqrt(alpha(1-alpha)) < 0 whenever p1 > 0 and 0 < alpha < 1.
    n = 3
    for p1 in (0.2, 0.5, 0.8, 1.0):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            family = StateFamily("mixed", n, alpha=alpha, p1=p1, p2=(1 - p1) / 2, p3=(1 - p1) / 2)
            rho = family.density_matrix()
            value = expectation(rho, build_modified_ghz_witness(n, 1.0))
            assert value == pytest.approx(-2 * p1 * np.sqrt(alpha * (1 - alpha)), abs=1e-12)
            assert value < 0


def test_build_modified_witness_selects_and_validates():
    for n in (3, 4, 5):
        for lam in (0.0, 0.5, 1.0):
            assert build_modified_witness("ghz", n, lam) == build_modified_ghz_witness(n, lam)
            assert build_modified_witness("cluster", n, lam) == build_modified_cluster_witness(
                n, lam
            )
    with pytest.raises(ValueError):
        build_modified_witness("ghz", 4, 1.5)
    with pytest.raises(ValueError):
        build_modified_witness("w", 4, 0.5)


def test_sharpness_range_enforced():
    with pytest.raises(ValueError):
        build_modified_ghz_witness(3, -0.1)
    with pytest.raises(ValueError):
        build_modified_cluster_witness(3, 1.1)
    with pytest.raises(ValueError):
        difference_operator("other", 3, 0.5)
