"""Witness builders: structure, expectations, PSD differences, biseparability."""

from unittest import mock

import numpy as np
import pytest
from biseparable_sampling import biseparable_statevectors
from dense_spectra import (
    all_bipartitions,
    column_bits,
    difference_operator,
    eigen_spectrum,
    term_bits,
    term_columns,
    to_matrix,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqgme import witness
from seqgme.analytic import full_sequence_report
from seqgme.densesim import expectation
from seqgme.errors import CapacityError
from seqgme.pauli import DENSE_QUBIT_LIMIT, OperatorExpr, PauliString, expand_projector_product
from seqgme.states import StateFamily, stabilizer_expectation, stabilizer_generators
from seqgme.witness import (
    build_modified_cluster_witness,
    build_modified_ghz_witness,
    build_modified_witness,
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
        [g for m, g in enumerate(gens, 1) if m % 2 == n % 2 and m != n], n_qubits=n
    )
    other = expand_projector_product(
        [g for m, g in enumerate(gens, 1) if m % 2 != n % 2], n_qubits=n
    )
    scaled = host * OperatorExpr.from_terms(n, [identity, gens[-1].with_coeff(0.5 * lam)])
    return OperatorExpr.identity(n, 3.0) - 2.0 * (scaled + other)


def plain_witness(family, n):
    """3I - 2(P_1 + P_2) over the family's two generator classes, none scaled."""
    gens = stabilizer_generators(family, n)
    if family == "ghz":
        classes = (lambda m: m == 1, lambda m: m > 1)
    else:
        classes = (lambda m: m % 2 == 0, lambda m: m % 2 == 1)
    first, second = (
        expand_projector_product([g for m, g in enumerate(gens, 1) if c(m)], n_qubits=n)
        for c in classes
    )
    return OperatorExpr.identity(n, 3.0) - 2.0 * (first + second)


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 1.0))
@example(lam=0.0)
@example(lam=5e-324)
@example(lam=1e-310)
@example(lam=2.225073858507203e-309)
@example(lam=1.0)
def test_built_witness_is_bitwise_the_algebraic_expansion(lam):
    # From 2^-1000 on, every product in the expansion is exact, so slope times
    # lambda is bit for bit the expanded coefficient. Below, the expansion
    # rounds 0.5 * lambda (and each host coefficient times it) into the
    # subnormals, where the slope form rounds once: its lambda terms are
    # W(1)'s coefficients times lambda, zeros dropped.
    for family in ("ghz", "cluster"):
        for n in range(3, 11):
            built = build_modified_witness(family, n, lam)
            reference = reference_modified_witness(family, n, lam)
            if lam >= 2.0**-1000:
                assert term_bits(built) == term_bits(reference)
                continue
            free = {t.letters for t in reference_modified_witness(family, n, 0.0).terms}
            assert [b for b in term_bits(built) if b[0] in free] == [
                b for b in term_bits(reference) if b[0] in free
            ]
            scaled = [
                t.with_coeff(t.coeff * lam)
                for t in reference_modified_witness(family, n, 1.0).terms
                if t.letters not in free and t.coeff * lam != 0
            ]
            assert [b for b in term_bits(built) if b[0] not in free] == term_bits(
                OperatorExpr(n, tuple(scaled))
            )


def test_each_family_and_size_is_expanded_once():
    # Two products per (family, n): S's class without S, and the other class,
    # made the first time any of its witnesses' terms are read.
    witness._expansion.cache_clear()
    with mock.patch.object(
        witness, "expand_projector_product", wraps=expand_projector_product
    ) as expand:
        for family in ("ghz", "cluster"):
            for n in (3, 4, 5, 6):
                before = expand.call_count
                first = build_modified_witness(family, n, 0.4)
                assert expand.call_count == before
                assert first.terms
                assert expand.call_count == before + 2
                for lam in (0.4, 0.9, 0.4):
                    again = build_modified_witness(family, n, lam)
                    assert again is not first
                    assert again == reference_modified_witness(family, n, lam)
                assert again == first
                assert expand.call_count == before + 2


@pytest.mark.parametrize("family", ["ghz", "cluster"])
def test_a_built_witness_cannot_be_told_from_its_eager_sum(family):
    # Each probe is the first read of a fresh witness's deferred terms.
    probes = {
        "terms": term_bits,
        "repr": repr,
        "str": str,
        "hash": hash,
        "==": lambda expr: (expr == eager, eager == expr),
    }
    for n in range(3, 11):
        w0, w1 = (reference_modified_witness(family, n, lam) for lam in (0.0, 1.0))
        for lam in (0.0, 5e-324, 0.3, 1.0):
            # W(0) + λ·(W(1) - W(0)), by OperatorExpr algebra.
            eager = OperatorExpr(n, (w0 + (w1 - w0) * lam).terms)
            for name, probe in probes.items():
                assert probe(build_modified_witness(family, n, lam)) == probe(eager), (n, lam, name)


# Both ends, subnormal and tiny slopes, and sharpnesses with inexact products.
COLUMN_SHARPNESSES = (0.0, 5e-324, 1e-320, 1e-300, 1e-30, 0.03, 0.3, 0.7, 1.0, 0.123456789)


@pytest.mark.parametrize("family", ["ghz", "cluster"])
def test_a_built_witness_columns_are_its_terms_bit_for_bit(family):
    for n in range(3, DENSE_QUBIT_LIMIT + 1):
        for lam in COLUMN_SHARPNESSES:
            # _deferred keeps the (terms, columns) pair the build passes.
            expanded = (mock.Mock(side_effect=AssertionError("expanded")), witness._columns)
            with mock.patch.object(witness, "_EXPAND", expanded):
                built = build_modified_witness(family, n, lam)
                columns = column_bits(built)
            assert "terms" not in vars(built)
            assert columns == term_columns(build_modified_witness(family, n, lam)), (n, lam)


def test_witness_columns_share_their_masks_and_refuse_writes():
    first, second, w0, again = (
        build_modified_witness("cluster", 6, lam) for lam in (0.3, 0.7, 0.0, 0.0)
    )
    xs, zs, coeffs = first.columns()
    assert second.columns()[:2] == (xs, zs)
    assert second.columns()[0] is xs and second.columns()[1] is zs
    # W(0)'s columns are one object for every witness that falls back to them.
    assert w0.columns() is again.columns()
    for array in (coeffs, w0.columns()[2]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert column_bits(first) == term_columns(first)


def test_stabilizer_evaluation_never_expands_a_built_witness():
    with mock.patch.object(witness, "_expansion", side_effect=AssertionError("expanded")):
        for family in ("ghz", "cluster"):
            for n in (3, 6, 10, 11):
                gens = stabilizer_generators(family, n)
                for lam in (0.0, 0.3, 1.0):
                    value = stabilizer_expectation(build_modified_witness(family, n, lam), gens)
                    assert value == full_sequence_report(family, [lam])[0].witness_value


@pytest.mark.parametrize("family", ["ghz", "cluster"])
@pytest.mark.parametrize("n", [11, 64, 1000])
def test_witness_values_beyond_the_dense_limit_are_the_closed_form(family, n):
    gens = stabilizer_generators(family, n)
    for lam in (0.0, 0.37, 1.0):
        value = stabilizer_expectation(build_modified_witness(family, n, lam), gens)
        assert abs(value - full_sequence_report(family, [lam])[0].witness_value) <= 1e-12
    # The form carries λ itself, though 2^-|H|·λ underflows for cluster at N = 1000.
    assert build_modified_witness(family, n, 1e-300).factored.sharpness == 1e-300
    if n == DENSE_QUBIT_LIMIT + 1:
        # GHZ would have 2^(N-1) + 1 terms; they are not expanded.
        with pytest.raises(CapacityError, match=f"up to {DENSE_QUBIT_LIMIT} qubits"):
            build_modified_witness(family, n, 0.5).terms


@pytest.mark.parametrize("family", ["ghz", "cluster"])
def test_ten_thousand_parties_from_closed_form_masks(family):
    n = 10_000
    gens = stabilizer_generators(family, n)
    masks = [(g.x_mask, g.z_mask) for g in gens]
    full = (1 << n) - 1
    if family == "ghz":
        # X..X, then ZZ on qubits m and m + 1 (qubit 1 the most significant bit).
        assert masks == [(full, 0)] + [(0, 3 << (n - m - 1)) for m in range(1, n)]
    else:
        # XZ, then ZXZ centred on qubit m, then ZX.
        interior = [(1 << (n - m), 5 << (n - m - 1)) for m in range(2, n)]
        assert masks == [(1 << (n - 1), 1 << (n - 2)), *interior, (1, 2)]
    assert all(g.n_qubits == n and g.coeff == 1.0 for g in gens)
    for lam in (0.0, 0.37, 1.0):
        value = stabilizer_expectation(build_modified_witness(family, n, lam), gens)
        assert value == full_sequence_report(family, [lam])[0].witness_value


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
        to_matrix(build_modified_ghz_witness(n, lam)), dense_ghz_witness(n, lam), atol=1e-12
    )
    np.testing.assert_allclose(
        to_matrix(build_modified_cluster_witness(n, lam)),
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
            spectrum = eigen_spectrum(to_matrix(expr))
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
                assert eigen_spectrum(to_matrix(expr))[0] >= -1e-10


def test_witness_nonnegative_on_sampled_biseparable_states():
    rng = np.random.default_rng(123)
    for n in (3, 4):
        witnesses = [
            to_matrix(build_modified_ghz_witness(n, lam))
            for lam in (0.0, 0.3, 0.7, 1.0)
        ] + [
            to_matrix(build_modified_cluster_witness(n, lam))
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
