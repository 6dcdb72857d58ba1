"""Pauli string algebra: multiplication phases, expansions, dense conversion."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgme.errors import AlgebraError, CapacityError, DimensionError
from seqgme.pauli import (
    DENSE_QUBIT_LIMIT,
    OperatorExpr,
    PauliString,
    commutes,
    expand_projector_product,
)

# Independent 2x2 oracle matrices (not imported from the package).
SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(letters, coeff=1.0):
    out = np.array([[coeff]], dtype=complex)
    for c in letters:
        out = np.kron(out, SIGMA[c])
    return out


def as_sum(p):
    return OperatorExpr.from_terms(p.n_qubits, [p])


def pauli_product(a, b):
    """a·b as one string, through the product of two single-term sums."""
    (term,) = (as_sum(a) * as_sum(b)).terms
    return term


def matrix_of(p):
    return as_sum(p).to_matrix()


def test_single_qubit_products():
    assert pauli_product(PauliString("X"), PauliString("X")) == PauliString("I", 1.0)
    assert pauli_product(PauliString("X"), PauliString("Z")) == PauliString("Y", -1.0j)
    assert pauli_product(PauliString("Z"), PauliString("X")) == PauliString("Y", 1.0j)
    assert pauli_product(PauliString("X"), PauliString("Y")) == PauliString("Z", 1.0j)


def test_two_qubit_product_against_matrix_oracle():
    a, b = PauliString("XZ"), PauliString("ZX")
    product = pauli_product(a, b)
    assert product.letters == "YY"
    assert product.coeff == pytest.approx(1.0)
    np.testing.assert_allclose(
        kron_oracle(a.letters) @ kron_oracle(b.letters),
        kron_oracle(product.letters, product.coeff),
        atol=1e-12,
    )


def test_size_mismatch_rejected():
    with pytest.raises(DimensionError):
        as_sum(PauliString("X")) * as_sum(PauliString("XX"))


def test_multiplication_associative_exhaustive_two_qubits():
    strings = [PauliString(a + b) for a in "IXYZ" for b in "IXYZ"]
    for p, q, r in itertools.product(strings, repeat=3):
        assert pauli_product(pauli_product(p, q), r) == pauli_product(
            p, pauli_product(q, r)
        )


def test_square_is_identity_with_unit_phase():
    for letters in ("".join(t) for t in itertools.product("IXYZ", repeat=2)):
        for phase in (1.0, 1.0j, -1.0, -1.0j):
            sq = pauli_product(PauliString(letters, phase), PauliString(letters, phase))
            assert sq.letters == "II"
            assert sq.coeff in (1.0 + 0j, -1.0 + 0j)
            assert sq.coeff == phase * phase


def test_to_dense_matches_matrix_product_exhaustive_small():
    for n in (1, 2):
        strings = ["".join(t) for t in itertools.product("IXYZ", repeat=n)]
        for a, b in itertools.product(strings, repeat=2):
            pa, pb = PauliString(a), PauliString(b)
            np.testing.assert_allclose(
                matrix_of(pauli_product(pa, pb)),
                matrix_of(pa) @ matrix_of(pb),
                atol=1e-12,
            )


def test_to_dense_matches_matrix_product_random_four_qubits():
    rng = np.random.default_rng(11)
    letters = np.array(list("IXYZ"))
    for _ in range(1000):
        a = "".join(rng.choice(letters, size=4))
        b = "".join(rng.choice(letters, size=4))
        pa = PauliString(a, complex(rng.normal(), rng.normal()))
        pb = PauliString(b, complex(rng.normal(), rng.normal()))
        np.testing.assert_allclose(
            matrix_of(pauli_product(pa, pb)), matrix_of(pa) @ matrix_of(pb), atol=1e-12
        )


def test_to_dense_basic_matrices():
    np.testing.assert_array_equal(matrix_of(PauliString("Z")), np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(
        matrix_of(PauliString("XX")), np.fliplr(np.eye(4, dtype=complex))
    )


def test_to_dense_capacity_limit():
    with pytest.raises(CapacityError):
        matrix_of(PauliString("I" * (DENSE_QUBIT_LIMIT + 1)))


@st.composite
def pauli_pairs(draw):
    """Two strings on the same 1..6 qubits with coefficients in {+-1, +-i}."""
    n = draw(st.integers(1, 6))
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.sampled_from([1.0, -1.0, 1.0j, -1.0j])
    return (
        PauliString(draw(letters), draw(coeffs)),
        PauliString(draw(letters), draw(coeffs)),
    )


@settings(max_examples=300, deadline=None)
@given(pauli_pairs())
def test_mask_product_and_commutation_match_kron_oracle(pair):
    a, b = pair
    left, right = kron_oracle(a.letters, a.coeff), kron_oracle(b.letters, b.coeff)
    product = pauli_product(a, b)
    np.testing.assert_allclose(
        kron_oracle(product.letters, product.coeff), left @ right, atol=1e-12
    )
    # The product's masks agree with the ones parsed from its letters.
    parsed = PauliString(product.letters)
    assert (product.x_mask, product.z_mask) == (parsed.x_mask, parsed.z_mask)
    assert commutes(a, b) == np.allclose(left @ right, right @ left, atol=1e-12)


def test_commutes():
    assert commutes(PauliString("XX"), PauliString("ZZ"))
    assert not commutes(PauliString("XI"), PauliString("ZI"))


def test_expand_single_generator():
    expr = expand_projector_product([PauliString("ZZ")])
    assert expr.terms == (PauliString("II", 0.5), PauliString("ZZ", 0.5))


def test_expand_empty_is_identity():
    expr = expand_projector_product([], n_qubits=3)
    assert expr.terms == (PauliString("III", 1.0),)


def test_expand_ghz3_z_generators():
    expr = expand_projector_product([PauliString("ZZI"), PauliString("IZZ")])
    expected = {"III": 0.25, "ZZI": 0.25, "IZZ": 0.25, "ZIZ": 0.25}
    assert {t.letters: t.coeff for t in expr.terms} == expected


def test_expand_rejects_noncommuting():
    with pytest.raises(AlgebraError):
        expand_projector_product([PauliString("XI"), PauliString("ZI")])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_expand_matches_dense_projector_product(n):
    # GHZ-style generator set: X^n plus nearest-neighbour Z pairs.
    gens = [PauliString("X" * n)]
    gens += [PauliString.from_ops(n, {m - 1: "Z", m: "Z"}) for m in range(1, n)]
    expr = expand_projector_product(gens)
    dense = np.eye(1 << n, dtype=complex)
    for g in gens:
        dense = dense @ (np.eye(1 << n) + kron_oracle(g.letters)) / 2.0
    np.testing.assert_allclose(expr.to_matrix(), dense, atol=1e-12)


def test_expand_select_filters_by_position():
    gens = [PauliString("ZZI"), PauliString("IZZ"), PauliString("XXX")]
    expr = expand_projector_product(gens, select=lambda m: m % 2 == 1)
    full = expand_projector_product([gens[0], gens[2]])
    assert expr == full


def test_operator_expr_canonicalization():
    n = 2
    expr = OperatorExpr.from_terms(
        n,
        [PauliString("XX", 0.5), PauliString("ZZ", 1.0), PauliString("XX", -0.5)],
    )
    assert expr.terms == (PauliString("ZZ", 1.0),)
    assert (expr - expr).terms == ()
    mixed = OperatorExpr.from_terms(
        4, [PauliString("XZIZ", 0.25), PauliString("IIII", -1.5), PauliString("YYII", 0.5j)]
    )
    assert [t.letters for t in mixed.terms] == ["IIII", "XZIZ", "YYII"]


def test_operator_expr_scalar_and_sum_arithmetic():
    ident = OperatorExpr.identity(2, 3.0)
    xx = OperatorExpr.from_terms(2, [PauliString("XX", 1.0)])
    combo = ident - 2.0 * xx
    assert {t.letters: t.coeff for t in combo.terms} == {"II": 3.0, "XX": -2.0}
    np.testing.assert_allclose(
        combo.to_matrix(), 3.0 * np.eye(4) - 2.0 * kron_oracle("XX"), atol=1e-12
    )


_COEFF_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),
)


@st.composite
def complex_pauli_sums(draw):
    """An OperatorExpr on 1..6 qubits with arbitrary complex coefficients."""
    n = draw(st.integers(1, 6))
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.builds(complex, _COEFF_PARTS, _COEFF_PARTS)
    terms = draw(st.lists(st.tuples(letters, coeffs), min_size=0, max_size=16))
    return OperatorExpr.from_terms(n, [PauliString(w, c) for w, c in terms])


@settings(max_examples=80, deadline=None)
@given(expr=complex_pauli_sums())
def test_to_matrix_is_bitwise_the_kronecker_sum(expr):
    dim = 1 << expr.n_qubits
    want = np.zeros((dim, dim), dtype=complex)
    for term in expr.terms:
        want += kron_oracle(term.letters, term.coeff)
    got = expr.to_matrix()
    assert got.dtype == np.complex128
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
    for term in expr.terms:
        assert np.array_equal(matrix_of(term), kron_oracle(term.letters, term.coeff))


def test_statevector_action_matches_matrix():
    rng = np.random.default_rng(5)
    letters = np.array(list("IXYZ"))
    for n in (1, 2, 3, 5):
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for _ in range(25):
            p = PauliString("".join(rng.choice(letters, size=n)), complex(rng.normal(), rng.normal()))
            np.testing.assert_allclose(
                p.statevector_action(psi), matrix_of(p) @ psi, atol=1e-12
            )


def test_from_ops_and_letter_edge_cases():
    with pytest.raises(ValueError):
        PauliString.from_ops(3, {3: "X"})
    with pytest.raises(ValueError):
        PauliString("XQ")
