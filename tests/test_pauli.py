"""Pauli string algebra: multiplication phases, expansions, dense conversion."""

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from dense_spectra import (
    column_bits,
    from_ops,
    reference_projector_product,
    statevector_action,
    term_bits,
    term_columns,
    to_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgme import pauli
from seqgme.errors import AlgebraError, CapacityError, DimensionError
from seqgme.pauli import (
    DENSE_QUBIT_LIMIT,
    OperatorExpr,
    PauliString,
    _format_coeff,
    _letters_of,
    commutes,
    expand_projector_product,
)
from seqgme.states import stabilizer_generators

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
    return to_matrix(as_sum(p))


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
    expr = expand_projector_product([PauliString("ZZ")], n_qubits=2)
    assert expr.terms == (PauliString("II", 0.5), PauliString("ZZ", 0.5))


def test_expand_empty_is_identity():
    expr = expand_projector_product([], n_qubits=3)
    assert expr.terms == (PauliString("III", 1.0),)


def test_expand_ghz3_z_generators():
    expr = expand_projector_product([PauliString("ZZI"), PauliString("IZZ")], n_qubits=3)
    expected = {"III": 0.25, "ZZI": 0.25, "IZZ": 0.25, "ZIZ": 0.25}
    assert {t.letters: t.coeff for t in expr.terms} == expected


def test_expand_rejects_noncommuting():
    with pytest.raises(AlgebraError):
        expand_projector_product([PauliString("XI"), PauliString("ZI")], n_qubits=2)


def assert_expands_as_reference(gens, n):
    got = expand_projector_product(gens, n_qubits=n)
    assert term_bits(got) == term_bits(reference_projector_product(gens, n))


@pytest.mark.parametrize("family", ["ghz", "cluster"])
@pytest.mark.parametrize("n", range(3, DENSE_QUBIT_LIMIT + 1))
def test_expand_is_bitwise_the_reference_on_generator_prefixes(family, n):
    gens = stabilizer_generators(family, n)
    for k in range(n + 1):
        assert_expands_as_reference(gens[:k], n)


def test_expand_is_bitwise_the_reference_on_a_dependent_set():
    # The product ZZI·IZZ·(-ZIZ) is -I, so half the subsets cancel.
    gens = [PauliString("ZZI"), PauliString("IZZ"), PauliString("ZIZ", -1.0)]
    assert_expands_as_reference(gens, 3)
    assert [t.letters for t in expand_projector_product(gens, n_qubits=3).terms] == []


_UNITS = [1.0, -1.0, 1.0j, -1.0j]


@st.composite
def commuting_sets(draw):
    """Up to 8 pairwise commuting strings on 1..6 qubits, each drawn string
    kept when it commutes with those kept before it.

    A non-identity string takes a unit or a general coefficient. An identity
    string takes a unit: its factor (I + c·I)/2 is then one term, whose
    product with a coefficient a is a·(1 + c)/2 rounded once, where the
    reference adds a/2 and a·c/2; the two agree exactly for unit c, not
    for every c.
    """
    n = draw(st.integers(1, 6))
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    general = st.sampled_from([*_UNITS, 0.0, 0.5, -2.0, 0.3 + 0.4j, 3.7 - 1.1j, -0.6j])
    kept = []
    for word in draw(st.lists(letters, max_size=8)):
        coeffs = st.sampled_from(_UNITS) if word.strip("I") == "" else general
        string = PauliString(word, draw(coeffs))
        if all(commutes(string, other) for other in kept):
            kept.append(string)
    return n, kept


@settings(max_examples=150, deadline=None)
@given(commuting_sets())
def test_expand_is_bitwise_the_reference_on_commuting_sets(case):
    n, gens = case
    assert_expands_as_reference(gens, n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_expand_matches_dense_projector_product(n):
    # GHZ-style generator set: X^n plus nearest-neighbour Z pairs.
    gens = [PauliString("X" * n)]
    gens += [from_ops(n, {m - 1: "Z", m: "Z"}) for m in range(1, n)]
    expr = expand_projector_product(gens, n_qubits=n)
    dense = np.eye(1 << n, dtype=complex)
    for g in gens:
        dense = dense @ (np.eye(1 << n) + kron_oracle(g.letters)) / 2.0
    np.testing.assert_allclose(to_matrix(expr), dense, atol=1e-12)


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
        to_matrix(combo), 3.0 * np.eye(4) - 2.0 * kron_oracle("XX"), atol=1e-12
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


COLUMN_CASES = {
    "from_terms": OperatorExpr.from_terms(
        4, [PauliString("XZIZ", 0.25), PauliString("IIII", -1.5), PauliString("YYII", 0.5j)]
    ),
    "product": OperatorExpr.from_terms(3, [PauliString("XYZ", -0.0), PauliString("ZZI", 2.0)])
    * OperatorExpr.from_terms(3, [PauliString("YIX", 0.5), PauliString("IZZ", -1e-300)]),
    "wrapped string": OperatorExpr.from_terms(2, [PauliString("YX", -0.75)]),
    "empty": OperatorExpr(3, ()),
    "cancelled": OperatorExpr.identity(2) - OperatorExpr.identity(2),
}


@pytest.mark.parametrize("name", sorted(COLUMN_CASES))
def test_columns_are_the_terms_masks_and_coefficients(name):
    expr = COLUMN_CASES[name]
    xs, zs, coeffs = expr.columns()
    assert type(xs) is tuple and type(zs) is tuple
    assert coeffs.dtype == np.complex128 and coeffs.shape == (len(expr.terms),)
    assert column_bits(expr) == term_columns(expr)


@settings(max_examples=80, deadline=None)
@given(expr=complex_pauli_sums())
def test_columns_of_any_sum_are_its_terms_bit_for_bit(expr):
    assert column_bits(expr) == term_columns(expr)


def test_columns_are_made_once_and_refuse_writes():
    expr = OperatorExpr.from_terms(2, [PauliString("XZ", 0.5), PauliString("ZZ", -1.0)])
    with mock.patch.object(pauli, "_columns_of", wraps=pauli._columns_of) as walk:
        first = expr.columns()
        assert expr.columns() is first
        assert expr.is_hermitian()
    assert walk.call_count == 1
    xs, _, coeffs = first
    with pytest.raises(ValueError, match="read-only"):
        coeffs[0] = 0.0
    with pytest.raises(TypeError):
        xs[0] = 0
    # The columns are not fields: equality and hashing are the terms'.
    assert expr == OperatorExpr.from_terms(2, [PauliString("ZZ", -1.0), PauliString("XZ", 0.5)])


@pytest.mark.parametrize(
    "coeff, hermitian",
    [(1.0, True), (1.0 + 1e-12j, True), (1.0 - 2e-12j, False), (complex(1.0, float("nan")), False)],
)
def test_is_hermitian_reads_the_coefficient_column(coeff, hermitian):
    expr = OperatorExpr.from_terms(2, [PauliString("II"), PauliString("XY", coeff)])
    assert expr.is_hermitian() is hermitian


@settings(max_examples=80, deadline=None)
@given(expr=complex_pauli_sums())
def test_to_matrix_is_bitwise_the_kronecker_sum(expr):
    dim = 1 << expr.n_qubits
    want = np.zeros((dim, dim), dtype=complex)
    for term in expr.terms:
        want += kron_oracle(term.letters, term.coeff)
    got = to_matrix(expr)
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
                statevector_action(p, psi), matrix_of(p) @ psi, atol=1e-12
            )


def test_invalid_letters_are_rejected():
    for bad in ("XQ", ["X", "Z"], 5, "", "xz", "X Z"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            PauliString(bad)


def oracle_letters(n, x_mask, z_mask):
    """Qubit q's letter from bit n - 1 - q of each mask, one qubit at a time."""
    bits = [((x_mask >> (n - 1 - q)) & 1, (z_mask >> (n - 1 - q)) & 1) for q in range(n)]
    return "".join({(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[b] for b in bits)


_COEFFS = st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def mask_strings(draw):
    """(n, [(x mask, z mask, coeff)]) on 1..12 qubits, distinct masks."""
    n = draw(st.integers(1, 12))
    mask = st.integers(0, (1 << n) - 1)
    terms = st.tuples(mask, mask, _COEFFS)
    return n, draw(st.lists(terms, min_size=1, max_size=12, unique_by=lambda t: t[:2]))


@settings(max_examples=200, deadline=None)
@given(mask_strings())
def test_letters_and_masks_are_one_representation(case):
    n, terms = case
    for x, z, c in terms:
        letters = oracle_letters(n, x, z)
        built = PauliString._from_masks(n, x, z, c)
        parsed = PauliString(_letters_of(n, x, z), c)
        assert parsed == built and hash(parsed) == hash(built)
        assert built.letters == letters and PauliString(letters).letters == letters
        assert str(built) == f"{_format_coeff(c)}·{letters}"
        assert repr(built) == f"PauliString(letters={letters!r}, coeff={c!r})"
        assert not hasattr(built, "__dict__")
    expr = OperatorExpr.from_terms(n, [PauliString._from_masks(n, x, z, c) for x, z, c in terms])
    kept = sorted(oracle_letters(n, x, z) for x, z, c in terms if c != 0)
    assert [t.letters for t in expr.terms] == kept


def test_a_string_stores_its_masks_and_coefficient_only():
    assert PauliString.__slots__ == ("n_qubits", "x_mask", "z_mask", "coeff")
    assert repr(PauliString("XYZ", -0.5)) == "PauliString(letters='XYZ', coeff=(-0.5+0j))"
    assert str(PauliString("XYZ", -0.5j)) == "-0.5i·XYZ"
