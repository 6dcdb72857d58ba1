"""State constructors, stabilizer generators, and the GF(2) expectation route."""

import functools
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from dense_spectra import from_ops, statevector_action
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from seqgme import pauli, states
from seqgme.densesim import expectation, validate_density_matrix
from seqgme.errors import AlgebraError, CapacityError, ValidationError
from seqgme.pauli import (
    DENSE_QUBIT_LIMIT,
    OperatorExpr,
    PauliString,
    commutes,
    expand_projector_product,
)
from seqgme.states import (
    StateFamily,
    stabilizer_expectation,
    stabilizer_generators,
    syndrome_spectrum,
)
from seqgme.witness import build_modified_witness


def density(kind, n, **params):
    return StateFamily(kind, n, **params).density_matrix()


def string_product(a, b):
    """a·b as one string, through the product of two single-term sums."""
    n = a.n_qubits
    (term,) = (OperatorExpr.from_terms(n, [a]) * OperatorExpr.from_terms(n, [b])).terms
    return term


def test_ghz3_density_entries():
    rho = density("ghz", 3)
    expected = np.zeros((8, 8), dtype=complex)
    for i in (0, 7):
        for j in (0, 7):
            expected[i, j] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_ghz_corners_are_exactly_one_half():
    for n in (3, 6, 10):
        rho = density("ghz", n)
        corners = np.ix_([0, -1], [0, -1])
        assert np.all(rho[corners] == 0.5)
        rho[corners] = 0.0
        assert not np.any(rho)


def test_ghz_stabilizer_expectations():
    for n in (3, 5):
        rho = density("ghz", n)
        assert expectation(rho, PauliString("X" * n)) == pytest.approx(1.0, abs=1e-12)


def test_generalized_ghz_reductions_and_correlators():
    np.testing.assert_allclose(density("gghz", 3, alpha=0.5), density("ghz", 3), atol=1e-15)
    for n, alpha in ((3, 0.3), (4, 0.1)):
        rho = density("gghz", n, alpha=alpha)
        assert expectation(rho, PauliString("X" * n)) == pytest.approx(
            2.0 * math.sqrt(alpha * (1.0 - alpha)), abs=1e-12
        )
        for m in range(2, n + 1):
            zz = from_ops(n, {m - 2: "Z", m - 1: "Z"})
            assert expectation(rho, zz) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        StateFamily("gghz", 3, alpha=1.0)


def test_mixed_ghz_stabilizer_expectations():
    n, p1, p2, p3, alpha = 4, 0.7, 0.2, 0.1, 0.25
    rho = density("mixed", n, alpha=alpha, p1=p1, p2=p2, p3=p3)
    validate_density_matrix(rho)
    assert expectation(rho, PauliString("X" * n)) == pytest.approx(
        2.0 * p1 * math.sqrt(alpha * (1.0 - alpha)), abs=1e-12
    )
    for m in range(2, n + 1):
        zz = from_ops(n, {m - 2: "Z", m - 1: "Z"})
        assert expectation(rho, zz) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        density("mixed", n, alpha=alpha), density("gghz", n, alpha=alpha), atol=1e-15
    )
    with pytest.raises(ValueError):
        StateFamily("mixed", n, alpha=alpha, p1=0.5, p2=0.2, p3=0.2)  # weights sum to 0.9
    with pytest.raises(ValueError):
        StateFamily("mixed", n, alpha=alpha, p1=0.0, p2=0.5, p3=0.5)


def test_neighbour_phase_gate_is_controlled_z():
    # e^{i pi |1><1| x |1><1|} evaluated by a generic matrix exponential.
    proj1 = np.diag([0.0, 1.0])
    gate = expm(1j * np.pi * np.kron(proj1, proj1))
    np.testing.assert_allclose(gate, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-12)


def test_cluster_state_matches_gate_circuit():
    proj1 = np.diag([0.0, 1.0])
    cz = expm(1j * np.pi * np.kron(proj1, proj1))
    for n in (3, 4, 5):
        psi = np.ones(1 << n, dtype=complex) / math.sqrt(1 << n)
        for m in range(n - 1):
            full = np.kron(
                np.kron(np.eye(1 << m), cz), np.eye(1 << (n - m - 2))
            )
            psi = full @ psi
        np.testing.assert_allclose(density("cluster", n), np.outer(psi, psi.conj()), atol=1e-12)


def test_cluster_first_stabilizer_expectation():
    for n in (3, 4, 6):
        rho = density("cluster", n)
        validate_density_matrix(rho)
        xz = from_ops(n, {0: "X", 1: "Z"})
        assert expectation(rho, xz) == pytest.approx(1.0, abs=1e-12)


def test_stabilizer_generator_letters():
    assert [g.letters for g in stabilizer_generators("ghz", 3)] == ["XXX", "ZZI", "IZZ"]
    assert [g.letters for g in stabilizer_generators("cluster", 3)] == ["XZI", "ZXZ", "IZX"]
    assert stabilizer_generators("cluster", 4)[-1].letters == "IIZX"
    # Each generator as the qubits it acts on and their letters.
    for n in range(3, 13):
        ghz = [PauliString("X" * n)] + [from_ops(n, {m - 1: "Z", m: "Z"}) for m in range(1, n)]
        cluster = [from_ops(n, {0: "X", 1: "Z"}), from_ops(n, {n - 2: "Z", n - 1: "X"})]
        cluster[1:1] = [from_ops(n, {m - 1: "Z", m: "X", m + 1: "Z"}) for m in range(1, n - 1)]
        assert stabilizer_generators("ghz", n) == ghz
        assert stabilizer_generators("cluster", n) == cluster
    with pytest.raises(ValueError):
        stabilizer_generators("w", 4)
    with pytest.raises(CapacityError):
        stabilizer_generators("ghz", 2)


def test_stabilizer_generators_are_checked_once_and_handed_out_as_copies(monkeypatch):
    states._verified_generators.cache_clear()
    built = []

    class CountingBasis(states._StabilizerBasis):
        def __init__(self, generators, n):
            built.append(n)
            super().__init__(generators, n)

    monkeypatch.setattr(states, "_StabilizerBasis", CountingBasis)
    first = stabilizer_generators("ghz", 5)
    first.append(PauliString("IIIII"))
    second = stabilizer_generators("ghz", 5)
    assert built == [5]
    assert [g.letters for g in second] == ["XXXXX", "ZZIII", "IZZII", "IIZZI", "IIIZZ"]
    # The check's basis is the one the evaluation finds.
    assert stabilizer_expectation(PauliString("YYXXX"), second) == -1.0
    assert built == [5]


@pytest.mark.parametrize("family", ["ghz", "cluster"])
@pytest.mark.parametrize("n", range(3, DENSE_QUBIT_LIMIT + 1))
def test_generators_stabilize_their_state(family, n):
    gens = stabilizer_generators(family, n)
    assert len(gens) == n
    assert all(commutes(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :])
    psi = states._ghz_amplitudes(n, 0.5) if family == "ghz" else states._cluster_amplitudes(n)
    for g in gens:
        assert np.max(np.abs(statevector_action(g, psi) - psi)) <= 1e-12


def test_printed_cluster_middle_variant_fails_oracle():
    # The ZXX interior form does not fix the chain state; the resolved ZXZ does.
    for n in (3, 4, 5):
        rho = density("cluster", n)
        psi = rho[:, 0] / math.sqrt(rho[0, 0])  # pure, amplitude 2^(-n/2) on |0..0>
        for m in range(2, n):
            zxx = from_ops(n, {m - 2: "Z", m - 1: "X", m: "X"})
            assert np.linalg.norm(statevector_action(zxx, psi) - psi) > 1.0
            zxz = from_ops(n, {m - 2: "Z", m - 1: "X", m: "Z"})
            np.testing.assert_allclose(statevector_action(zxz, psi), psi, atol=1e-12)


def test_stabilizer_expectation_matches_dense():
    rng = np.random.default_rng(9)
    letters = np.array(list("IXYZ"))
    for family in ("ghz", "cluster"):
        for n in (3, 4, 6):
            gens = stabilizer_generators(family, n)
            rho = density(family, n)
            for _ in range(40):
                p = PauliString("".join(rng.choice(letters, size=n)))
                assert stabilizer_expectation(p, gens) == pytest.approx(
                    expectation(rho, p), abs=1e-12
                )


def test_stabilizer_expectation_signs():
    gens = stabilizer_generators("ghz", 3)
    # XXX * ZZI = -YYX, so the group contains -YYX.
    assert stabilizer_expectation(PauliString("YYX"), gens) == pytest.approx(-1.0)
    assert stabilizer_expectation(PauliString("XXI"), gens) == 0.0
    assert stabilizer_expectation(PauliString("ZIZ"), gens) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        stabilizer_expectation(PauliString("ZIZI"), gens)


# Quarter-integer weights keep every imaginary total exact: 0 or at least 1/4.
_WEIGHTS = st.integers(-4, 4).map(lambda k: k / 4.0)


@st.composite
def stabilizer_sums(draw):
    """A GHZ or cluster state on 3..6 qubits, a generating set of its
    stabilizer group, and a Pauli sum mixing group elements, +-i multiples of
    group elements and arbitrary strings."""
    family = draw(st.sampled_from(["ghz", "cluster"]))
    n = draw(st.integers(3, 6))
    gens = stabilizer_generators(family, n)
    # Another generating set of the same group: shuffled, and each generator
    # times a random subset of the ones before it, so elimination must combine rows.
    gens = draw(st.permutations(gens))
    for i in range(1, n):
        for j in range(i):
            if draw(st.booleans()):
                gens[i] = string_product(gens[i], gens[j])
    terms = []
    kinds = st.lists(st.sampled_from(["member", "i*member", "string"]), min_size=1, max_size=10)
    for kind in draw(kinds):
        if kind == "string":
            letters = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
            terms.append(PauliString(letters, draw(_WEIGHTS)))
            continue
        used = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        element = functools.reduce(
            string_product, (g for g, u in zip(gens, used) if u), PauliString("I" * n)
        )
        scale = draw(_WEIGHTS)
        if kind == "i*member":
            scale *= draw(st.sampled_from([1.0j, -1.0j]))
        terms.append(element.with_coeff(element.coeff * scale))
    return family, n, gens, OperatorExpr.from_terms(n, terms)


@settings(max_examples=80, deadline=None)
@given(stabilizer_sums())
def test_stabilizer_expectation_matches_dense_on_random_sums(case):
    family, n, gens, expr = case
    rho = density(family, n)
    real_part = OperatorExpr.from_terms(n, [t.with_coeff(t.coeff.real) for t in expr.terms])
    imag_part = OperatorExpr.from_terms(n, [t.with_coeff(t.coeff.imag) for t in expr.terms])
    if abs(expectation(rho, imag_part)) < 0.1:
        assert stabilizer_expectation(expr, gens) == pytest.approx(
            expectation(rho, real_part), abs=1e-12
        )
    else:
        with pytest.raises(ValidationError, match="imaginary residue"):
            stabilizer_expectation(expr, gens)


def test_stabilizer_expectation_rejects_non_commuting_generators():
    # XII and ZII anticommute, so no common eigenstate exists. A refused set
    # is not cached: the second call is refused too.
    gens = [PauliString("XII"), PauliString("ZII"), PauliString("IIZ")]
    for _ in range(2):
        with pytest.raises(ValidationError, match="do not commute"):
            stabilizer_expectation(PauliString("YII"), gens)


def first_anticommuting_pair(gens):
    """The first (i, j), i < j, in lexicographic order whose strings anticommute."""
    for i, g in enumerate(gens):
        for j in range(i + 1, len(gens)):
            if not commutes(g, gens[j]):
                return i, j
    return None


@pytest.mark.parametrize("family", ["ghz", "cluster"])
def test_commutation_is_tested_only_on_pairs_that_share_a_qubit(family):
    n = 1000
    gens = tuple(stabilizer_generators(family, n))
    with mock.patch.object(pauli, "commutes", wraps=commutes) as spy:
        states._StabilizerBasis(gens, n)
    assert 0 < spy.call_count <= 3 * n
    # One string that anticommutes with the last generator alone, so the
    # product's check runs through every earlier pair before it fails.
    extra = PauliString("I" * (n - 1) + ("X" if family == "ghz" else "Z"))
    assert [commutes(g, extra) for g in gens].count(False) == 1
    with mock.patch.object(pauli, "commutes", wraps=commutes) as spy:
        with pytest.raises(AlgebraError) as raised:
            expand_projector_product([*gens, extra], n_qubits=n)
    assert str(raised.value) == f"generators do not commute: {gens[-1]} vs {extra}"
    assert 0 < spy.call_count <= 4 * n


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_non_commuting_set_names_its_first_pair(data):
    n = data.draw(st.integers(2, 6))
    letters = st.text("IXYZ", min_size=n, max_size=n)
    words = data.draw(st.lists(letters, min_size=n, max_size=n))
    gens = tuple(PauliString(word) for word in words)
    first = first_anticommuting_pair(gens)
    if first is None:
        return
    i, j = first
    # The basis and the projector product share one check, each with its error.
    for check, error in (
        (states._StabilizerBasis, ValidationError),
        (expand_projector_product, AlgebraError),
    ):
        with pytest.raises(error) as raised:
            check(gens, n)
        assert str(raised.value) == f"generators do not commute: {gens[i]} vs {gens[j]}"


def test_stabilizer_expectation_rejects_too_few_generators():
    # Two generators on three qubits fix a two-dimensional space, not a state.
    gens = [PauliString("ZZI"), PauliString("IZZ")]
    with pytest.raises(ValidationError, match="need 3"):
        stabilizer_expectation(PauliString("XXX"), gens)


def test_stabilizer_expectation_rejects_dependent_generators():
    # ZII and -ZII generate -I, so no state is fixed by all three.
    gens = [PauliString("ZII"), PauliString("ZII", -1.0), PauliString("IIZ")]
    for _ in range(2):
        with pytest.raises(ValidationError, match="product of the ones before it"):
            stabilizer_expectation(PauliString("ZII"), gens)


def test_stabilizer_expectation_rejects_non_unit_coefficients():
    gens = stabilizer_generators("ghz", 3)
    for coeff in (1.0j, 0.5, -2.0):
        bad = [gens[0].with_coeff(coeff)] + gens[1:]
        for _ in range(2):
            with pytest.raises(ValidationError, match="coefficient"):
                stabilizer_expectation(PauliString("XXX"), bad)
    signed = [gens[0].with_coeff(-1.0)] + gens[1:]
    assert stabilizer_expectation(PauliString("XXX"), signed) == -1.0


def _fresh_expectation(expr, gens):
    """<expr> from a basis built for this call alone, with no factored members."""
    basis = states._StabilizerBasis(tuple(gens), expr.n_qubits)
    values = [
        t.coeff * found[1] for t in expr.terms if (found := basis.factor(t.x_mask, t.z_mask))
    ]
    total_imag = math.fsum(v.imag for v in values)
    if abs(total_imag) >= 1e-10:
        raise ValidationError(f"expectation has imaginary residue {total_imag}")
    return math.fsum(v.real for v in values)


def _outcome(evaluate, expr, gens):
    """The value's exact bits, or the error it raises."""
    try:
        return evaluate(expr, gens).hex()
    except ValidationError as error:
        return str(error)


@settings(max_examples=80, deadline=None)
@given(stabilizer_sums(), st.lists(st.booleans(), min_size=6, max_size=6))
def test_cached_expectation_is_bit_for_bit_a_fresh_basis_evaluation(case, flips):
    # Flipping generator signs fixes another stabilizer state; "string" terms
    # are mostly outside the group and carry Y letters.
    _, n, gens, expr = case
    gens = [g.with_coeff(-g.coeff) if flip else g for g, flip in zip(gens, flips)]
    expected = _outcome(_fresh_expectation, expr, gens)
    # Cold, then with every member of expr decided, then from an equal copy.
    for generators in (gens, gens, list(gens)):
        assert _outcome(stabilizer_expectation, expr, generators) == expected
    # Only group members are stored, so at most 2^n of them.
    factors = states._stabilizer_basis(gens, n).factors
    assert len(factors) <= 1 << n and {sign for _, sign in factors.values()} <= {1.0, -1.0}


def _assert_factored_is_enumerated(lambdas):
    """Each built witness's factored value equals its term enumeration, bit
    for bit, on its family's state and on each state with one generator's
    sign flipped (every factor still +- a group member)."""
    for family in ("ghz", "cluster"):
        for n in range(3, DENSE_QUBIT_LIMIT + 1):
            gens = stabilizer_generators(family, n)
            for flip in range(-1, n):
                signed = [g.with_coeff(-1.0) if m == flip else g for m, g in enumerate(gens)]
                basis = states._stabilizer_basis(tuple(signed), n)
                for lam in lambdas:
                    built = build_modified_witness(family, n, lam)
                    value = states._factored_expectation(built.factored, basis)
                    assert value is not None
                    assert value.hex() == _fresh_expectation(built, signed).hex()
                    assert stabilizer_expectation(built, signed).hex() == value.hex()


def test_factored_witness_value_is_bitwise_the_term_enumeration():
    # 2^-1000 and up keep every slope times lambda exact; the subnormal ones
    # check the sharpness the factored form carries where they round.
    _assert_factored_is_enumerated((0.0, 2.0**-1000, 1e-300, 0.3, 1.0, 5e-324, 1e-310))


@settings(max_examples=10, deadline=None)
@given(st.floats(0.0, 1.0))
def test_factored_witness_value_is_bitwise_the_term_enumeration_at_random_sharpness(lam):
    _assert_factored_is_enumerated((lam,))


# SHA-256 of the .hex() of every stabilizer_expectation, and of the float64
# bytes of every syndrome_spectrum, taken in the loop order of the test below.
PINNED_EXPECTATIONS = "9717efbf555ce69b296342a1df7070f76c6e507566a97104dd5a03e9ec56bdff"
PINNED_SPECTRA = "b35c3757648be174ff353328e3a5b98d382a2311a5d1c3dc208575ebc9332702"


def test_witness_values_and_spectra_keep_their_pinned_bits():
    values, spectra = hashlib.sha256(), hashlib.sha256()
    for family in ("ghz", "cluster"):
        for n in (*range(3, 13), 40):
            gens = stabilizer_generators(family, n)
            for lam in (0.0, 5e-324, 1e-300, 0.3, 0.7, 1.0):
                witness = build_modified_witness(family, n, lam)
                values.update(stabilizer_expectation(witness, gens).hex().encode())
                if n <= DENSE_QUBIT_LIMIT:
                    spectrum = syndrome_spectrum(witness, gens)
                    spectra.update(spectrum.astype("<f8").tobytes())
    assert values.hexdigest() == PINNED_EXPECTATIONS
    assert spectra.hexdigest() == PINNED_SPECTRA


def test_sums_without_a_usable_factored_form_are_enumerated():
    for n in range(3, DENSE_QUBIT_LIMIT + 1):
        for family, other in (("ghz", "cluster"), ("cluster", "ghz")):
            built = build_modified_witness(family, n, 0.3)
            gens = stabilizer_generators(family, n)
            # Arithmetic drops the form; == and hash ignore it.
            for plain in (1.0 * built, built + OperatorExpr(n, ())):
                assert plain.factored is None
                assert plain == built and hash(plain) == hash(built)
                assert stabilizer_expectation(plain, gens).hex() == (
                    stabilizer_expectation(built, gens).hex()
                )
            # On the other family's state some factor is outside the group.
            other_gens = stabilizer_generators(other, n)
            basis = states._stabilizer_basis(tuple(other_gens), n)
            assert states._factored_expectation(built.factored, basis) is None
            expected = _fresh_expectation(built, other_gens).hex()
            assert stabilizer_expectation(built, other_gens).hex() == expected


def test_the_enumeration_of_a_built_witness_makes_no_pauli_string():
    # On the other family's state the form is unusable, so the terms are
    # enumerated, from the witness's columns.
    made = AssertionError("a Pauli string was made")
    for family, other in (("ghz", "cluster"), ("cluster", "ghz")):
        for n in range(3, DENSE_QUBIT_LIMIT + 1):
            other_gens = stabilizer_generators(other, n)
            build_modified_witness(family, n, 0.3).columns()  # the expansion's own strings
            for lam in (0.0, 5e-324, 1e-300, 0.3, 1.0):
                with mock.patch.object(PauliString, "_from_masks", side_effect=made):
                    built = build_modified_witness(family, n, lam)
                    value = stabilizer_expectation(built, other_gens)
                assert "terms" not in vars(built)
                assert value.hex() == _fresh_expectation(built, other_gens).hex()


def test_equal_generator_sets_share_one_validated_basis():
    n = 5
    # Three equal sets, each a fresh list of the same strings.
    first, *others = (
        states._stabilizer_basis(stabilizer_generators("cluster", n), n) for _ in "abc"
    )
    assert all(basis is first for basis in others)
    # Newly constructed equal strings give the same values; a sign-flipped
    # set gets a basis of its own.
    gens = stabilizer_generators("cluster", n)
    rebuilt = [PauliString(g.letters, g.coeff) for g in gens]
    assert not any(a is b for a, b in zip(rebuilt, gens))
    flipped = [rebuilt[0].with_coeff(-1.0), *rebuilt[1:]]
    assert states._stabilizer_basis(flipped, n) is not first
    witness = build_modified_witness("cluster", n, 0.3)
    values = {stabilizer_expectation(witness, g).hex() for g in (gens, rebuilt, list(gens))}
    assert len(values) == 1


@pytest.mark.parametrize("family", ["ghz", "cluster"])
def test_opposite_generator_signs_keep_separate_tables(family):
    n = 4
    gens = stabilizer_generators(family, n)
    flipped = [gens[0].with_coeff(-1.0)] + gens[1:]
    bases = [states._stabilizer_basis(tuple(g), n) for g in (gens, flipped)]
    assert bases[0] is not bases[1]
    # The first generator, and its product with the second, flip sign.
    for term in (gens[0], string_product(gens[0], gens[1])):
        term = term.with_coeff(1.0)
        values = [stabilizer_expectation(term, g) for g in (gens, flipped)]
        assert values[0] == -values[1] and abs(values[0]) == 1.0
    assert bases[0].factors is not bases[1].factors
    for key, (subset, sign) in bases[1].factors.items():
        assert bases[0].factors[key] == (subset, -sign)


def test_state_family_parse_and_labels():
    fam = StateFamily.parse("mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4", 4)
    assert (fam.kind, fam.p1, fam.alpha) == ("mixed", 0.8, 0.4)
    assert StateFamily.parse("gghz:alpha=0.3", 3).alpha == 0.3
    assert StateFamily.parse("cluster", 5).witness_family == "cluster"
    assert StateFamily.parse("ghz", 5).x_string_expectation == 1.0
    gghz = StateFamily.parse("gghz:alpha=0.25", 3)
    assert gghz.x_string_expectation == pytest.approx(2 * math.sqrt(0.25 * 0.75))
    with pytest.raises(ValueError):
        StateFamily.parse("ghz:alpha=0.3", 3)
    with pytest.raises(ValueError):
        StateFamily.parse("gghz", 3)
    with pytest.raises(ValueError):
        StateFamily.parse("w", 3)


def test_state_family_density_dispatch():
    for text in ("ghz", "cluster", "gghz:alpha=0.3", "mixed:p1=0.9,p2=0.05,p3=0.05,alpha=0.4"):
        fam = StateFamily.parse(text, 4)
        validate_density_matrix(fam.density_matrix())
    with pytest.raises(CapacityError):
        density("ghz", DENSE_QUBIT_LIMIT + 1)


@pytest.mark.parametrize(
    "text", ["ghz", "cluster", "gghz:alpha=0.3", "mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4"]
)
def test_density_matrix_is_real(text):
    fam = StateFamily.parse(text, 5)
    rho = fam.density_matrix()
    assert rho.dtype == np.float64
    # The pure states are exactly the outer products of their statevectors.
    if fam.kind == "cluster":
        # (-1) to the number of adjacent 11 pairs, over 2^(n/2).
        bits = [format(j, "05b") for j in range(32)]
        psi = np.array([(-1) ** sum(a == b == "1" for a, b in zip(w, w[1:])) for w in bits])
        psi = psi / math.sqrt(32)
        np.testing.assert_array_equal(rho, np.outer(psi, psi))
    if fam.kind == "gghz":
        psi = np.zeros(32)
        psi[0], psi[-1] = math.sqrt(fam.alpha), math.sqrt(1.0 - fam.alpha)
        np.testing.assert_array_equal(rho, np.outer(psi, psi))


def outer_product_density(family):
    """The family's density matrix built as an outer product, with the
    mixture's weights added to the corners and scaled by the reciprocal of
    their total: the construction StateFamily.entries replaced."""
    n = family.n_qubits
    if family.kind == "ghz":
        rho = np.zeros((1 << n, 1 << n))
        rho[np.ix_([0, -1], [0, -1])] = 0.5
        return rho
    if family.kind == "cluster":
        psi = states._cluster_amplitudes(n)
    else:
        psi = states._ghz_amplitudes(n, family.alpha)
    rho = family.p1 * np.outer(psi, psi)
    rho[0, 0] += family.p2
    rho[-1, -1] += family.p3
    rho *= 1.0 / (family.p1 + family.p2 + family.p3)
    return rho


ENTRY_FAMILIES = (
    "ghz",
    "cluster",
    "gghz:alpha=0.3",
    "gghz:alpha=1e-300",
    "mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4",
    "mixed:p1=0.7,p2=0.0,p3=0.3000000001,alpha=0.9",
)


@pytest.mark.parametrize("label", ENTRY_FAMILIES)
@pytest.mark.parametrize("n", range(3, DENSE_QUBIT_LIMIT + 1))
def test_entries_are_the_outer_product_density_bit_for_bit(label, n):
    family = StateFamily.parse(label, n)
    reference = outer_product_density(family).view(np.uint64)
    index = np.arange(1 << n)
    full = family.entries(index[:, None], index)
    assert full.dtype == np.float64
    assert np.array_equal(full.view(np.uint64), reference)
    assert np.array_equal(family.density_matrix().view(np.uint64), reference)
    # Any entries, in any order and shape, have the bits they have in the grid.
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 1 << n, size=(3, 1, 40))
    cols = rng.integers(0, 1 << n, size=(5, 40))
    cols[0, :4] = [0, index[-1], 0, index[-1]]
    rows[0, 0, :4] = [0, 0, index[-1], index[-1]]
    picked = family.entries(rows, cols)
    assert picked.shape == (3, 5, 40)
    assert np.array_equal(picked.view(np.uint64), reference[rows, cols])


@pytest.mark.parametrize("field", ["alpha", "p1", "p2", "p3"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_state_family_rejects_non_finite_parameters(field, value):
    params = {"alpha": 0.4, "p1": 0.8, "p2": 0.1, "p3": 0.1, field: value}
    with pytest.raises(ValueError, match=field):
        StateFamily("mixed", 3, **params)


def test_state_family_mixture_weights_only_for_mixed():
    # x_string_expectation reads p1, so a gghz state must not carry one.
    with pytest.raises(ValueError, match="mixture weights"):
        StateFamily("gghz", 3, alpha=0.3, p1=0.5, p2=0.25, p3=0.25)
    with pytest.raises(ValueError, match="mixture weights"):
        StateFamily("ghz", 3, p1=0.9, p3=0.1)
