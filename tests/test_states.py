"""State constructors, stabilizer generators, and the GF(2) expectation route."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from seqgme import states
from seqgme.densesim import expectation, validate_density_matrix
from seqgme.errors import CapacityError, ValidationError
from seqgme.pauli import OperatorExpr, PauliString, commutes, pauli_multiply
from seqgme.states import (
    StateFamily,
    cluster_statevector,
    ghz_statevector,
    make_cluster,
    make_generalized_ghz,
    make_ghz,
    make_mixed_ghz,
    stabilizer_expectation,
    stabilizer_generators,
)


def test_ghz3_density_entries():
    rho = make_ghz(3)
    expected = np.zeros((8, 8), dtype=complex)
    for i in (0, 7):
        for j in (0, 7):
            expected[i, j] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_ghz_corners_are_exactly_one_half():
    for n in (3, 6, 10):
        rho = make_ghz(n)
        corners = np.ix_([0, -1], [0, -1])
        assert np.all(rho[corners] == 0.5)
        rho[corners] = 0.0
        assert not np.any(rho)


def test_ghz_stabilizer_expectations():
    for n in (3, 5):
        rho = make_ghz(n)
        assert expectation(rho, PauliString("X" * n)) == pytest.approx(1.0, abs=1e-12)


def test_generalized_ghz_reductions_and_correlators():
    np.testing.assert_allclose(make_generalized_ghz(3, 0.5), make_ghz(3), atol=1e-15)
    for n, alpha in ((3, 0.3), (4, 0.1)):
        rho = make_generalized_ghz(n, alpha)
        assert expectation(rho, PauliString("X" * n)) == pytest.approx(
            2.0 * math.sqrt(alpha * (1.0 - alpha)), abs=1e-12
        )
        for m in range(2, n + 1):
            zz = PauliString.from_ops(n, {m - 2: "Z", m - 1: "Z"})
            assert expectation(rho, zz) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        make_generalized_ghz(3, 1.0)


def test_mixed_ghz_stabilizer_expectations():
    n, p1, p2, p3, alpha = 4, 0.7, 0.2, 0.1, 0.25
    rho = make_mixed_ghz(n, p1, p2, p3, alpha)
    validate_density_matrix(rho)
    assert expectation(rho, PauliString("X" * n)) == pytest.approx(
        2.0 * p1 * math.sqrt(alpha * (1.0 - alpha)), abs=1e-12
    )
    for m in range(2, n + 1):
        zz = PauliString.from_ops(n, {m - 2: "Z", m - 1: "Z"})
        assert expectation(rho, zz) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        make_mixed_ghz(n, 1.0, 0.0, 0.0, alpha), make_generalized_ghz(n, alpha), atol=1e-15
    )
    with pytest.raises(ValueError):
        make_mixed_ghz(n, 0.5, 0.2, 0.2, alpha)  # weights sum to 0.9
    with pytest.raises(ValueError):
        make_mixed_ghz(n, 0.0, 0.5, 0.5, alpha)


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
        np.testing.assert_allclose(cluster_statevector(n), psi, atol=1e-12)


def test_cluster_first_stabilizer_expectation():
    for n in (3, 4, 6):
        rho = make_cluster(n)
        validate_density_matrix(rho)
        xz = PauliString.from_ops(n, {0: "X", 1: "Z"})
        assert expectation(rho, xz) == pytest.approx(1.0, abs=1e-12)


def test_stabilizer_generator_letters():
    assert [g.letters for g in stabilizer_generators("ghz", 3)] == ["XXX", "ZZI", "IZZ"]
    assert [g.letters for g in stabilizer_generators("cluster", 3)] == ["XZI", "ZXZ", "IZX"]
    assert stabilizer_generators("cluster", 4)[-1].letters == "IIZX"
    with pytest.raises(ValueError):
        stabilizer_generators("w", 4)
    with pytest.raises(CapacityError):
        stabilizer_generators("ghz", 2)


def test_stabilizer_generators_are_checked_once_and_handed_out_as_copies(monkeypatch):
    states._verified_generators.cache_clear()
    built = []

    def counting_statevector(n):
        built.append(n)
        return ghz_statevector(n)

    monkeypatch.setattr(states, "ghz_statevector", counting_statevector)
    first = stabilizer_generators("ghz", 5)
    first.append(PauliString("IIIII"))
    second = stabilizer_generators("ghz", 5)
    assert built == [5]
    assert [g.letters for g in second] == ["XXXXX", "ZZIII", "IZZII", "IIZZI", "IIIZZ"]


@pytest.mark.parametrize("family", ["ghz", "cluster"])
@pytest.mark.parametrize("n", range(3, 9))
def test_generators_stabilize_their_state(family, n):
    gens = stabilizer_generators(family, n)
    assert len(gens) == n
    assert all(commutes(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :])
    psi = {"ghz": make_ghz, "cluster": make_cluster}[family](n)
    for g in gens:
        assert expectation(psi, g) == pytest.approx(1.0, abs=1e-12)


def test_printed_cluster_middle_variant_fails_oracle():
    # The ZXX interior form does not fix the chain state; the resolved ZXZ does.
    for n in (3, 4, 5):
        psi = cluster_statevector(n)
        for m in range(2, n):
            zxx = PauliString.from_ops(n, {m - 2: "Z", m - 1: "X", m: "X"})
            assert np.linalg.norm(zxx.statevector_action(psi) - psi) > 1.0
            zxz = PauliString.from_ops(n, {m - 2: "Z", m - 1: "X", m: "Z"})
            np.testing.assert_allclose(zxz.statevector_action(psi), psi, atol=1e-12)


def test_stabilizer_expectation_matches_dense():
    rng = np.random.default_rng(9)
    letters = np.array(list("IXYZ"))
    for family in ("ghz", "cluster"):
        for n in (3, 4, 6):
            gens = stabilizer_generators(family, n)
            rho = {"ghz": make_ghz, "cluster": make_cluster}[family](n)
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
                gens[i] = pauli_multiply(gens[i], gens[j])
    terms = []
    kinds = st.lists(st.sampled_from(["member", "i*member", "string"]), min_size=1, max_size=10)
    for kind in draw(kinds):
        if kind == "string":
            letters = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
            terms.append(PauliString(letters, draw(_WEIGHTS)))
            continue
        used = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        element = functools.reduce(
            pauli_multiply, (g for g, u in zip(gens, used) if u), PauliString("I" * n)
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
    rho = {"ghz": make_ghz, "cluster": make_cluster}[family](n)
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
    # XII and ZII anticommute, so no common eigenstate exists.
    gens = [PauliString("XII"), PauliString("ZII"), PauliString("IIZ")]
    with pytest.raises(ValidationError, match="do not commute"):
        stabilizer_expectation(PauliString("YII"), gens)


def test_stabilizer_expectation_rejects_too_few_generators():
    # Two generators on three qubits fix a two-dimensional space, not a state.
    gens = [PauliString("ZZI"), PauliString("IZZ")]
    with pytest.raises(ValidationError, match="need 3"):
        stabilizer_expectation(PauliString("XXX"), gens)


def test_stabilizer_expectation_rejects_dependent_generators():
    # ZII and -ZII generate -I, so no state is fixed by all three.
    gens = [PauliString("ZII"), PauliString("ZII", -1.0), PauliString("IIZ")]
    with pytest.raises(ValidationError, match="product of the ones before it"):
        stabilizer_expectation(PauliString("ZII"), gens)


def test_stabilizer_expectation_rejects_non_unit_coefficients():
    gens = stabilizer_generators("ghz", 3)
    for coeff in (1.0j, 0.5, -2.0):
        bad = [gens[0].with_coeff(coeff)] + gens[1:]
        with pytest.raises(ValidationError, match="coefficient"):
            stabilizer_expectation(PauliString("XXX"), bad)
    signed = [gens[0].with_coeff(-1.0)] + gens[1:]
    assert stabilizer_expectation(PauliString("XXX"), signed) == -1.0


def test_state_family_parse_and_labels():
    fam = StateFamily.parse("mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4", 4)
    assert (fam.kind, fam.p1, fam.alpha) == ("mixed", 0.8, 0.4)
    assert fam.label() == "mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4"
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
