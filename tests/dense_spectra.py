"""Dense references for the matrix-free routes of the package.

`verify psd` and `verify biseparable` read every spectrum off the syndrome
basis and every Schmidt weight off a GF(2) cut rank. These helpers compute
the same numbers from dense matrices at small n: a residual-checked `eigh`
spectrum, the bipartitions of the qubits, and the reduced state on one side.
The difference operator W(λ) - λ·W(1), whose spectrum `verify psd` reads as
W(λ)'s spectrum less λ times W(1)'s, is built here by operator algebra.
`to_matrix` writes a Pauli sum as a dense matrix, and `statevector_action`
applies a string to a statevector, so the tests can check the package's
GF(2) and gather routes against explicit linear algebra. `from_ops` builds a
string from a map of qubits to letters, and `reference_projector_product`
expands a product of projectors (I + S)/2 with its own dict-merge loop, as a
reference for `expand_projector_product`; `term_bits` gives a sum's exact
bits for comparing two expansions, and `column_bits` and `term_columns` the
bits of its columns, as `OperatorExpr.columns` gives them and as its terms do.
"""

from itertools import combinations

import numpy as np

from seqgme import densesim
from seqgme.errors import (
    CapacityError,
    DimensionError,
    PrecisionError,
    ValidationError,
    check_sharpness,
)
from seqgme.pauli import _PHASES, DENSE_QUBIT_LIMIT, OperatorExpr, PauliString, _mask_product
from seqgme.witness import build_modified_witness

# Largest column norm of op @ V - V * w that eigen_spectrum accepts.
EIGEN_RESIDUAL_TOL = 1e-9


def eigen_spectrum(op: np.ndarray) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix, residual-checked."""
    op = densesim._as_state(op)
    densesim._matrix_qubits(op)
    if densesim._max_asymmetry(op) > densesim.HERMITICITY_TOL:
        raise ValidationError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(op)
    residual = np.max(np.linalg.norm(op @ vectors - vectors * values, axis=0))
    if residual >= EIGEN_RESIDUAL_TOL:
        raise PrecisionError(f"eigenpair residual {residual} exceeds {EIGEN_RESIDUAL_TOL}")
    return values


def difference_operator(family: str, n: int, sharpness: float) -> OperatorExpr:
    """Modified witness minus sharpness times the original; PSD for any valid input."""
    lam = check_sharpness(sharpness)
    return build_modified_witness(family, n, lam) - lam * build_modified_witness(family, n, 1.0)


def all_bipartitions(n: int) -> list[tuple[int, ...]]:
    """All 2^(n-1) - 1 bipartitions, each given by the side containing qubit 0."""
    parts = []
    rest = range(1, n)
    for size in range(0, n - 1):
        for extra in combinations(rest, size):
            parts.append((0, *extra))
    return parts


def reduced_state(rho: np.ndarray, n: int, part: tuple[int, ...]) -> np.ndarray:
    """The partial trace of rho over the qubits outside part."""
    order = [*part, *(q for q in range(n) if q not in part)]
    tensor = rho.reshape((2,) * (2 * n)).transpose(order + [n + q for q in order])
    side = 1 << len(part)
    return np.einsum("ajbj->ab", tensor.reshape(side, -1, side, rho.shape[-1] // side))


def bit_masks(term: PauliString) -> tuple[int, int, complex]:
    """(x mask, z mask, phase) with P|j> = phase·(-1)^popcount(j & z)|j ^ x>.

    X and Y set the x bit of their qubit, Z and Y the z bit; the phase is
    the coefficient times i per Y letter.
    """
    phase = term.coeff * _PHASES[(term.x_mask & term.z_mask).bit_count() % 4]
    return term.x_mask, term.z_mask, phase


def statevector_action(term: PauliString, psi: np.ndarray) -> np.ndarray:
    """Apply the string to a statevector without building its matrix."""
    n = term.n_qubits
    if psi.shape != (1 << n,):
        raise DimensionError(f"statevector length {psi.shape} does not match {n} qubits")
    x_mask, z_mask, phase = bit_masks(term)
    src = np.arange(1 << n, dtype=np.int64) ^ x_mask
    signs = 1.0 - 2.0 * (np.bitwise_count(src & z_mask) & 1)
    return phase * signs * psi[src]


def to_matrix(expr: OperatorExpr) -> np.ndarray:
    """Dense complex 2^N x 2^N matrix, added into zeros in term order.

    Qubit 1 is the most significant factor. Term P has one nonzero per
    column j, phase·(-1)^popcount(j & z) in row j ^ x (see bit_masks), so
    each term is one scatter. Every entry is exact and is added in the
    order a sum of Kronecker products would add it, so the result is bit
    for bit that sum.
    """
    if expr.n_qubits > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{expr.n_qubits} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
    dim = 1 << expr.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    columns = np.arange(dim, dtype=np.int64)
    for term in expr.terms:
        x_mask, z_mask, phase = bit_masks(term)
        parity = np.bitwise_count(columns & z_mask) & 1
        out[columns ^ x_mask, columns] += np.where(parity, -phase, phase)
    return out


def from_ops(n_qubits: int, ops: dict[int, str], coeff: complex = 1.0) -> PauliString:
    """The string acting with ops[qubit] on the given 0-based qubits, I elsewhere."""
    letters = ["I"] * n_qubits
    for qubit, letter in ops.items():
        letters[qubit] = letter
    return PauliString("".join(letters), coeff)


def reference_projector_product(generators, n_qubits: int) -> OperatorExpr:
    """The product of (I + g)/2 over the generators, expanded by merging
    coefficients keyed by masks: each factor keeps every term at half weight
    and adds its product with g. No commutation check is made."""
    merged: dict[tuple[int, int], complex] = {(0, 0): 1.0 + 0.0j}
    for g in generators:
        step: dict[tuple[int, int], complex] = {}
        for (x, z), coeff in merged.items():
            step[x, z] = step.get((x, z), 0.0) + coeff * 0.5
            px, pz, power = _mask_product(x, z, g.x_mask, g.z_mask)
            step[px, pz] = step.get((px, pz), 0.0) + coeff * g.coeff * _PHASES[power] * 0.5
        merged = step
    return OperatorExpr._from_merged(n_qubits, merged)


def term_bits(expr: OperatorExpr) -> list[tuple[str, str, str]]:
    """Each term's letters and the exact bits of its coefficient, sign of zero included."""
    return [(t.letters, t.coeff.real.hex(), t.coeff.imag.hex()) for t in expr.terms]


def column_bits(expr: OperatorExpr) -> tuple[list[int], list[int], list[tuple[str, str]]]:
    """expr.columns() as its masks and the exact bits of each coefficient."""
    xs, zs, coeffs = expr.columns()
    return list(xs), list(zs), [(c.real.hex(), c.imag.hex()) for c in coeffs.tolist()]


def term_columns(expr: OperatorExpr) -> tuple[list[int], list[int], list[tuple[str, str]]]:
    """The same, walked from expr's terms."""
    terms = expr.terms
    return (
        [t.x_mask for t in terms],
        [t.z_mask for t in terms],
        [(t.coeff.real.hex(), t.coeff.imag.hex()) for t in terms],
    )
