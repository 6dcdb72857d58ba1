"""The dense spectral certificate, kept as a cross-check of the syndrome route.

`verify psd` and `verify biseparable` read every spectrum off the syndrome
basis and every Schmidt weight off a GF(2) cut rank. These helpers compute
the same numbers from dense matrices at small n: a residual-checked `eigh`
spectrum, the bipartitions of the qubits, and the reduced state on one side.
The difference operator W(λ) - λ·W(1), whose spectrum `verify psd` reads as
W(λ)'s spectrum less λ times W(1)'s, is built here by operator algebra.
"""

from itertools import combinations

import numpy as np

from seqgme import densesim
from seqgme.errors import PrecisionError, ValidationError, check_sharpness
from seqgme.pauli import OperatorExpr
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
