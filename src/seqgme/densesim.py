"""Exact dense density-matrix simulation of the sequential measurement channel.

States are plain complex numpy arrays of shape (2^N, 2^N), qubit 1 being the
most significant tensor factor. Everything here is the brute-force reference
that the closed-form layers are checked against. No operator is densified on
the way: Pauli sums are evaluated by gathers on their bit masks, and
single-qubit maps act on the target qubit's 2x2 blocks of the state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, DimensionError, PrecisionError, ValidationError
from .pauli import DENSE_QUBIT_LIMIT, OperatorExpr, PauliString

DENSITY_TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
# Accumulated floating error over repeated channel applications.
EIGENVALUE_FLOOR = -1e-10
IMAG_TOL = 1e-10
# Entries of rho gathered at once by a Pauli-sum expectation (16 MiB of complex128).
_GATHER_ELEMENTS = 1 << 20

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SETTING_MATRIX = {"x": _SX, "z": _SZ}


def n_qubits_of(rho: np.ndarray) -> int:
    """Qubit count of a square matrix whose dimension is a power of two."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {rho.shape}")
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValidationError unless rho is Hermitian, unit trace, and PSD.

    Positivity means a smallest eigenvalue of at least EIGENVALUE_FLOOR. A
    Cholesky factorisation of rho - EIGENVALUE_FLOOR * I succeeds exactly when
    that holds, up to rounding of order 1e-13; only when it fails does the
    full spectrum decide, and name the offending eigenvalue.
    """
    n_qubits_of(rho)
    if not np.isfinite(rho).all():
        raise ValidationError("density matrix has a NaN or infinite entry")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValidationError("density matrix is not Hermitian")
    trace = np.trace(rho)
    if abs(trace - 1.0) > DENSITY_TRACE_TOL:
        raise ValidationError(f"density matrix trace {trace} is not 1")
    shifted = np.array(rho, dtype=complex)
    diagonal = np.arange(shifted.shape[0])
    shifted[diagonal, diagonal] -= EIGENVALUE_FLOOR
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lowest = float(np.linalg.eigvalsh(rho)[0])
        if lowest < EIGENVALUE_FLOOR:
            raise ValidationError(f"density matrix has negative eigenvalue {lowest}") from None


def _target_blocks(rho: np.ndarray, n: int, target: int) -> np.ndarray:
    """rho as (a, 2, b, a, 2, b): axes 1 and 4 are the target qubit's row and
    column bit."""
    if not 0 <= target < n:
        raise ValueError(f"target qubit {target} outside 0..{n - 1}")
    a, b = 1 << target, 1 << (n - 1 - target)
    return rho.reshape(a, 2, b, a, 2, b)


def _check_sharpness(sharpness: float) -> float:
    lam = float(sharpness)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"sharpness {sharpness} outside [0, 1]")
    return lam


@dataclass(frozen=True)
class MeasurementEffect:
    """One outcome (I +- sharpness*sigma)/2 of a two-outcome qubit measurement."""

    setting: str  # "x" or "z"
    outcome: str  # "+" or "-"
    sharpness: float
    target_qubit: int = 0

    def __post_init__(self) -> None:
        if self.setting not in _SETTING_MATRIX:
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.outcome not in ("+", "-"):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        _check_sharpness(self.sharpness)
        if self.target_qubit < 0:
            raise ValueError(f"negative target qubit {self.target_qubit}")

    @property
    def _sign(self) -> float:
        return 1.0 if self.outcome == "+" else -1.0

    def operator(self) -> np.ndarray:
        """The 2x2 effect itself; the +/- pair sums to the identity."""
        return (_I2 + self._sign * self.sharpness * _SETTING_MATRIX[self.setting]) / 2.0

    def sqrt_operator(self) -> np.ndarray:
        """Square root taken analytically on the setting's eigenspaces."""
        hi = np.sqrt((1.0 + self.sharpness) / 2.0)
        lo = np.sqrt((1.0 - self.sharpness) / 2.0)
        sigma = _SETTING_MATRIX[self.setting]
        plus, minus = (_I2 + sigma) / 2.0, (_I2 - sigma) / 2.0
        if self.outcome == "+":
            return hi * plus + lo * minus
        return lo * plus + hi * minus


def observer_effects(sharpness: float, target: int) -> list[MeasurementEffect]:
    """The four effects a sequential observer applies with equal setting weight:
    an unsharp x pair and a sharp z pair."""
    lam = _check_sharpness(sharpness)
    return [
        MeasurementEffect("x", "+", lam, target),
        MeasurementEffect("x", "-", lam, target),
        MeasurementEffect("z", "+", 1.0, target),
        MeasurementEffect("z", "-", 1.0, target),
    ]


def luders_update(rho: np.ndarray, sharpness: float, target: int | None = None) -> np.ndarray:
    """One sequential observer's unselective update on the target qubit.

    The observer applies, with equal weight, a two-outcome x measurement of
    sharpness lambda and a sharp two-outcome z measurement; each branch updates
    the state with the square roots of its effects. Default target is the last
    qubit. Trace is preserved. The input must be a valid density matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits_of(rho)
    validate_density_matrix(rho)
    return _observer_step(rho, n, sharpness, n - 1 if target is None else target)


def _observer_step(rho: np.ndarray, n: int, sharpness: float, target: int) -> np.ndarray:
    """luders_update without the check of its input state.

    The four maps K rho K^dagger add up to the 4x4 superoperator sum_K K (x) conj(K),
    which acts on the (row bit, column bit) pair of the target qubit.
    """
    blocks = _target_blocks(rho, n, target)
    roots = np.array([effect.sqrt_operator() for effect in observer_effects(sharpness, target)])
    # Halving is exact, so folding the channel's 1/2 in here changes no bit.
    superop = np.einsum("kab,kcd->acbd", roots, roots.conj()) / 2.0
    out = np.tensordot(superop, blocks, axes=([2, 3], [1, 4]))
    # (row bit, column bit, a, b, a', b') -> (a, row bit, b, a', column bit, b')
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(rho.shape)


def observer_states(rho1: np.ndarray, sharpnesses, target: int | None = None):
    """Yield the state each listed observer sees, in order: rho1 first.

    Every sharpness, the target and rho1 are checked before the first state
    is yielded; rho1 is validated once, since each update maps a density
    matrix to a density matrix. The update after the last observer is never
    computed.
    """
    lambdas = [_check_sharpness(lam) for lam in sharpnesses]
    rho = np.asarray(rho1, dtype=complex)
    del rho1  # hold no reference to the caller's array past the first step
    n = n_qubits_of(rho)
    validate_density_matrix(rho)
    t = n - 1 if target is None else target
    _target_blocks(rho, n, t)  # range-checks the target
    if not lambdas:
        return
    yield rho
    for lam in lambdas[:-1]:
        rho = _observer_step(rho, n, lam, t)
        yield rho


def channel_closed_form(rho: np.ndarray, sharpness: float, target: int | None = None) -> np.ndarray:
    """Equivalent three-term mixture form of the update; kept as a cross-check.

    In Pauli-transfer form on the target qubit's 2x2 blocks of rho, Z rho Z
    negates the off-diagonal blocks and X rho X swaps blocks 00<->11 and 01<->10.
    """
    lam = _check_sharpness(sharpness)
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits_of(rho)
    blocks = _target_blocks(rho, n, n - 1 if target is None else target)
    s = np.sqrt(1.0 - lam * lam)
    z_rho_z = blocks.copy()
    z_rho_z[:, 0, :, :, 1, :] *= -1.0
    z_rho_z[:, 1, :, :, 0, :] *= -1.0
    x_rho_x = blocks[:, ::-1, :, :, ::-1, :]
    out = ((2.0 + s) * blocks + z_rho_z + (1.0 - s) * x_rho_x) / 4.0
    return out.reshape(rho.shape)


def apply_channel_k_times(
    rho1: np.ndarray, sharpnesses, target: int | None = None
) -> np.ndarray:
    """State seen after the listed observers have acted, in order.

    With no observers listed this is rho1 itself, as a complex array.
    """
    # That is the state one more observer would see; its sharpness never acts.
    for rho in observer_states(rho1, [*sharpnesses, 0.0], target):
        pass
    return rho


def _pauli_sum_trace(rho: np.ndarray, expr: OperatorExpr) -> complex:
    """Tr[rho * expr] without building expr's matrix.

    The only nonzero entries of a term P with masks (f, z) and phase c are
    <j ^ f|P|j> = c * (-1)^popcount(j & z), so Tr[rho * P] is
    c * sum_j rho[j, j ^ f] * (-1)^popcount(j & z): one gather per term, done
    for blocks of terms at a time.
    """
    if not expr.terms:
        return 0j
    dim = rho.shape[0]
    rows = np.arange(dim, dtype=np.int64)
    flips, signs, phases = zip(*(term.bit_masks() for term in expr.terms))
    flips = np.array(flips, dtype=np.int64)
    signs = np.array(signs, dtype=np.int64)
    phases = np.array(phases, dtype=complex)
    per_term = np.empty(len(expr.terms), dtype=complex)
    step = max(1, _GATHER_ELEMENTS // dim)
    for start in range(0, len(per_term), step):
        stop = start + step
        gathered = rho[rows, rows ^ flips[start:stop, None]]
        parity = np.bitwise_count(rows & signs[start:stop, None]) & 1
        per_term[start:stop] = np.where(parity, -gathered, gathered).sum(axis=1)
    per_term *= phases
    return complex(math.fsum(per_term.real.tolist()), math.fsum(per_term.imag.tolist()))


def expectation(rho: np.ndarray, obs) -> float:
    """Tr[rho * obs] for a Hermitian observable (dense or Pauli sum)."""
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits_of(rho)
    if isinstance(obs, PauliString):
        obs = OperatorExpr.from_terms(obs.n_qubits, [obs])
    if isinstance(obs, OperatorExpr):
        if obs.n_qubits != n:
            raise DimensionError(f"observable on {obs.n_qubits} qubits, state on {n}")
        if not obs.is_hermitian():
            raise ValidationError("observable has non-real Pauli coefficients")
        value = _pauli_sum_trace(rho, obs)
    else:
        dense = np.asarray(obs, dtype=complex)
        if dense.shape != rho.shape:
            raise DimensionError(f"observable shape {dense.shape} vs state {rho.shape}")
        if np.max(np.abs(dense - dense.conj().T)) > HERMITICITY_TOL:
            raise ValidationError("observable is not Hermitian")
        value = complex(np.einsum("ij,ji->", rho, dense))
    if abs(value.imag) >= IMAG_TOL:
        raise ValidationError(f"expectation has imaginary residue {value.imag}")
    return value.real


def eigen_spectrum(op: np.ndarray, residual_tol: float = 1e-9) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix, residual-checked."""
    op = np.asarray(op, dtype=complex)
    n_qubits_of(op)
    if np.max(np.abs(op - op.conj().T)) > HERMITICITY_TOL:
        raise ValidationError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(op)
    residual = np.max(np.linalg.norm(op @ vectors - vectors * values, axis=0))
    if residual >= residual_tol:
        raise PrecisionError(f"eigenpair residual {residual} exceeds {residual_tol}")
    return values


def all_bipartitions(n: int) -> list[tuple[int, ...]]:
    """All 2^(n-1) - 1 bipartitions, each given by the side containing qubit 0."""
    parts = []
    rest = range(1, n)
    for size in range(0, n - 1):
        for extra in combinations(rest, size):
            parts.append((0, *extra))
    return parts


def biseparable_statevectors(
    n: int, bipartition, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of Haar-random pure product states across one bipartition.

    Each side is an independent normalized complex-Gaussian vector; rows of the
    returned (count, 2^n) array are unit statevectors in qubit order.
    """
    side_a = tuple(sorted(set(int(q) for q in bipartition)))
    if any(q < 0 or q >= n for q in side_a):
        raise ValueError(f"bipartition {bipartition} outside 0..{n - 1}")
    if not 0 < len(side_a) < n:
        raise ValueError("bipartition must be a nonempty proper subset of the qubits")
    side_b = tuple(q for q in range(n) if q not in side_a)

    def haar(dim: int) -> np.ndarray:
        vecs = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    amp_a = haar(1 << len(side_a))
    amp_b = haar(1 << len(side_b))
    joint = np.einsum("bi,bj->bij", amp_a, amp_b).reshape(count, *([2] * n))
    order = np.argsort(np.array(side_a + side_b))
    return joint.transpose(0, *(1 + order)).reshape(count, 1 << n)


def sample_biseparable(n: int, bipartition, rng_seed: int) -> np.ndarray:
    """One seeded pure product density matrix across the given bipartition."""
    rng = np.random.default_rng(rng_seed)
    psi = biseparable_statevectors(n, bipartition, 1, rng)[0]
    return np.outer(psi, psi.conj())


def save_density_matrix(path, rho: np.ndarray) -> None:
    """Write a density matrix as JSON with an explicit qubit-count header."""
    rho = np.asarray(rho, dtype=complex)
    payload = {
        "n_qubits": n_qubits_of(rho),
        "real": rho.real.tolist(),
        "imag": rho.imag.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_density_matrix(path) -> np.ndarray:
    """Read a file written by save_density_matrix; the state must be valid.

    The qubit-count header is checked against DENSE_QUBIT_LIMIT before any
    array is built.
    """
    with open(path) as fh:
        payload = json.load(fh)
    header = payload["n_qubits"]
    if type(header) is not int or header < 0:
        raise ValidationError(f"qubit-count header {header!r} is not a count")
    if header > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{header} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
    rho = np.array(payload["real"], dtype=complex) + 1j * np.array(payload["imag"])
    n = n_qubits_of(rho)
    if n != header:
        raise ValidationError(f"header says {header} qubits but entries give {n}")
    validate_density_matrix(rho)
    return rho
