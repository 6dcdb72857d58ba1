"""Exact dense density-matrix simulation of the sequential measurement channel.

States are numpy arrays of shape (2^N, 2^N), qubit 1 being the most
significant tensor factor. A state keeps its own dtype: a real state stays
float64 and a complex one complex128 (integer and narrower float input is
widened to float64). Every Kraus operator of the channel is real, so a real
state stays real along a chain, and the Cholesky gate, the channel steps and
the gathers run on half the bytes of a complex state. Everything here is the
brute-force reference that the closed-form layers are checked against. No
operator is densified on the way: Pauli sums are evaluated by gathers on
their bit masks, one gather per distinct X part, and single-qubit maps act on
the target qubit's 2x2 blocks of the state. The channel step builds its four
square-rooted effects in one expression from fixed (4, 2, 2) stacks and the
two eigenvalues of the unsharp x roots, forms the 4x4 superoperator from them,
and multiplies the target's blocks by it one cache-sized tile at a time, so
its output is its only full-size allocation.

Validation costs O(d^2) for the states a chain meets: they have rank at most
4, so from dimension 128 on a pivoted partial Cholesky of at most 4 steps
plus a Gershgorin bound on its residual proves positivity. Only when that
cannot decide does a full Cholesky (and then eigvalsh) run. Large matrices
are swept in tiles.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from operator import itemgetter

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    PrecisionError,
    ValidationError,
    check_sharpness,
)
from .pauli import DENSE_QUBIT_LIMIT, PAULI_MATRICES, OperatorExpr, PauliString

DENSITY_TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
# Accumulated floating error over repeated channel applications.
EIGENVALUE_FLOOR = -1e-10
IMAG_TOL = 1e-10
# Largest column norm of op @ V - V * w that eigen_spectrum accepts.
EIGEN_RESIDUAL_TOL = 1e-9
# Entries of rho gathered at once by a Pauli-sum expectation, counting both
# the rows gathered for a block of distinct X parts and the per-term block
# indexed from them (8 MiB of float64, 16 MiB of complex128).
_GATHER_ELEMENTS = 1 << 20
# Side of the square tiles of the Hermiticity check, row count of the
# certificate's row tiles, and square root of the entries of one channel-step
# tile, so that no full-size temporary is made.
_TILE = 128
# Pivot steps of the low-rank positivity certificate. Every Kraus operator
# acts on one qubit, so a chain started from a pure state stays inside
# span{E_a|psi>} for the four Paulis E_a on the target: rank at most 4. (The
# GHZ mixture lives on span{|0..0>, |1..1>}, rank at most 2.)
_CERTIFICATE_RANK = 4
# Smallest dimension at which the certificate is tried. Below it LAPACK's
# Cholesky costs less than the pivot steps and the sweep, and full-rank states
# (verify's random ones) would waste them.
_CERTIFICATE_MIN_DIM = 128

# Eigenprojectors (I + sigma)/2 and (I - sigma)/2 of the x and z settings,
# both real, so the channel maps a real state to a real state.
_PROJECTORS = {
    letter: (
        ((PAULI_MATRICES["I"] + PAULI_MATRICES[letter]) / 2.0).real,
        ((PAULI_MATRICES["I"] - PAULI_MATRICES[letter]) / 2.0).real,
    )
    for letter in "XZ"
}
# The observer's four square-rooted effects, unsharp x pair then sharp z pair,
# are hi * _ROOTS_HI + lo * _ROOTS_LO + _ROOTS_FIXED for the eigenvalues hi, lo
# of the x roots: each x root is hi * P + lo * P' on sigma_x's eigenprojectors,
# and the sharp z roots are the z projectors themselves.
_NO_ROOTS = np.zeros((2, 2, 2))
_ROOTS_HI = np.concatenate([np.array(_PROJECTORS["X"]), _NO_ROOTS])
_ROOTS_LO = np.concatenate([np.array(_PROJECTORS["X"][::-1]), _NO_ROOTS])
_ROOTS_FIXED = np.concatenate([_NO_ROOTS, np.array(_PROJECTORS["Z"])])


def _as_state(rho) -> np.ndarray:
    """rho as a float64 or complex128 array, without copying either.

    Complex input widens to complex128; booleans, integers and other real
    floats widen to float64. Any other dtype (object, string, ...) is refused.
    """
    try:
        rho = np.asarray(rho)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"not a numeric array: {exc}") from None
    kind = rho.dtype.kind
    if kind == "c":
        return rho.astype(np.complex128, copy=False)
    if kind in "biuf":
        return rho.astype(np.float64, copy=False)
    raise ValidationError(f"expected a numeric array, got dtype {rho.dtype}")


def n_qubits_of(rho: np.ndarray) -> int:
    """Qubit count of a square matrix whose dimension is a power of two."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {rho.shape}")
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def _adjoint(x: np.ndarray) -> np.ndarray:
    """x^dagger, as a view of x when x is real."""
    return x.conj().T if x.dtype.kind == "c" else x.T


def _max_asymmetry(x: np.ndarray) -> float:
    """max |x_ij - conj(x_ji)|, NaN if x has a NaN entry.

    A matrix larger than one tile is swept tile pair by tile pair, (i, j)
    against (j, i)^dagger, so no full-size temporary is made; the maximum is
    the same.
    """
    dim = x.shape[0]
    if dim <= _TILE:
        return np.abs(x - _adjoint(x)).max()
    return np.max([
        np.abs(x[i:i + _TILE, j:j + _TILE] - _adjoint(x[j:j + _TILE, i:i + _TILE])).max()
        for i in range(0, dim, _TILE)
        for j in range(i, dim, _TILE)
    ])


def _certified_low_rank(rho: np.ndarray, asymmetry: float) -> bool:
    """True when rho's smallest eigenvalue is proven to be >= EIGENVALUE_FLOOR.

    A pivoted partial Cholesky, always on the largest remaining diagonal
    entry, takes at most _CERTIFICATE_RANK steps and stops once every
    remaining diagonal entry is at most |EIGENVALUE_FLOOR|. That writes
    rho = L L^dagger + S with L L^dagger PSD, so lambda_min(rho) >=
    lambda_min(S) >= -max_i sum_j |S_ij| (Gershgorin). Each row sum is
    bounded from above by the computed one plus its rounding,
    (r + 2) * eps * (sum_j |rho_ij| + (|L| |L|^T)_i) after r steps, plus
    dim * asymmetry for the Hermitian matrix that the Cholesky and eigvalsh
    read off rho's lower triangle. The rows are swept in tiles. A False
    proves nothing; it costs O(r * dim^2), against dim^3 for a Cholesky.
    """
    dim = rho.shape[0]
    limit = -EIGENVALUE_FLOOR
    factor = np.zeros((dim, _CERTIFICATE_RANK), dtype=rho.dtype)
    remaining = rho.diagonal().real.copy()
    rank = 0
    while remaining.max() > limit:
        if rank == _CERTIFICATE_RANK:
            return False
        pivot = int(np.argmax(remaining))
        # Columns not yet filled are zero and add exact zeros; keeping the
        # full width also keeps the sweep's product a BLAS gemm at rank 1.
        column = rho[:, pivot] - factor @ factor[pivot].conj()
        factor[:, rank] = column / math.sqrt(remaining[pivot])
        remaining -= np.abs(factor[:, rank]) ** 2
        rank += 1
    factor_h = factor.conj().T
    magnitude = np.abs(factor)
    slack = (rank + 2) * np.finfo(np.float64).eps
    margin = slack * (magnitude @ magnitude.sum(axis=0)) + dim * asymmetry
    for start in range(0, dim, _TILE):
        rows = rho[start:start + _TILE]
        residual = rows - factor[start:start + _TILE] @ factor_h
        bound = (
            np.abs(residual).sum(axis=1)
            + slack * np.abs(rows).sum(axis=1)
            + margin[start:start + _TILE]
        )
        if bound.max() > limit:
            return False
    return True


def validate_density_matrix(rho) -> None:
    """Raise ValidationError unless rho is Hermitian, unit trace, and PSD.

    Positivity means a smallest eigenvalue of at least EIGENVALUE_FLOOR. From
    dimension _CERTIFICATE_MIN_DIM on, a low-rank certificate is tried first:
    at most 4 pivoted Cholesky steps plus a Gershgorin bound on what they
    leave, O(dim^2) work that proves positivity of every state of rank at
    most 4. That covers each family and every state a one-qubit chain
    reaches from it: from a pure state, or from the GHZ mixture on
    span{|0..0>, |1..1>}, the chain stays in a span of dimension 4. When the
    certificate cannot decide, and always below that size, a Cholesky
    factorisation of rho - EIGENVALUE_FLOOR * I succeeds exactly when
    positivity holds, up to rounding of order 1e-13; only when it fails does
    the full spectrum decide, and name the offending eigenvalue. The
    factorisation runs in rho's own dtype, so a real state pays for a real
    one.
    """
    rho = _as_state(rho)
    n_qubits_of(rho)
    if not np.isfinite(rho).all():
        raise ValidationError("density matrix has a NaN or infinite entry")
    asymmetry = _max_asymmetry(rho)
    if asymmetry > HERMITICITY_TOL:
        raise ValidationError("density matrix is not Hermitian")
    trace = rho.trace()
    if abs(trace - 1.0) > DENSITY_TRACE_TOL:
        raise ValidationError(f"density matrix trace {trace} is not 1")
    dim = rho.shape[0]
    if dim >= _CERTIFICATE_MIN_DIM and _certified_low_rank(rho, asymmetry):
        return
    shifted = rho.copy()
    shifted.reshape(-1)[::dim + 1] -= EIGENVALUE_FLOOR  # the diagonal, as a view
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


def _sqrt_effects(sharpness: float) -> np.ndarray:
    """Square roots of the four effects (I +- sharpness*X)/2 and (I +- Z)/2, as a
    (4, 2, 2) stack, each taken on its Pauli's eigenspaces."""
    hi = math.sqrt((1.0 + sharpness) / 2.0)
    lo = math.sqrt((1.0 - sharpness) / 2.0)
    return hi * _ROOTS_HI + lo * _ROOTS_LO + _ROOTS_FIXED


def luders_update(rho: np.ndarray, sharpness: float, target: int | None = None) -> np.ndarray:
    """One sequential observer's unselective update on the target qubit.

    The observer applies, with equal weight, a two-outcome x measurement of
    sharpness lambda and a sharp two-outcome z measurement; each branch updates
    the state with the square roots of its effects. Default target is the last
    qubit. Trace is preserved. The input must be a valid density matrix.
    """
    rho = _as_state(rho)
    n = n_qubits_of(rho)
    lam = check_sharpness(sharpness)
    validate_density_matrix(rho)
    return _observer_step(rho, n, lam, n - 1 if target is None else target)


def _observer_step(rho: np.ndarray, n: int, sharpness: float, target: int) -> np.ndarray:
    """luders_update without the check of its input state.

    The four maps K rho K^dagger add up to the 4x4 superoperator sum_K K (x) conj(K),
    which acts on the (row bit, column bit) pair of the target qubit. It is
    real, so the result has rho's dtype. It is applied in tiles of about
    _TILE^2 entries: a tile takes some values of the qubits before the target
    (axis 0 of the blocks) or, when there are too few of those, some values of
    the qubits after it (axis 2), with the target's two rows and every column.
    Each tile is transposed to a (4, m) operand, multiplied by the
    superoperator and written into its block of the output, so the output is
    the only full-size array made. Every entry is the same 4-term sum as in
    one whole-matrix product.
    """
    blocks = _target_blocks(rho, n, target)
    out = np.empty_like(rho)
    out_blocks = _target_blocks(out, n, target)
    # An unsharp x pair and a sharp z pair, applied with equal setting weight.
    # The roots are real, so conj(K) is K.
    roots = _sqrt_effects(sharpness)
    # Halving is exact, so folding the channel's 1/2 in here changes no bit.
    superop = (np.einsum("kab,kcd->acbd", roots, roots) / 2.0).reshape(4, 4)
    a, _, b = blocks.shape[:3]
    # blocks[i, :, j] is the target's two rows at one (i, j): 2 * 2^n entries.
    pairs = max(1, _TILE * _TILE // (2 * rho.shape[0]))
    span_j = min(b, pairs)
    span_i = max(1, pairs // b)
    for i in range(0, a, span_i):
        for j in range(0, b, span_j):
            tile = blocks[i:i + span_i, :, j:j + span_j]
            tile_a, _, tile_b = tile.shape[:3]
            operand = tile.transpose(1, 4, 0, 2, 3, 5).reshape(4, -1)
            result = np.dot(superop, operand).reshape(2, 2, tile_a, tile_b, a, b)
            # (row bit, column bit, a, b, a', b') -> (a, row bit, b, a', column bit, b')
            out_blocks[i:i + span_i, :, j:j + span_j] = result.transpose(2, 0, 3, 4, 1, 5)
    return out


def observer_states(rho1: np.ndarray, sharpnesses, target: int | None = None):
    """Yield the state each listed observer sees, in order: rho1 first.

    Every sharpness, the target and rho1 are checked before the first state
    is yielded; rho1 is validated once, since each update maps a density
    matrix to a density matrix. The update after the last observer is never
    computed.
    """
    lambdas = [check_sharpness(lam) for lam in sharpnesses]
    rho = _as_state(rho1)
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
    lam = check_sharpness(sharpness)
    rho = _as_state(rho)
    n = n_qubits_of(rho)
    blocks = _target_blocks(rho, n, n - 1 if target is None else target)
    s = np.sqrt(1.0 - lam * lam)
    z_rho_z = blocks.copy()
    z_rho_z[:, 0, :, :, 1, :] *= -1.0
    z_rho_z[:, 1, :, :, 0, :] *= -1.0
    x_rho_x = blocks[:, ::-1, :, :, ::-1, :]
    out = ((2.0 + s) * blocks + z_rho_z + (1.0 - s) * x_rho_x) / 4.0
    return out.reshape(rho.shape)


def _pauli_sum_trace(rho: np.ndarray, expr: OperatorExpr) -> complex:
    """Tr[rho * expr] without building expr's matrix.

    The only nonzero entries of a term P with masks (f, z) and phase c are
    <j ^ f|P|j> = c * (-1)^popcount(j & z), so Tr[rho * P] is
    c * sum_j rho[j, j ^ f] * (-1)^popcount(j & z). Terms share few X parts f
    (a GHZ witness has two), so the row rho[j, j ^ f] is gathered once per
    distinct f, and each term indexes its part's row (or, when every part has
    one term, its rows are the parts' rows in place). Parts are gathered, and
    terms summed, a block at a time; the parts' rows and the terms' block
    together hold at most _GATHER_ELEMENTS entries.
    """
    if not expr.terms:
        return 0j
    dim = rho.shape[0]
    rows = np.arange(dim, dtype=np.int64)
    # Sorted by X part, each part's terms form one run, so part_of ascends.
    masks = sorted((term.bit_masks() for term in expr.terms), key=itemgetter(0))
    flips, signs, phases = zip(*masks)
    parts, part_of = [], []
    for flip in flips:
        if not parts or flip != parts[-1]:
            parts.append(flip)
        part_of.append(len(parts) - 1)
    parts = np.array(parts, dtype=np.int64)
    part_of = np.array(part_of)
    signs = np.array(signs, dtype=np.int64)
    phases = np.array(phases, dtype=complex)
    per_term = np.empty(len(flips), dtype=complex)
    # Rows held at once: at most half of them parts' rows, the rest terms'.
    budget = max(2, _GATHER_ELEMENTS // dim)
    for first in range(0, len(parts), budget // 2):
        chunk = parts[first:first + budget // 2]
        part_rows = rho[rows, rows ^ chunk[:, None]]
        step = budget - len(chunk)
        lo, hi = part_of.searchsorted([first, first + len(chunk)])
        # With one term per part, term t's row is part_rows[t - lo]: a view.
        one_to_one = hi - lo == len(chunk)
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            block = slice(start, stop)
            if one_to_one:
                gathered = part_rows[start - lo:stop - lo]
            else:
                gathered = part_rows[part_of[block] - first]
            parity = np.bitwise_count(rows & signs[block, None]) & 1
            per_term[block] = np.where(parity, -gathered, gathered).sum(axis=1)
    per_term *= phases
    return complex(math.fsum(per_term.real.tolist()), math.fsum(per_term.imag.tolist()))


def expectation(rho: np.ndarray, obs) -> float:
    """Tr[rho * obs] for a Hermitian observable (dense or Pauli sum)."""
    rho = _as_state(rho)
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
        dense = _as_state(obs)
        if dense.shape != rho.shape:
            raise DimensionError(f"observable shape {dense.shape} vs state {rho.shape}")
        if _max_asymmetry(dense) > HERMITICITY_TOL:
            raise ValidationError("observable is not Hermitian")
        value = complex(np.einsum("ij,ji->", rho, dense))
    if abs(value.imag) >= IMAG_TOL:
        raise ValidationError(f"expectation has imaginary residue {value.imag}")
    return value.real


def eigen_spectrum(op: np.ndarray) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix, residual-checked."""
    op = _as_state(op)
    n_qubits_of(op)
    if _max_asymmetry(op) > HERMITICITY_TOL:
        raise ValidationError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(op)
    residual = np.max(np.linalg.norm(op @ vectors - vectors * values, axis=0))
    if residual >= EIGEN_RESIDUAL_TOL:
        raise PrecisionError(f"eigenpair residual {residual} exceeds {EIGEN_RESIDUAL_TOL}")
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
        # Real parts drawn first, then imaginary parts, straight into place.
        vecs = np.empty((count, dim), dtype=complex)
        vecs.real = rng.standard_normal((count, dim))
        vecs.imag = rng.standard_normal((count, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return vecs

    amp_a = haar(1 << len(side_a))
    amp_b = haar(1 << len(side_b))
    joint = np.einsum("bi,bj->bij", amp_a, amp_b).reshape(count, *([2] * n))
    order = np.argsort(np.array(side_a + side_b))
    return joint.transpose(0, *(1 + order)).reshape(count, 1 << n)


def save_density_matrix(path, rho: np.ndarray) -> None:
    """Write a density matrix as JSON with an explicit qubit-count header."""
    rho = _as_state(rho)
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
    array is built. A state whose imaginary parts are all exactly zero comes
    back as float64, so a saved real state reloads bit for bit in its dtype;
    any other comes back as complex128.
    """
    with open(path) as fh:
        payload = json.load(fh)
    header = payload["n_qubits"]
    if type(header) is not int or header < 0:
        raise ValidationError(f"qubit-count header {header!r} is not a count")
    if header > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{header} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
    rho = _as_state(payload["real"])
    imag = _as_state(payload["imag"])
    if imag.shape != rho.shape:
        raise ValidationError(f"imag entries of shape {imag.shape} vs real {rho.shape}")
    if imag.any():
        rho = rho + 1j * imag
    n = n_qubits_of(rho)
    if n != header:
        raise ValidationError(f"header says {header} qubits but entries give {n}")
    validate_density_matrix(rho)
    return rho
