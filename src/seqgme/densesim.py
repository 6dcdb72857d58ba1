"""Exact dense density-matrix simulation of the sequential measurement channel.

States are numpy arrays of shape (2^N, 2^N), qubit 1 being the most
significant tensor factor. The state kernels (validate_density_matrix,
luders_update, observer_states, observer_expectations, channel_closed_form
and expectation) take a stack of states, shape (..., 2^N, 2^N), and treat each element as a state of
its own; a single state is the empty stack. A sharpness is one number for
every element, or an array that broadcasts to the stack's shape with one value
per element; an observable is one Pauli sum for every element, or a dense
stack that broadcasts against the states. Each element's result is bit for
bit the result of its own call. An error in a stack names the first element
at fault ("stack element 3: ..."); for a single state the message has no such
prefix. So callers with many small states, such as the verify suites, pay
each numpy call's fixed cost once per stack, not once per state.

A state keeps its own dtype: a real state stays float64 and a complex one
complex128 (integer and narrower float input is widened to float64). Every
Kraus operator of the channel is real, so a real state stays real along a
chain, and the Cholesky gate, the channel steps and the gathers run on half
the bytes of a complex state. Everything here is the brute-force reference
that the closed-form layers are checked against. No operator is densified on
the way: a Pauli sum is evaluated by gathers on its bit masks, one gather
per distinct X part for the whole stack, with a plan cached per term
layout, and single-qubit maps act on the target qubit's 2x2 blocks of the
state.

A chain of observers (luders_update, observer_states, observer_expectations)
runs in target-major order: each element is a C-contiguous (4, 4^(N-1))
block whose axis 0 is the target's (row bit, column bit). A channel step
builds each element's four square-rooted effects in one expression from
fixed (4, 2, 2) stacks and the two eigenvalues of the unsharp x roots, forms
the 4x4 superoperator from them, and is one BLAS product per element. A
chain copies its start state into that order once; observer_expectations
gathers the witness rows there in place, and the others convert each state
they hand out back to the (2^N, 2^N) layout.

Validation costs O(d^2) for the states a chain meets: they have rank at most
4, so from dimension 128 on a pivoted partial Cholesky of at most 4 steps
plus a Gershgorin bound on its residual proves positivity. Only when that
cannot decide does a full Cholesky (and then eigvalsh) run. Large matrices
are swept in tiles.
"""

from __future__ import annotations

import functools
import json
import math
from operator import attrgetter

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    ValidationError,
    check_sharpness,
)
from .pauli import _PHASES, DENSE_QUBIT_LIMIT, PAULI_MATRICES, OperatorExpr, PauliString

DENSITY_TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
# Accumulated floating error over repeated channel applications.
EIGENVALUE_FLOOR = -1e-10
IMAG_TOL = 1e-10
# Entries of rho gathered at once by a Pauli-sum expectation, counting both
# the rows gathered for a block of distinct X parts and the per-term block
# indexed from them (8 MiB of float64, 16 MiB of complex128).
_GATHER_ELEMENTS = 1 << 20
# Side of the square tiles of the Hermiticity check and row count of the
# certificate's row tiles, so that neither makes a full-size temporary.
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
    """Qubit count of a square matrix, or of a stack (..., d, d) of them,
    whose dimension d is a power of two."""
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {rho.shape}")
    dim = rho.shape[-1]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def _matrix_qubits(x: np.ndarray) -> int:
    """n_qubits_of for a function that takes one matrix, not a stack."""
    if x.ndim != 2:
        raise DimensionError(f"expected a square matrix, got shape {x.shape}")
    return n_qubits_of(x)


def _named(index: tuple[int, ...], message: str) -> str:
    """A message about one state, naming the stack element it is about."""
    if not index:
        return message
    return f"stack element {index[0] if len(index) == 1 else index}: {message}"


def _refuse(failed, error: type[ValueError], message: str, values=None) -> None:
    """Raise error(message) for the first stack element at which failed is
    True, named by _named; "{}" in message is that element's entry of values."""
    if failed.any():
        index = tuple(int(i) for i in np.unravel_index(int(np.argmax(failed)), failed.shape))
        raise error(_named(index, message if values is None else message.format(values[index])))


def _sharpnesses(sharpness, stack: tuple[int, ...]):
    """The checked sharpness: a float for every element, or an array of the
    stack's shape with one value per element."""
    if np.isscalar(sharpness) or np.ndim(sharpness) == 0:
        return check_sharpness(sharpness)
    lam = np.asarray(sharpness, dtype=np.float64)
    try:
        lam = np.broadcast_to(lam, stack)
    except ValueError:
        raise DimensionError(f"sharpness shape {lam.shape} vs stack {stack}") from None
    _refuse(~((lam >= 0.0) & (lam <= 1.0)), ValueError, "sharpness {} outside [0, 1]", lam)
    return lam


def _adjoint(x: np.ndarray) -> np.ndarray:
    """x^dagger of each matrix of a stack, as a view of x when x is real."""
    return x.conj().swapaxes(-1, -2) if x.dtype.kind == "c" else x.swapaxes(-1, -2)


def _max_asymmetry(x: np.ndarray):
    """max |x_ij - conj(x_ji)| of each matrix of a stack, NaN if it has a NaN entry.

    A matrix larger than one tile is swept tile pair by tile pair, (i, j)
    against (j, i)^dagger, so no full-size temporary is made; the maximum is
    the same.
    """
    dim = x.shape[-1]
    if dim <= _TILE:
        return np.abs(x - _adjoint(x)).max(axis=(-2, -1))
    return np.max([
        np.abs(
            x[..., i:i + _TILE, j:j + _TILE] - _adjoint(x[..., j:j + _TILE, i:i + _TILE])
        ).max(axis=(-2, -1))
        for i in range(0, dim, _TILE)
        for j in range(i, dim, _TILE)
    ], axis=0)


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
    """Raise ValidationError unless rho, or each matrix of a stack, is
    Hermitian, unit trace, and PSD.

    Positivity means a smallest eigenvalue of at least EIGENVALUE_FLOOR. From
    dimension _CERTIFICATE_MIN_DIM on, a low-rank certificate is tried first:
    at most 4 pivoted Cholesky steps plus a Gershgorin bound on what they
    leave, O(dim^2) work that proves positivity of every state of rank at
    most 4. That covers each family and every state a one-qubit chain
    reaches from it: from a pure state, or from the GHZ mixture on
    span{|0..0>, |1..1>}, the chain stays in a span of dimension 4. When the
    certificate cannot decide for some element, and always below that size,
    a Cholesky factorisation of rho - EIGENVALUE_FLOOR * I succeeds exactly
    when positivity holds, up to rounding of order 1e-13; only when it fails
    does the full spectrum decide, and name the offending eigenvalue. The
    factorisation runs in rho's own dtype, so a real state pays for a real
    one. A stack is checked as a whole, and when it fails, each element in
    turn decides as it would alone. An element repeated along a zero-stride
    (broadcast) stack axis is checked once, as the first of its copies, so
    an error names the index that the materialized stack's error names.
    """
    rho = _as_state(rho)
    n_qubits_of(rho)
    rho = rho[tuple(slice(0, 1) if step == 0 else slice(None) for step in rho.strides[:-2])]
    finite = np.isfinite(rho).all(axis=(-2, -1))
    _refuse(~finite, ValidationError, "density matrix has a NaN or infinite entry")
    asymmetry = _max_asymmetry(rho)
    _refuse(asymmetry > HERMITICITY_TOL, ValidationError, "density matrix is not Hermitian")
    trace = rho.trace(axis1=-2, axis2=-1)
    wrong_trace = abs(trace - 1.0) > DENSITY_TRACE_TOL
    _refuse(wrong_trace, ValidationError, "density matrix trace {} is not 1", trace)
    stack, dim = rho.shape[:-2], rho.shape[-1]
    if dim >= _CERTIFICATE_MIN_DIM and all(
        _certified_low_rank(rho[i], asymmetry[i]) for i in np.ndindex(stack)
    ):
        return
    shifted = rho.copy()
    shifted.reshape(-1, dim * dim)[:, ::dim + 1] -= EIGENVALUE_FLOOR  # the diagonals, as a view
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        for index in np.ndindex(stack):
            # In a stack, the elements whose own factorisation succeeds pass.
            if stack and _factorises(shifted[index]):
                continue
            lowest = float(np.linalg.eigvalsh(rho[index])[0])
            if lowest < EIGENVALUE_FLOOR:
                raise ValidationError(
                    _named(index, f"density matrix has negative eigenvalue {lowest}")
                ) from None


def _factorises(matrix: np.ndarray) -> bool:
    """Whether numpy's Cholesky factorisation of matrix succeeds."""
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _target_blocks(rho: np.ndarray, n: int, target: int) -> np.ndarray:
    """rho as (..., a, 2, b, a, 2, b): the last six axes of each matrix, of
    which the 2s are the target qubit's row and column bit."""
    if not 0 <= target < n:
        raise ValueError(f"target qubit {target} outside 0..{n - 1}")
    a, b = 1 << target, 1 << (n - 1 - target)
    return rho.reshape(*rho.shape[:-2], a, 2, b, a, 2, b)


def _sqrt_effects(sharpness) -> np.ndarray:
    """Square roots of the four effects (I +- sharpness*X)/2 and (I +- Z)/2, as a
    (..., 4, 2, 2) stack with one (4, 2, 2) block per sharpness, each root
    taken on its Pauli's eigenspaces."""
    hi = np.sqrt((1.0 + sharpness) / 2.0)[..., None, None, None]
    lo = np.sqrt((1.0 - sharpness) / 2.0)[..., None, None, None]
    return hi * _ROOTS_HI + lo * _ROOTS_LO + _ROOTS_FIXED


def _to_target_major(rho: np.ndarray, n: int, target: int) -> np.ndarray:
    """A copy of rho, or of each element of a stack, in target-major order.

    The copy is C-contiguous, of shape (count, 4, 4^(n-1)) for a stack of
    count elements (1 for a single state). Axis 1 is the target qubit's (row
    bit, column bit); along axis 2 the other qubits' row index, times 2^(n-1),
    plus their column index. It is a new array even at n = 1, where that order
    is rho's own, so writing it never writes rho.
    """
    dim = rho.shape[-1]
    blocks = _target_blocks(rho.reshape(-1, dim, dim), n, target)
    count, a, _, b = blocks.shape[:4]
    out = np.empty((count, 4, dim * dim // 4), dtype=rho.dtype)
    # (a, row bit, b, a', column bit, b') -> (row bit, column bit, a, b, a', b')
    out.reshape(count, 2, 2, a, b, a, b)[...] = blocks.transpose(0, 2, 5, 1, 3, 4, 6)
    return out


def _from_target_major(state: np.ndarray, stack: tuple, n: int, target: int) -> np.ndarray:
    """The states of _to_target_major's order as a new (*stack, 2^n, 2^n) array."""
    dim = 1 << n
    out = np.empty((*stack, dim, dim), dtype=state.dtype)
    blocks = _target_blocks(out.reshape(-1, dim, dim), n, target)
    count, a, _, b = blocks.shape[:4]
    # (row bit, column bit, a, b, a', b') -> (a, row bit, b, a', column bit, b')
    blocks[...] = state.reshape(count, 2, 2, a, b, a, b).transpose(0, 3, 1, 4, 5, 2, 6)
    return out


def luders_update(rho: np.ndarray, sharpness, target: int | None = None) -> np.ndarray:
    """One sequential observer's unselective update on the target qubit.

    The observer applies, with equal weight, a two-outcome x measurement of
    sharpness lambda and a sharp two-outcome z measurement; each branch updates
    the state with the square roots of its effects. Default target is the last
    qubit. Trace is preserved. The input must be a valid density matrix, or a
    stack of them with one sharpness or one per element. The step runs on a
    target-major copy of rho, and its result comes back as a new array.
    """
    rho = _as_state(rho)
    n = n_qubits_of(rho)
    lam = _sharpnesses(sharpness, rho.shape[:-2])
    validate_density_matrix(rho)
    t = n - 1 if target is None else target
    state = _observer_step(_to_target_major(rho, n, t), lam)
    return _from_target_major(state, rho.shape[:-2], n, t)


def _observer_step(state: np.ndarray, sharpness) -> np.ndarray:
    """luders_update of states in target-major order, without its checks.

    The four maps K rho K^dagger add up to the 4x4 superoperator
    sum_K K (x) conj(K), which acts on the (row bit, column bit) pair of the
    target qubit: axis 1 of state. It is real, so the result has the state's
    dtype. Each element is one BLAS product of its superoperator and its
    (4, 4^(n-1)) block, into a new array of the same order.
    """
    # An unsharp x pair and a sharp z pair, applied with equal setting weight.
    # The roots are real, so conj(K) is K.
    roots = _sqrt_effects(sharpness)
    # Halving is exact, so folding the channel's 1/2 in here changes no bit.
    superop = (np.einsum("...kab,...kcd->...acbd", roots, roots) / 2.0).reshape(-1, 4, 4)
    return np.matmul(superop, state)


def _chain(state: np.ndarray, sharpnesses):
    """Yield state, in target-major order, then its update by each sharpness
    in turn. A step makes a new array and drops the one before, so no more
    than the caller's state and its update are alive at once."""
    yield state
    for lam in sharpnesses:
        state = _observer_step(state, lam)
        yield state


def _checked_chain(rho1, sharpnesses, target):
    """observer_states' checks: rho1 as a state, its qubit count, each
    observer's sharpness and the target, with the target range-checked."""
    rho = _as_state(rho1)
    n = n_qubits_of(rho)
    lambdas = [_sharpnesses(lam, rho.shape[:-2]) for lam in sharpnesses]
    validate_density_matrix(rho)
    t = n - 1 if target is None else target
    _target_blocks(rho, n, t)  # range-checks the target
    return rho, n, lambdas, t


def observer_states(rho1: np.ndarray, sharpnesses, target: int | None = None):
    """Yield the state each listed observer sees, in order: rho1 first.

    rho1 may be a stack, with each observer's sharpness one number or one per
    element. Every sharpness, the target and rho1 are checked before the first
    state is yielded; rho1 is validated once, since each update maps a density
    matrix to a density matrix. The chain runs in target-major order, entered
    once, and each later state is yielded as a new array in rho1's layout. The
    update after the last observer is never computed.
    """
    rho, n, lambdas, t = _checked_chain(rho1, sharpnesses, target)
    del rho1  # hold no reference to the caller's array past the first step
    if not lambdas:
        return
    yield rho
    if len(lambdas) == 1:
        return
    stack = rho.shape[:-2]
    states = _chain(_to_target_major(rho, n, t), lambdas[:-1])
    del rho
    next(states)  # rho1 again, already yielded
    for state in states:
        yield _from_target_major(state, stack, n, t)


def observer_expectations(rho1: np.ndarray, sharpnesses, observables, target: int | None = None):
    """Each observer's Tr[rho_k O_k]: observer k's state against observables[k].

    The result, its checks and their order are bit for bit those of
    [expectation(s, o) for s, o in zip(observer_states(rho1, sharpnesses,
    target), observables)], on a single state or a stack. The chain stays in
    target-major order, and a Pauli sum's rows are gathered there in place:
    only a dense observable's state is taken back to rho1's layout.
    """
    rho, n, lambdas, t = _checked_chain(rho1, sharpnesses, target)
    del rho1  # hold no reference to the caller's array past the conversion
    if not lambdas:
        return []
    stack = rho.shape[:-2]
    states = _chain(_to_target_major(rho, n, t), lambdas[:-1])
    del rho
    positions = _positions(n, t)
    values = []
    for state, obs in zip(states, observables):
        if isinstance(obs, (PauliString, OperatorExpr)):
            values.append(_pauli_expectation(state, stack, n, obs, positions))
        else:
            values.append(expectation(_from_target_major(state, stack, n, t), obs))
    return values


def channel_closed_form(rho: np.ndarray, sharpness, target: int | None = None) -> np.ndarray:
    """Equivalent three-term mixture form of the update; kept as a cross-check.

    In Pauli-transfer form on the target qubit's 2x2 blocks of rho, Z rho Z
    negates the off-diagonal blocks and X rho X swaps blocks 00<->11 and 01<->10.
    rho may be a stack, with one sharpness or one per element.
    """
    rho = _as_state(rho)
    n = n_qubits_of(rho)
    lam = _sharpnesses(sharpness, rho.shape[:-2])
    blocks = _target_blocks(rho, n, n - 1 if target is None else target)
    # One factor per element, broadcast over its six block axes.
    s = np.reshape(np.sqrt(1.0 - lam * lam), np.shape(lam) + (1,) * 6)
    z_rho_z = blocks.copy()
    z_rho_z[..., 0, :, :, 1, :] *= -1.0
    z_rho_z[..., 1, :, :, 0, :] *= -1.0
    x_rho_x = blocks[..., ::-1, :, :, ::-1, :]
    out = ((2.0 + s) * blocks + z_rho_z + (1.0 - s) * x_rho_x) / 4.0
    return out.reshape(rho.shape)


_MASKS = attrgetter("x_mask", "z_mask")
# Gather plans kept, one per term layout; a plan's parity table holds one
# byte per term and basis state (513 KiB for the 513-term witness at N = 10).
_PLAN_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _gather_plan(n: int, layout: tuple[tuple[int, int], ...]):
    """How to gather a Pauli sum whose terms have these (x, z) masks.

    The power of i that each term's Y letters put in its phase (in term
    order; a string with masks (x, z) is i^popcount(x & z)·X^x·Z^z), the order of the terms by X part
    (each part's terms form one run, so part_of ascends), the distinct X
    parts, each ordered term's part, and the bool table
    (-1)^popcount(j & z) == -1 of each ordered term and basis state j.
    """
    y_phases = tuple(_PHASES[(x & z).bit_count() % 4] for x, z in layout)
    order = sorted(range(len(layout)), key=lambda t: layout[t][0])
    parts, part_of = [], []
    for t in order:
        if not parts or layout[t][0] != parts[-1]:
            parts.append(layout[t][0])
        part_of.append(len(parts) - 1)
    rows = np.arange(1 << n, dtype=np.int64)
    signs = np.array([layout[t][1] for t in order], dtype=np.int64)
    negative = (np.bitwise_count(rows & signs[:, None]) & 1).astype(bool)
    order = np.array(order)
    return y_phases, order, np.array(parts, dtype=np.int64), np.array(part_of), negative


# Offset vectors kept, one pair per (n, target): every target and the
# (2^n, 2^n) layout of each n up to 10 qubits, 32 KiB at most each.
_POSITIONS_CACHE_SIZE = 66


@functools.lru_cache(maxsize=_POSITIONS_CACHE_SIZE)
def _positions(n: int, target: int | None):
    """Offsets (row_pos, col_pos) of an n-qubit state's entries: entry (j, l)
    is at flat offset row_pos[j] + col_pos[l]. With no target the layout is
    (2^n, 2^n), row_pos[j] = j * 2^n and col_pos[l] = l; with one, it is
    _to_target_major's order about that (range-checked) target."""
    rows = np.arange(1 << n, dtype=np.int64)
    if target is None:
        offsets = rows << n, rows
    else:
        low = n - 1 - target  # the target's bit in a basis index
        bit = (rows >> low) & 1
        rest = (rows >> (low + 1) << low) | (rows & ((1 << low) - 1))
        span = 1 << (2 * n - 2)
        offsets = (2 * span) * bit + (rest << (n - 1)), span * bit + rest
    for offset in offsets:
        offset.flags.writeable = False  # shared by every caller of the cache
    return offsets


def _pauli_sum_trace(states: np.ndarray, expr: OperatorExpr, positions) -> np.ndarray:
    """Tr[rho * P] of each element of a stack without building P's matrix:
    states has one flat row of entries per element, laid out as positions
    says; the result has one complex value per element.

    The only nonzero entries of a term P with masks (f, z) and phase c are
    <j ^ f|P|j> = c * (-1)^popcount(j & z), so Tr[rho * P] is
    c * sum_j rho[j, j ^ f] * (-1)^popcount(j & z). Terms share few X parts f
    (a GHZ witness has two), so the row rho[j, j ^ f] is gathered once per
    distinct f, and each term indexes its part's row (or, when every part has
    one term, its rows are the parts' rows in place). Parts are gathered, and
    terms summed, a block at a time; the parts' rows and the terms' block
    together hold at most _GATHER_ELEMENTS entries over all elements (a
    stack too large for two rows of each is split). Each term's sum is a row
    sum of a 2-D array, and the terms are added by fsum, so an element's
    value is bit for bit that of its own call, in either layout.
    """
    layout = tuple(map(_MASKS, expr.terms))
    if not layout:
        return np.zeros(len(states), dtype=complex)
    y_phases, order, parts, part_of, negative = _gather_plan(expr.n_qubits, layout)
    per_term = _term_traces(states, positions, parts, part_of, negative)
    # Each term's coefficient times the phase of its Y letters.
    phases = np.array([t.coeff * y for t, y in zip(expr.terms, y_phases)])[order]
    # Each element's products in a call of their own shape, as alone.
    return np.array([_fsum(row * phases) for row in per_term])


def _fsum(values: np.ndarray) -> complex:
    """The correctly rounded sum of complex values."""
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def _term_traces(states: np.ndarray, positions, parts, part_of, negative) -> np.ndarray:
    """sum_j rho[j, j ^ f] * (-1)^popcount(j & z) of each planned term, for
    each element of a stack of flat states; shape (count, terms), complex."""
    row_pos, col_pos = positions
    dim = len(row_pos)
    count = len(states)
    # Two rows of every element must fit the budget: split a larger stack.
    split = max(1, _GATHER_ELEMENTS // (2 * dim))
    if count > split:
        return np.concatenate([
            _term_traces(states[i:i + split], positions, parts, part_of, negative)
            for i in range(0, count, split)
        ])
    per_term = np.empty((count, len(part_of)), dtype=complex)
    # Rows held at once: at most half of them parts' rows, the rest terms'.
    budget = max(2, _GATHER_ELEMENTS // (dim * count))
    for first in range(0, len(parts), budget // 2):
        chunk = parts[first:first + budget // 2]
        # Column offsets are xor-linear, col_pos[j ^ f] = col_pos[j] ^ col_pos[f],
        # since each layout keeps the bits of a column index in fields of their own.
        offsets = col_pos ^ col_pos[chunk][:, None]
        offsets += row_pos
        # take returns C-ordered rows: (count, parts, dim).
        part_rows = np.take(states, offsets, axis=1)
        step = budget - len(chunk)
        lo, hi = part_of.searchsorted([first, first + len(chunk)])
        # With one term per part, term t's row is part_rows[t - lo]: a view.
        one_to_one = hi - lo == len(chunk)
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            block = slice(start, stop)
            if one_to_one:
                signed = part_rows[:, start - lo:stop - lo]
            else:
                signed = np.take(part_rows, part_of[block] - first, axis=1)
            # Signed in place: a row taken in place belongs to this term alone.
            np.negative(signed, out=signed, where=negative[block])
            # Sums of C-ordered rows: numpy adds each row pairwise, in the same
            # order whatever the number of rows, where a strided row would be
            # added in sequence.
            flat = np.ascontiguousarray(signed).reshape(-1, dim)
            per_term[:, block] = flat.sum(axis=1).reshape(signed.shape[:-1])
    return per_term


def _pauli_expectation(states: np.ndarray, stack: tuple, n: int, obs, positions):
    """expectation of a Pauli sum (or string) on flat states laid out as
    positions says, one per element of the stack."""
    if isinstance(obs, PauliString):
        obs = OperatorExpr.from_terms(obs.n_qubits, [obs])
    if obs.n_qubits != n:
        raise DimensionError(f"observable on {obs.n_qubits} qubits, state on {n}")
    if not obs.is_hermitian():
        raise ValidationError("observable has non-real Pauli coefficients")
    flat = states.reshape(len(states), -1)
    return _real_part(_pauli_sum_trace(flat, obs, positions).reshape(stack))


def _real_part(value: np.ndarray):
    """An expectation's real part, a float for a single state, after checking
    that its imaginary residue is below IMAG_TOL."""
    residue = value.imag
    _refuse(abs(residue) >= IMAG_TOL, ValidationError, "expectation has imaginary residue {}", residue)
    return value.real if value.ndim else float(value.real)


def expectation(rho: np.ndarray, obs):
    """Tr[rho * obs] for a Hermitian observable (dense or Pauli sum).

    rho may be a stack, and the result is then an array of the stack's shape
    (a float for one state). A dense observable may be a stack too; the two
    stacks broadcast against each other. A Pauli sum is one for every
    element. Each observable is checked once, however many states it meets,
    and each element's value is bit for bit that of its own call.
    """
    rho = _as_state(rho)
    n = n_qubits_of(rho)
    if isinstance(obs, (PauliString, OperatorExpr)):
        dim = rho.shape[-1]
        states = rho.reshape(-1, dim * dim)
        return _pauli_expectation(states, rho.shape[:-2], n, obs, _positions(n, None))
    dense = _as_state(obs)
    try:
        matched = dense.shape[-2:] == rho.shape[-2:]
        np.broadcast_shapes(dense.shape[:-2], rho.shape[:-2])
    except ValueError:
        matched = False
    if not matched:
        raise DimensionError(f"observable shape {dense.shape} vs state {rho.shape}")
    asymmetric = _max_asymmetry(dense) > HERMITICITY_TOL
    _refuse(asymmetric, ValidationError, "observable is not Hermitian")
    # Row sums, then a running sum of them: the order of additions of one
    # matrix's einsum("ij,ji->"), whatever the stacks' layout.
    return _real_part(np.cumsum(np.einsum("...ij,...ji->...i", rho, dense), axis=-1)[..., -1])


def save_density_matrix(path, rho: np.ndarray) -> None:
    """Write a density matrix as JSON with an explicit qubit-count header."""
    rho = _as_state(rho)
    payload = {
        "n_qubits": _matrix_qubits(rho),
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
    if not isinstance(payload, dict):
        raise ValidationError(f"state file holds a JSON {type(payload).__name__}, not an object")
    for key in ("n_qubits", "real", "imag"):
        if key not in payload:
            raise ValidationError(f"state file has no {key!r} entry")
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
    n = _matrix_qubits(rho)
    if n != header:
        raise ValidationError(f"header says {header} qubits but entries give {n}")
    validate_density_matrix(rho)
    return rho
