"""Exact dense density-matrix simulation of the sequential measurement channel.

States are numpy arrays of shape (2^N, 2^N), qubit 1 being the most
significant tensor factor. The state kernels (validate_density_matrix,
luders_update, observer_states, observer_expectations, channel_closed_form
and expectation) take a stack of states, shape (..., 2^N, 2^N), and treat each element as a state of
its own; a single state is the empty stack. A sharpness is one number for
every element, or an array that broadcasts to the stack's shape with one value
per element; an observable is one Pauli sum for every element, or, for
expectation, a dense stack that broadcasts against the states (the chain
observer_expectations reads Pauli sums and strings only). Each element's
result is bit for bit the result of its own call. An error in a stack names
the first element at fault ("stack element 3: ..."); for a single state the
message has no such prefix. So callers with many small states, such as the
verify suites, pay each numpy call's fixed cost once per stack, not once per
state.

A state keeps its own dtype: a real state stays float64 and a complex one
complex128 (integer and narrower float input is widened to float64). Every
Kraus operator of the channel is real, so a real state stays real along a
chain, and the Cholesky gate, the channel steps and the gathers run on half
the bytes of a complex state. Everything here is the brute-force reference
that the closed-form layers are checked against. No operator is densified on
the way: a Pauli sum is read on one path, from the part rows rho[j, j ^ f]
of its distinct X parts f, j ascending, with a plan cached per term layout.
Each row is folded by its terms' shared Z prefixes, a Walsh-Hadamard pass
pruned to them, until each term has a node of its own, whose remaining
entries are signed and summed (_term_traces). expectation gathers those
rows from a full state, and the chains hold and step them. Single-qubit
maps act on the target qubit's (row bit, column bit) pairs.

A channel step builds each element's four square-rooted effects in one
expression from fixed (4, 2, 2) stacks and the two eigenvalues of the
unsharp x roots, and forms the 4x4 superoperator from them. That
superoperator is zero off its diagonal and antidiagonal, so a step updates
each entry from itself and its partner across the target's pair: two
products and one add per real number, whose bits do not depend on which
other entries the array holds. It is also symmetric under a <-> 3 - a,
so on part rows both entries of a pair take the same two factors, and the
products run over whole rows. A step overwrites its state, so a chain holds
one. Every step runs on part rows. luders_update and observer_states gather
a state's rows over every X part f = 0..2^N - 1, which hold each entry
once, step them, and gather each state they hand out back to the
(2^N, 2^N) layout (_from_part_rows). observer_expectations reads its
observables first and holds only the part rows their sums read, a
(count, parts, 2^N) array read once from rho1 or, for a StateFamily, from
its closed-form entries with no matrix built or validated. It reads a block
of observers at a time: consecutive sums with one term layout, as the built
witnesses of one (family, N) have, fold their stacked snapshots in one pass
with one plan. The verify
oracle's chain (_last_observer_values) runs the same rows for a stack of
(StateFamily, schedule) rows whose schedules differ in length: sorted
longest first, each step updates in place the prefix of rows that have an
observer after it, and only the state each row's last observer sees is
read. Both chains build every step's superoperator in one call.

Validation decides positivity on one path at every size: a Cholesky
factorisation of the whole stack in the state's dtype, O(d^3) per element,
and eigvalsh only where it fails. A chain validates its start state once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .errors import DimensionError, ValidationError, check_sharpness
from .pauli import _PHASES, IMAG_TOL, PAULI_MATRICES
from .pauli import OperatorExpr, PauliString, _real_coefficients
from .states import StateFamily

DENSITY_TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
# Accumulated floating error over repeated channel applications.
EIGENVALUE_FLOOR = -1e-10
# Entries of the one term block that a Pauli-sum read takes from its part
# rows at a time (256 KiB of float64), counted over the stack; a block holds
# at least one term. It also bounds the snapshots of part rows that a chain
# stacks for one read of a block of observers, a block holding at least one.
# From 2^16 on, a `run` at N = 9 or 10 gave thousands of heap pages back to
# the kernel and faulted them in again.
_GATHER_ELEMENTS = 1 << 15
# Real numbers of a stack that a channel step updates at once, in whole part
# rows: its partner terms are the in-place step's only temporary.
_STEP_BLOCK = 1 << 15
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


def _max_asymmetry(x: np.ndarray):
    """max |x_ij - conj(x_ji)| of each matrix of a stack, NaN if it has a NaN
    entry. A real array's conj() is the array itself, not a copy."""
    return np.abs(x - x.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def validate_density_matrix(rho) -> None:
    """Raise ValidationError unless rho, or each matrix of a stack, is
    Hermitian, unit trace, and PSD.

    Positivity means a smallest eigenvalue of at least EIGENVALUE_FLOOR. It
    is decided on one path at every size: a Cholesky factorisation of rho -
    EIGENVALUE_FLOOR * I succeeds exactly when positivity holds, up to
    rounding of order 1e-13, and only when it fails does the full spectrum
    decide, and name the offending eigenvalue. The factorisation runs in
    rho's own dtype, so a real state pays for a real one. A stack is checked
    as a whole, and when it fails, each element in turn decides as it would
    alone. An element repeated along a zero-stride (broadcast) stack axis is
    checked once, as the first of its copies, so an error names the index
    that the materialized stack's error names.
    """
    rho = _as_state(rho)
    n_qubits_of(rho)
    rho = rho[tuple(slice(0, 1) if step == 0 else slice(None) for step in rho.strides[:-2])]
    finite = np.isfinite(rho).all(axis=(-2, -1))
    _refuse(~finite, ValidationError, "density matrix has a NaN or infinite entry")
    asymmetric = _max_asymmetry(rho) > HERMITICITY_TOL
    _refuse(asymmetric, ValidationError, "density matrix is not Hermitian")
    trace = rho.trace(axis1=-2, axis2=-1)
    wrong_trace = abs(trace - 1.0) > DENSITY_TRACE_TOL
    _refuse(wrong_trace, ValidationError, "density matrix trace {} is not 1", trace)
    stack, dim = rho.shape[:-2], rho.shape[-1]
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


def _checked_target(n: int, target: int | None) -> int:
    """The target qubit, the last one when None, after a type and range
    check: any integer type is taken, a float is refused, even 1.0. A
    0-qubit state is refused first, before any shift by n - 1."""
    if n == 0:
        raise ValueError("a 0-qubit state has no target qubit")
    if target is None:
        return n - 1
    try:
        target = operator.index(target)
    except TypeError:
        raise ValueError(f"target qubit {target!r} is not an integer") from None
    if not 0 <= target < n:
        raise ValueError(f"target qubit {target} outside 0..{n - 1}")
    return target


def _target_blocks(rho: np.ndarray, n: int, target: int) -> np.ndarray:
    """rho as (..., a, 2, b, a, 2, b): the last six axes of each matrix, of
    which the 2s are the target qubit's row and column bit."""
    target = _checked_target(n, target)
    a, b = 1 << target, 1 << (n - 1 - target)
    return rho.reshape(*rho.shape[:-2], a, 2, b, a, 2, b)


def _sqrt_effects(sharpness) -> np.ndarray:
    """Square roots of the four effects (I +- sharpness*X)/2 and (I +- Z)/2, as a
    (..., 4, 2, 2) stack with one (4, 2, 2) block per sharpness, each root
    taken on its Pauli's eigenspaces."""
    hi = np.sqrt((1.0 + sharpness) / 2.0)[..., None, None, None]
    lo = np.sqrt((1.0 - sharpness) / 2.0)[..., None, None, None]
    return hi * _ROOTS_HI + lo * _ROOTS_LO + _ROOTS_FIXED


def luders_update(rho: np.ndarray, sharpness, target: int | None = None) -> np.ndarray:
    """One sequential observer's unselective update on the target qubit.

    The observer applies, with equal weight, a two-outcome x measurement of
    sharpness lambda and a sharp two-outcome z measurement; each branch updates
    the state with the square roots of its effects. Default target is the last
    qubit. Trace is preserved. The input must be a valid density matrix, or a
    stack of them with one sharpness or one per element. The step runs on
    rho's part rows over every X part, the chains' layout, gathered into a
    new array, and its result comes back as a new array in rho's layout.
    """
    rho, n, (lam,), t = _checked_chain(rho, [sharpness], target)
    parts = np.arange(1 << n)
    state = _observer_step(_part_rows(rho, n, parts), _superoperator(lam), parts, n - 1 - t)
    return _from_part_rows(state, rho.shape[:-2], n)


def _superoperator(sharpness) -> np.ndarray:
    """The channel's real 4x4 superoperator sum_K K (x) conj(K) / 2, one per
    sharpness, as a (count, 4, 4) stack over the target's (row bit, column
    bit) pairs."""
    # An unsharp x pair and a sharp z pair, applied with equal setting weight.
    # The roots are real, so conj(K) is K.
    roots = _sqrt_effects(sharpness)
    # Halving is exact, so folding the channel's 1/2 in here changes no bit.
    return (np.einsum("...kab,...kcd->...acbd", roots, roots) / 2.0).reshape(-1, 4, 4)


def _observer_step(state: np.ndarray, superop: np.ndarray, parts: np.ndarray, low: int) -> np.ndarray:
    """One observer's update of a chain's states, without its checks, in place.

    The four maps K rho K^dagger add up to superop, the (1 or count, 4, 4)
    _superoperator of the observer's sharpness, which acts on the target's
    (row bit, column bit) pair a. Its eight entries off
    the diagonal and the antidiagonal are exactly 0.0 (the x roots' cross
    terms cancel), so pair a of the result mixes only pairs a and 3 - a:
    two rounded products and one add per real number, and an entry has the
    same bits whatever else state holds. Row p of state, (count,
    len(parts), 2^n), is rho[j, j ^ parts[p]], j ascending, and entry j's
    partner is entry j ^ (1 << low), low being the target's bit: the pairs
    are (0, 3) when parts[p] keeps that bit and (1, 2) when it flips it.
    The superoperator is symmetric under a <-> 3 - a, bit for bit, so both
    entries of a pair take the same diagonal and antidiagonal factor, and a
    part row is stepped by two products over whole rows and one add of each
    entry's partner product. The superoperator is real, so the result has
    the state's dtype. state is overwritten a block of whole part rows,
    at most _STEP_BLOCK real numbers, at a time, after that block's partner
    terms are formed, and returned.
    """
    pair = (parts >> low) & 1
    diag = superop[:, pair, pair][..., None, None, None]
    anti = superop[:, pair, 3 - pair][..., None, None, None]
    half = state.shape[-1] >> (low + 1)
    pairs = state.reshape(*state.shape[:2], half, 2, 1 << low)
    # The real numbers of one part row of every element.
    row = len(state) * state.shape[-1] * state.itemsize // 8
    height = max(1, _STEP_BLOCK // max(1, row))
    for start in range(0, len(parts), height):
        rows = slice(start, start + height)
        block = pairs[:, rows]
        # A complex entry is two reals, each scaled by the same real factor.
        # At the last target partners are neighbours, and numpy's stride-2
        # products are about twice as slow per entry as these.
        reals = block.view(np.float64)
        partner = (reals * anti[:, rows]).view(state.dtype)
        reals *= diag[:, rows]
        # A complex add is two real adds, in half the strided steps.
        block[..., 0, :] += partner[..., 1, :]
        block[..., 1, :] += partner[..., 0, :]
    return state


def _checked_chain(rho1, sharpnesses, target):
    """The checks of luders_update, observer_states and observer_expectations,
    in order: rho1 as a state, its qubit count, each observer's sharpness,
    rho1 as a density matrix and the target's range."""
    rho = _as_state(rho1)
    n = n_qubits_of(rho)
    lambdas = [_sharpnesses(lam, rho.shape[:-2]) for lam in sharpnesses]
    validate_density_matrix(rho)
    return rho, n, lambdas, _checked_target(n, target)


def observer_states(rho1: np.ndarray, sharpnesses, target: int | None = None):
    """Yield the state each listed observer sees, in order: rho1 first.

    rho1 may be a stack, with each observer's sharpness one number or one per
    element. Every sharpness, the target and rho1 are checked before the first
    state is yielded; rho1 is validated once, since each update maps a density
    matrix to a density matrix. The chain steps rho1's part rows over every X
    part, gathered once, and each later state is yielded as a new array in
    rho1's layout. The update after the last observer is never computed.
    """
    rho, n, lambdas, t = _checked_chain(rho1, sharpnesses, target)
    del rho1  # hold no reference to the caller's array past the first step
    if not lambdas:
        return
    yield rho
    if len(lambdas) == 1:
        return
    stack, parts = rho.shape[:-2], np.arange(1 << n)
    state = _part_rows(rho, n, parts)
    del rho
    for lam in lambdas[:-1]:
        _observer_step(state, _superoperator(lam), parts, n - 1 - t)
        yield _from_part_rows(state, stack, n)


def observer_expectations(rho1, sharpnesses, observables, target: int | None = None):
    """Each observer's Tr[rho_k O_k]: observer k's state against observables[k].

    The observables are Pauli sums or strings. The result, its checks and
    their order are bit for bit those of [expectation(s, o) for s, o in
    zip(observer_states(rho1, sharpnesses, target), observables)], on a
    single state or a stack; that pairing is also how a chain of dense
    observables is read, since a dense observable here is refused with a
    TypeError naming its type, after rho1's checks and before any step. rho1
    may also be a StateFamily, whose density_matrix() then gives the same
    bits but is never built: its constructor checked it, and only the
    sharpnesses and then the target are checked here. The observables, as
    many as there are sharpnesses, are read before the first step, and the
    chain holds and steps only the rows their sums read: rho1[j, j ^ f], j
    ascending, for each of their distinct X parts f, read once (from
    StateFamily.entries for a family) into a (count, parts, 2^n) array. A
    step gives those entries the bits of a full step, so each term's row is
    the one a full state gives. Every step's superoperator comes from one _superoperator
    call. The reads go in blocks of consecutive observers whose Pauli sums
    share one term layout (_layout_run): each one's rows are copied into one
    (block, count, parts, 2^n) stack of at most _GATHER_ELEMENTS entries and
    read by one _pauli_expectations call; a block of one reads the live
    state.
    """
    if isinstance(rho1, StateFamily):
        n, stack = rho1.n_qubits, ()
        lambdas = [_sharpnesses(lam, stack) for lam in sharpnesses]
        rho, t = rho1, _checked_target(n, target)
    else:
        rho, n, lambdas, t = _checked_chain(rho1, sharpnesses, target)
        stack = rho.shape[:-2]
    del rho1  # hold no reference to the caller's array past the gather
    observables = [_as_sum(obs) for obs in itertools.islice(observables, len(lambdas))]
    if not observables:
        return []
    parts = _read_parts(observables, n)
    state = _part_rows(rho, n, parts)
    del rho
    # Every step's superoperator from one call: (steps, count, 4, 4).
    table = np.array([np.broadcast_to(lam, stack) for lam in lambdas[:len(observables) - 1]])
    table = table.reshape(len(observables) - 1, math.prod(stack))
    superops = _superoperator(table).reshape(*table.shape, 4, 4)
    # The most observers whose rows a block stacks: _GATHER_ELEMENTS entries.
    most = max(1, _GATHER_ELEMENTS // max(1, state.size))
    low = n - 1 - t
    values = []
    while len(values) < len(observables):
        k = len(values)
        if k:  # the observer before updates the one state array in place
            _observer_step(state, superops[k - 1], parts, low)
        block = _layout_run(observables[k:k + most])
        rows = state  # a block of one reads the live state
        if len(block) > 1:
            rows = np.empty((len(block), *state.shape), dtype=state.dtype)
            rows[0] = state
            for i in range(1, len(block)):
                rows[i] = _observer_step(state, superops[k + i - 1], parts, low)
            rows = rows.reshape(len(block) * len(state), *state.shape[1:])
        values += _pauli_expectations(rows, stack, n, block, parts)
    return values


def _last_observer_values(rows, observables, target: int | None = None) -> np.ndarray:
    """Each Pauli sum's value on the state each row's last observer sees.

    A row is a (start StateFamily, schedule) pair; the starts share a qubit
    count, and the schedules, of one or more sharpnesses, may differ in
    length. The result has shape (len(observables), len(rows)), rows in the
    caller's order, and each value has the bits of expectation(last state of
    observer_states(start.density_matrix(), schedule, target), obs). Before
    the first step each row's start and schedule are checked, then every
    sharpness, and an error names the caller's row. The rows run as one
    stack of the part rows the observables read, each distinct start's rows
    read once from StateFamily.entries, longest schedule first, so step j
    updates in place the prefix of rows with an observer after it. Every
    step's superoperator comes from one _superoperator call.
    """
    starts, schedules = zip(*rows)
    n = starts[0].n_qubits
    lengths = [len(schedule) for schedule in schedules]
    table = np.zeros((len(rows), max(lengths)))  # the sharpnesses, 0 past a schedule's end
    for row, (start, schedule) in enumerate(rows):
        if start.n_qubits != n:
            raise DimensionError(_named((row,), f"state on {start.n_qubits} qubits, not {n}"))
        if not lengths[row]:
            raise ValueError(_named((row,), "empty schedule"))
        table[row, : lengths[row]] = schedule
    bad = ~((table >= 0.0) & (table <= 1.0))
    if bad.any():
        row, col = divmod(int(bad.argmax()), table.shape[1])
        raise ValueError(_named((row,), f"sharpness {table[row, col]} outside [0, 1]"))
    t = _checked_target(n, target)
    order, prefixes = _ragged_prefixes(lengths)
    observables = [_as_sum(obs) for obs in observables]
    parts = _read_parts(observables, n)
    distinct = {}  # each distinct start's index, in order of first appearance
    picks = np.array([distinct.setdefault(start, len(distinct)) for start in starts])
    entries = np.concatenate([_part_rows(start, n, parts) for start in distinct])
    state = entries[picks[order]]
    table = table[order, :-1]
    del entries
    superops = _superoperator(table).reshape(*table.shape, 4, 4)
    for j, count in enumerate(prefixes):
        _observer_step(state[:count], superops[:count, j], parts, n - 1 - t)
    values = np.empty((len(observables), len(rows)))
    for k, obs in enumerate(observables):
        values[k, order] = _pauli_expectations(state, (len(rows),), n, [obs], parts)[0]
    return values


def _ragged_prefixes(lengths: list[int]) -> tuple[list[int], list[int]]:
    """The rows longest first, ties in the caller's order, and for each step
    j = 0, 1, ... the number of them, a prefix, with an observer after step j:
    those with more than j + 1 sharpnesses."""
    order = sorted(range(len(lengths)), key=lambda row: -lengths[row])
    return order, [sum(length > j + 1 for length in lengths) for j in range(max(lengths) - 1)]


def _as_sum(obs) -> OperatorExpr:
    """A Pauli observable as a sum, a string as a sum of one; TypeError,
    naming its type, for any other observable."""
    if isinstance(obs, PauliString):
        return OperatorExpr.from_terms(obs.n_qubits, [obs])
    if not isinstance(obs, OperatorExpr):
        raise TypeError(f"observable of type {type(obs).__name__} is not a Pauli sum or string")
    return obs


def _read_parts(sums, n: int) -> np.ndarray:
    """The distinct X parts of every n-qubit Pauli sum, ascending, from its x
    mask column, each distinct column read once. A sum on another qubit count
    reads nothing: its step refuses it."""
    columns = {}
    for obs in sums:
        if obs.n_qubits == n:
            xs = obs.columns()[0]
            columns[id(xs)] = xs
    # Sorted in Python: np.unique would import numpy.ma on its first call.
    return np.array(sorted(set().union(*columns.values())), dtype=np.int64)


def _layout_run(sums) -> list[OperatorExpr]:
    """The leading Pauli sums that share the first one's term layout: its
    qubit count and x and z mask columns, as every built witness of one
    (family, N) does."""
    run = []
    for obs in sums:
        layout = obs.n_qubits, *obs.columns()[:2]
        if run and layout != shared:
            break
        shared = layout
        run.append(obs)
    return run


def _part_rows(rho, n: int, parts: np.ndarray) -> np.ndarray:
    """The rows rho[j, j ^ f], j ascending, of each X part f, as a new
    (count, parts, 2^n) array: gathered from a stack of states, flat or
    (..., 2^n, 2^n), a block of parts at a time, or read from a
    StateFamily's entries (count 1)."""
    if isinstance(rho, StateFamily):
        # 32-bit indices: the columns are as many as the rows read.
        rows = np.arange(1 << n, dtype=np.int32)
        return rho.entries(rows, np.bitwise_xor(rows, parts[:, None], dtype=np.int32))[None]
    # Full states reach this gather from expectation of a Pauli sum,
    # observer_expectations from a matrix rho1, and luders_update and
    # observer_states, which gather every part: verify's channel and recursion
    # suites take the last two on every pass.
    flat = rho.reshape(-1, 1 << 2 * n)
    out = np.empty((len(flat), len(parts), 1 << n), dtype=flat.dtype)
    rows = np.arange(1 << n, dtype=np.int64)
    # At most _GATHER_ELEMENTS int64 offsets at once, not one per entry read.
    height = max(1, _GATHER_ELEMENTS >> n)
    for start in range(0, len(parts), height):
        block = slice(start, start + height)
        # The flat offsets of the block's rows; in place, so one array is held.
        offsets = rows ^ parts[block, None]
        offsets += rows << n
        # The offsets are in range, and "clip" lets take write a contiguous
        # block (one state, or one block) directly; a stack's block of parts
        # is strided, so take fills a copy of it and writes that back.
        np.take(flat, offsets, axis=1, out=out[:, block], mode="clip")
        del offsets  # the next block's offsets are the only ones held
    return out


def _from_part_rows(state: np.ndarray, stack: tuple, n: int) -> np.ndarray:
    """The states whose part rows over every X part f = 0..2^n - 1, in order,
    are state, (count, 2^n, 2^n), as a new (*stack, 2^n, 2^n) array: entry
    (r, c) is state[r ^ c, r], gathered a block of rows at a time."""
    dim = 1 << n
    flat = state.reshape(len(state), dim * dim)
    out = np.empty((*stack, dim, dim), dtype=state.dtype)
    rows = np.arange(dim, dtype=np.int64)
    # At most _GATHER_ELEMENTS int64 offsets at once, as in _part_rows.
    height = max(1, _GATHER_ELEMENTS >> n)
    for start in range(0, dim, height):
        block = slice(start, start + height)
        offsets = rows[block, None] ^ rows
        offsets <<= n
        offsets += rows[block, None]
        # "clip", as in _part_rows: the default mode buffers out.
        np.take(flat, offsets, axis=1, out=out.reshape(-1, dim, dim)[:, block], mode="clip")
        del offsets
    return out


def channel_closed_form(rho: np.ndarray, sharpness, target: int | None = None) -> np.ndarray:
    """Equivalent three-term mixture form of the update; kept as a cross-check.

    In Pauli-transfer form on the target qubit's 2x2 blocks of rho, Z rho Z
    negates the off-diagonal blocks and X rho X swaps blocks 00<->11 and 01<->10.
    rho may be a stack, with one sharpness or one per element.
    """
    rho = _as_state(rho)
    n = n_qubits_of(rho)
    lam = _sharpnesses(sharpness, rho.shape[:-2])
    blocks = _target_blocks(rho, n, target)
    # One factor per element, broadcast over its six block axes.
    s = np.reshape(np.sqrt(1.0 - lam * lam), np.shape(lam) + (1,) * 6)
    z_rho_z = blocks.copy()
    z_rho_z[..., 0, :, :, 1, :] *= -1.0
    z_rho_z[..., 1, :, :, 0, :] *= -1.0
    x_rho_x = blocks[..., ::-1, :, :, ::-1, :]
    out = ((2.0 + s) * blocks + z_rho_z + (1.0 - s) * x_rho_x) / 4.0
    return out.reshape(rho.shape)


# Plans kept, one per term layout. A plan holds a few numbers per term and
# per fold node, and 2^(N-k) signs per term: 35 KiB for the 513-term GHZ
# witness at N = 10 (k = 9), where a sign per term and basis state took
# 525 KiB, and 66 KiB for the 63-term cluster witness (k = 0).
_PLAN_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _gather_plan(n: int, xs: tuple[int, ...], zs: tuple[int, ...]):
    """How _term_traces reads a Pauli sum whose terms have these X and Z
    masks, in the terms' order.

    The fold depth k is the smallest level at which terms with different
    masks have different keys (x, z >> (n - k)). The nodes of level 0 are
    the sum's distinct X parts, ascending (the heads); those of level
    l = 1..k are the level's distinct keys, ascending, and node (x, prefix)
    is its parent (x, prefix >> 1) folded on the Z bit prefix & 1. The plan
    holds the heads; per level each node's parent index and fold sign, +1
    for bit 0 and -1 for bit 1, shaped (nodes, 1); each term's node at
    level k; the power of i that its Y letters put in its phase (a string
    with masks (x, z) is i^popcount(x & z)·X^x·Z^z); and the int8 table
    (-1)^popcount(j & z) of each term and remaining entry j < 2^(n - k).
    """
    # Node (x, prefix) of level l is the int x << l | prefix: it sorts as the
    # pair does, its parent is key >> 1 and its fold bit key & 1, and a
    # term's masks are its key at level n. So no tuple is made per term or
    # node, which a tuple free list would keep past the call.
    terms = [x << n | z for x, z in zip(xs, zs)]
    distinct = len(set(terms))
    heads = sorted(set(xs))
    nodes = {x: i for i, x in enumerate(heads)}
    levels = []
    while len(nodes) < distinct:
        keys = sorted({term >> (n - len(levels) - 1) for term in terms})
        parents = np.array([nodes[key >> 1] for key in keys], dtype=np.int64)
        flips = 1.0 - 2.0 * np.array([key & 1 for key in keys])[:, None]
        levels.append((parents, flips))
        nodes = {key: i for i, key in enumerate(keys)}
    depth = len(levels)
    leaves = np.array([nodes[term >> (n - depth)] for term in terms], dtype=np.int64)
    y_phases = np.array([_PHASES[(x & z).bit_count() % 4] for x, z in zip(xs, zs)])
    tail = np.arange(1 << (n - depth)) & np.array(zs, dtype=np.int64)[:, None]
    signs = 1 - 2 * (np.bitwise_count(tail) & 1).astype(np.int8)
    return np.array(heads, dtype=np.int64), tuple(levels), leaves, y_phases, signs


def _pauli_expectations(rows: np.ndarray, stack: tuple, n: int, sums, parts: np.ndarray) -> list:
    """expectation of each of a _layout_run of Pauli sums on each element of
    a stack, from the part rows of its own states and without building any
    sum's matrix. rows, of shape (len(sums) * count, len(parts), 2^n), holds
    sum i's states at i * count + e, row p of each being rho[j, j ^ parts[p]],
    j ascending, and parts holds every X part of the sums' terms.

    The only nonzero entries of a term P with masks (f, z) and phase c are
    <j ^ f|P|j> = c * (-1)^popcount(j & z), so Tr[rho * P] is
    c * sum_j rho[j, j ^ f] * (-1)^popcount(j & z): each term reads its
    part's row, folded by _term_traces, one call and one plan for the run.
    Each sum's terms are added by fsum, so an element's value is bit for bit
    that of its own call, whatever the terms' order. The masks and
    coefficients are the sums' columns(), so no term is walked here (a built
    witness's are never made). The sums are checked in order, each before
    its value: its qubit count, shared by the run, then is_hermitian's rule,
    applied to the run's coefficient columns at once.
    """
    if sums[0].n_qubits != n:
        raise DimensionError(f"observable on {sums[0].n_qubits} qubits, state on {n}")
    xs, zs, _ = sums[0].columns()
    if not xs:
        return [_real_part(np.zeros(stack, dtype=complex)) for _ in sums]
    heads, levels, leaves, y_phases, signs = _gather_plan(n, xs, zs)
    # The heads' rows, or None when they are all of rows, in order.
    index = None if len(heads) == len(parts) else parts.searchsorted(heads)
    per_term = _term_traces(rows, index, levels, leaves, signs).reshape(len(sums), -1, len(xs))
    coeffs = np.array([obs.columns()[2] for obs in sums])
    values = []
    for own, coeff, hermitian in zip(per_term, coeffs, _real_coefficients(coeffs)):
        if not hermitian:
            raise ValidationError("observable has non-real Pauli coefficients")
        # Each term's coefficient times the phase of its Y letters, exactly.
        phases = coeff * y_phases
        # Each element's products in a call of their own shape, as alone.
        traces = np.array([_fsum(row * phases) for row in own], dtype=complex)
        values.append(_real_part(traces.reshape(stack)))
    return values


def _fsum(values: np.ndarray) -> complex:
    """The correctly rounded sum of complex values."""
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def _term_traces(rows: np.ndarray, index, levels, leaves: np.ndarray, signs: np.ndarray):
    """sum_j rows[:, p_t, j] * (-1)^popcount(j & z_t) of each term t of a
    _gather_plan, for part rows of shape (count, parts, 2^n), where index
    gives the row p of each of the plan's heads (None: head p is row p);
    shape (count, terms), complex.

    A term's trace is its part row folded k levels by its own Z bits, top
    bit first, then the row sum of the signed remainder of 2^(n - k)
    entries. A fold halves a row into its first and second halves, lo and
    hi, and keeps lo + hi where the bit is 0 and lo - hi where it is 1.
    Terms that share an X part and their Z masks' top l bits share their
    first l folds, so a GHZ witness's 2^(n-1) + 1 terms on 2 parts cost
    about k adds per entry of a part row, not one per term, and a sum
    whose X parts are all distinct (k = 0) is only signed and summed. The
    remainders are taken a block at a time, a block holding at most
    _GATHER_ELEMENTS entries over all elements and at least one term.
    """
    nodes = rows
    for parents, flips in levels:
        nodes, index = _fold(nodes, parents if index is None else index[parents], flips), None
    index = leaves if index is None else index[leaves]
    count, dim = len(nodes), nodes.shape[-1]
    per_term = np.empty((count, len(index)), dtype=complex)
    step = max(1, _GATHER_ELEMENTS // (dim * max(1, count)))
    for start in range(0, len(index), step):
        block = slice(start, start + step)
        # take copies, so signing the terms' rows never writes rows.
        signed = np.take(nodes, index[block], axis=1)
        # Each float64 half times +-1, as a negation does: a complex times
        # (-1+0j) adds a 0.0 * x term, which can turn a -0.0 into +0.0.
        halves = signed.view(np.float64).reshape(*signed.shape, signed.itemsize // 8)
        halves *= signs[block, :, None]
        # Sums of C-ordered rows: numpy adds each row pairwise, in the same
        # order whatever the number of rows, where a strided row would be
        # added in sequence.
        per_term[:, block] = signed.reshape(-1, dim).sum(axis=1).reshape(signed.shape[:-1])
        del signed, halves  # the next block's take is the only one held
    return per_term


def _fold(nodes: np.ndarray, parents: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """One fold level of _term_traces: lo + flips * hi of each row parents
    of nodes, (count, rows, 2 * half), lo and hi being the row's halves;
    shape (count, len(parents), half).

    A complex row's halves are the halves of its float64 view, so a fold is
    one exact product by +-1 and one add per real number, and adding -hi is
    bit for bit subtracting hi.
    """
    halves = np.take(nodes.view(np.float64), parents, axis=1)
    width = halves.shape[-1] >> 1
    folded = halves[..., width:] * flips
    folded += halves[..., :width]
    return folded.view(nodes.dtype)


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
        sums = [_as_sum(obs)]
        parts = _read_parts(sums, n)
        rows = _part_rows(rho, n, parts)
        return _pauli_expectations(rows, rho.shape[:-2], n, sums, parts)[0]
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
