"""Numerical verification suites behind the CLI `verify` command.

Each suite checks one family of claims and reports a pass/fail per
invariant together with the worst residual seen. `channel`, `recursion` and
`oracle` replay their claims on the dense simulator; `psd` and `biseparable`
read every spectrum off the syndrome basis (`syndrome_spectrum`) and every
Schmidt weight off a GF(2) cut rank, so they build no dense matrix.
Every witness comes from this module's `build_modified_witness`. A witness
is affine in the sharpness, W(λ) = (1 - λ)·W(0) + λ·W(1): `biseparable`
checks that form on built witnesses, and `oracle` evaluates only W(0) and
W(1), on the state each schedule's last observer sees, and combines their
values. The oracle's chains start from each family's closed-form entries,
so it builds no density matrix of a family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import full_sequence_report, witness_value, z_factor
from .densesim import (
    _last_observer_values,
    channel_closed_form,
    expectation,
    luders_update,
    observer_states,
)
from .errors import ValidationError
from .pauli import PAULI_MATRICES, PauliString
from .states import StateFamily, _reduce, stabilizer_generators, syndrome_spectrum
from .witness import build_modified_witness

SUITE_NAMES = ("channel", "recursion", "psd", "biseparable", "oracle")

# Random density matrices of the channel suite, random schedules of the
# recursion and oracle suites.
_CHANNEL_TRIALS = 1000
_RECURSION_SCHEDULES = 100
_ORACLE_SCHEDULES = 200


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    residual: float
    detail: str = ""


def _complex_stack(parts: np.ndarray) -> np.ndarray:
    """Complex matrices from Gaussian parts (..., 2, d, d): real parts drawn
    first, then imaginary."""
    g = np.empty(parts.shape[:-3] + parts.shape[-2:], dtype=complex)
    g.real = parts[..., 0, :, :]
    g.imag = parts[..., 1, :, :]
    return g


def _random_densities(parts: np.ndarray) -> np.ndarray:
    """The density matrix g g^dagger / Tr of each complex Gaussian g in parts."""
    g = _complex_stack(parts)
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= rho.trace(axis1=-2, axis2=-1)[..., None, None]
    return rho


def verify_channel(seed: int) -> list[CheckResult]:
    """Update rule vs its three-term closed form, trace, positivity, unitality.

    The trials are drawn in order, each straight into the stack of its qubit
    count (np.empty touches no page that no trial fills), and are evaluated
    one (qubit count, target) group at a time; one stacked Cholesky decides
    each group's positivity.
    """
    rng = np.random.default_rng(seed)
    parts = {n: np.empty((_CHANNEL_TRIALS, 2, 1 << n, 1 << n)) for n in range(1, 5)}
    drawn = {n: [] for n in parts}  # (sharpness, target) of each trial
    for _ in range(_CHANNEL_TRIALS):
        n = int(rng.integers(1, 5))
        rng.standard_normal(out=parts[n][len(drawn[n])])
        drawn[n].append((rng.random(), int(rng.integers(n))))
    worst_gap = 0.0
    worst_trace = 0.0
    lowest_eigenvalue = 0.0
    for n, trials in drawn.items():
        lams, targets = np.array(trials).T
        for target in range(n):
            group = targets == target
            rho = _random_densities(parts[n][: len(trials)][group])
            updated = luders_update(rho, lams[group], target)
            closed = channel_closed_form(rho, lams[group], target)
            trace = updated.trace(axis1=-2, axis2=-1).real
            worst_gap = max(worst_gap, float(np.abs(updated - closed).max()))
            worst_trace = max(worst_trace, float(np.abs(trace - 1.0).max()))
            lowest_eigenvalue = min(lowest_eigenvalue, _negative_part(updated))
    unital_gap = 0.0
    unital_sharpnesses = np.array([0.0, 0.4, 1.0])
    for n in (1, 3):
        maximally_mixed = np.eye(1 << n, dtype=complex) / (1 << n)
        copies = np.broadcast_to(maximally_mixed, (len(unital_sharpnesses), 1 << n, 1 << n))
        out = luders_update(copies, unital_sharpnesses)
        unital_gap = max(unital_gap, float(np.max(np.abs(out - maximally_mixed))))
    return [
        CheckResult(
            "channel",
            "sqrt-effect update equals closed three-term form",
            worst_gap < 1e-12,
            worst_gap,
            f"{_CHANNEL_TRIALS} random density matrices, up to 4 qubits",
        ),
        CheckResult("channel", "trace preserved", worst_trace < 1e-12, worst_trace),
        CheckResult(
            "channel",
            "positivity preserved",
            lowest_eigenvalue >= -1e-10,
            abs(min(lowest_eigenvalue, 0.0)),
            "smallest eigenvalue across outputs",
        ),
        CheckResult("channel", "maximally mixed state is fixed", unital_gap < 1e-12, unital_gap),
    ]


def _negative_part(stack: np.ndarray) -> float:
    """min(smallest eigenvalue, 0) over a stack of Hermitian matrices.

    One stacked Cholesky succeeds only when every matrix is positive
    definite, up to rounding, and the part is then 0; only a stack that it
    fails on pays for eigvalsh.
    """
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return min(float(np.linalg.eigvalsh(stack)[..., 0].min()), 0.0)
    return 0.0


def verify_recursion(seed: int) -> list[CheckResult]:
    """Correlator decay factors, including which product index is correct.

    The schedules are drawn in order, each straight into the stacks of its
    qubit count, and evaluated one qubit count at a time: one chain of five
    stacked steps, and one expectation per observable kind against all six
    states, so each random observable is checked for Hermiticity once.
    """
    rng = np.random.default_rng(seed)
    # Per qubit count: the sharpnesses, the state's parts, the observable's parts.
    stacks = {}
    for n in range(3, 6):
        shapes = ((5,), (2, 1 << n, 1 << n), (2, 1 << (n - 1), 1 << (n - 1)))
        stacks[n] = [np.empty((_RECURSION_SCHEDULES, *shape)) for shape in shapes]
    drawn = dict.fromkeys(stacks, 0)
    for _ in range(_RECURSION_SCHEDULES):
        n = int(rng.integers(3, 6))
        lambdas, state_parts, observable_parts = stacks[n]
        lambdas[drawn[n]] = rng.uniform(size=5)
        rng.standard_normal(out=state_parts[drawn[n]])
        rng.standard_normal(out=observable_parts[drawn[n]])
        drawn[n] += 1
    worst_z = 0.0
    worst_x = 0.0
    printed_index_gap = 0.0
    for n, count in drawn.items():
        if not count:
            continue
        lambdas, state_parts, observable_parts = (stack[:count] for stack in stacks[n])
        rho = _random_densities(state_parts)
        g = _complex_stack(observable_parts)
        a = g + g.conj().swapaxes(-1, -2)
        # rho and the states after 1..5 observers: rho is validated once.
        chain = np.empty((6, *rho.shape), dtype=rho.dtype)
        for k, state in enumerate(observer_states(rho, [*lambdas.T, 0.0])):
            chain[k] = state
        values_z = expectation(chain, np.kron(a, PAULI_MATRICES["Z"]))
        values_x = expectation(chain, np.kron(a, PAULI_MATRICES["X"]))
        base_z, measured_z = values_z[0], values_z[1:]
        # factors[j] is the decay product over the first j observers, j = 0..5.
        factors = np.array([[z_factor(row[:j]) for row in lambdas] for j in range(6)])
        # measured_z[k - 2] is seen by observer k = 2..6, after k - 1 updates.
        worst_z = max(worst_z, float(np.abs(measured_z - factors[1:] * base_z).max()))
        printed = np.abs(measured_z - factors[[2, 3, 4, 5, 5]] * base_z).max()
        printed_index_gap = max(printed_index_gap, float(printed))
        halvings = 0.5 ** np.arange(1, 6)[:, None]
        worst_x = max(worst_x, float(np.abs(values_x[1:] - values_x[0] * halvings).max()))
    return [
        CheckResult(
            "recursion",
            "z-correlator decay product runs over k-1 observers",
            worst_z < 1e-10,
            worst_z,
            f"product index resolved to k-1; printed-k variant misses by {printed_index_gap:.3e}",
        ),
        CheckResult(
            "recursion",
            "x-correlator decays by 1/2 per observer",
            worst_x < 1e-10,
            worst_x,
        ),
    ]


def verify_psd(seed: int) -> list[CheckResult]:
    """Spectra of modified-minus-scaled-original witness differences.

    Each spectrum is read off the syndrome basis of the family's stabilizer
    state, in which every term of a witness is diagonal: the difference
    W(λ) - λ·W(1) has W(λ)'s spectrum less λ times W(1)'s. A term outside
    the stabilizer group fails the family's rows and is named.
    """
    del seed  # deterministic suite; kept for a uniform signature
    allowed_multiples = {"ghz": (0.0, 2.0), "cluster": (0.0, 1.0, 2.0, 3.0)}
    results = []
    for family, multiples in allowed_multiples.items():
        names = (
            f"{family} difference spectrum within allowed multiples of (1-lambda)",
            f"{family} difference operator is positive semidefinite",
        )
        worst_gap = 0.0
        lowest = 0.0
        try:
            for n in (3, 4, 5, 6):
                generators = stabilizer_generators(family, n)
                plain = syndrome_spectrum(build_modified_witness(family, n, 1.0), generators)
                for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                    modified = syndrome_spectrum(build_modified_witness(family, n, lam), generators)
                    spectrum = modified - lam * plain
                    allowed = np.array([m * (1.0 - lam) for m in multiples])
                    gaps = np.min(np.abs(spectrum[:, None] - allowed[None, :]), axis=1)
                    worst_gap = max(worst_gap, float(np.max(gaps)))
                    lowest = min(lowest, float(spectrum.min()))
        except ValidationError as exc:
            results += _failed_rows("psd", names, exc)
            continue
        results.append(
            CheckResult(
                "psd",
                names[0],
                worst_gap < 1e-9,
                worst_gap,
                f"allowed multiples {multiples}, 3..6 qubits",
            )
        )
        results.append(CheckResult("psd", names[1], lowest >= -1e-10, abs(min(lowest, 0.0))))
    return results


def _failed_rows(suite: str, names: tuple[str, ...], exc: ValidationError) -> list[CheckResult]:
    """Rows that fail because their operators are not diagonal in the syndrome
    basis. No spectrum exists to measure, so the residual reads 1.0, as in
    the oracle's yes/no row."""
    return [CheckResult(suite, name, False, 1.0, str(exc)) for name in names]


def _schmidt_weight(generators: list[PauliString], cut: int) -> float:
    """The largest squared Schmidt coefficient of the generators' state across
    the cut, given as the mask of the qubits on one side (qubit 1 the most
    significant bit).

    It is 2^-r with r = rank_GF2(generators restricted to the side) - |side|,
    the entanglement of a stabilizer state across a cut (Fattal et al.,
    quant-ph/0406168): the reduced state is maximally mixed on 2^r states.
    """
    n = generators[0].n_qubits
    rows: dict[int, tuple[int, int]] = {}  # leading bit -> echelon row, no subset
    for g in generators:
        vector, _ = _reduce(rows, (g.x_mask & cut) << n | (g.z_mask & cut), 0)
        if vector:
            rows[vector.bit_length() - 1] = vector, 0
    return 2.0 ** -(len(rows) - cut.bit_count())


def verify_biseparable(seed: int) -> list[CheckResult]:
    """A proof that every witness is non-negative on every biseparable state.

    With psi the family's state and rho = |psi><psi|, on any biseparable sigma:
    <W(lambda)> = (1 - lambda) <W(0)> + lambda <W(1)>, as W is affine in
    lambda; <W(0)> >= low0 = lambda_min(W(0)); and <W(1)> >= 1 + low1 -
    2 <psi|sigma|psi> >= 1 + low1 - 2w, where low1 = lambda_min(W(1) - I +
    2 rho) and w, the largest squared Schmidt coefficient of psi over all
    cuts, bounds <psi|sigma|psi>. So min(low0, low1 + 1 - 2w), less the
    operator norm of the built W's departure from that affine form at
    lambda = 0.3 and 0.7, bounds every <W(lambda)> from below, for every
    lambda in [0, 1].

    Every quantity is read off the syndrome basis: each W is diagonal there,
    rho is the indicator of syndrome 0, and the departure's norm is its
    largest entry. w comes from GF(2) cut ranks, over the 2^(n-1) - 1 cuts
    that put qubit 1 on the masked side.
    """
    del seed  # deterministic suite; kept for a uniform signature
    name = "{} witnesses non-negative on every biseparable state"
    results = []
    for family in ("ghz", "cluster"):
        bound = np.inf
        try:
            for n in (3, 4, 5, 6):
                generators = stabilizer_generators(family, n)
                w0, w1, w3, w7 = (
                    syndrome_spectrum(build_modified_witness(family, n, lam), generators)
                    for lam in (0.0, 1.0, 0.3, 0.7)
                )
                low0 = w0.min()
                shifted = w1 - 1.0
                shifted[0] += 2.0  # 2|psi><psi|: psi is syndrome 0
                low1 = shifted.min()
                top = 1 << (n - 1)
                weight = max(_schmidt_weight(generators, top | rest) for rest in range(top - 1))
                departure = max(
                    np.abs(w - ((1.0 - lam) * w0 + lam * w1)).max()
                    for lam, w in ((0.3, w3), (0.7, w7))
                )
                bound = min(bound, min(low0, low1 + 1.0 - 2.0 * weight) - departure)
        except ValidationError as exc:
            results += _failed_rows("biseparable", (name.format(family),), exc)
            continue
        results.append(
            CheckResult(
                "biseparable",
                name.format(family),
                bool(bound >= -1e-10),
                abs(min(float(bound), 0.0)),
                "proven: W(0) >= 0, W(1) >= I - 2|psi><psi|, Schmidt weight <= 1/2 "
                "on every cut; 3..6 qubits, every lambda in [0, 1]",
            )
        )
    return results


def verify_oracle(seed: int) -> list[CheckResult]:
    """Closed forms vs dense simulation.

    The random schedules are drawn in order. For each qubit count and family,
    one chain runs every schedule drawn at that count as a row from the
    family's start state, longest schedule first, in place, and meets W(0)
    and W(1) on the state each row's last observer sees: the value at the
    last sharpness λ is (1 - λ)·<W(0)> + λ·<W(1)>. The mixed grid runs as one
    more chain, with each prefix of observers 1..4 of each grid point's
    schedule as its own row.
    """
    rng = np.random.default_rng(seed)
    worst = {"ghz": 0.0, "cluster": 0.0}
    # At p1 = 1, alpha = 1/2 the mixed family's weight must be exactly 1.
    unit_weight = StateFamily("mixed", 3, alpha=0.5).x_string_expectation
    formulas_identical = True
    drawn = {n: [] for n in range(3, 7)}  # n -> [(sharpnesses, closed-form value)]
    for index in range(_ORACLE_SCHEDULES):
        n = 3 + index % 4
        k = int(rng.integers(1, 7))
        lambdas = rng.uniform(size=k)
        analytic = witness_value(k, lambdas)
        if witness_value(k, lambdas, unit_weight) != analytic:
            formulas_identical = False
        drawn[n].append((lambdas, analytic))
    for n, schedules in drawn.items():
        last = np.array([lambdas[-1] for lambdas, _ in schedules])
        analytic = np.array([value for _, value in schedules])
        for family in worst:
            start = StateFamily(family, n)
            witnesses = [build_modified_witness(family, n, lam) for lam in (0, 1)]
            rows = [(start, lambdas) for lambdas, _ in schedules]
            v0, v1 = _last_observer_values(rows, witnesses)
            dense = (1.0 - last) * v0 + last * v1
            worst[family] = max(worst[family], float(np.abs(dense - analytic).max()))

    worst_mixed = 0.0
    signs_agree = True
    mixed = [
        StateFamily("mixed", 3, alpha=alpha, p1=p1, p2=(1 - p1) / 2, p3=(1 - p1) / 2)
        for p1 in (0.5, 0.8, 1.0)
        for alpha in (0.1, 0.25, 0.5)
    ]
    (witness_family,) = {family.witness_family for family in mixed}
    witnesses = [build_modified_witness(witness_family, 3, lam) for lam in (0, 1)]
    lambdas = np.array([rng.uniform(size=4) for _ in mixed])
    reports = [full_sequence_report(family, lams) for family, lams in zip(mixed, lambdas)]
    # Observers 1..4 of each grid point: one row per prefix of its schedule.
    rows = [(family, lams[:k]) for family, lams in zip(mixed, lambdas) for k in range(1, 5)]
    v0, v1 = _last_observer_values(rows, witnesses)
    lam = lambdas.ravel()  # each row's last sharpness, in the rows' order
    values = (1.0 - lam) * v0 + lam * v1
    analytic = [step.witness_value for report in reports for step in report]
    for dense, expected in zip(values.tolist(), analytic):
        worst_mixed = max(worst_mixed, abs(dense - expected))
        if (expected < 0) != (dense < 0) and abs(expected) > 1e-9:
            signs_agree = False

    return [
        CheckResult(
            "oracle",
            "ghz closed form matches dense simulation",
            worst["ghz"] < 1e-9,
            worst["ghz"],
            f"{_ORACLE_SCHEDULES} random schedules, 3..6 qubits",
        ),
        CheckResult(
            "oracle",
            "cluster closed form matches dense simulation",
            worst["cluster"] < 1e-9,
            worst["cluster"],
            f"{_ORACLE_SCHEDULES} random schedules, 3..6 qubits",
        ),
        CheckResult(
            "oracle",
            "ghz and cluster formulas are the same function",
            formulas_identical,
            0.0 if formulas_identical else 1.0,
            "checked via exact equality at p1=1, alpha=1/2",
        ),
        CheckResult(
            "oracle",
            "mixed-family closed form matches dense simulation",
            worst_mixed < 1e-9 and signs_agree,
            worst_mixed,
            "grid p1 in (0.5, 0.8, 1), alpha in (0.1, 0.25, 0.5), observers 1..4",
        ),
    ]


def run_suite(name: str, seed: int) -> list[CheckResult]:
    """The checks of the suite of that name. The suite's function is looked
    up when called, so a wrapper installed on it since import is the one run."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown verification suite {name!r}")
    return globals()[f"verify_{name}"](seed)
