"""Numerical verification suites behind the CLI `verify` command.

Each suite replays one family of claims against the dense simulator and
reports a pass/fail per invariant together with the worst residual seen.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .analytic import full_sequence_report, witness_value, z_factor
from .densesim import (
    all_bipartitions,
    biseparable_statevectors,
    channel_closed_form,
    eigen_spectrum,
    expectation,
    load_density_matrix,
    luders_update,
    observer_states,
    save_density_matrix,
)
from .errors import ValidationError
from .pauli import PAULI_MATRICES
from .states import StateFamily
from .witness import build_modified_witness, difference_operator

SUITE_NAMES = ("channel", "recursion", "psd", "biseparable", "oracle")

# Biseparable samples evaluated per matmul. Larger blocks run no faster and
# raise peak memory: 1024-row blocks added about 0.35 MiB to `verify all`'s
# RSS, while 64-row blocks made the biseparable suite about 18% slower.
_SAMPLE_BLOCK = 256
# Largest biseparable sample count per bipartition. Each bipartition's batch is
# made at once: 256 bytes per sample as 4-qubit complex128 rows, so this caps
# the batch at 256 MiB. Making it peaks at about 416 bytes per sample while the
# previous batch is still held, about 700 MiB in all at the cap.
MAX_SAMPLES = 1 << 20
# Random density matrices of the channel suite, random schedules of the oracle suite.
_CHANNEL_TRIALS = 1000
_ORACLE_SCHEDULES = 200


def check_samples(samples: int) -> None:
    """ValueError unless the biseparable sample count lies in 1..MAX_SAMPLES."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"samples must be at most {MAX_SAMPLES}, got {samples}: "
            "each bipartition's batch of samples is held in memory at once"
        )


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    residual: float
    detail: str = ""


def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A (dim, dim) complex Gaussian matrix: real parts drawn first, then imaginary."""
    g = np.empty((dim, dim), dtype=complex)
    g.real = rng.standard_normal((dim, dim))
    g.imag = rng.standard_normal((dim, dim))
    return g


def _random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _complex_gaussian(rng, 1 << n)
    rho = g @ g.conj().T
    return rho / rho.trace()


def verify_channel(seed: int) -> list[CheckResult]:
    """Update rule vs its three-term closed form, trace, positivity, unitality."""
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_trace = 0.0
    lowest_eigenvalue = 0.0
    for _ in range(_CHANNEL_TRIALS):
        n = int(rng.integers(1, 5))
        rho = _random_density(rng, n)
        lam = float(rng.uniform())
        target = int(rng.integers(n))
        updated = luders_update(rho, lam, target)
        closed = channel_closed_form(rho, lam, target)
        worst_gap = max(worst_gap, float(np.abs(updated - closed).max()))
        worst_trace = max(worst_trace, abs(float(updated.trace().real) - 1.0))
        lowest_eigenvalue = min(lowest_eigenvalue, float(np.linalg.eigvalsh(updated)[0]))
    unital_gap = 0.0
    for n in (1, 3):
        maximally_mixed = np.eye(1 << n, dtype=complex) / (1 << n)
        for lam in (0.0, 0.4, 1.0):
            out = luders_update(maximally_mixed, lam)
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


def verify_recursion(seed: int, schedules: int = 100) -> list[CheckResult]:
    """Correlator decay factors, including which product index is correct."""
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    worst_x = 0.0
    printed_index_gap = 0.0
    for _ in range(schedules):
        n = int(rng.integers(3, 6))
        lambdas = rng.uniform(size=5)
        rho = _random_density(rng, n)
        half = 1 << (n - 1)
        g = _complex_gaussian(rng, half)
        a = g + g.conj().T
        obs_z = np.kron(a, PAULI_MATRICES["Z"])
        obs_x = np.kron(a, PAULI_MATRICES["X"])
        base_z = expectation(rho, obs_z)
        base_x = expectation(rho, obs_x)
        # The states after 1..5 observers: rho is validated once for the chain.
        chain = islice(observer_states(rho, [*lambdas, 0.0]), 1, None)
        for k, rho in enumerate(chain, start=2):
            measured_z = expectation(rho, obs_z)
            worst_z = max(worst_z, abs(measured_z - z_factor(lambdas[: k - 1]) * base_z))
            worst_x = max(worst_x, abs(expectation(rho, obs_x) - base_x * 0.5 ** (k - 1)))
            printed_index_gap = max(
                printed_index_gap, abs(measured_z - z_factor(lambdas[:k]) * base_z)
            )
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
    """Spectra of modified-minus-scaled-original witness differences."""
    del seed  # deterministic suite; kept for a uniform signature
    allowed_multiples = {"ghz": (0.0, 2.0), "cluster": (0.0, 1.0, 2.0, 3.0)}
    results = []
    for family, multiples in allowed_multiples.items():
        worst_gap = 0.0
        lowest = 0.0
        for n in (3, 4, 5, 6):
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                expr = difference_operator(family, n, lam)
                if not expr.terms:
                    continue
                spectrum = eigen_spectrum(expr.to_matrix())
                allowed = np.array([m * (1.0 - lam) for m in multiples])
                gaps = np.min(np.abs(spectrum[:, None] - allowed[None, :]), axis=1)
                worst_gap = max(worst_gap, float(np.max(gaps)))
                lowest = min(lowest, float(spectrum[0]))
        results.append(
            CheckResult(
                "psd",
                f"{family} difference spectrum within allowed multiples of (1-lambda)",
                worst_gap < 1e-9,
                worst_gap,
                f"allowed multiples {multiples}, 3..6 qubits",
            )
        )
        results.append(
            CheckResult(
                "psd",
                f"{family} difference operator is positive semidefinite",
                lowest >= -1e-10,
                abs(min(lowest, 0.0)),
            )
        )
    return results


def _stacked_witnesses(family: str, n: int, sharpnesses) -> np.ndarray:
    """The family's witnesses at these sharpnesses, side by side as one real
    (2^n, len(sharpnesses) * 2^n) matrix.

    Every witness of both families is a real symmetric matrix. One with a
    nonzero imaginary entry is refused, not truncated to its real part.
    """
    stacked = np.concatenate(
        [build_modified_witness(family, n, lam).to_matrix() for lam in sharpnesses], axis=1
    )
    if stacked.imag.any():
        raise ValidationError(f"{family} witness on {n} qubits has imaginary entries")
    return np.ascontiguousarray(stacked.real)


def _product_values(rows: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """<psi|W|psi> for each row psi of rows and each real witness W of stacked,
    as a (rows, witnesses) array.

    For a real W, <psi|W|psi> = x^T W x + y^T W y with psi = x + iy, so the
    rows' real and imaginary parts go through one real product with stacked.
    Each witness's block of that product is then weighted by the parts in
    place, and summed by a product with a vector of ones.
    """
    count, dim = rows.shape
    parts = np.concatenate([rows.real, rows.imag])
    images = (parts @ stacked).reshape(2 * count, -1, dim)
    images *= parts[:, None, :]
    sums = (images.reshape(-1, dim) @ np.ones(dim)).reshape(2, count, -1)
    return sums[0] + sums[1]


def verify_biseparable(seed: int, samples: int = 10000) -> list[CheckResult]:
    """Witness non-negativity on Haar product states across every bipartition."""
    check_samples(samples)
    rng = np.random.default_rng(seed)
    results = []
    for family in ("ghz", "cluster"):
        minimum = np.inf
        for n in (3, 4):
            stacked = _stacked_witnesses(family, n, (0.0, 0.3, 0.7, 1.0))
            for part in all_bipartitions(n):
                batch = biseparable_statevectors(n, part, samples, rng)
                for start in range(0, samples, _SAMPLE_BLOCK):
                    values = _product_values(batch[start : start + _SAMPLE_BLOCK], stacked)
                    minimum = min(minimum, float(values.min()))
        results.append(
            CheckResult(
                "biseparable",
                f"{family} witnesses non-negative on biseparable samples",
                minimum >= -1e-10,
                abs(min(minimum, 0.0)),
                f"{samples} samples per bipartition, 3 and 4 qubits, "
                f"sharpness grid (0, 0.3, 0.7, 1); minimum value {minimum:.3e}",
            )
        )
    return results


def verify_oracle(seed: int) -> list[CheckResult]:
    """Closed forms vs dense simulation, plus state-file round trip."""
    rng = np.random.default_rng(seed)
    worst = {"ghz": 0.0, "cluster": 0.0}
    # At p1 = 1, alpha = 1/2 the mixed family's weight must be exactly 1.
    unit_weight = StateFamily("mixed", 3, alpha=0.5).x_string_expectation
    formulas_identical = True
    # Each start state is built once; the channel never writes to its input.
    starts = {
        (family, n): StateFamily(family, n).density_matrix() for family in worst for n in range(3, 7)
    }
    for index in range(_ORACLE_SCHEDULES):
        n = 3 + index % 4
        k = int(rng.integers(1, 7))
        lambdas = rng.uniform(size=k)
        analytic = witness_value(k, lambdas)
        if witness_value(k, lambdas, unit_weight) != analytic:
            formulas_identical = False
        for family in worst:
            *_, rho_k = observer_states(starts[family, n], lambdas[:k])
            dense = expectation(rho_k, build_modified_witness(family, n, lambdas[k - 1]))
            worst[family] = max(worst[family], abs(dense - analytic))

    worst_mixed = 0.0
    signs_agree = True
    for p1 in (0.5, 0.8, 1.0):
        for alpha in (0.1, 0.25, 0.5):
            lambdas = rng.uniform(size=4)
            family = StateFamily(
                "mixed", 3, alpha=alpha, p1=p1, p2=(1 - p1) / 2, p3=(1 - p1) / 2
            )
            reports = full_sequence_report(family, lambdas)
            rhos = observer_states(family.density_matrix(), lambdas)
            for report, lam, rho_k in zip(reports, lambdas, rhos):
                analytic = report.witness_value
                dense = expectation(rho_k, build_modified_witness(family.witness_family, 3, lam))
                worst_mixed = max(worst_mixed, abs(dense - analytic))
                if (analytic < 0) != (dense < 0) and abs(analytic) > 1e-9:
                    signs_agree = False

    rho = _random_density(rng, 3)
    handle, path = tempfile.mkstemp(suffix=".json")
    os.close(handle)
    try:
        save_density_matrix(path, rho)
        round_trip_gap = float(np.max(np.abs(load_density_matrix(path) - rho)))
    finally:
        os.unlink(path)

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
        CheckResult(
            "oracle",
            "density-matrix JSON export/import round trip",
            round_trip_gap == 0.0,
            round_trip_gap,
        ),
    ]


def run_suite(name: str, seed: int, samples: int = 10000) -> list[CheckResult]:
    if name == "channel":
        return verify_channel(seed)
    if name == "recursion":
        return verify_recursion(seed)
    if name == "psd":
        return verify_psd(seed)
    if name == "biseparable":
        return verify_biseparable(seed, samples=samples)
    if name == "oracle":
        return verify_oracle(seed)
    raise ValueError(f"unknown verification suite {name!r}")
