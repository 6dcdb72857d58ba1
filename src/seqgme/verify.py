"""Numerical verification suites behind the CLI `verify` command.

Each suite replays one family of claims against the dense simulator and
reports a pass/fail per invariant together with the worst residual seen.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .analytic import (
    ghz_witness_value,
    mixed_ghz_witness_value,
    z_factor,
)
from .densesim import (
    all_bipartitions,
    apply_channel_k_times,
    biseparable_statevectors,
    channel_closed_form,
    eigen_spectrum,
    expectation,
    load_density_matrix,
    luders_update,
    save_density_matrix,
)
from .states import make_cluster, make_ghz, make_mixed_ghz
from .witness import (
    build_modified_cluster_witness,
    build_modified_ghz_witness,
    difference_operator,
)

SUITE_NAMES = ("channel", "recursion", "psd", "biseparable", "oracle")

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Biseparable samples evaluated per matmul. Larger blocks run no faster and
# raise peak memory: 1024-row blocks added about 1 MiB to `verify all`'s RSS.
_SAMPLE_BLOCK = 256


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    residual: float
    detail: str = ""


def _random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    dim = 1 << n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def verify_channel(seed: int, trials: int = 1000) -> list[CheckResult]:
    """Update rule vs its three-term closed form, trace, positivity, unitality."""
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_trace = 0.0
    lowest_eigenvalue = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        rho = _random_density(rng, n)
        lam = float(rng.uniform())
        target = int(rng.integers(n))
        updated = luders_update(rho, lam, target)
        closed = channel_closed_form(rho, lam, target)
        worst_gap = max(worst_gap, float(np.max(np.abs(updated - closed))))
        worst_trace = max(worst_trace, abs(float(np.trace(updated).real) - 1.0))
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
            f"{trials} random density matrices, up to 4 qubits",
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
        g = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        a = g + g.conj().T
        obs_z = np.kron(a, _SZ)
        obs_x = np.kron(a, _SX)
        base_z = expectation(rho, obs_z)
        base_x = expectation(rho, obs_x)
        for k in range(2, 7):
            rho = luders_update(rho, lambdas[k - 2])
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


def verify_biseparable(seed: int, samples: int = 10000) -> list[CheckResult]:
    """Witness non-negativity on Haar product states across every bipartition."""
    rng = np.random.default_rng(seed)
    builders = {"ghz": build_modified_ghz_witness, "cluster": build_modified_cluster_witness}
    results = []
    for family, build in builders.items():
        minimum = np.inf
        for n in (3, 4):
            witnesses = [build(n, lam).to_matrix() for lam in (0.0, 0.3, 0.7, 1.0)]
            for part in all_bipartitions(n):
                batch = biseparable_statevectors(n, part, samples, rng)
                for start in range(0, samples, _SAMPLE_BLOCK):
                    rows = batch[start : start + _SAMPLE_BLOCK]
                    bras = rows.conj()
                    for w in witnesses:
                        values = np.einsum("bi,bi->b", bras @ w, rows).real
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


def verify_oracle(seed: int, schedules: int = 200) -> list[CheckResult]:
    """Closed forms vs dense simulation, plus state-file round trip."""
    rng = np.random.default_rng(seed)
    worst = {"ghz": 0.0, "cluster": 0.0}
    formulas_identical = True
    for index in range(schedules):
        n = 3 + index % 4
        k = int(rng.integers(1, 7))
        lambdas = rng.uniform(size=k)
        analytic = ghz_witness_value(k, lambdas)
        if mixed_ghz_witness_value(k, lambdas, 1.0, 0.5) != analytic:
            formulas_identical = False
        for family, make, build in (
            ("ghz", make_ghz, build_modified_ghz_witness),
            ("cluster", make_cluster, build_modified_cluster_witness),
        ):
            rho_k = apply_channel_k_times(make(n), lambdas[: k - 1])
            dense = expectation(rho_k, build(n, lambdas[k - 1]))
            worst[family] = max(worst[family], abs(dense - analytic))

    worst_mixed = 0.0
    signs_agree = True
    for p1 in (0.5, 0.8, 1.0):
        for alpha in (0.1, 0.25, 0.5):
            lambdas = rng.uniform(size=4)
            rho = make_mixed_ghz(3, p1, (1 - p1) / 2, (1 - p1) / 2, alpha)
            for k in range(1, 5):
                analytic = mixed_ghz_witness_value(k, lambdas, p1, alpha)
                rho_k = apply_channel_k_times(rho, lambdas[: k - 1])
                dense = expectation(rho_k, build_modified_ghz_witness(3, lambdas[k - 1]))
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
            f"{schedules} random schedules, 3..6 qubits",
        ),
        CheckResult(
            "oracle",
            "cluster closed form matches dense simulation",
            worst["cluster"] < 1e-9,
            worst["cluster"],
            f"{schedules} random schedules, 3..6 qubits",
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
