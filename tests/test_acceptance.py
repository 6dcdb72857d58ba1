"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines alongside the pytest verdicts. Tolerances are fixed here and not
derived from the code under test.
"""

import numpy as np
import pytest
from biseparable_sampling import biseparable_statevectors
from dense_spectra import (
    all_bipartitions,
    difference_operator,
    eigen_spectrum,
    statevector_action,
    to_matrix,
)

from seqgme.analytic import full_sequence_report, witness_value, z_factor
from seqgme.densesim import (
    channel_closed_form,
    expectation,
    luders_update,
    observer_states,
)
from seqgme.planner import generate_schedule, largest_sharpness_for
from seqgme.states import StateFamily, stabilizer_expectation, stabilizer_generators
from seqgme.witness import (
    build_modified_cluster_witness,
    build_modified_ghz_witness,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _report(label: str, passed: bool, detail: str = "") -> None:
    trailer = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if passed else 'FAIL'}] {label}{trailer}")
    assert passed, f"{label}{trailer}"


def _random_density(rng, n):
    dim = 1 << n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_criterion_1_ghz_witness_baseline():
    worst = 0.0
    for n in range(3, 9):
        expr = build_modified_ghz_witness(n, 1.0)
        dense = expectation(StateFamily("ghz", n).density_matrix(), expr)
        symbolic = stabilizer_expectation(expr, stabilizer_generators("ghz", n))
        worst = max(worst, abs(dense + 1.0), abs(symbolic + 1.0))
    _report(
        "criterion 1: GHZ witness value is -1 for N=3..8, dense and symbolic",
        worst < 1e-12,
        f"max |error| {worst:.3e}",
    )


def test_criterion_2_channel_closed_form():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        rho = _random_density(rng, n)
        lam = float(rng.uniform())
        target = int(rng.integers(n))
        gap = np.max(
            np.abs(luders_update(rho, lam, target) - channel_closed_form(rho, lam, target))
        )
        worst = max(worst, float(gap))
    _report(
        "criterion 2: update rule matches ((2+s)/4, 1/4, (1-s)/4) channel on 1000 states",
        worst < 1e-12,
        f"max entrywise gap {worst:.3e}",
    )


def test_criterion_3_correlator_decay_and_index():
    rng = np.random.default_rng(102)
    worst_resolved = 0.0
    worst_x = 0.0
    printed_index_gap = 0.0  # how badly the printed-k product can miss
    for _ in range(100):
        n = int(rng.integers(3, 6))
        lambdas = rng.uniform(0.2, 1.0, size=5)
        rho = _random_density(rng, n)
        half = 1 << (n - 1)
        g = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        a = g + g.conj().T
        obs_z, obs_x = np.kron(a, SZ), np.kron(a, SX)
        base_z, base_x = expectation(rho, obs_z), expectation(rho, obs_x)
        for k in range(2, 7):
            rho = luders_update(rho, lambdas[k - 2])
            measured = expectation(rho, obs_z)
            worst_resolved = max(
                worst_resolved, abs(measured - z_factor(lambdas[: k - 1]) * base_z)
            )
            printed_index_gap = max(
                printed_index_gap, abs(measured - z_factor(lambdas[:k]) * base_z)
            )
            worst_x = max(
                worst_x, abs(expectation(rho, obs_x) - base_x * 0.5 ** (k - 1))
            )
    _report(
        "criterion 3: decay factors match with z-product index resolved to k-1",
        worst_resolved < 1e-10 and worst_x < 1e-10 and printed_index_gap > 1e-3,
        f"k-1 residual {worst_resolved:.3e}, x residual {worst_x:.3e}; "
        f"a product index of k would miss by up to {printed_index_gap:.3e}",
    )


def test_criterion_4_closed_forms_match_dense():
    rng = np.random.default_rng(103)
    worst = 0.0
    identical = True
    for index in range(200):
        n = 3 + index % 4
        k = int(rng.integers(1, 7))
        lambdas = rng.uniform(size=k)
        analytic = witness_value(k, lambdas)
        if full_sequence_report("cluster", lambdas)[k - 1].witness_value != analytic:
            identical = False
        for kind, build in (
            ("ghz", build_modified_ghz_witness),
            ("cluster", build_modified_cluster_witness),
        ):
            *_, rho_k = observer_states(StateFamily(kind, n).density_matrix(), lambdas)
            dense = expectation(rho_k, build(n, lambdas[k - 1]))
            worst = max(worst, abs(dense - analytic))
    _report(
        "criterion 4: sequence formulas match dense values; GHZ and cluster forms identical",
        worst < 1e-9 and identical,
        f"max |analytic - dense| {worst:.3e} over 200 schedules, N=3..6",
    )


def test_criterion_5_bounded_arbitrary_detection():
    epsilon = 0.05
    slack = np.inf
    for n_detect in range(1, 9):
        lam1 = largest_sharpness_for(n_detect, epsilon).lambda_1
        values = generate_schedule(lam1, epsilon, max_k=n_detect).values
        assert len(values) == n_detect
        for n_qubits in (3, 4):
            rho = StateFamily("ghz", n_qubits).density_matrix()
            for k in range(1, n_detect + 1):
                value = expectation(
                    rho, build_modified_ghz_witness(n_qubits, values[k - 1])
                )
                slack = min(slack, -value)
                assert value < 0.0, f"observer {k} of {n_detect} failed at N={n_qubits}"
                rho = luders_update(rho, values[k - 1])
    finals = []
    for exponent in range(2, 7):
        schedule = generate_schedule(10.0**-exponent, epsilon, max_k=4)
        assert all(witness_value(k, schedule.values) < 0 for k in range(1, 5))
        finals.append(schedule.values[-1])
    vanishing = all(b < a for a, b in zip(finals, finals[1:]))
    _report(
        "criterion 5: planned schedules give n strictly negative observers (n<=8), "
        "and schedules vanish with lambda_1",
        slack > 0.0 and vanishing,
        f"worst dense margin {slack:.3e}; final sharpness at lambda_1=1e-6: {finals[-1]:.3e}",
    )


def test_criterion_6_difference_operator_spectra():
    allowed_multiples = {"ghz": (0.0, 2.0), "cluster": (0.0, 1.0, 2.0, 3.0)}
    worst = 0.0
    for family, multiples in allowed_multiples.items():
        for n in (3, 4, 5, 6):
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                spectrum = eigen_spectrum(to_matrix(difference_operator(family, n, lam)))
                allowed = np.array([m * (1.0 - lam) for m in multiples])
                gaps = np.min(np.abs(spectrum[:, None] - allowed[None, :]), axis=1)
                worst = max(worst, float(np.max(gaps)))
    _report(
        "criterion 6: difference-operator spectra confined to the allowed values",
        worst < 1e-9,
        f"max distance to allowed set {worst:.3e}",
    )


def test_criterion_7_biseparable_nonnegativity():
    rng = np.random.default_rng(104)
    samples = 10000
    minimum = np.inf
    for build in (build_modified_ghz_witness, build_modified_cluster_witness):
        for n in (3, 4):
            witnesses = [to_matrix(build(n, lam)) for lam in (0.0, 0.3, 0.7, 1.0)]
            for part in all_bipartitions(n):
                batch = biseparable_statevectors(n, part, samples, rng)
                for w in witnesses:
                    values = np.einsum("bi,ij,bj->b", batch.conj(), w, batch).real
                    minimum = min(minimum, float(values.min()))
    _report(
        "criterion 7: witnesses non-negative on 10^4 biseparable samples per bipartition",
        minimum >= -1e-10,
        f"minimum sampled expectation {minimum:.3e}",
    )


def test_criterion_8_mixed_family_condition():
    rng = np.random.default_rng(105)
    worst = 0.0
    signs_agree = True
    for p1 in (0.5, 0.8, 1.0):
        for alpha in (0.1, 0.25, 0.5):
            family = StateFamily(
                "mixed", 3, alpha=alpha, p1=p1, p2=(1 - p1) / 2, p3=(1 - p1) / 2
            )
            lambdas = rng.uniform(size=4)
            reports = full_sequence_report(family, lambdas)
            rho = family.density_matrix()
            for k in range(1, 5):
                analytic = reports[k - 1].witness_value
                dense = expectation(rho, build_modified_ghz_witness(3, lambdas[k - 1]))
                worst = max(worst, abs(analytic - dense))
                if (analytic < 0) != (dense < 0) and abs(analytic) > 1e-9:
                    signs_agree = False
                rho = luders_update(rho, lambdas[k - 1])
    exact_reduction = True
    half = StateFamily("mixed", 3, alpha=0.5)  # p1 = 1
    for _ in range(50):
        k = int(rng.integers(1, 7))
        lambdas = rng.uniform(size=k)
        if full_sequence_report(half, lambdas) != full_sequence_report("ghz", lambdas):
            exact_reduction = False
    base = generate_schedule(0.07, 0.05, max_k=10)
    if generate_schedule(0.07, 0.05, 10, half.x_string_expectation).values != base.values:
        exact_reduction = False
    _report(
        "criterion 8: mixed-family sign condition matches dense; p1=1, alpha=1/2 "
        "reduces exactly to the base formulas",
        worst < 1e-9 and signs_agree and exact_reduction,
        f"max |analytic - dense| {worst:.3e} on the (p1, alpha) grid",
    )


def test_criterion_9_cluster_construction_self_check():
    worst_stabilizer = 0.0
    worst_witness = 0.0
    for n in range(3, 9):
        rho = StateFamily("cluster", n).density_matrix()
        # The state is pure with amplitude 2^(-n/2) on |0..0>, so column 0 gives it.
        psi = rho[:, 0] / np.sqrt(rho[0, 0])
        gens = stabilizer_generators("cluster", n)
        for g in gens:
            worst_stabilizer = max(
                worst_stabilizer, float(np.max(np.abs(statevector_action(g, psi) - psi)))
            )
        expr = build_modified_cluster_witness(n, 1.0)
        worst_witness = max(
            worst_witness,
            abs(expectation(rho, expr) + 1.0),
            abs(stabilizer_expectation(expr, gens) + 1.0),
        )
    _report(
        "criterion 9: cluster generators fix the state and the witness value is -1, N=3..8",
        worst_stabilizer < 1e-12 and worst_witness < 1e-12,
        f"stabilizer residual {worst_stabilizer:.3e}, witness error {worst_witness:.3e}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))
