"""Closed-form observer values against the dense simulator and each other."""

from unittest import mock

import numpy as np
import pytest

from seqgme import analytic
from seqgme.analytic import (
    DetectionReport,
    full_sequence_report,
    witness_value,
    z_factor,
    z_loss,
)
from seqgme.densesim import expectation, observer_states
from seqgme.states import StateFamily
from seqgme.witness import (
    build_modified_cluster_witness,
    build_modified_ghz_witness,
    build_modified_witness,
)


def dense_observer_value(kind, n, k, lambdas, p1=1.0, alpha=0.5):
    family = mixed_family(n, p1, alpha) if kind == "mixed" else StateFamily(kind, n)
    build = build_modified_cluster_witness if kind == "cluster" else build_modified_ghz_witness
    *_, rho_k = observer_states(family.density_matrix(), lambdas[:k])
    return expectation(rho_k, build(n, lambdas[k - 1]))


def mixed_family(n, p1, alpha):
    return StateFamily("mixed", n, alpha=alpha, p1=p1, p2=(1 - p1) / 2, p3=(1 - p1) / 2)


def mixed_value(k, lambdas, p1, alpha):
    return full_sequence_report(mixed_family(3, p1, alpha), lambdas[:k])[k - 1].witness_value


def test_first_observer_value_is_minus_sharpness():
    for lam in (0.0, 0.1, 0.5, 1.0):
        assert witness_value(1, [lam]) == pytest.approx(-lam, abs=1e-15)
        for kind in ("ghz", "cluster"):
            assert full_sequence_report(kind, [lam])[0].witness_value == pytest.approx(
                -lam, abs=1e-15
            )


def test_frozen_small_schedule_values():
    assert witness_value(2, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert witness_value(2, [0.6, 1.0]) == pytest.approx(-0.4, abs=1e-12)
    assert witness_value(3, [1.0, 1.0, 1.0]) == pytest.approx(0.5, abs=1e-15)


def test_ghz_value_k2_against_dense():
    assert dense_observer_value("ghz", 3, 2, [0.6, 1.0]) == pytest.approx(-0.4, abs=1e-12)


def test_cluster_and_ghz_formulas_agree():
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        lambdas = rng.uniform(size=k)
        assert full_sequence_report("cluster", lambdas) == full_sequence_report("ghz", lambdas)
        assert full_sequence_report("ghz", lambdas)[k - 1].witness_value == witness_value(
            k, lambdas
        )


def random_family(kind, n, rng):
    if kind in ("ghz", "cluster"):
        return StateFamily(kind, n)
    alpha = float(rng.uniform(0.05, 0.95))
    if kind == "gghz":
        return StateFamily(kind, n, alpha=alpha)
    return mixed_family(n, float(rng.uniform(0.2, 1.0)), alpha)


@pytest.mark.parametrize("kind", ["ghz", "cluster", "gghz", "mixed"])
def test_analytic_matches_dense_over_random_schedules(kind):
    rng = np.random.default_rng(22)
    for n in (3, 4, 5, 6):
        for _ in range(10):
            k = int(rng.integers(1, 7))
            lambdas = rng.uniform(size=k)
            family = random_family(kind, n, rng)
            analytic = full_sequence_report(family, lambdas)[k - 1].witness_value
            *_, rho_k = observer_states(family.density_matrix(), lambdas)
            witness = build_modified_witness(family.witness_family, n, lambdas[k - 1])
            dense = expectation(rho_k, witness)
            assert abs(analytic - dense) < 1e-9


def test_analytic_value_independent_of_n():
    rng = np.random.default_rng(23)
    lambdas = rng.uniform(size=4)
    reference = witness_value(4, lambdas)
    for kind in ("ghz", "cluster"):
        for n in range(3, 9):
            assert dense_observer_value(kind, n, 4, lambdas) == pytest.approx(
                reference, abs=1e-9
            )


def test_mixed_value_reduces_exactly_to_ghz():
    rng = np.random.default_rng(24)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        lambdas = rng.uniform(size=k)
        assert mixed_value(k, lambdas, 1.0, 0.5) == witness_value(k, lambdas)


def test_mixed_first_observer_and_frozen_value():
    for p1, alpha, lam in ((0.5, 0.1, 0.7), (0.8, 0.25, 0.2), (1.0, 0.9, 1.0)):
        expected = -2 * p1 * np.sqrt(alpha * (1 - alpha)) * lam
        assert mixed_value(1, [lam], p1, alpha) == pytest.approx(expected, abs=1e-15)
    frozen = 1 - (1 + np.sqrt(0.75)) / 2 - 0.8 * np.sqrt(0.1875)
    value = mixed_value(2, [0.5, 1.0], 0.8, 0.25)
    assert value == pytest.approx(frozen, abs=1e-12)
    assert value == pytest.approx(-0.27942286340599485, abs=1e-12)
    assert dense_observer_value("mixed", 3, 2, [0.5, 1.0], 0.8, 0.25) == pytest.approx(
        value, abs=1e-9
    )


def test_mixed_matches_dense_on_parameter_grid():
    rng = np.random.default_rng(25)
    for n in (3, 4):
        for p1 in (0.5, 0.8, 1.0):
            for alpha in (0.1, 0.25, 0.5):
                k = int(rng.integers(1, 5))
                lambdas = rng.uniform(size=k)
                analytic = mixed_value(k, lambdas, p1, alpha)
                dense = dense_observer_value("mixed", n, k, lambdas, p1, alpha)
                assert abs(analytic - dense) < 1e-9


def detection_threshold(k, prefix):
    """lambda_k above which observer k detects: 2^(k-1) z_loss(lambda_<k)."""
    return 2.0 ** (k - 1) * z_loss(prefix[: k - 1])


def test_detection_condition_rhs_values():
    assert detection_threshold(1, []) == 0.0
    for lam in (0.1, 0.5, 0.9):
        expected = 1 - np.sqrt(1 - lam * lam)
        assert detection_threshold(2, [lam]) == pytest.approx(expected, abs=1e-12)
        # The witness value vanishes exactly at the threshold.
        assert witness_value(2, [lam, expected]) == pytest.approx(0.0, abs=1e-15)
    # Fully sharp prefix pushes the threshold beyond any admissible sharpness.
    assert detection_threshold(3, [1.0, 1.0]) == pytest.approx(3.0)
    assert witness_value(3, [1.0, 1.0, 1.0]) > 0


def test_detection_sign_matches_threshold_comparison():
    rng = np.random.default_rng(26)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        lambdas = list(rng.uniform(size=k))
        value = witness_value(k, lambdas)
        rhs = detection_threshold(k, lambdas[: k - 1])
        assert (value < 0) == (lambdas[k - 1] > rhs)


def test_value_strictly_decreasing_in_final_sharpness():
    prefix = [0.4, 0.2]
    values = [witness_value(3, prefix + [lam]) for lam in np.linspace(0, 1, 11)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_correlator_decay_factors():
    sharpnesses = (0.6, 0.8, 1.0)
    z = [z_factor(sharpnesses[: k - 1]) for k in range(1, 5)]
    assert z[0] == 1.0
    assert z[1] == pytest.approx((1 + 0.8) / 2)
    assert z[3] == pytest.approx(0.9 * 0.8 * 0.5)
    assert all(b <= a for a, b in zip(z, z[1:]))
    # The x-type factor 1/2^(k-1) is the slope of the value in lambda_k.
    for k in range(1, 5):
        lambdas = [*sharpnesses[: k - 1], 0.0]
        slope = witness_value(k, [*lambdas[:-1], 1.0]) - witness_value(k, lambdas)
        assert slope == pytest.approx(-(0.5 ** (k - 1)), abs=1e-15)
    assert 1.0 - z[3] == pytest.approx(z_loss(sharpnesses), abs=1e-15)


def test_z_loss_stable_for_tiny_sharpness():
    lam = 1e-8
    assert z_loss([lam]) == pytest.approx(lam * lam / 4, rel=1e-10)
    assert 1.0 - z_factor([lam]) == 0.0  # naive route underflows
    assert z_loss([]) == 0.0 and z_factor([]) == 1.0


def test_full_sequence_report_contents():
    single = full_sequence_report("ghz", [0.1])
    assert single == [DetectionReport(1, pytest.approx(-0.1))]
    pair = full_sequence_report("ghz", [1.0, 1.0])
    assert [r.witness_value < 0.0 for r in pair] == [True, False]
    assert pair[1].witness_value == pytest.approx(0.0, abs=1e-15)
    fam = StateFamily("mixed", 3, alpha=0.5, p1=1.0, p2=0.0, p3=0.0)
    mixed = full_sequence_report(fam, [0.3, 0.5])
    base = full_sequence_report("ghz", [0.3, 0.5])
    assert [r.witness_value for r in mixed] == [r.witness_value for r in base]
    cluster = full_sequence_report(StateFamily("cluster", 4), [0.2])
    assert cluster[0].witness_value == pytest.approx(-0.2)
    with pytest.raises(ValueError):
        full_sequence_report("wstate", [0.1])


def test_full_sequence_report_is_one_pass_of_witness_value():
    # Each update is applied once along the schedule, none after the last
    # observer, and every value is bit for bit witness_value's.
    lambdas = np.random.default_rng(24).uniform(size=2000).tolist()
    with mock.patch.object(analytic, "loss_step", wraps=analytic.loss_step) as step:
        reports = full_sequence_report("ghz", lambdas)
    assert step.call_count == len(lambdas) - 1
    assert [r.observer_index for r in reports] == list(range(1, len(lambdas) + 1))
    for k, report in enumerate(reports, start=1):
        assert report.witness_value == witness_value(k, lambdas)
    # Against the formula itself, with z_loss summed afresh for each observer.
    for k in range(1, len(lambdas) + 1, 37):
        expected = z_loss(lambdas[: k - 1]) - lambdas[k - 1] * 0.5 ** (k - 1)
        assert reports[k - 1].witness_value == expected


def test_domain_errors():
    with pytest.raises(ValueError):
        witness_value(1, [1.2])
    with pytest.raises(ValueError):
        witness_value(1, [float("nan")])
    with pytest.raises(ValueError):
        witness_value(3, [0.5, 0.5])
    with pytest.raises(ValueError):
        witness_value(0, [0.5])
    with pytest.raises(ValueError):
        mixed_family(3, 0.0, 0.5)
    with pytest.raises(ValueError):
        mixed_family(3, 0.5, 1.0)
