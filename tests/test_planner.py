"""Schedule generation, detection counting, and the sharpness search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgme.analytic import full_sequence_report, witness_value, z_loss
from seqgme.errors import PrecisionError
from seqgme.densesim import expectation, observer_states
from seqgme.planner import (
    PlanResult,
    SharpnessSchedule,
    generate_schedule,
    largest_sharpness_for,
    max_detections,
)
from seqgme.states import StateFamily
from seqgme.witness import build_modified_ghz_witness


def detection_threshold(k, prefix, weight=1.0):
    """lambda_k above which observer k detects: 2^(k-1) z_loss(lambda_<k) / weight."""
    return 2.0 ** (k - 1) * z_loss(prefix[: k - 1]) / weight


def mixed_weight(p1, alpha):
    return 2.0 * p1 * math.sqrt(alpha * (1.0 - alpha))


def test_schedule_second_value_frozen():
    schedule = generate_schedule(0.6, 0.1, max_k=2)
    assert schedule.values[0] == 0.6
    assert schedule.values[1] == pytest.approx(0.22, abs=1e-12)


def test_schedule_values_stay_in_open_interval():
    for lam1 in (0.9, 0.5, 0.1, 0.01):
        schedule = generate_schedule(lam1, 0.05, max_k=32)
        assert all(0.0 < lam < 1.0 for lam in schedule.values)


def test_schedule_detects_at_every_step():
    for lam1 in (0.5, 0.05, 0.001):
        schedule = generate_schedule(lam1, 0.05, max_k=16)
        for k in range(1, len(schedule.values) + 1):
            assert witness_value(k, schedule.values) < 0.0


def test_schedule_exceeds_threshold_strictly():
    for lam1, eps in ((0.3, 0.05), (0.02, 0.5)):
        schedule = generate_schedule(lam1, eps, max_k=16)
        values = list(schedule.values)
        for k in range(2, len(values) + 1):
            rhs = detection_threshold(k, values[: k - 1])
            assert values[k - 1] > rhs
            assert values[k - 1] == pytest.approx((1 + eps) * rhs, rel=1e-12)


def test_schedule_terminates_on_aggressive_start():
    schedule = generate_schedule(0.999999, 10.0, max_k=8)
    assert schedule.terminated
    assert len(schedule.values) == 1


def test_ratio_between_consecutive_values_exceeds_two():
    for lam1 in (0.4, 0.1, 0.01, 0.001):
        for eps in (0.05, 0.2):
            values = generate_schedule(lam1, eps, max_k=24).values
            for k in range(3, len(values) + 1):
                assert values[k - 1] / values[k - 2] > 2.0


def test_early_values_can_decrease_then_grow():
    # The first-to-second step is not monotone: small lambda_1 gives
    # lambda_2 ~ lambda_1^2/2, well below lambda_1.
    values = generate_schedule(0.01, 0.05, max_k=4).values
    assert values[1] < values[0]
    assert values[2] > 2 * values[1]


def test_vanishing_start_gives_vanishing_schedule():
    finals = []
    for m in range(2, 7):
        schedule = generate_schedule(10.0**-m, 0.05, max_k=4)
        assert len(schedule.values) == 4
        finals.append(schedule.values[3])
    assert all(b < a for a, b in zip(finals, finals[1:]))
    assert finals[-1] < 1e-9


def test_max_detections_basics_and_monotonicity():
    assert max_detections(0.9999, 0.05) >= 1
    counts = [max_detections(lam1, 0.05) for lam1 in (0.5, 0.1, 0.01, 0.001)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_min_sharpness_trivial_single_observer():
    result = largest_sharpness_for(1, 0.05)
    assert result.bracket_high == 1.0
    assert result.lambda_1 == result.bracket_low
    assert max_detections(result.lambda_1, 0.05) >= 1


def test_min_sharpness_two_observer_boundary():
    # Closed form: the second value hits 1 when (1+eps)(1 - sqrt(1-l^2)) = 1.
    eps = 0.1
    boundary = np.sqrt(1 - (1 - 1 / (1 + eps)) ** 2)
    result = largest_sharpness_for(2, eps)
    assert result.bracket_low < boundary < result.bracket_high + 2e-9
    assert result.bracket_high - result.bracket_low <= 1e-9
    assert max_detections(result.lambda_1, eps) >= 2


@pytest.mark.parametrize("n", list(range(1, 9)) + [10])
def test_min_sharpness_reaches_requested_depth(n):
    result = largest_sharpness_for(n, 0.05)
    assert isinstance(result, PlanResult)
    assert max_detections(result.lambda_1, 0.05, cap=n) >= n


def test_planner_agrees_with_dense_simulation():
    for n_detect in (2, 4, 6):
        lam1 = largest_sharpness_for(n_detect, 0.05).lambda_1
        values = generate_schedule(lam1, 0.05, max_k=n_detect).values
        assert len(values) == n_detect
        for n_qubits in (3, 4):
            rho = StateFamily("ghz", n_qubits).density_matrix()
            for k, rho_k in enumerate(observer_states(rho, values), start=1):
                dense = expectation(rho_k, build_modified_ghz_witness(n_qubits, values[k - 1]))
                analytic = witness_value(k, values)
                assert dense < 0.0
                assert abs(dense - analytic) < 1e-9


def test_scaled_schedule_reduces_and_orders():
    base = generate_schedule(0.3, 0.05, max_k=12)
    same = generate_schedule(0.3, 0.05, 12, weight=mixed_weight(1.0, 0.5))
    assert same.values == base.values
    assert same.weight == 1.0
    # Heavier scaling must not extend the schedule.
    weaker = generate_schedule(0.3, 0.05, 12, weight=mixed_weight(0.6, 0.25))
    assert len(weaker.values) <= len(base.values)
    for k in range(2, len(weaker.values) + 1):
        assert weaker.values[k - 1] > base.values[k - 1]
        threshold = detection_threshold(k, weaker.values, weaker.weight)
        assert weaker.values[k - 1] == pytest.approx(1.05 * threshold, rel=1e-12)


def test_scaled_schedule_detects_under_mixed_value():
    for p1, alpha in ((0.8, 0.25), (0.5, 0.1), (1.0, 0.5)):
        family = StateFamily("mixed", 3, alpha=alpha, p1=p1, p2=(1 - p1) / 2, p3=(1 - p1) / 2)
        schedule = generate_schedule(0.05, 0.05, 10, weight=family.x_string_expectation)
        reports = full_sequence_report(family, schedule.values)
        assert all(report.witness_value < 0.0 for report in reports)
        assert full_sequence_report("ghz", schedule.values)[0].witness_value < 0.0


def test_schedule_and_planner_input_validation():
    with pytest.raises(ValueError):
        generate_schedule(0.0, 0.05, 4)
    with pytest.raises(ValueError):
        generate_schedule(1.0, 0.05, 4)
    with pytest.raises(ValueError):
        generate_schedule(0.5, 0.0, 4)
    with pytest.raises(ValueError):
        generate_schedule(0.5, 0.05, 0)
    with pytest.raises(ValueError):
        largest_sharpness_for(0, 0.05)
    with pytest.raises(ValueError):
        largest_sharpness_for(3, -1.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_schedule_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        generate_schedule(0.5, epsilon, 4)
    with pytest.raises(ValueError, match="epsilon"):
        largest_sharpness_for(3, epsilon)


@pytest.mark.parametrize("weight", [0.0, -0.5, 1.5, math.nan, math.inf])
def test_schedule_rejects_weight_outside_unit_interval(weight):
    with pytest.raises(ValueError, match="weight"):
        generate_schedule(0.5, 0.05, 4, weight=weight)


def test_schedule_refuses_underflowed_start():
    # lambda_1^2 underflows, so the second threshold is exactly 0 and the
    # generator refuses rather than emitting a non-detecting value.
    with pytest.raises(PrecisionError):
        generate_schedule(1e-170, 0.05, max_k=4)


def test_schedule_is_immutable_record():
    schedule = generate_schedule(0.4, 0.05, max_k=6)
    assert isinstance(schedule, SharpnessSchedule)
    assert schedule.lambda_1 == 0.4
    assert schedule.epsilon == 0.05
    with pytest.raises(AttributeError):
        schedule.values = ()


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-6, 1.0 - 1e-9),
    st.floats(1e-6, 1.0 - 1e-9),
    st.floats(1e-3, 0.5),
)
def test_max_detections_never_increases_as_lambda_1_grows(a, b, epsilon):
    # A larger start raises every later threshold, so the schedule leaves
    # (0, 1) no later; this is why `plan` returns about the largest lambda_1.
    low, high = sorted((a, b))
    assert max_detections(high, epsilon) <= max_detections(low, epsilon)
