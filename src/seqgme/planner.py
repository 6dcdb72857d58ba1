"""Sharpness schedules that let every observer in a sequence detect.

Each lambda_k is placed a factor (1+epsilon) above the detection threshold
implied by its predecessors, and its witness value, by the closed form that
`run` prints, must be negative: PrecisionError where (1+epsilon) rounds
away. Generation stops once the next value would leave (0, 1), which is
the point where no admissible sharpness can detect anymore.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .analytic import _witness_values, loss_step
from .errors import PrecisionError

DEFAULT_EPSILON = 0.05
DEFAULT_CAP = 64

# Below this lambda_1 the second-step threshold scales like lambda_1^2 and
# quickly leaves the range of double precision.
_FEASIBILITY_FLOOR = 1e-120
# Relative width at which largest_sharpness_for stops bisecting.
_BISECTION_TOL = 1e-9


@dataclass(frozen=True)
class SharpnessSchedule:
    """Generated sharpness sequence; `terminated` means the next value left (0,1)."""

    lambda_1: float
    epsilon: float
    values: tuple[float, ...]
    terminated: bool
    weight: float = 1.0


def generate_schedule(
    lambda_1: float, epsilon: float, max_k: int, weight: float = 1.0
) -> SharpnessSchedule:
    """Schedule whose observers all detect on a state with initial <X^N> = weight.

    `weight` is StateFamily.x_string_expectation: 1 for GHZ and cluster
    states, 2 p1 sqrt(alpha(1-alpha)) for the generalized and mixed GHZ
    states, whose detection thresholds are 1/weight times higher.
    """
    if not 0.0 < lambda_1 < 1.0:
        raise ValueError(f"lambda_1 {lambda_1} outside (0, 1)")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon {epsilon} must be finite and positive")
    if not 0.0 < weight <= 1.0:
        raise ValueError(f"weight {weight} outside (0, 1]")
    if max_k < 1:
        raise ValueError(f"max_k {max_k} must be >= 1")
    scale = 1.0 / weight
    values = [lambda_1]
    loss = loss_step(lambda_1, 0.0)
    terminated = False
    for k in range(2, max_k + 1):
        lam = (1.0 + epsilon) * scale * 2.0 ** (k - 1) * loss
        if lam >= 1.0:
            terminated = True
            break
        if lam <= 0.0:
            raise PrecisionError(
                f"sharpness underflowed to {lam} at step {k}; lambda_1 too small"
            )
        values.append(lam)
        loss = loss_step(lam, loss)
    for k, value in enumerate(_witness_values(values, weight), start=1):
        if not value < 0.0:
            raise PrecisionError(f"planned observer {k} would not detect at epsilon={epsilon}")
    return SharpnessSchedule(lambda_1, epsilon, tuple(values), terminated, weight)


def max_detections(lambda_1: float, epsilon: float, cap: int = DEFAULT_CAP) -> int:
    """How many consecutive observers detect when starting at lambda_1."""
    return len(generate_schedule(lambda_1, epsilon, cap).values)


class PlanResult(NamedTuple):
    lambda_1: float
    bracket_low: float
    bracket_high: float
    detections: int


def largest_sharpness_for(n: int, epsilon: float) -> PlanResult:
    """About the largest lambda_1 whose schedule reaches n detections, by bisection.

    The returned value is the low end of the final bracket (guaranteed to
    reach n); the high end is the smallest probed value that failed, at most
    _BISECTION_TOL * low above it, so the result is accurate relative to its
    size. When every admissible lambda_1 works the bracket degenerates to the
    upper end.
    """
    if n < 1:
        raise ValueError(f"n {n} must be >= 1")

    def reaches(lam1: float) -> bool:
        return max_detections(lam1, epsilon, cap=n) >= n

    high = 1.0 - _BISECTION_TOL
    if reaches(high):
        return PlanResult(high, high, 1.0, n)
    low = 0.5
    while not reaches(low):
        high = low
        low /= 2.0
        if low < _FEASIBILITY_FLOOR:
            raise PrecisionError(
                f"no lambda_1 above {_FEASIBILITY_FLOOR} reaches {n} detections "
                f"at double precision (epsilon={epsilon})"
            )
    while high - low > _BISECTION_TOL * low:
        mid = (low + high) / 2.0
        if reaches(mid):
            low = mid
        else:
            high = mid
    return PlanResult(low, low, high, n)
