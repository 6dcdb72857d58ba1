"""Closed-form witness values seen by each sequential observer.

After k-1 unsharp updates, z-type correlators carry the product of
(1+sqrt(1-lambda_j^2))/2 over the observers who already acted, and x-type
correlators carry 1/2^(k-1). Everything here follows from those two factors;
the dense simulator is the independent check.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import check_sharpness
from .states import StateFamily


def z_factor(lambdas: Sequence[float]) -> float:
    """Surviving fraction of a z-type correlator after the given updates."""
    out = 1.0
    for lam in map(check_sharpness, lambdas):
        out *= (1.0 + math.sqrt(1.0 - lam * lam)) / 2.0
    return out


def loss_step(lam: float, loss: float) -> float:
    """z_loss after one more update of sharpness lam; lam is not checked."""
    root = math.sqrt(1.0 - lam * lam)
    return loss + (lam * lam / (2.0 * (1.0 + root))) * (1.0 - loss)


def z_loss(lambdas: Sequence[float]) -> float:
    """1 - z_factor, accumulated without cancellation for tiny sharpnesses."""
    loss = 0.0
    for lam in map(check_sharpness, lambdas):
        loss = loss_step(lam, loss)
    return loss


def _witness_values(lambdas: list[float], weight: float) -> list[float]:
    """witness_value(k, lambdas, weight) for every k, z_loss carried from one k to the next."""
    values, loss = [], 0.0
    for k, lam in enumerate(lambdas, start=1):
        if k > 1:
            loss = loss_step(lambdas[k - 2], loss)
        values.append(loss - weight * lam * 0.5 ** (k - 1))
    return values


def witness_value(k: int, lambdas: Sequence[float], weight: float = 1.0) -> float:
    """Witness expectation for observer k, z_loss(lambda_<k) - weight*lambda_k/2^(k-1).

    `weight` is the initial <X^N>, StateFamily.x_string_expectation: 1 for GHZ
    and cluster states, 2 p1 sqrt(alpha(1-alpha)) for the generalized and
    mixed GHZ states. Both witnesses reduce to one x-type correlator plus a
    z-type product with the same decay factors, so this covers every family.
    """
    values = [check_sharpness(lam) for lam in lambdas]
    if k < 1:
        raise ValueError(f"observer index {k} must be >= 1")
    if len(values) < k:
        raise ValueError(f"need {k} sharpness values, got {len(values)}")
    return _witness_values(values[:k], weight)[-1]


@dataclass(frozen=True)
class DetectionReport:
    """One observer's closed-form witness value; negative means GME is detected."""

    observer_index: int
    witness_value: float


def full_sequence_report(family, lambdas: Sequence[float]) -> list[DetectionReport]:
    """Per-observer closed-form witness values along a schedule.

    `family` is a StateFamily or one of the plain labels "ghz" / "cluster".
    """
    values = [check_sharpness(lam) for lam in lambdas]
    if isinstance(family, StateFamily):
        weight = family.x_string_expectation
    elif family in ("ghz", "cluster"):
        weight = 1.0
    else:
        raise ValueError(f"unsupported family {family!r}")
    return [
        DetectionReport(k, value)
        for k, value in enumerate(_witness_values(values, weight), start=1)
    ]
