"""Repeated-attack exposure implied by group false-positive rates.

Attempts are modeled as independent Bernoulli trials with per-attempt
success probability equal to the FPR; there is no lockout or backoff.
Two views are reported side by side and never mixed: the expected number
of attempts to the first false accept (1/fpr) and the exact geometric
model (smallest attempt count reaching a success probability q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


_EXACT_COUNTS = 2.0**53  # every integer up to here is a float of its own


@dataclass(frozen=True)
class AttackScenario:
    fpr: float
    attempts_per_hour: float = 60.0

    def __post_init__(self):
        if not (0.0 < self.fpr <= 1.0):
            raise ValueError("fpr must lie in (0, 1]")
        if not 0.0 < self.attempts_per_hour < math.inf:
            raise ValueError("attempts_per_hour must be positive and finite")


def success_probability(scenario: AttackScenario, n_attempts: int) -> float:
    """Probability of at least one false accept in n independent attempts."""
    if n_attempts < 0:
        raise ValueError("n_attempts must be nonnegative")
    if n_attempts == 0:
        return 0.0
    if scenario.fpr == 1.0:
        return 1.0
    return -math.expm1(n_attempts * math.log1p(-scenario.fpr))


def expected_time_to_success(scenario: AttackScenario) -> tuple[float, float]:
    """(expected attempts, expected hours) to the first false accept."""
    attempts = 1.0 / scenario.fpr
    return attempts, attempts / scenario.attempts_per_hour


def attempts_for_probability(scenario: AttackScenario, q: float) -> int:
    """Smallest attempt count whose success probability reaches q.

    fpr == 1 is a documented special case: a single attempt always
    succeeds, so 1 is returned for every q. An fpr so small that the
    count passes 2**53 raises ValueError: past it, n and n + 1 are the
    same float and the search below cannot step.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    if scenario.fpr == 1.0:
        return 1
    estimate = math.log1p(-q) / math.log1p(-scenario.fpr)
    if not estimate <= _EXACT_COUNTS:
        raise ValueError(
            f"fpr {scenario.fpr!r} is too small: reaching probability {q!r} takes more "
            "than 2**53 attempts, which a float cannot count exactly"
        )
    n = max(1, math.ceil(estimate))
    # guard the ceil against last-ulp drift so the inverse property is exact
    while n > 1 and success_probability(scenario, n - 1) >= q:
        n -= 1
    while success_probability(scenario, n) < q:
        n += 1
    return n


def exposure(
    fprs: np.ndarray,
    attempts_per_hour: float = 60.0,
    target_probability: float = 0.5,
) -> np.ndarray:
    """Attack exposure of every FPR in ``fprs``, as a read-only ``(3,) + fprs.shape`` array.

    The three planes hold the expected attempts and the expected hours to
    the first false accept, and the hours until the success probability
    reaches ``target_probability``. Each distinct FPR is evaluated once by
    the scalar functions above; a zero FPR gets +inf in every plane.
    """
    fprs = np.asarray(fprs, dtype=float)
    distinct, inverse = np.unique(fprs, return_inverse=True)
    times = np.full((3, distinct.size), math.inf)
    for i, fpr in enumerate(distinct.tolist()):
        if fpr == 0.0:
            continue
        scenario = AttackScenario(fpr=fpr, attempts_per_hour=attempts_per_hour)
        attempts, hours = expected_time_to_success(scenario)
        n_q = attempts_for_probability(scenario, target_probability)
        times[:, i] = attempts, hours, n_q / attempts_per_hour
    times = times[:, inverse.reshape(fprs.shape)]
    times.flags.writeable = False
    return times
