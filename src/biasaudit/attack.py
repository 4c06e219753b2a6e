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
from typing import Sequence

from .trials import GroupKey


@dataclass(frozen=True)
class AttackScenario:
    fpr: float
    attempts_per_hour: float = 60.0

    def __post_init__(self):
        if not (0.0 < self.fpr <= 1.0):
            raise ValueError("fpr must lie in (0, 1]")
        if not 0.0 < self.attempts_per_hour < math.inf:
            raise ValueError("attempts_per_hour must be positive and finite")


@dataclass(frozen=True)
class GroupExposure:
    """Attack exposure for one group, worst groups sorted first.

    A zero-FPR group is reported as a flagged entry with infinite times
    rather than as an error.
    """

    group: GroupKey
    fpr: float
    expected_attempts: float
    expected_hours: float
    hours_to_probability: float
    zero_fpr: bool = False


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
    succeeds, so 1 is returned for every q.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    if scenario.fpr == 1.0:
        return 1
    n = max(1, math.ceil(math.log1p(-q) / math.log1p(-scenario.fpr)))
    # guard the ceil against last-ulp drift so the inverse property is exact
    while n > 1 and success_probability(scenario, n - 1) >= q:
        n -= 1
    while success_probability(scenario, n) < q:
        n += 1
    return n


def compare_group_exposure(
    groups: Sequence[GroupKey],
    fprs: Sequence[float],
    attempts_per_hour: float = 60.0,
    target_probability: float = 0.5,
) -> list[GroupExposure]:
    """Per-group attack exposure, sorted worst-exposed (largest FPR) first.

    ``fprs[i]`` is the FPR of ``groups[i]``. Ties keep lexicographic
    group order. The exposure ratio between two groups equals the
    inverse ratio of their FPRs.
    """
    entries: list[GroupExposure] = []
    for key, fpr in zip(groups, fprs, strict=True):
        if fpr <= 0.0:
            entries.append(
                GroupExposure(
                    group=key,
                    fpr=fpr,
                    expected_attempts=math.inf,
                    expected_hours=math.inf,
                    hours_to_probability=math.inf,
                    zero_fpr=True,
                )
            )
            continue
        scenario = AttackScenario(fpr=fpr, attempts_per_hour=attempts_per_hour)
        attempts, hours = expected_time_to_success(scenario)
        n_q = attempts_for_probability(scenario, target_probability)
        entries.append(
            GroupExposure(
                group=key,
                fpr=fpr,
                expected_attempts=attempts,
                expected_hours=hours,
                hours_to_probability=n_q / attempts_per_hour,
            )
        )
    entries.sort(key=lambda e: (-e.fpr, e.group))
    return entries
