"""Per-group bias measures: group-to-min difference and group-to-average ratios.

Three measures, usable with any base metric:

* ``g2min_diff``:      b_g - b_m, where b_m is the best (smallest) group value
* ``g2avg_ratio``:     b_g / b_average
* ``g2avg_log_ratio``: -ln(b_g / b_average); positive means better than average

``b_average`` defaults to the pooled-population metric (the vector's
aggregate); ``average_mode="group_mean"`` switches to the unweighted
mean of the group values for sensitivity studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .detection import GroupMetricVector
from .errors import ZeroAggregateError, ZeroGroupValueError
from .trials import GroupKey

G2MIN_DIFF = "g2min_diff"
G2AVG_RATIO = "g2avg_ratio"
G2AVG_LOG_RATIO = "g2avg_log_ratio"
MEASURE_NAMES = (G2MIN_DIFF, G2AVG_RATIO, G2AVG_LOG_RATIO)

ZERO_POLICIES = ("error", "infinity", "smooth")
AVERAGE_MODES = ("pooled", "group_mean")


@dataclass(frozen=True)
class BiasVector:
    """One bias measure evaluated per group, with its reference recorded."""

    measure_name: str
    metric_name: str
    per_group: dict[GroupKey, float]
    reference: str


def _check_policies(zero_policy: str, average_mode: str) -> None:
    if zero_policy not in ZERO_POLICIES:
        raise ValueError(f"zero_policy must be one of {ZERO_POLICIES}, got {zero_policy!r}")
    if average_mode not in AVERAGE_MODES:
        raise ValueError(f"average_mode must be one of {AVERAGE_MODES}, got {average_mode!r}")


def _smooth_rate(counts: tuple[int, int]) -> float:
    """Rate re-formed with half an error count added to both counts."""
    errors, population = counts
    return (errors + 0.5) / (population + 0.5)


def _values_and_average(
    v: GroupMetricVector, zero_policy: str, average_mode: str
) -> tuple[dict[GroupKey, float], float]:
    """Group values and the reference average under the zero policy.

    'smooth' re-forms every rate from its counts when the vector carries
    them; vectors without counts (EER, minCDet) cannot be smoothed and
    fall back to the 'error' behavior on zeros.
    """
    if zero_policy == "smooth" and v.per_group_counts is not None:
        values = {g: _smooth_rate(c) for g, c in v.per_group_counts.items()}
        aggregate = (
            _smooth_rate(v.aggregate_counts)
            if v.aggregate_counts is not None
            else v.aggregate
        )
    else:
        values = dict(v.per_group)
        aggregate = v.aggregate
    if average_mode == "group_mean":
        average = sum(values.values()) / len(values)
    else:
        average = aggregate
    if average <= 0.0:
        raise ZeroAggregateError(_zero_average_message(v, average, average_mode))
    return values, average


def _zero_average_message(v: GroupMetricVector, average: float, average_mode: str) -> str:
    """Why the reference average is zero and, for a counted pooled rate, what to do."""
    message = (
        f"metric {v.metric_name!r}: reference average is {average}, "
        "ratio measures are undefined"
    )
    if v.aggregate_counts is None or average_mode != "pooled":
        return message
    errors, population = v.aggregate_counts
    is_fpr = v.metric_name.startswith("fpr@")
    return (
        f"{message}: {errors:,} of {population:,} pooled "
        f"{'nontarget' if is_fpr else 'target'} trials are errors at this threshold, "
        f"and the data cannot resolve a rate below 1/{population:,}; use a "
        f"{'larger' if is_fpr else 'smaller'} design FPR or zero_policy=smooth"
    )


def g2min_diff(v: GroupMetricVector) -> BiasVector:
    """Distance of each group's metric from the best-performing group's.

    The reference group is the global minimum over the vector's groups;
    ties break to the lexicographically smallest group key. The best
    group's value is exactly 0.
    """
    best_key, best_value = min(v.per_group.items(), key=lambda kv: (kv[1], kv[0]))
    per_group = {g: value - best_value for g, value in v.per_group.items()}
    per_group[best_key] = 0.0
    return BiasVector(
        measure_name=G2MIN_DIFF,
        metric_name=v.metric_name,
        per_group=per_group,
        reference=f"best_group:{best_key.label()}",
    )


def g2avg_ratio(
    v: GroupMetricVector,
    zero_policy: str = "error",
    average_mode: str = "pooled",
) -> BiasVector:
    """Ratio of each group's metric to the average metric value."""
    _check_policies(zero_policy, average_mode)
    values, average = _values_and_average(v, zero_policy, average_mode)
    per_group = {g: value / average for g, value in values.items()}
    return BiasVector(
        measure_name=G2AVG_RATIO,
        metric_name=v.metric_name,
        per_group=per_group,
        reference=f"average:{average_mode}",
    )


def g2avg_log_ratio(
    v: GroupMetricVector,
    zero_policy: str = "error",
    average_mode: str = "pooled",
) -> BiasVector:
    """Negative log of the group-to-average ratio.

    A zero group value makes the log ratio undefined; the zero policy
    decides between a loud error (default), +infinity, or count
    smoothing for rate metrics.
    """
    _check_policies(zero_policy, average_mode)
    values, average = _values_and_average(v, zero_policy, average_mode)
    per_group: dict[GroupKey, float] = {}
    for g, value in values.items():
        if value <= 0.0:
            if zero_policy == "infinity":
                per_group[g] = math.inf
                continue
            raise ZeroGroupValueError(g)
        per_group[g] = -math.log(value / average)
    return BiasVector(
        measure_name=G2AVG_LOG_RATIO,
        metric_name=v.metric_name,
        per_group=per_group,
        reference=f"average:{average_mode}",
    )


def compute_measure(
    measure_name: str,
    v: GroupMetricVector,
    zero_policy: str = "error",
    average_mode: str = "pooled",
) -> BiasVector:
    """Dispatch a measure by name; differences ignore the policy knobs."""
    if measure_name == G2MIN_DIFF:
        return g2min_diff(v)
    if measure_name == G2AVG_RATIO:
        return g2avg_ratio(v, zero_policy, average_mode)
    if measure_name == G2AVG_LOG_RATIO:
        return g2avg_log_ratio(v, zero_policy, average_mode)
    raise ValueError(f"unknown bias measure {measure_name!r}")
