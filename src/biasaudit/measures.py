"""Per-group bias measures: group-to-min difference and group-to-average ratios.

Three measures, usable with any base metric:

* ``g2min_diff``:      b_g - b_m, where b_m is the best (smallest) group value
* ``g2avg_ratio``:     b_g / b_average
* ``g2avg_log_ratio``: -ln(b_g / b_average); positive means better than average

``b_average`` defaults to the pooled-population metric (the row's
aggregate); ``average_mode="group_mean"`` switches to the unweighted
mean of the group values for sensitivity studies.

Each measure is an array function over ``(metrics x groups)`` arrays;
``bias_measures`` evaluates all three once over every row of a
``BaseMetrics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import BaseMetrics
from .errors import ZeroAggregateError, ZeroGroupValueError
from .trials import GroupKey

G2MIN_DIFF = "g2min_diff"
G2AVG_RATIO = "g2avg_ratio"
G2AVG_LOG_RATIO = "g2avg_log_ratio"

ZERO_POLICIES = ("error", "infinity", "smooth")
AVERAGE_MODES = ("pooled", "group_mean")


@dataclass(frozen=True, eq=False)
class BiasMeasures:
    """The three measures of every base-metric row, each a ``(metrics x groups)`` array.

    Rows and columns follow the ``BaseMetrics`` the measures were
    computed from. ``best_groups`` holds each row's g2min_diff reference
    group; the ratios are taken against ``average_mode`` averages.
    """

    g2min_diff: np.ndarray
    g2avg_ratio: np.ndarray
    g2avg_log_ratio: np.ndarray
    best_groups: tuple[GroupKey, ...]
    average_mode: str

    def row(self, i: int) -> tuple[tuple[str, str, np.ndarray], ...]:
        """Row ``i`` as (name, reference, values) of g2min_diff, g2avg_ratio, g2avg_log_ratio."""
        average = f"average:{self.average_mode}"
        return (
            (G2MIN_DIFF, f"best_group:{self.best_groups[i].label()}", self.g2min_diff[i]),
            (G2AVG_RATIO, average, self.g2avg_ratio[i]),
            (G2AVG_LOG_RATIO, average, self.g2avg_log_ratio[i]),
        )


def _check_policies(zero_policy: str, average_mode: str) -> None:
    if zero_policy not in ZERO_POLICIES:
        raise ValueError(f"zero_policy must be one of {ZERO_POLICIES}, got {zero_policy!r}")
    if average_mode not in AVERAGE_MODES:
        raise ValueError(f"average_mode must be one of {AVERAGE_MODES}, got {average_mode!r}")


def g2min_diff(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance of each group's value from its row's best (smallest) value.

    Returns the differences and each row's best column; ties break to
    the first column, the smallest group key. The best group's value is
    exactly 0.
    """
    best = np.argmin(values, axis=1)
    return values - values.min(axis=1, keepdims=True), best


def g2avg_ratio(values: np.ndarray, averages: np.ndarray) -> np.ndarray:
    """Ratio of each group's value to its row's reference average."""
    return values / averages[:, np.newaxis]


def g2avg_log_ratio(ratios: np.ndarray) -> np.ndarray:
    """Negative log of each group-to-average ratio; +inf where a ratio is zero.

    ``math.log`` is applied per element: it is correctly rounded on
    every platform, which NumPy's vectorised log is not.
    """
    logs = [[-math.log(r) if r > 0.0 else math.inf for r in row] for row in ratios.tolist()]
    return np.array(logs, dtype=float).reshape(ratios.shape)


def _ratio_inputs(
    base: BaseMetrics, zero_policy: str, average_mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group values and reference average under the zero policy.

    'smooth' re-forms the rates of fpr/fnr rows from their counts; EER
    and minCDet have no counts and fall back to the 'error' behavior on
    zeros. Averages are left-to-right sums, so they do not depend on
    NumPy's summation order.
    """
    rows, averages = [], []
    for i, key in enumerate(base.keys):
        values, aggregate = base.values[i], float(base.aggregates[i])
        if zero_policy == "smooth" and key.kind in ("fpr", "fnr"):
            smoothed = (base.errors[i] + 0.5) / (base.population(i) + 0.5)
            values, aggregate = smoothed[:-1], float(smoothed[-1])
        if average_mode == "group_mean":
            average = sum(values.tolist()) / values.size
        else:
            average = aggregate
        if average <= 0.0:
            raise ZeroAggregateError(_zero_average_message(base, i, average, average_mode))
        if zero_policy != "infinity" and (values <= 0.0).any():
            raise ZeroGroupValueError(base.groups[int(np.argmax(values <= 0.0))])
        rows.append(values)
        averages.append(average)
    return np.array(rows), np.array(averages)


def _zero_average_message(base: BaseMetrics, row: int, average: float, average_mode: str) -> str:
    """Why the reference average is zero and, for a counted pooled rate, what to do."""
    key = base.keys[row]
    message = f"metric {key.name!r}: reference average is {average}, ratio measures are undefined"
    if key.kind not in ("fpr", "fnr") or average_mode != "pooled":
        return message
    errors, population = int(base.errors[row, -1]), int(base.population(row)[-1])
    is_fpr = key.kind == "fpr"
    return (
        f"{message}: {errors:,} of {population:,} pooled "
        f"{'nontarget' if is_fpr else 'target'} trials are errors at this threshold, "
        f"and the data cannot resolve a rate below 1/{population:,}; use a "
        f"{'larger' if is_fpr else 'smaller'} design FPR or zero_policy=smooth"
    )


def bias_measures(
    base: BaseMetrics,
    zero_policy: str = "error",
    average_mode: str = "pooled",
) -> BiasMeasures:
    """All three measures of every base-metric row, each evaluated once.

    A zero reference average raises ZeroAggregateError. A zero group
    value raises ZeroGroupValueError under 'error' (and under 'smooth'
    for EER and minCDet) and gives a +inf log ratio under 'infinity'.
    """
    _check_policies(zero_policy, average_mode)
    values, averages = _ratio_inputs(base, zero_policy, average_mode)
    diffs, best = g2min_diff(base.values)
    ratios = g2avg_ratio(values, averages)
    return BiasMeasures(
        g2min_diff=diffs,
        g2avg_ratio=ratios,
        g2avg_log_ratio=g2avg_log_ratio(ratios),
        best_groups=tuple(base.groups[j] for j in best.tolist()),
        average_mode=average_mode,
    )
