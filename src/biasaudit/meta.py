"""Meta-measures aggregating bias across groups: FDR and normalised reliability bias.

The fairness discrepancy rate combines the largest group FPR gap and the
largest group FNR gap at one shared threshold:

    fdr = 1 - (alpha * max_delta_fpr + (1 - alpha) * max_delta_fnr)

so 1 means least biased and 0 most biased. The normalised reliability
bias is the mean absolute group-to-average log ratio of any base metric;
0 means every group equals the aggregate and larger means more biased.
Grid cells and suite entries are independent pure computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .detection import BaseMetrics, GroupMetricVector
from .errors import GroupSetMismatchError
from .measures import g2avg_log_ratio
from .trials import GroupKey

DEFAULT_DESIGN_FPRS = (0.001, 0.01, 0.025, 0.05, 0.1)
DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class FdrResult:
    alpha: float
    design_fpr: float
    threshold: float
    max_delta_fpr: float
    max_delta_fnr: float
    fdr: float


@dataclass(frozen=True)
class NrbResult:
    """Mean absolute group-to-average log ratio for one base metric.

    ``zero_value_groups`` lists groups whose metric was exactly zero
    under zero-policy 'infinity' (each contributes +inf and makes the
    whole measure +inf).
    """

    metric_name: str
    group_count: int
    nrb: float
    per_group_log_ratios: dict[GroupKey, float]
    zero_value_groups: tuple[GroupKey, ...] = ()


def _max_minus_min(v: GroupMetricVector) -> float:
    """Largest pairwise group gap; 0 for a single group."""
    values = list(v.per_group.values())
    return max(values) - min(values)


def fdr(
    group_fprs: GroupMetricVector,
    group_fnrs: GroupMetricVector,
    alpha: float,
    design_fpr: float,
    threshold: float,
) -> FdrResult:
    """Fairness discrepancy rate at one shared threshold.

    Both vectors must cover the same group set at the same threshold.
    The max-minus-min gap equals the maximum of the group-to-min
    differences, i.e. the maximum over all pairwise gaps.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if group_fprs.per_group.keys() != group_fnrs.per_group.keys():
        raise GroupSetMismatchError(
            "FPR and FNR vectors cover different group sets: "
            f"{[str(g) for g in sorted(group_fprs.per_group)]} vs "
            f"{[str(g) for g in sorted(group_fnrs.per_group)]}"
        )
    max_delta_fpr = _max_minus_min(group_fprs)
    max_delta_fnr = _max_minus_min(group_fnrs)
    value = 1.0 - (alpha * max_delta_fpr + (1.0 - alpha) * max_delta_fnr)
    return FdrResult(
        alpha=alpha,
        design_fpr=design_fpr,
        threshold=threshold,
        max_delta_fpr=max_delta_fpr,
        max_delta_fnr=max_delta_fnr,
        fdr=value,
    )


def fdr_grid(
    base: BaseMetrics,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
) -> list[FdrResult]:
    """FDR over the (design_fpr, alpha) grid, ordered ascending by both.

    Each design point carries the shared threshold calibrated on the
    pooled population and every group's FPR and FNR at it; those feed
    the FDR at each alpha.
    """
    if not base.design_points or not alphas:
        raise ValueError("design_fprs and alphas must be nonempty")
    return [
        fdr(point.fpr, point.fnr, alpha, point.design_fpr, point.operating_point.threshold)
        for point in reversed(base.design_points)
        for alpha in sorted(alphas)
    ]


def nrb(
    v: GroupMetricVector,
    zero_policy: str = "error",
    average_mode: str = "pooled",
) -> NrbResult:
    """Normalised reliability bias of one base-metric vector."""
    log_ratios = g2avg_log_ratio(v, zero_policy=zero_policy, average_mode=average_mode)
    count = len(log_ratios.per_group)
    value = sum(abs(r) for r in log_ratios.per_group.values()) / count
    zero_groups = tuple(
        sorted(g for g, r in log_ratios.per_group.items() if math.isinf(r))
    )
    return NrbResult(
        metric_name=v.metric_name,
        group_count=count,
        nrb=value,
        per_group_log_ratios=dict(log_ratios.per_group),
        zero_value_groups=zero_groups,
    )


def nrb_suite(
    base: BaseMetrics,
    zero_policy: str = "error",
    average_mode: str = "pooled",
) -> list[NrbResult]:
    """NRB across the base-metric suite.

    Order: EER, minCDet, then an FPR/FNR pair per design FPR, pairs
    sorted by descending design FPR.
    """
    return [nrb(v, zero_policy, average_mode) for v in base.vectors()]
