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

from dataclasses import dataclass

import numpy as np

from .detection import BaseMetrics, MetricKey
from .errors import GroupSetMismatchError
from .measures import BiasMeasures
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

    key: MetricKey
    group_count: int
    nrb: float
    zero_value_groups: tuple[GroupKey, ...] = ()


def fdr(
    group_fprs: np.ndarray,
    group_fnrs: np.ndarray,
    alpha: float,
    design_fpr: float,
    threshold: float,
) -> FdrResult:
    """Fairness discrepancy rate at one shared threshold.

    Both arrays must hold the same groups, in the same order, at the
    same threshold. The max-minus-min gap equals the maximum of the
    group-to-min differences, i.e. the maximum over all pairwise gaps.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if group_fprs.shape != group_fnrs.shape:
        raise GroupSetMismatchError(
            "FPR and FNR arrays cover different group sets: shapes "
            f"{group_fprs.shape} vs {group_fnrs.shape}"
        )
    max_delta_fpr = float(group_fprs.max() - group_fprs.min())
    max_delta_fnr = float(group_fnrs.max() - group_fnrs.min())
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

    Each design point's shared threshold was calibrated on the pooled
    population; its fpr and fnr rows hold every group's rates at it.
    """
    if not base.design_points or not alphas:
        raise ValueError("design_fprs and alphas must be nonempty")
    results = []
    for point in reversed(base.design_points):
        fprs = base.values[base.row(MetricKey("fpr", point.design_fpr))]
        fnrs = base.values[base.row(MetricKey("fnr", point.design_fpr))]
        threshold = point.operating_point.threshold
        results += [fdr(fprs, fnrs, a, point.design_fpr, threshold) for a in sorted(alphas)]
    return results


def nrb(log_ratios: np.ndarray) -> float:
    """Normalised reliability bias: the mean absolute log ratio of one row.

    Summed left to right, so the value does not depend on NumPy's
    summation order.
    """
    return sum(np.abs(log_ratios).tolist()) / log_ratios.size


def nrb_suite(base: BaseMetrics, measures: BiasMeasures) -> list[NrbResult]:
    """NRB of every base-metric row, from the log ratios of ``measures``.

    Order: EER, minCDet, then an FPR/FNR pair per design FPR, pairs
    sorted by descending design FPR.
    """
    return [
        NrbResult(
            key=key,
            group_count=len(base.groups),
            nrb=nrb(log_ratios),
            zero_value_groups=tuple(base.groups[j] for j in np.flatnonzero(np.isinf(log_ratios))),
        )
        for key, log_ratios in zip(base.keys, measures.g2avg_log_ratio)
    ]
