"""Meta-measures aggregating bias across groups: FDR and normalised reliability bias.

The fairness discrepancy rate combines the largest group FPR gap and the
largest group FNR gap at one shared threshold:

    fdr = 1 - (alpha * max_delta_fpr + (1 - alpha) * max_delta_fnr)

so 1 means least biased and 0 most biased. The normalised reliability
bias is the mean absolute group-to-average log ratio of any base metric;
0 means every group equals the aggregate and larger means more biased.
Both are array functions over ``(..., groups)`` rows indexed like
``BaseMetrics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import BaseMetrics
from .errors import GroupSetMismatchError

DEFAULT_DESIGN_FPRS = (0.001, 0.01, 0.025, 0.05, 0.1)
DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True, eq=False)
class FdrGrid:
    """FDR at every (row, alpha) cell; every array is read-only.

    ``max_delta_fpr`` and ``max_delta_fnr`` hold each row's max-minus-min
    group gap, and ``fdr[..., k]`` the FDR of that row at ``alphas[k]``.
    ``alphas`` are sorted ascending.
    """

    alphas: tuple[float, ...]
    max_delta_fpr: np.ndarray
    max_delta_fnr: np.ndarray
    fdr: np.ndarray


def fdr(
    group_fprs: np.ndarray,
    group_fnrs: np.ndarray,
    alphas: Sequence[float],
) -> FdrGrid:
    """Fairness discrepancy rate of ``(..., groups)`` rows at every alpha.

    Row ``i`` of both arrays must hold the same groups, in the same
    order, at one shared threshold. The max-minus-min gap equals the
    maximum of the group-to-min differences, i.e. the maximum over all
    pairwise gaps.
    """
    alphas = tuple(sorted(alphas))
    if not alphas or not all(0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alphas must be nonempty, each in [0, 1]")
    if group_fprs.shape != group_fnrs.shape:
        raise GroupSetMismatchError(
            "FPR and FNR arrays cover different group sets: shapes "
            f"{group_fprs.shape} vs {group_fnrs.shape}"
        )
    max_delta_fpr = np.asarray(group_fprs.max(axis=-1) - group_fprs.min(axis=-1))
    max_delta_fnr = np.asarray(group_fnrs.max(axis=-1) - group_fnrs.min(axis=-1))
    a = np.array(alphas, dtype=float)
    value = 1.0 - (a * max_delta_fpr[..., np.newaxis] + (1.0 - a) * max_delta_fnr[..., np.newaxis])
    for arr in (max_delta_fpr, max_delta_fnr, value):
        arr.flags.writeable = False
    return FdrGrid(alphas, max_delta_fpr, max_delta_fnr, value)


def fdr_grid(base: BaseMetrics, alphas: Sequence[float] = DEFAULT_ALPHAS) -> FdrGrid:
    """FDR at every design point and alpha; rows follow ``base.design_points``.

    Each design point's shared threshold was calibrated on the pooled
    population; its fpr and fnr rows hold every group's rates at it.
    """
    return fdr(base.values[base.design_rows("fpr")], base.values[base.design_rows("fnr")], alphas)


def nrb(log_ratios: np.ndarray) -> np.ndarray:
    """Normalised reliability bias: the mean absolute log ratio of each row.

    Returns one value per ``(..., groups)`` row, read-only. Each row is
    summed left to right, so a value does not depend on NumPy's
    summation order. A row holding +inf (a zero-valued group under
    zero-policy 'infinity') gives +inf.
    """
    n = log_ratios.shape[-1]
    rows = np.abs(log_ratios).reshape(-1, n).tolist()
    value = np.array([sum(row) / n for row in rows], dtype=float).reshape(log_ratios.shape[:-1])
    value.flags.writeable = False
    return value
