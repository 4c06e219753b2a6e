"""Threshold sweeps and detection metrics: FPR, FNR, EER, minCDet.

The decision rule everywhere is accept iff score >= threshold. The
threshold grid of a sweep is every distinct observed score plus a +inf
sentinel, so at the lowest grid point fpr is 1 and fnr is 0, and at the
sentinel fpr is 0 and fnr is 1. All operations here are pure functions
of immutable inputs and safe to run concurrently per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateGroupError, EmptyPopulationError
from .trials import GroupedTrials, GroupKey, Scores


@dataclass(frozen=True)
class SweepCurve:
    """FPR/FNR evaluated on the full threshold grid of one population.

    ``fpr[i]`` is the fraction of nontarget scores >= thresholds[i];
    ``fnr[i]`` the fraction of target scores < thresholds[i]. fpr is
    nonincreasing and fnr nondecreasing in the threshold.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    fnr: np.ndarray
    n_target: int
    n_nontarget: int


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    fpr: float
    fnr: float


@dataclass(frozen=True)
class DcfParams:
    """Detection-cost parameters: cost(t) = c_miss*p_target*fnr(t) + c_fa*(1-p_target)*fpr(t).

    With ``normalize`` the minimum cost is divided by
    min(c_miss*p_target, c_fa*(1-p_target)), the cost of the better
    trivial all-accept/all-reject system.
    """

    c_miss: float = 1.0
    c_fa: float = 1.0
    p_target: float = 0.05
    normalize: bool = True

    def __post_init__(self):
        if not (0.0 < self.c_miss < math.inf and 0.0 < self.c_fa < math.inf):
            raise ValueError("c_miss and c_fa must be positive and finite")
        if not (0.0 < self.p_target < 1.0):
            raise ValueError("p_target must lie in (0, 1)")


@dataclass(frozen=True)
class GroupMetricVector:
    """One base metric per group plus the pooled aggregate value.

    For count-based metrics (FPR/FNR at a threshold) the error and
    population counts are retained so the 'smooth' zero-policy can
    re-form rates; metrics without a count decomposition (EER, minCDet)
    leave them as None.
    """

    metric_name: str
    per_group: dict[GroupKey, float]
    aggregate: float
    per_group_counts: dict[GroupKey, tuple[int, int]] | None = None
    aggregate_counts: tuple[int, int] | None = None

    def __post_init__(self):
        if not self.per_group:
            raise ValueError("per_group must be nonempty")
        values = [*self.per_group.values(), self.aggregate]
        if any(not math.isfinite(v) or v < 0.0 for v in values):
            raise ValueError("metric values must be finite and nonnegative")


@dataclass(frozen=True)
class DesignPoint:
    """Per-group FPR and FNR at the pooled threshold calibrated for one design FPR."""

    design_fpr: float
    operating_point: OperatingPoint
    fpr: GroupMetricVector
    fnr: GroupMetricVector


@dataclass(frozen=True)
class BaseMetrics:
    """Every base metric of one audit; all tables and meta-measures derive from it.

    ``design_points`` are ordered by descending design FPR. Counts are
    (n_target, n_nontarget) per group and for the pooled population.
    """

    eer: GroupMetricVector
    min_cdet: GroupMetricVector
    design_points: tuple[DesignPoint, ...]
    group_sizes: dict[GroupKey, tuple[int, int]]
    pooled_counts: tuple[int, int]

    def vectors(self) -> list[GroupMetricVector]:
        """EER, minCDet, then an FPR/FNR pair per design point."""
        vectors = [self.eer, self.min_cdet]
        for point in self.design_points:
            vectors += [point.fpr, point.fnr]
        return vectors


def compute_sweep(
    target_scores: Sequence[float],
    nontarget_scores: Sequence[float],
) -> SweepCurve:
    """Evaluate FPR and FNR over the exact threshold grid."""
    tar = np.asarray(target_scores, dtype=float)
    non = np.asarray(nontarget_scores, dtype=float)
    if tar.size == 0:
        raise EmptyPopulationError("target")
    if non.size == 0:
        raise EmptyPopulationError("nontarget")
    if not (np.isfinite(tar).all() and np.isfinite(non).all()):
        raise ValueError("scores must be finite")

    taus = np.append(np.unique(np.concatenate([tar, non])), np.inf)

    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    fnr = np.searchsorted(tar_sorted, taus, side="left") / tar.size
    fpr = (non.size - np.searchsorted(non_sorted, taus, side="left")) / non.size
    for arr in (taus, fpr, fnr):
        arr.flags.writeable = False
    return SweepCurve(
        thresholds=taus,
        fpr=fpr,
        fnr=fnr,
        n_target=int(tar.size),
        n_nontarget=int(non.size),
    )


def rates_at_threshold(
    target_scores: Sequence[float],
    nontarget_scores: Sequence[float],
    threshold: float,
) -> tuple[float, float]:
    """(fpr, fnr) at one threshold under the accept-iff-score>=t rule."""
    tar = np.asarray(target_scores, dtype=float)
    non = np.asarray(nontarget_scores, dtype=float)
    fpr = float(np.count_nonzero(non >= threshold)) / non.size if non.size else math.nan
    fnr = float(np.count_nonzero(tar < threshold)) / tar.size if tar.size else math.nan
    return fpr, fnr


def eer(curve: SweepCurve) -> tuple[float, float]:
    """Equal error rate and its threshold.

    fnr - fpr is nondecreasing along the grid; the crossing is located
    and both rates are linearly interpolated to their common value. An
    exact fnr == fpr grid point is returned as-is. When the crossing
    falls in the sentinel segment the rate interpolation is still well
    defined and the last finite threshold is reported.
    """
    diff = curve.fnr - curve.fpr
    idx = int(np.searchsorted(diff, 0.0, side="left"))
    if diff[idx] == 0.0:
        return float(curve.fpr[idx]), float(curve.thresholds[idx])
    lo, hi = idx - 1, idx
    t = -diff[lo] / (diff[hi] - diff[lo])
    value = float(curve.fpr[lo] + t * (curve.fpr[hi] - curve.fpr[lo]))
    tau_hi = curve.thresholds[hi]
    if math.isinf(tau_hi):
        threshold = float(curve.thresholds[lo])
    else:
        threshold = float(curve.thresholds[lo] + t * (tau_hi - curve.thresholds[lo]))
    return value, threshold


def min_cdet(curve: SweepCurve, params: DcfParams = DcfParams()) -> tuple[float, float]:
    """Minimum detection cost over the grid and the smallest minimizing threshold."""
    cost = (
        params.c_miss * params.p_target * curve.fnr
        + params.c_fa * (1.0 - params.p_target) * curve.fpr
    )
    i = int(np.argmin(cost))  # first occurrence: ties break to the smallest threshold
    value = float(cost[i])
    if params.normalize:
        value /= min(params.c_miss * params.p_target, params.c_fa * (1.0 - params.p_target))
    return value, float(curve.thresholds[i])


def threshold_for_fpr(curve: SweepCurve, target_fpr: float) -> OperatingPoint:
    """Smallest grid threshold whose FPR does not exceed ``target_fpr``.

    The achieved fpr may be below the target on finite data; a
    calibrated system never exceeds its design false-accept rate.
    """
    if not (0.0 < target_fpr <= 1.0):
        raise ValueError("target_fpr must lie in (0, 1]")
    i = int(np.argmax(curve.fpr <= target_fpr))  # fpr nonincreasing: first True
    return OperatingPoint(
        threshold=float(curve.thresholds[i]),
        fpr=float(curve.fpr[i]),
        fnr=float(curve.fnr[i]),
    )


def base_metrics(
    grouped: GroupedTrials,
    design_fprs: Sequence[float],
    dcf: DcfParams = DcfParams(),
) -> BaseMetrics:
    """Every base metric of one audit, from one sweep per population.

    Each group's scores and the pooled scores (unassigned included) are
    swept once; EER and minCDet are read off that sweep, each design
    threshold is calibrated on the pooled sweep, and every group's FPR
    and FNR are counted at it.
    """
    groups = dict(sorted(grouped.groups.items()))
    for key, scores in groups.items():
        if scores.target.size == 0 or scores.nontarget.size == 0:
            raise DegenerateGroupError(key)
    pooled = grouped.pooled()
    curves = {key: compute_sweep(s.target, s.nontarget) for key, s in groups.items()}
    pooled_curve = compute_sweep(pooled.target, pooled.nontarget)

    design_points = []
    for design in sorted(design_fprs, reverse=True):
        op = threshold_for_fpr(pooled_curve, design)
        fpr, fnr = design_point_rates(groups, pooled, design, op.threshold)
        design_points.append(DesignPoint(design, op, fpr, fnr))

    def read_off(name: str, metric) -> GroupMetricVector:
        per_group = {key: metric(curve)[0] for key, curve in curves.items()}
        return GroupMetricVector(name, per_group, metric(pooled_curve)[0])

    return BaseMetrics(
        eer=read_off("eer", eer),
        min_cdet=read_off("min_cdet", lambda curve: min_cdet(curve, dcf)),
        design_points=tuple(design_points),
        group_sizes={k: (c.n_target, c.n_nontarget) for k, c in curves.items()},
        pooled_counts=(pooled_curve.n_target, pooled_curve.n_nontarget),
    )


def design_point_rates(
    group_scores: Mapping[GroupKey, Scores],
    pooled_scores: Scores,
    design_fpr: float,
    threshold: float,
) -> tuple[GroupMetricVector, GroupMetricVector]:
    """Per-group FPR and FNR at the threshold calibrated for ``design_fpr``.

    The vectors are named ``fpr@{design_fpr:g}`` and ``fnr@{design_fpr:g}``.
    ``group_scores`` maps each group to its scores and ``pooled_scores``
    holds the pooled population; every population must be nonempty. Each
    aggregate is the pooled rate at the same threshold. Error/population
    counts are recorded for the 'smooth' zero-policy.
    """

    def vector(rate: str, count) -> GroupMetricVector:
        counts = {key: count(s.target, s.nontarget) for key, s in group_scores.items()}
        errors, population = count(pooled_scores.target, pooled_scores.nontarget)
        return GroupMetricVector(
            metric_name=f"{rate}@{design_fpr:g}",
            per_group={key: e / n for key, (e, n) in counts.items()},
            aggregate=errors / population,
            per_group_counts=counts,
            aggregate_counts=(errors, population),
        )

    return (
        vector("fpr", lambda tar, non: (int(np.count_nonzero(non >= threshold)), non.size)),
        vector("fnr", lambda tar, non: (int(np.count_nonzero(tar < threshold)), tar.size)),
    )
