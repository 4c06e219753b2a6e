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
from typing import Sequence

import numpy as np

from .errors import DegenerateGroupError, EmptyPopulationError
from .trials import GroupedTrials, GroupKey


@dataclass(frozen=True)
class SweepCurve:
    """Error counts and rates on the full threshold grid of one population.

    ``false_accepts[i]`` counts the nontarget scores >= thresholds[i] and
    ``misses[i]`` the target scores < thresholds[i]; ``fpr`` and ``fnr``
    divide them by n_nontarget and n_target, so fpr is nonincreasing and
    fnr nondecreasing. No score lies between two grid points, so the
    counts at any t are those at ``searchsorted(thresholds, t, "left")``.
    """

    thresholds: np.ndarray
    false_accepts: np.ndarray
    misses: np.ndarray
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


METRIC_KINDS = ("eer", "min_cdet", "fpr", "fnr")


@dataclass(frozen=True)
class MetricKey:
    """Identity of one base-metric row: the metric kind and, for fpr/fnr, its design FPR."""

    kind: str
    design_fpr: float | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"metric kind must be one of {METRIC_KINDS}, got {self.kind!r}")
        if (self.design_fpr is None) != (self.kind in ("eer", "min_cdet")):
            raise ValueError("fpr and fnr rows, and only they, carry a design FPR")

    @property
    def name(self) -> str:
        """``eer``, ``min_cdet``, ``fpr@{design_fpr:g}`` or ``fnr@{design_fpr:g}``."""
        if self.design_fpr is None:
            return self.kind
        return f"{self.kind}@{self.design_fpr:g}"

    @property
    def is_rate(self) -> bool:
        """EER, FPR and FNR are error rates; minCDet is a cost."""
        return self.kind != "min_cdet"


@dataclass(frozen=True)
class DesignPoint:
    """The threshold calibrated on the pooled population for one design FPR.

    Its pooled FPR and FNR are the ``aggregates`` of its fpr and fnr rows.
    """

    design_fpr: float
    threshold: float


@dataclass(frozen=True, eq=False)
class BaseMetrics:
    """Every base metric of one audit; all tables and meta-measures derive from it.

    ``values[i, j]`` is metric ``keys[i]`` of group ``groups[j]`` and
    ``aggregates[i]`` its pooled value. Only ``base_metrics`` knows the row
    order; readers find a row by key (``row``, ``design_rows``). Design
    points are by descending design FPR. ``errors`` holds the error count
    behind each fpr/fnr rate (0 on other rows) and ``sizes`` the target
    and nontarget counts, both with one column per group and the pooled
    population last. Groups are sorted; every array is read-only.
    """

    groups: tuple[GroupKey, ...]
    keys: tuple[MetricKey, ...]
    values: np.ndarray
    aggregates: np.ndarray
    errors: np.ndarray
    sizes: np.ndarray
    design_points: tuple[DesignPoint, ...] = ()

    def __post_init__(self):
        if not self.groups:
            raise ValueError("a base-metric table needs at least one group")
        n_metrics, n_groups = len(self.keys), len(self.groups)
        if (
            self.values.shape != (n_metrics, n_groups)
            or self.aggregates.shape != (n_metrics,)
            or self.errors.shape != (n_metrics, n_groups + 1)
            or self.sizes.shape != (2, n_groups + 1)
        ):
            raise ValueError("base-metric arrays do not match the metric keys and groups")
        for arr in (self.values, self.aggregates):
            if not (np.isfinite(arr).all() and (arr >= 0.0).all()):
                raise ValueError("metric values must be finite and nonnegative")
        for arr in (self.values, self.aggregates, self.errors, self.sizes):
            arr.flags.writeable = False
        rows: dict[MetricKey, int] = {}
        for i, key in enumerate(self.keys):
            rows.setdefault(key, i)
        object.__setattr__(self, "_rows", rows)

    def row(self, key: MetricKey) -> int:
        """Index of the (first) row holding metric ``key``; ValueError if none does."""
        try:
            return self._rows[key]
        except KeyError:
            raise ValueError(f"no base-metric row holds {key!r}") from None

    def design_rows(self, kind: str) -> list[int]:
        """The ``kind`` ("fpr" or "fnr") row of each design point, in ``design_points`` order."""
        return [self.row(MetricKey(kind, point.design_fpr)) for point in self.design_points]

    def population(self, row: int) -> np.ndarray:
        """Trial counts behind the rates of an fpr (nontargets) or fnr (targets) row."""
        return self.sizes[1] if self.keys[row].kind == "fpr" else self.sizes[0]


def compute_sweep(
    target_scores: Sequence[float],
    nontarget_scores: Sequence[float],
) -> SweepCurve:
    """Error counts, FPR and FNR over the exact threshold grid."""
    tar = np.asarray(target_scores, dtype=float)
    non = np.asarray(nontarget_scores, dtype=float)
    if tar.size == 0:
        raise EmptyPopulationError("target")
    if non.size == 0:
        raise EmptyPopulationError("nontarget")
    if not (np.isfinite(tar).all() and np.isfinite(non).all()):
        raise ValueError("scores must be finite")

    # + 0.0 turns a -0.0 into 0.0: np.unique keeps whichever zero sorts first
    taus = np.append(np.unique(np.concatenate([tar, non])) + 0.0, np.inf)
    misses = np.searchsorted(np.sort(tar), taus, side="left")
    false_accepts = non.size - np.searchsorted(np.sort(non), taus, side="left")
    fpr, fnr = false_accepts / non.size, misses / tar.size
    for arr in (taus, false_accepts, misses, fpr, fnr):
        arr.flags.writeable = False
    return SweepCurve(taus, false_accepts, misses, fpr, fnr, int(tar.size), int(non.size))


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

    The pooled scores (every row of the table) are swept first and every
    design threshold is calibrated on that sweep. Each group is then
    swept once and dropped: its EER, minCDet and error counts at every
    design threshold (one ``searchsorted``) are read off its sweep.
    """
    groups = tuple(sorted(grouped.groups))
    pooled_curve = compute_sweep(*grouped.scores())
    designs = sorted(design_fprs, reverse=True)
    thresholds = [threshold_for_fpr(pooled_curve, d).threshold for d in designs]
    keys = [MetricKey("eer"), MetricKey("min_cdet")]
    keys += [MetricKey(kind, d) for d in designs for kind in ("fpr", "fnr")]

    # one column per group and the pooled population last; fpr and fnr rows alternate
    values = np.zeros((len(keys), len(groups) + 1))
    errors = np.zeros_like(values, dtype=np.int64)
    sizes = np.zeros((2, len(groups) + 1), dtype=np.int64)
    for j, key in enumerate(groups + (None,)):  # each group, then the pooled population
        try:
            curve = compute_sweep(*grouped.scores(grouped.groups[key])) if key else pooled_curve
        except EmptyPopulationError as exc:  # a group without targets or nontargets
            raise DegenerateGroupError(key) from exc
        at = np.searchsorted(curve.thresholds, thresholds, side="left")
        errors[2::2, j], errors[3::2, j] = curve.false_accepts[at], curve.misses[at]
        sizes[:, j] = curve.n_target, curve.n_nontarget
        values[:2, j] = eer(curve)[0], min_cdet(curve, dcf)[0]
    values[2::2] = errors[2::2] / sizes[1]
    values[3::2] = errors[3::2] / sizes[0]
    return BaseMetrics(
        groups=groups,
        keys=tuple(keys),
        values=values[:, :-1],
        aggregates=values[:, -1],
        errors=errors,
        sizes=sizes,
        design_points=tuple(map(DesignPoint, designs, thresholds)),
    )
