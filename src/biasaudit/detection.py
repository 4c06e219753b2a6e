"""Threshold sweeps and detection metrics: FPR, FNR, EER, minCDet.

The decision rule everywhere is accept iff score >= threshold. The
threshold grid of a sweep is every distinct observed score plus a +inf
sentinel, so at the lowest grid point fpr is 1 and fnr is 0, and at the
sentinel fpr is 0 and fnr is 1. ``base_metrics`` sorts an audit's
scores once and sweeps the pooled population and then every group as
segments of sorted runs, with no per-group call; ``compute_sweep``,
``eer`` and ``min_cdet`` are the one-segment calls of the same kernels.
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


def _sweeps(
    scores: np.ndarray, is_target: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sweep of every segment ``[bounds[k], bounds[k+1])`` of scores sorted within each.

    Segments must be nonempty. The grids come concatenated: ``thresholds``
    holds each segment's distinct scores and then +inf, ``false_accepts``
    and ``misses`` the segment's counts at each grid point, and ``starts``
    the index at which each segment's grid begins. One cumulative target
    count gives every count: a grid point stands at the first row of a run
    of equal scores, or at its segment's end for the sentinel.
    """
    first = np.empty(scores.size, dtype=bool)  # the first row of each run of equal scores
    np.not_equal(scores[1:], scores[:-1], out=first[1:])  # -0.0 == 0.0: one run of zeros
    first[bounds[:-1]] = True
    runs = np.flatnonzero(first)
    del first
    run_bounds = np.searchsorted(runs, bounds)  # each segment's first run; its sentinel's place
    taus = scores[runs]
    rows = np.insert(runs, run_bounds[1:], bounds[1:])
    del runs
    taus += 0.0  # turns a -0.0 into 0.0, whichever zero a run starts with
    thresholds = np.insert(taus, run_bounds[1:], np.inf)
    del taus
    before = np.zeros(scores.size + 1, dtype=np.int64)  # targets before each row
    np.cumsum(is_target, dtype=np.int64, out=before[1:])
    targets = before[bounds]
    misses = before[rows]
    del before
    rows -= misses  # nontargets before each grid row
    lengths = np.diff(run_bounds) + 1
    misses -= np.repeat(targets[:-1], lengths)  # the segment's targets below each point
    false_accepts = np.repeat((bounds - targets)[1:], lengths)
    false_accepts -= rows  # the segment's nontargets from each point on
    return thresholds, false_accepts, misses, run_bounds[:-1] + np.arange(lengths.size)


def _sorted_sweep(
    scores: np.ndarray, is_target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The order that sorts one population's scores, and its grid and counts."""
    n_target = int(np.count_nonzero(is_target))
    if n_target == 0:
        raise EmptyPopulationError("target")
    if n_target == scores.size:
        raise EmptyPopulationError("nontarget")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order = np.argsort(scores)
    bounds = np.array([0, scores.size])
    return (order, *_sweeps(scores[order], is_target[order], bounds)[:3])


def compute_sweep(
    target_scores: Sequence[float],
    nontarget_scores: Sequence[float],
) -> SweepCurve:
    """Error counts, FPR and FNR over the exact threshold grid."""
    tar = np.asarray(target_scores, dtype=float)
    non = np.asarray(nontarget_scores, dtype=float)
    is_target = np.arange(tar.size + non.size) < tar.size
    _, taus, false_accepts, misses = _sorted_sweep(np.concatenate([tar, non]), is_target)
    fpr, fnr = false_accepts / non.size, misses / tar.size
    for arr in (taus, false_accepts, misses, fpr, fnr):
        arr.flags.writeable = False
    return SweepCurve(taus, false_accepts, misses, fpr, fnr, int(tar.size), int(non.size))


def _eers(
    fpr: np.ndarray, fnr: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each sweep's equal error rate and its threshold, as ``eer`` finds them.

    fnr - fpr is -1 where a sweep starts, 1 at its sentinel and nondecreasing
    in between, so each sweep's first nonnegative value follows the one place
    where the sign changes from negative to nonnegative.
    """
    nonnegative = fnr >= fpr  # fnr - fpr >= 0, exactly
    hi = np.flatnonzero(nonnegative[1:] > nonnegative[:-1]) + 1
    lo = hi - 1
    d_lo, d_hi = fnr[lo] - fpr[lo], fnr[hi] - fpr[hi]
    exact = d_hi == 0.0
    t = -d_lo / (d_hi - d_lo)
    values = np.where(exact, fpr[hi], fpr[lo] + t * (fpr[hi] - fpr[lo]))
    tau_lo, tau_hi = thresholds[lo], thresholds[hi]
    taus = np.where(exact, tau_hi, tau_lo + t * (tau_hi - tau_lo))
    return values, np.where(np.isinf(tau_hi), tau_lo, taus)


def eer(curve: SweepCurve) -> tuple[float, float]:
    """Equal error rate and its threshold.

    fnr - fpr is nondecreasing along the grid; the crossing is located
    and both rates are linearly interpolated to their common value. An
    exact fnr == fpr grid point is returned as-is. When the crossing
    falls in the sentinel segment the rate interpolation is still well
    defined and the last finite threshold is reported.
    """
    values, taus = _eers(curve.fpr, curve.fnr, curve.thresholds)
    return float(values[0]), float(taus[0])


def _min_cdets(
    fpr: np.ndarray, fnr: np.ndarray, starts: np.ndarray, params: DcfParams
) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's minimum detection cost, and the cost at every grid point."""
    cost = params.c_miss * params.p_target * fnr
    cost += params.c_fa * (1.0 - params.p_target) * fpr
    values = np.minimum.reduceat(cost, starts)
    if params.normalize:
        values /= min(params.c_miss * params.p_target, params.c_fa * (1.0 - params.p_target))
    return values, cost


def min_cdet(curve: SweepCurve, params: DcfParams = DcfParams()) -> tuple[float, float]:
    """Minimum detection cost over the grid and the smallest minimizing threshold."""
    values, cost = _min_cdets(curve.fpr, curve.fnr, np.zeros(1, dtype=np.intp), params)
    i = int(np.argmin(cost))  # first occurrence: ties break to the smallest threshold
    return float(values[0]), float(curve.thresholds[i])


def _calibrate(fpr: np.ndarray, target_fprs: Sequence[float]) -> np.ndarray:
    """The first grid index whose FPR does not exceed each target, by one search."""
    targets = np.asarray(target_fprs, dtype=float)
    if not ((0.0 < targets) & (targets <= 1.0)).all():
        raise ValueError("target_fpr must lie in (0, 1]")
    return np.searchsorted(-fpr, -targets, "left")  # fpr nonincreasing; negation is exact


def threshold_for_fpr(curve: SweepCurve, target_fpr: float) -> OperatingPoint:
    """Smallest grid threshold whose FPR does not exceed ``target_fpr``.

    The achieved fpr may be below the target on finite data; a
    calibrated system never exceeds its design false-accept rate.
    """
    i = int(_calibrate(curve.fpr, [target_fpr])[0])
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
    """Every base metric of one audit, from one sort of the table's scores.

    The pooled scores (every row of the table) are sorted and swept
    first, and every design threshold is calibrated on that sweep. A
    stable sort of the rows' group codes over that order puts each group's
    scores, still sorted, in one segment, and one segmented sweep then
    gives every group's EER, minCDet and error counts at the design
    thresholds. Each array is dropped once read. A row listed in two
    groups, or twice in one, raises ``ValueError`` before any group is
    checked for targets and nontargets.
    """
    trials = grouped.trials
    order, taus, false_accepts, misses = _sorted_sweep(trials.scores, trials.is_target)
    n_target, n_nontarget = int(misses[-1]), int(false_accepts[0])
    designs = sorted(design_fprs, reverse=True)
    fpr = false_accepts / n_nontarget
    at = _calibrate(fpr, designs)
    thresholds = taus[at].tolist()
    keys = [MetricKey("eer"), MetricKey("min_cdet")]
    keys += [MetricKey(kind, d) for d in designs for kind in ("fpr", "fnr")]

    # one column per group and the pooled population last; fpr and fnr rows alternate
    groups = tuple(sorted(grouped.groups))
    n, n_groups = len(trials), len(groups)
    values = np.zeros((len(keys), n_groups + 1))
    errors = np.zeros_like(values, dtype=np.int64)
    sizes = np.zeros((2, n_groups + 1), dtype=np.int64)
    errors[2::2, -1], errors[3::2, -1] = false_accepts[at], misses[at]
    sizes[:, -1] = n_target, n_nontarget
    # pooled rows below each design threshold: they come first in the sorted order
    below = misses[at] + (n_nontarget - false_accepts[at])
    del false_accepts
    fnr = misses / n_target
    del misses
    values[0, -1] = _eers(fpr, fnr, taus)[0][0]
    values[1, -1] = _min_cdets(fpr, fnr, np.zeros(1, dtype=np.intp), dcf)[0][0]
    del fpr, fnr, taus

    # each row's group code in key order, the unassigned rows last
    code = np.full(n, n_groups, dtype=np.min_scalar_type(n_groups))
    members = [grouped.groups[key] for key in groups]
    lengths = np.array([len(rows) for rows in members], dtype=np.intp)
    code[np.concatenate([np.empty(0, np.intp), *members])] = np.repeat(
        np.arange(n_groups, dtype=code.dtype), lengths
    )
    if np.count_nonzero(code < n_groups) != lengths.sum():
        raise ValueError("groups must not share rows")
    n_targets = np.array([grouped.targets[key] for key in groups], dtype=np.int64)
    degenerate = np.flatnonzero((n_targets == 0) | (n_targets == lengths))
    if degenerate.size:  # the first group in key order without targets or nontargets
        k = int(degenerate[0])
        side = "target" if n_targets[k] == 0 else "nontarget"
        raise DegenerateGroupError(groups[k]) from EmptyPopulationError(side)
    sizes[:, :-1] = n_targets, lengths - n_targets

    # group-major order: each group's pooled positions ascend, so its scores stay sorted
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    positions = np.argsort(code[order], kind="stable")[:bounds[-1]]
    rows = order[positions]
    del order, code
    scores, is_target = trials.scores[rows], trials.is_target[rows]
    del rows

    # each group's rows and targets below each design threshold, by one search of
    # the group-major pooled positions, offset so that they ascend across groups
    offsets = np.arange(n_groups, dtype=np.int64) * n
    positions += np.repeat(offsets, lengths)
    probes = offsets[:, None] + below
    rows_below = np.searchsorted(positions, probes) - bounds[:-1, None]
    targets_below = np.searchsorted(positions[is_target], probes)
    del positions
    targets_below -= np.concatenate([[0], np.cumsum(n_targets)[:-1]])[:, None]
    errors[2::2, :-1] = (sizes[1, :-1, None] - (rows_below - targets_below)).T
    errors[3::2, :-1] = targets_below.T

    taus, false_accepts, misses, starts = _sweeps(scores, is_target, bounds)
    del scores, is_target
    grid = np.diff(starts, append=taus.size)
    fpr = false_accepts / np.repeat(sizes[1, :-1], grid)
    del false_accepts
    fnr = misses / np.repeat(sizes[0, :-1], grid)
    del misses
    values[0, :-1] = _eers(fpr, fnr, taus)[0]
    values[1, :-1] = _min_cdets(fpr, fnr, starts, dcf)[0]
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
