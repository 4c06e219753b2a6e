"""Shared fixture builders for the test suite."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from biasaudit import BaseMetrics, GroupedTrials, GroupKey, MetricKey, Scores


def gk(**attributes: str) -> GroupKey:
    return GroupKey.from_attributes(attributes)


def grouped_from_scores(
    groups: dict[GroupKey, tuple[list, list]],
    unassigned: tuple[list, list] = ((), ()),
) -> GroupedTrials:
    """Build a GroupedTrials directly from per-group score lists."""

    def scores(target, nontarget) -> Scores:
        return Scores(np.asarray(target, dtype=float), np.asarray(nontarget, dtype=float))

    return GroupedTrials(
        groups={key: scores(*pair) for key, pair in sorted(groups.items())},
        unassigned=scores(*unassigned),
    )


def one_metric(
    per_group: dict[GroupKey, float],
    aggregate: float,
    key: MetricKey = MetricKey("eer"),
    counts: dict[GroupKey, tuple[int, int]] | None = None,
    pooled_counts: tuple[int, int] = (0, 0),
) -> BaseMetrics:
    """A one-row BaseMetrics built from per-group values keyed by GroupKey.

    ``counts`` maps each group to the (errors, population) behind an
    fpr/fnr rate and ``pooled_counts`` gives the pooled pair.
    """
    groups = tuple(sorted(per_group))
    errors = np.zeros((1, len(groups) + 1), dtype=np.int64)
    sizes = np.zeros((2, len(groups) + 1), dtype=np.int64)
    if counts is not None:
        pairs = [counts[g] for g in groups] + [pooled_counts]
        errors[0] = [e for e, _ in pairs]
        sizes[1 if key.kind == "fpr" else 0] = [n for _, n in pairs]
    return BaseMetrics(
        groups=groups,
        keys=(key,),
        values=np.array([[per_group[g] for g in groups]], dtype=float),
        aggregates=np.array([aggregate], dtype=float),
        errors=errors,
        sizes=sizes,
    )


def by_group(groups: Sequence[GroupKey], row: np.ndarray) -> dict[GroupKey, float]:
    """One row of a (metrics x groups) array, keyed by GroupKey."""
    return dict(zip(groups, row.tolist(), strict=True))


def rates_at_threshold(
    target_scores: Sequence[float],
    nontarget_scores: Sequence[float],
    threshold: float,
) -> tuple[float, float]:
    """(fpr, fnr) at one threshold under the accept-iff-score>=t rule; a test reference."""
    tar = np.asarray(target_scores, dtype=float)
    non = np.asarray(nontarget_scores, dtype=float)
    fpr = float(np.count_nonzero(non >= threshold)) / non.size if non.size else math.nan
    fnr = float(np.count_nonzero(tar < threshold)) / tar.size if tar.size else math.nan
    return fpr, fnr
