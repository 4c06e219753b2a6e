"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np

from biasaudit import GroupedTrials, GroupKey, Scores


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
