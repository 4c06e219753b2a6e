"""Tests for threshold sweeps, EER, minCDet, and disaggregation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasaudit import (
    DcfParams,
    DegenerateGroupError,
    EmptyPopulationError,
    base_metrics,
    compute_sweep,
    design_point_rates,
    eer,
    split_scores,
    min_cdet,
    rates_at_threshold,
    threshold_for_fpr,
)
from helpers import gk, grouped_from_scores


def split_groups(grouped):
    """Per-group and pooled (target, nontarget) arrays, as base_metrics splits them."""
    per_group = {key: split_scores(trials) for key, trials in sorted(grouped.groups.items())}
    return per_group, split_scores(grouped.all_trials())

score_lists = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=80
)


def brute_force_rates(tar, non, taus):
    """Independent rate computation: direct comparison counting."""
    tar = np.asarray(tar, dtype=float)
    non = np.asarray(non, dtype=float)
    fpr = np.array([np.sum(non >= t) for t in taus]) / non.size
    fnr = np.array([np.sum(tar < t) for t in taus]) / tar.size
    return fpr, fnr


def test_sweep_perfect_separation():
    curve = compute_sweep([2.0], [0.0])
    i = list(curve.thresholds).index(2.0)
    assert curve.fpr[i] == 0.0 and curve.fnr[i] == 0.0


def test_sweep_anti_separation():
    curve = compute_sweep([0.0], [2.0])
    assert np.all(curve.fpr + curve.fnr >= 1.0)


def test_sweep_four_score_instance():
    curve = compute_sweep([1, 3], [0, 2])
    i = list(curve.thresholds).index(2.0)
    assert curve.fpr[i] == 0.5 and curve.fnr[i] == 0.5


def test_sweep_rejects_empty_population():
    with pytest.raises(EmptyPopulationError):
        compute_sweep([], [1.0])
    with pytest.raises(EmptyPopulationError):
        compute_sweep([1.0], [])


def test_sweep_rejects_non_finite():
    with pytest.raises(ValueError):
        compute_sweep([math.nan], [0.0])


@given(score_lists, score_lists)
def test_sweep_invariants(tar, non):
    curve = compute_sweep(tar, non)
    n_grid = curve.thresholds.size
    assert curve.fpr.size == n_grid and curve.fnr.size == n_grid >= 1
    # monotonicity in the threshold
    assert np.all(np.diff(curve.fpr) <= 0)
    assert np.all(np.diff(curve.fnr) >= 0)
    # endpoints: everything accepted at the lowest grid point, nothing at the sentinel
    assert curve.fpr[0] == 1.0 and curve.fnr[0] == 0.0
    assert math.isinf(curve.thresholds[-1])
    assert curve.fpr[-1] == 0.0 and curve.fnr[-1] == 1.0
    # counting identity: rates times population sizes are integers
    assert np.allclose(curve.fpr * curve.n_nontarget,
                       np.round(curve.fpr * curve.n_nontarget), atol=1e-9)
    assert np.allclose(curve.fnr * curve.n_target,
                       np.round(curve.fnr * curve.n_target), atol=1e-9)


@given(score_lists, score_lists)
@settings(max_examples=40)
def test_sweep_matches_brute_force_counting(tar, non):
    curve = compute_sweep(tar, non)
    fpr, fnr = brute_force_rates(tar, non, curve.thresholds)
    assert np.array_equal(curve.fpr, fpr)
    assert np.array_equal(curve.fnr, fnr)


def test_eer_perfect_separation_is_zero():
    assert eer(compute_sweep([2.0], [0.0])) == (0.0, 2.0)


def test_eer_four_score_instance():
    # brute force over the 5 grid thresholds puts the fnr=fpr tie at 2.0
    value, threshold = eer(compute_sweep([1, 3], [0, 2]))
    assert value == 0.5
    assert threshold == 2.0


def test_eer_interpolates_between_grid_points():
    # 3 targets vs 2 nontargets: fnr-fpr jumps from -1/6 at tau=1.5 to +1/6 at
    # tau=2 with no exact tie anywhere; hand interpolation puts the crossing at
    # the segment midpoint: value (1/3 + 2/3)/2 = 0.5, threshold 1.75
    curve = compute_sweep([0.5, 1.5, 2.5], [1.0, 2.0])
    value, threshold = eer(curve)
    d = curve.fnr - curve.fpr
    assert not np.any(d == 0.0)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert threshold == pytest.approx(1.75, abs=1e-12)


def test_eer_gaussian_matches_normal_cdf():
    rng = np.random.default_rng(123)
    tar = rng.normal(2.0, 1.0, 50_000)
    non = rng.normal(0.0, 1.0, 50_000)
    value, threshold = eer(compute_sweep(tar, non))
    assert value == pytest.approx(0.15866, abs=0.01)  # Phi(-1)
    assert threshold == pytest.approx(1.0, abs=0.05)  # midpoint of the two means


def test_min_cdet_perfect_separation_is_zero():
    cost, _ = min_cdet(compute_sweep([2.0], [0.0]), DcfParams())
    assert cost == 0.0


def test_min_cdet_four_score_instance():
    # exhaustive oracle over the 5 grid thresholds: cost 0.25 at tau 1 and 3;
    # smallest-threshold tie-break picks 1.0
    params = DcfParams(c_miss=1.0, c_fa=1.0, p_target=0.5, normalize=False)
    cost, threshold = min_cdet(compute_sweep([1, 3], [0, 2]), params)
    assert cost == 0.25
    assert threshold == 1.0


def test_min_cdet_normalization():
    params = DcfParams(c_miss=1.0, c_fa=1.0, p_target=0.5, normalize=True)
    cost, _ = min_cdet(compute_sweep([1, 3], [0, 2]), params)
    assert cost == 0.25 / 0.5


@given(score_lists, score_lists, st.floats(0.01, 0.99))
@settings(max_examples=40)
def test_min_cdet_matches_exhaustive_scan(tar, non, p_target):
    params = DcfParams(c_miss=1.0, c_fa=2.0, p_target=p_target, normalize=False)
    curve = compute_sweep(tar, non)
    cost, threshold = min_cdet(curve, params)
    fpr, fnr = brute_force_rates(tar, non, curve.thresholds)
    costs = params.c_miss * params.p_target * fnr + params.c_fa * (1 - params.p_target) * fpr
    i = int(np.argmin(costs))
    assert cost == costs[i]
    assert threshold == curve.thresholds[i]


def test_dcf_params_validation():
    with pytest.raises(ValueError):
        DcfParams(c_miss=0.0)
    with pytest.raises(ValueError):
        DcfParams(c_miss=math.inf)
    with pytest.raises(ValueError):
        DcfParams(c_fa=math.inf)
    with pytest.raises(ValueError):
        DcfParams(p_target=1.0)


def test_threshold_for_fpr_boundaries():
    curve = compute_sweep([1, 3], [0, 2])
    op = threshold_for_fpr(curve, 1.0)
    assert op.threshold == 0.0 and op.fpr == 1.0
    # separable case: tight target reaches the zero-error operating point
    op = threshold_for_fpr(compute_sweep([2.0], [0.0]), 0.001)
    assert op.threshold == 2.0 and op.fpr == 0.0 and op.fnr == 0.0


def test_threshold_for_fpr_rejects_bad_target():
    curve = compute_sweep([1.0], [0.0])
    with pytest.raises(ValueError):
        threshold_for_fpr(curve, 0.0)
    with pytest.raises(ValueError):
        threshold_for_fpr(curve, 1.5)


@given(score_lists, score_lists, st.floats(0.001, 1.0))
def test_threshold_for_fpr_never_exceeds_target(tar, non, target):
    op = threshold_for_fpr(compute_sweep(tar, non), target)
    assert op.fpr <= target


@given(score_lists, score_lists)
def test_threshold_for_fpr_antitone_in_target(tar, non):
    curve = compute_sweep(tar, non)
    thresholds = [threshold_for_fpr(curve, t).threshold
                  for t in (0.5, 0.1, 0.01)]
    assert thresholds == sorted(thresholds)


def test_rates_at_threshold_matches_sweep_grid():
    tar, non = [0.5, 1.5, 2.5], [-1.0, 0.0, 1.0]
    curve = compute_sweep(tar, non)
    for i, t in enumerate(curve.thresholds[:-1]):
        fpr, fnr = rates_at_threshold(tar, non, float(t))
        assert fpr == curve.fpr[i] and fnr == curve.fnr[i]


def test_disaggregate_identical_groups_are_symmetric():
    scores = ([1.0, 2.0, 3.0], [-1.0, 0.0, 1.5])
    grouped = grouped_from_scores({gk(g="a"): scores, gk(g="b"): scores})
    vector = base_metrics(grouped, ()).eer
    values = list(vector.per_group.values())
    assert values[0] == values[1] == vector.aggregate


def test_disaggregate_two_gaussian_groups():
    rng = np.random.default_rng(77)
    n = 25_000
    grouped = grouped_from_scores({
        gk(g="a"): (rng.normal(2, 1, n).tolist(), rng.normal(0, 1, n).tolist()),
        gk(g="b"): (rng.normal(1, 1, n).tolist(), rng.normal(0, 1, n).tolist()),
    })
    vector = base_metrics(grouped, ()).eer
    assert vector.per_group[gk(g="a")] == pytest.approx(0.15866, abs=0.01)
    assert vector.per_group[gk(g="b")] == pytest.approx(0.30854, abs=0.01)


def test_disaggregate_degenerate_group_raises():
    grouped = grouped_from_scores({gk(g="a"): ([1.0], [0.0])})
    grouped.groups[gk(g="b")] = grouped.groups[gk(g="a")][:1]  # targets only
    with pytest.raises(DegenerateGroupError):
        base_metrics(grouped, ())


def test_disaggregate_min_cdet_uses_params():
    grouped = grouped_from_scores({gk(g="a"): ([1.0, 3.0], [0.0, 2.0])})
    params = DcfParams(c_miss=1.0, c_fa=1.0, p_target=0.5, normalize=False)
    vector = base_metrics(grouped, (), params).min_cdet
    assert vector.per_group[gk(g="a")] == 0.25
    assert vector.metric_name == "min_cdet"


def test_disaggregate_at_threshold_boundaries():
    grouped = grouped_from_scores({
        gk(g="a"): ([1.0, 2.0], [0.0, 0.5]),
        gk(g="b"): ([1.5], [0.25]),
    })
    split = split_groups(grouped)
    low, low_fnr = design_point_rates(*split, 0.1, -10.0)
    assert all(v == 1.0 for v in low.per_group.values())
    assert all(v == 0.0 for v in low_fnr.per_group.values())
    high, high_fnr = design_point_rates(*split, 0.1, 10.0)
    assert all(v == 0.0 for v in high.per_group.values())
    assert all(v == 1.0 for v in high_fnr.per_group.values())


def test_disaggregate_at_threshold_pooled_equals_group_when_identical():
    # a group identical to the pooled population reproduces the pooled rate exactly
    scores = ([0.5, 1.5, 2.5], [-0.5, 0.0, 1.0])
    grouped = grouped_from_scores({gk(g="only"): scores})
    vector, _ = design_point_rates(*split_groups(grouped), 0.1, 0.75)
    assert vector.per_group[gk(g="only")] == vector.aggregate


def test_disaggregate_at_threshold_records_counts():
    grouped = grouped_from_scores({gk(g="a"): ([1.0, 2.0], [0.0, 0.5, 1.5])})
    split = split_groups(grouped)
    vector, _ = design_point_rates(*split, 0.025, 1.0)
    assert vector.metric_name == "fpr@0.025"
    assert vector.per_group_counts[gk(g="a")] == (1, 3)
    assert vector.aggregate_counts == (1, 3)
    _, vector = design_point_rates(*split, 0.025, 1.5)
    assert vector.metric_name == "fnr@0.025"
    assert vector.per_group_counts[gk(g="a")] == (1, 2)
