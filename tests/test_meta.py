"""Tests for the FDR and normalised-reliability-bias meta-measures."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasaudit import (
    DcfParams,
    GroupMetricVector,
    GroupSetMismatchError,
    base_metrics,
    fdr,
    fdr_grid,
    nrb,
    nrb_suite,
)
from helpers import gk, grouped_from_scores


def vector(per_group, aggregate, name="fpr@0.001"):
    return GroupMetricVector(metric_name=name, per_group=per_group, aggregate=aggregate)


def male_groups(values):
    nationalities = ("IN", "US", "AUS", "DE")
    return {gk(gender="m", nationality=n): v for n, v in zip(nationalities, values)}


def test_fdr_identical_rates_is_one_for_every_alpha():
    fprs = vector({gk(g="a"): 0.2, gk(g="b"): 0.2}, aggregate=0.2)
    fnrs = vector({gk(g="a"): 0.4, gk(g="b"): 0.4}, aggregate=0.4, name="fnr@0.001")
    for alpha in (0.0, 0.25, 0.5, 1.0):
        assert fdr(fprs, fnrs, alpha, 0.001, 1.0).fdr == 1.0


def test_fdr_table_male_column_at_alpha_one():
    # max gap 0.005 - 0.000 across the four male FPRs
    fprs = vector(male_groups([0.005, 0.000, 0.001, 0.002]), aggregate=0.001)
    fnrs = vector(male_groups([0.1, 0.1, 0.1, 0.1]), aggregate=0.1, name="fnr@0.001")
    result = fdr(fprs, fnrs, alpha=1.0, design_fpr=0.001, threshold=0.0)
    assert result.fdr == pytest.approx(0.995, abs=1e-12)
    assert result.max_delta_fpr == pytest.approx(0.005, abs=1e-12)


def test_fdr_convex_combination_arithmetic():
    fprs = vector({gk(g="a"): 0.2, gk(g="b"): 0.0}, aggregate=0.1)
    fnrs = vector({gk(g="a"): 0.0, gk(g="b"): 0.4}, aggregate=0.2, name="fnr")
    result = fdr(fprs, fnrs, alpha=0.5, design_fpr=0.01, threshold=0.0)
    assert result.fdr == pytest.approx(0.7, abs=1e-12)


def test_fdr_group_set_mismatch():
    fprs = vector({gk(g="a"): 0.1, gk(g="b"): 0.2}, aggregate=0.1)
    fnrs = vector({gk(g="a"): 0.1, gk(g="c"): 0.2}, aggregate=0.1)
    with pytest.raises(GroupSetMismatchError):
        fdr(fprs, fnrs, 0.5, 0.01, 0.0)


def test_fdr_rejects_alpha_out_of_range():
    fprs = vector({gk(g="a"): 0.1}, aggregate=0.1)
    with pytest.raises(ValueError):
        fdr(fprs, fprs, 1.5, 0.01, 0.0)


def test_fdr_result_invariant_recomputes():
    fprs = vector({gk(g="a"): 0.3, gk(g="b"): 0.1}, aggregate=0.2)
    fnrs = vector({gk(g="a"): 0.05, gk(g="b"): 0.25}, aggregate=0.15, name="fnr")
    result = fdr(fprs, fnrs, 0.25, 0.05, 1.25)
    expected = 1.0 - (result.alpha * result.max_delta_fpr
                      + (1.0 - result.alpha) * result.max_delta_fnr)
    assert result.fdr == expected
    assert 0.0 <= result.fdr <= 1.0


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_fdr_affine_in_alpha(fpr_values, fnr_values):
    n = min(len(fpr_values), len(fnr_values))
    keys = [gk(g=f"g{i}") for i in range(n)]
    fprs = vector(dict(zip(keys, fpr_values)), aggregate=0.5)
    fnrs = vector(dict(zip(keys, fnr_values)), aggregate=0.5, name="fnr")
    at = {a: fdr(fprs, fnrs, a, 0.01, 0.0) for a in (0.0, 0.5, 1.0)}
    assert at[0.0].fdr == pytest.approx(1.0 - at[0.0].max_delta_fnr, abs=1e-12)
    assert at[1.0].fdr == pytest.approx(1.0 - at[1.0].max_delta_fpr, abs=1e-12)
    midpoint = 0.5 * (at[0.0].fdr + at[1.0].fdr)
    assert at[0.5].fdr == pytest.approx(midpoint, abs=1e-12)


@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.floats(0.001, 1.0),
    st.floats(0.0, 1.0),
)
def test_fdr_magnitude_sensitivity(fpr_values, fnr_values, c, alpha):
    """Scaling every rate by c in (0, 1] scales the bias term by c exactly."""
    n = min(len(fpr_values), len(fnr_values))
    keys = [gk(g=f"g{i}") for i in range(n)]
    fprs = vector(dict(zip(keys, fpr_values)), aggregate=0.5)
    fnrs = vector(dict(zip(keys, fnr_values)), aggregate=0.5, name="fnr")
    scaled_fprs = vector({k: c * v for k, v in fprs.per_group.items()}, 0.5)
    scaled_fnrs = vector({k: c * v for k, v in fnrs.per_group.items()}, 0.5, name="fnr")
    base = fdr(fprs, fnrs, alpha, 0.01, 0.0).fdr
    scaled = fdr(scaled_fprs, scaled_fnrs, alpha, 0.01, 0.0).fdr
    assert math.isclose(1.0 - scaled, c * (1.0 - base), rel_tol=1e-12, abs_tol=1e-15)


def test_fdr_grid_cardinality_and_order():
    rng = np.random.default_rng(3)
    grouped = grouped_from_scores({
        gk(g="a"): (rng.normal(2, 1, 500).tolist(), rng.normal(0, 1, 500).tolist()),
        gk(g="b"): (rng.normal(1, 1, 500).tolist(), rng.normal(0, 1, 500).tolist()),
    })
    grid = fdr_grid(base_metrics(grouped, (0.1, 0.01)), alphas=(1.0, 0.5, 0.0))
    assert len(grid) == 6
    assert [(r.design_fpr, r.alpha) for r in grid] == [
        (0.01, 0.0), (0.01, 0.5), (0.01, 1.0),
        (0.1, 0.0), (0.1, 0.5), (0.1, 1.0),
    ]


def test_fdr_grid_single_group_is_one_everywhere():
    grouped = grouped_from_scores({gk(g="only"): ([1.0, 2.0, 3.0], [-1.0, 0.0, 0.5])})
    grid = fdr_grid(base_metrics(grouped, (0.5, 0.1)), alphas=(0.0, 0.5, 1.0))
    assert all(r.fdr == 1.0 for r in grid)


def test_fdr_grid_trend_gaps_shrink_with_design_fpr():
    # two nontarget distributions offset by 0.8 sigma: the group FPR gap
    # shrinks as the shared threshold climbs, so at alpha=1 the FDR rises
    # as the design FPR falls
    rng = np.random.default_rng(11)
    n = 20_000
    grouped = grouped_from_scores({
        gk(g="a"): (rng.normal(3, 1, n).tolist(), rng.normal(0, 1, n).tolist()),
        gk(g="b"): (rng.normal(3, 1, n).tolist(), rng.normal(0.8, 1, n).tolist()),
    })
    grid = fdr_grid(base_metrics(grouped, (0.1, 0.01, 0.001)), alphas=(1.0,))
    by_design = {r.design_fpr: r.fdr for r in grid}
    assert by_design[0.001] > by_design[0.01] > by_design[0.1]


def test_nrb_all_equal_is_zero():
    v = vector({gk(g="a"): 0.3, gk(g="b"): 0.3}, aggregate=0.3)
    result = nrb(v)
    assert result.nrb == 0.0
    assert result.group_count == 2


def test_nrb_male_table_magnitudes():
    # hand arithmetic: (1.659 + 0.912 + 0 + 0.654) / 4 = 0.80625
    values = male_groups([math.exp(-1.659), math.exp(0.912), 1.0, math.exp(-0.654)])
    result = nrb(vector(values, aggregate=1.0))
    assert result.nrb == pytest.approx(0.80625, abs=1e-9)


def test_nrb_symmetric_ratio_pair():
    r = 3.7
    v = vector({gk(g="a"): r, gk(g="b"): 1.0 / r}, aggregate=1.0)
    assert nrb(v).nrb == pytest.approx(math.log(r), rel=1e-12)


def test_nrb_result_invariant_recomputes():
    v = vector({gk(g="a"): 0.4, gk(g="b"): 0.1, gk(g="c"): 0.2}, aggregate=0.2)
    result = nrb(v)
    expected = sum(abs(x) for x in result.per_group_log_ratios.values()) / result.group_count
    assert result.nrb == expected


def test_nrb_infinity_policy_flags_offenders():
    v = GroupMetricVector(
        "fpr@0.001",
        {gk(g="a"): 0.0, gk(g="b"): 0.01},
        aggregate=0.005,
    )
    result = nrb(v, zero_policy="infinity")
    assert math.isinf(result.nrb)
    assert result.zero_value_groups == (gk(g="a"),)


@given(
    st.lists(st.floats(1e-4, 1e4), min_size=2, max_size=8),
    st.floats(1e-4, 1e4),
    st.floats(1e-3, 1e3),
)
def test_nrb_scale_invariance(values, aggregate, c):
    keys = [gk(g=f"g{i}") for i in range(len(values))]
    v = vector(dict(zip(keys, values)), aggregate)
    scaled = vector({k: c * x for k, x in v.per_group.items()}, c * aggregate)
    assert math.isclose(nrb(scaled).nrb, nrb(v).nrb, rel_tol=1e-9, abs_tol=1e-9)


@given(st.lists(st.floats(1e-4, 1e4), min_size=2, max_size=8), st.floats(1e-4, 1e4))
def test_nrb_zero_iff_every_group_equals_aggregate(values, aggregate):
    keys = [gk(g=f"g{i}") for i in range(len(values))]
    v = vector(dict(zip(keys, values)), aggregate)
    result = nrb(v)
    if all(x == aggregate for x in values):
        assert result.nrb == 0.0
    else:
        assert result.nrb > 0.0


def test_meta_measures_are_permutation_invariant():
    values = {gk(g="a"): 0.1, gk(g="b"): 0.4, gk(g="c"): 0.2}
    reordered = dict(reversed(list(values.items())))
    assert nrb(vector(values, 0.2)).nrb == nrb(vector(reordered, 0.2)).nrb
    fnrs = {gk(g="a"): 0.3, gk(g="b"): 0.1, gk(g="c"): 0.5}
    forward = fdr(vector(values, 0.2), vector(fnrs, 0.3, name="fnr"), 0.3, 0.01, 0.0)
    backward = fdr(
        vector(reordered, 0.2),
        vector(dict(reversed(list(fnrs.items()))), 0.3, name="fnr"),
        0.3, 0.01, 0.0,
    )
    assert forward.fdr == backward.fdr


def test_nrb_suite_identical_groups_is_all_zero():
    # overlapping scores keep every base metric strictly positive
    scores = ([0.5, 1.5, 2.5, 3.5], [0.0, 1.0, 2.0, 3.0])
    grouped = grouped_from_scores({gk(g="a"): scores, gk(g="b"): scores})
    suite = nrb_suite(base_metrics(grouped, (0.5,), DcfParams()))
    assert all(r.nrb == 0.0 for r in suite)


def test_nrb_suite_cardinality_and_order():
    # group b overlaps (a target below every nontarget) so every pooled
    # aggregate stays positive; group a is separable and its zero metrics
    # go to +inf under the infinity policy
    scores_a = ([1.0, 2.0, 3.0], [-1.0, 0.0, 0.5])
    scores_b = ([-2.0, 2.5], [-0.5, 1.0])
    grouped = grouped_from_scores({gk(g="a"): scores_a, gk(g="b"): scores_b})
    suite = nrb_suite(base_metrics(grouped, (0.25, 0.5), DcfParams()),
                      zero_policy="infinity")
    assert [r.metric_name for r in suite] == [
        "eer", "min_cdet", "fpr@0.5", "fnr@0.5", "fpr@0.25", "fnr@0.25",
    ]


def test_nrb_suite_constant_ratio_ladder():
    """A 5:1 FPR gap held across thresholds keeps nrb(FPR@t) at ln(5)/2
    while the absolute FPR gap shrinks with the design FPR."""
    n = 6000
    ladder = [6.0 - 0.01 * j for j in range(1, 41)]
    non_a = [v for v in ladder for _ in range(5)] + [-5.0] * (n - 5 * len(ladder))
    non_b = list(ladder) + [-5.0] * (n - len(ladder))
    tar = [12.0] * (n - 60) + [-6.0] * 60
    grouped = grouped_from_scores({gk(g="a"): (tar, non_a), gk(g="b"): (tar, non_b)})

    base = base_metrics(grouped, (0.01, 0.002), DcfParams())
    suite = nrb_suite(base)
    by_name = {r.metric_name: r for r in suite}
    for name in ("fpr@0.01", "fpr@0.002"):
        # groups at 5x/3 and x/3 the aggregate: mean |log ratio| = ln(5)/2
        assert by_name[name].nrb == pytest.approx(math.log(5.0) / 2.0, rel=1e-9)
        ratios = by_name[name].per_group_log_ratios
        assert ratios[gk(g="a")] == pytest.approx(-math.log(5.0 / 3.0), rel=1e-9)
        assert ratios[gk(g="b")] == pytest.approx(math.log(3.0), rel=1e-9)
    # while the ratio-based measure holds constant, the absolute gap shrinks
    grid = fdr_grid(base, alphas=(1.0,))
    gaps = {r.design_fpr: r.max_delta_fpr for r in grid}
    assert gaps[0.002] < gaps[0.01]
    assert gaps[0.01] == pytest.approx((100 - 20) / 6000, rel=1e-12)
    assert gaps[0.002] == pytest.approx((20 - 4) / 6000, rel=1e-12)
