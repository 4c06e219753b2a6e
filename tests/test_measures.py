"""Tests for the three per-group bias measures."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from biasaudit import (
    GroupMetricVector,
    ZeroAggregateError,
    ZeroGroupValueError,
    g2avg_log_ratio,
    g2avg_ratio,
    g2min_diff,
)
from helpers import gk

MALE = gk(gender="male")
FEMALE = gk(gender="female")


def vector(per_group, aggregate, name="eer", counts=None, agg_counts=None):
    return GroupMetricVector(
        metric_name=name,
        per_group=per_group,
        aggregate=aggregate,
        per_group_counts=counts,
        aggregate_counts=agg_counts,
    )


GENDER_EER = vector({MALE: 3.581, FEMALE: 3.757}, aggregate=3.657)


def test_g2min_diff_gender_table():
    result = g2min_diff(GENDER_EER)
    assert result.per_group[MALE] == 0.0
    assert result.per_group[FEMALE] == pytest.approx(0.176, abs=0.002)
    assert result.reference == "best_group:gender=male"


def test_g2min_diff_all_equal_is_zero():
    result = g2min_diff(vector({MALE: 1.5, FEMALE: 1.5}, aggregate=1.5))
    assert all(v == 0.0 for v in result.per_group.values())


def test_g2min_diff_intersectional_table():
    values = {
        gk(gender="female", nationality="IN"): 7.028,
        gk(gender="female", nationality="US"): 3.250,
        gk(gender="female", nationality="AUS"): 2.788,
        gk(gender="female", nationality="DE"): 10.641,
    }
    result = g2min_diff(vector(values, aggregate=3.657))
    expected = {"IN": 4.240, "US": 0.462, "AUS": 0.000, "DE": 7.853}
    for key, value in result.per_group.items():
        nationality = dict(zip(key.names, key.values))["nationality"]
        assert value == pytest.approx(expected[nationality], abs=0.002)


def test_g2min_diff_tie_breaks_to_lexicographically_smallest():
    result = g2min_diff(vector({MALE: 1.0, FEMALE: 1.0}, aggregate=1.0))
    assert result.reference == "best_group:gender=female"


def test_g2avg_ratio_gender_table():
    result = g2avg_ratio(GENDER_EER)
    assert result.per_group[MALE] == pytest.approx(0.979, abs=0.002)
    assert result.per_group[FEMALE] == pytest.approx(1.027, abs=0.002)


def test_g2avg_ratio_all_equal_to_aggregate_is_one():
    result = g2avg_ratio(vector({MALE: 2.0, FEMALE: 2.0}, aggregate=2.0))
    assert all(v == 1.0 for v in result.per_group.values())


def test_g2avg_ratio_zero_aggregate_is_error():
    with pytest.raises(ZeroAggregateError):
        g2avg_ratio(vector({MALE: 1.0, FEMALE: 2.0}, aggregate=0.0))


def test_g2avg_log_ratio_gender_table():
    result = g2avg_log_ratio(GENDER_EER)
    assert result.per_group[FEMALE] == pytest.approx(-0.027, abs=0.002)
    assert result.per_group[MALE] == pytest.approx(0.021, abs=0.002)


def test_g2avg_log_ratio_of_unity_ratio_is_zero():
    result = g2avg_log_ratio(vector({MALE: 2.0, FEMALE: 2.0}, aggregate=2.0))
    assert all(v == 0.0 for v in result.per_group.values())


def test_g2avg_log_ratio_worst_group_table():
    result = g2avg_log_ratio(vector({MALE: 10.641, FEMALE: 3.0}, aggregate=3.657))
    assert result.per_group[MALE] == pytest.approx(-1.068, abs=0.002)


def test_g2avg_log_ratio_matches_minus_log_of_ratio_exactly():
    v = vector({MALE: 0.7, FEMALE: 4.1}, aggregate=2.3)
    ratios = g2avg_ratio(v).per_group
    logs = g2avg_log_ratio(v).per_group
    for key, r in ratios.items():
        assert logs[key] == pytest.approx(-math.log(r), rel=1e-15)


def test_zero_policies_on_log_ratio():
    v = vector({MALE: 0.0, FEMALE: 2.0}, aggregate=1.0,
               counts={MALE: (0, 100), FEMALE: (200, 100)},
               agg_counts=(100, 100))
    with pytest.raises(ZeroGroupValueError):
        g2avg_log_ratio(v, zero_policy="error")
    result = g2avg_log_ratio(v, zero_policy="infinity")
    assert result.per_group[MALE] == math.inf
    # smooth re-forms every rate as (errors + 0.5) / (population + 0.5)
    result = g2avg_log_ratio(v, zero_policy="smooth")
    smoothed_male = 0.5 / 100.5
    smoothed_agg = 100.5 / 100.5
    assert result.per_group[MALE] == pytest.approx(-math.log(smoothed_male / smoothed_agg))


def test_smooth_without_counts_falls_back_to_error():
    v = vector({MALE: 0.0, FEMALE: 2.0}, aggregate=1.0)
    with pytest.raises(ZeroGroupValueError):
        g2avg_log_ratio(v, zero_policy="smooth")


def test_group_mean_average_mode():
    v = vector({MALE: 1.0, FEMALE: 3.0}, aggregate=5.0)
    pooled = g2avg_ratio(v, average_mode="pooled")
    mean = g2avg_ratio(v, average_mode="group_mean")
    assert pooled.per_group[MALE] == 1.0 / 5.0
    assert mean.per_group[MALE] == 1.0 / 2.0
    assert mean.reference == "average:group_mean"


def test_bad_policy_names_rejected():
    with pytest.raises(ValueError):
        g2avg_ratio(GENDER_EER, zero_policy="quiet")
    with pytest.raises(ValueError):
        g2avg_ratio(GENDER_EER, average_mode="median")


positive_vectors = st.builds(
    lambda values, aggregate: vector(
        {gk(g=f"g{i}"): v for i, v in enumerate(values)}, aggregate
    ),
    st.lists(st.floats(1e-4, 1e4), min_size=2, max_size=8),
    st.floats(1e-4, 1e4),
)


@given(positive_vectors, st.floats(1e-3, 1e3))
def test_scale_invariance_of_ratios(v, c):
    scaled = vector({g: c * x for g, x in v.per_group.items()}, c * v.aggregate)
    base = g2avg_ratio(v).per_group
    for key, value in g2avg_ratio(scaled).per_group.items():
        assert math.isclose(value, base[key], rel_tol=1e-12)
    base_log = g2avg_log_ratio(v).per_group
    for key, value in g2avg_log_ratio(scaled).per_group.items():
        assert math.isclose(value, base_log[key], rel_tol=1e-9, abs_tol=1e-9)


@given(positive_vectors, st.floats(1e-3, 1e3))
@example(vector({gk(g="g0"): 1.0000000000000002e-4, gk(g="g1"): 1e-4}, 1e-4), 0.001)
def test_differences_scale_linearly(v, c):
    """Each difference is the correctly rounded x - m, so it is linear in exact arithmetic.

    c*x - c*m == c*(x - m) does not hold in floats under cancellation (the
    example gives 1.3235e-23 against 1.3553e-23), so the property is
    stated on the rounding: for the vector and for its scaled copy, every
    g2min_diff value is the exact difference of its inputs, rounded once.
    """
    scaled = vector({g: c * x for g, x in v.per_group.items()}, c * v.aggregate)
    for w in (v, scaled):
        best = Fraction(min(w.per_group.values()))
        for key, value in g2min_diff(w).per_group.items():
            assert value == float(Fraction(w.per_group[key]) - best)


@given(positive_vectors)
def test_rank_preservation_across_measures(v):
    """Every measure is a monotone transform of the raw metric.

    Stated pairwise because float rounding may collapse raw values an
    ulp apart onto one measure value (log of near-equal inputs); a
    collapse to equality is fine, an inversion never is.
    """
    diff = g2min_diff(v).per_group
    ratio = g2avg_ratio(v).per_group
    log_ratio = g2avg_log_ratio(v).per_group
    keys = list(v.per_group)
    for a in keys:
        for b in keys:
            if v.per_group[a] < v.per_group[b]:
                assert diff[a] <= diff[b]
                assert ratio[a] <= ratio[b]
                # the log ratio ranks in the opposite direction
                assert log_ratio[a] >= log_ratio[b]


@given(positive_vectors)
def test_sign_coupling(v):
    ratio = g2avg_ratio(v).per_group
    log_ratio = g2avg_log_ratio(v).per_group
    for key in v.per_group:
        assert (log_ratio[key] > 0) == (ratio[key] < 1) == (v.per_group[key] < v.aggregate)
