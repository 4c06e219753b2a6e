"""Tests for the three per-group bias measures."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from biasaudit import (
    MetricKey,
    ZeroAggregateError,
    ZeroGroupValueError,
    bias_measures,
    g2avg_log_ratio,
    g2avg_ratio,
    g2min_diff,
)
from helpers import by_group, gk, one_metric

MALE = gk(gender="male")
FEMALE = gk(gender="female")


def vector(per_group, aggregate, key=MetricKey("eer"), counts=None, agg_counts=(0, 0)):
    return one_metric(per_group, aggregate, key, counts, agg_counts)


def measure(name, v, **policy):
    """One measure of the one-row table ``v``, keyed by group."""
    return by_group(v.groups, getattr(bias_measures(v, **policy), name)[0])


def references(v, **policy):
    """Each measure's reference string for the one-row table ``v``."""
    return {name: reference for name, reference, _ in bias_measures(v, **policy).row(0)}


GENDER_EER = vector({MALE: 3.581, FEMALE: 3.757}, aggregate=3.657)


def test_g2min_diff_gender_table():
    result = measure("g2min_diff", GENDER_EER)
    assert result[MALE] == 0.0
    assert result[FEMALE] == pytest.approx(0.176, abs=0.002)
    assert references(GENDER_EER)["g2min_diff"] == "best_group:gender=male"


def test_g2min_diff_all_equal_is_zero():
    result = measure("g2min_diff", vector({MALE: 1.5, FEMALE: 1.5}, aggregate=1.5))
    assert all(v == 0.0 for v in result.values())


def test_g2min_diff_intersectional_table():
    values = {
        gk(gender="female", nationality="IN"): 7.028,
        gk(gender="female", nationality="US"): 3.250,
        gk(gender="female", nationality="AUS"): 2.788,
        gk(gender="female", nationality="DE"): 10.641,
    }
    result = measure("g2min_diff", vector(values, aggregate=3.657))
    expected = {"IN": 4.240, "US": 0.462, "AUS": 0.000, "DE": 7.853}
    for key, value in result.items():
        nationality = dict(zip(key.names, key.values))["nationality"]
        assert value == pytest.approx(expected[nationality], abs=0.002)


def test_g2min_diff_tie_breaks_to_lexicographically_smallest():
    v = vector({MALE: 1.0, FEMALE: 1.0}, aggregate=1.0)
    assert references(v)["g2min_diff"] == "best_group:gender=female"


def test_g2avg_ratio_gender_table():
    result = measure("g2avg_ratio", GENDER_EER)
    assert result[MALE] == pytest.approx(0.979, abs=0.002)
    assert result[FEMALE] == pytest.approx(1.027, abs=0.002)


def test_g2avg_ratio_all_equal_to_aggregate_is_one():
    result = measure("g2avg_ratio", vector({MALE: 2.0, FEMALE: 2.0}, aggregate=2.0))
    assert all(v == 1.0 for v in result.values())


def test_g2avg_ratio_zero_aggregate_is_error():
    with pytest.raises(ZeroAggregateError):
        bias_measures(vector({MALE: 1.0, FEMALE: 2.0}, aggregate=0.0))


@pytest.mark.parametrize("key, population, way_out", [
    (MetricKey("fpr", 0.0001), "nontarget", "larger"),
    (MetricKey("fnr", 0.5), "target", "smaller"),
], ids=lambda value: getattr(value, "name", None))
def test_zero_pooled_rate_error_explains_resolution(key, population, way_out):
    v = vector({MALE: 0.0, FEMALE: 0.0}, aggregate=0.0, key=key,
               counts={MALE: (0, 600), FEMALE: (0, 600)}, agg_counts=(0, 1200))
    message = (
        rf"0 of 1,200 pooled {population} trials are errors .* cannot resolve a rate "
        rf"below 1/1,200; use a {way_out} design FPR or zero_policy=smooth"
    )
    with pytest.raises(ZeroAggregateError, match=message):
        bias_measures(v, zero_policy="infinity")


def test_g2avg_log_ratio_gender_table():
    result = measure("g2avg_log_ratio", GENDER_EER)
    assert result[FEMALE] == pytest.approx(-0.027, abs=0.002)
    assert result[MALE] == pytest.approx(0.021, abs=0.002)


def test_g2avg_log_ratio_of_unity_ratio_is_zero():
    result = measure("g2avg_log_ratio", vector({MALE: 2.0, FEMALE: 2.0}, aggregate=2.0))
    assert all(v == 0.0 for v in result.values())


def test_g2avg_log_ratio_worst_group_table():
    result = measure("g2avg_log_ratio", vector({MALE: 10.641, FEMALE: 3.0}, aggregate=3.657))
    assert result[MALE] == pytest.approx(-1.068, abs=0.002)


def padded_keys(n):
    """n group keys whose sorted order is their index order."""
    return [gk(g=f"g{i:03d}") for i in range(n)]


@given(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=200), st.floats(0.5, 2.0))
@example([0.7, 4.1], 2.3)
@example(np.random.default_rng(5).uniform(0.5, 2.0, 200).tolist(), 1.0)
def test_g2avg_log_ratio_matches_minus_log_of_ratio_exactly(values, aggregate):
    """Each log ratio is math.log of the ratio, bit for bit.

    Ratios near 1 are where NumPy's SIMD log most often differs from
    math.log in the last bit (3 of the 200 fixed ratios above with
    NumPy 2.4 on an x86-64 host with AVX-512).
    """
    v = vector(dict(zip(padded_keys(len(values)), values)), aggregate)
    ratios = measure("g2avg_ratio", v)
    logs = measure("g2avg_log_ratio", v)
    for key, value in zip(padded_keys(len(values)), values):
        assert ratios[key] == value / aggregate
        assert logs[key] == -math.log(value / aggregate)


def test_measure_array_functions_work_row_wise():
    values = np.array([[1.0, 4.0, 2.0], [3.0, 3.0, 6.0]])
    diffs, best = g2min_diff(values)
    assert diffs.tolist() == [[0.0, 3.0, 1.0], [0.0, 0.0, 3.0]]
    assert best.tolist() == [0, 0]
    ratios = g2avg_ratio(values, np.array([2.0, 3.0]))
    assert ratios.tolist() == [[0.5, 2.0, 1.0], [1.0, 1.0, 2.0]]
    logs = g2avg_log_ratio(np.array([[1.0, 0.0]]))
    assert logs.tolist() == [[-0.0, math.inf]]


def test_zero_policies_on_log_ratio():
    v = vector({MALE: 0.0, FEMALE: 2.0}, aggregate=1.0, key=MetricKey("fpr", 0.1),
               counts={MALE: (0, 100), FEMALE: (200, 100)},
               agg_counts=(100, 100))
    with pytest.raises(ZeroGroupValueError):
        bias_measures(v, zero_policy="error")
    result = measure("g2avg_log_ratio", v, zero_policy="infinity")
    assert result[MALE] == math.inf
    # smooth re-forms every rate as (errors + 0.5) / (population + 0.5)
    result = measure("g2avg_log_ratio", v, zero_policy="smooth")
    smoothed_male = 0.5 / 100.5
    smoothed_agg = 100.5 / 100.5
    assert result[MALE] == pytest.approx(-math.log(smoothed_male / smoothed_agg))


def test_smooth_without_counts_falls_back_to_error():
    v = vector({MALE: 0.0, FEMALE: 2.0}, aggregate=1.0)
    with pytest.raises(ZeroGroupValueError):
        bias_measures(v, zero_policy="smooth")


@given(st.lists(st.floats(1e-4, 1e4), min_size=2, max_size=200), st.floats(1e-4, 1e4))
@example([3.0, 1.0], 5.0)
@example(np.random.default_rng(0).uniform(1e-4, 1e4, 200).tolist(), 1.0)
def test_group_mean_average_mode(values, aggregate):
    """The group_mean average is the left-to-right sum over groups divided by n, exactly."""
    keys = padded_keys(len(values))
    v = vector(dict(zip(keys, values)), aggregate)
    pooled = measure("g2avg_ratio", v, average_mode="pooled")
    mean = measure("g2avg_ratio", v, average_mode="group_mean")
    average = sum(values) / len(values)
    for key, value in zip(keys, values):
        assert pooled[key] == value / aggregate
        assert mean[key] == value / average
    assert references(v, average_mode="group_mean")["g2avg_ratio"] == "average:group_mean"


def test_bad_policy_names_rejected():
    with pytest.raises(ValueError):
        bias_measures(GENDER_EER, zero_policy="quiet")
    with pytest.raises(ValueError):
        bias_measures(GENDER_EER, average_mode="median")


positive_vectors = st.builds(
    lambda values, aggregate: vector(
        {gk(g=f"g{i}"): v for i, v in enumerate(values)}, aggregate
    ),
    st.lists(st.floats(1e-4, 1e4), min_size=2, max_size=8),
    st.floats(1e-4, 1e4),
)


def scaled_by(v, c):
    return vector({g: c * x for g, x in by_group(v.groups, v.values[0]).items()},
                  c * float(v.aggregates[0]))


@given(positive_vectors, st.floats(1e-3, 1e3))
def test_scale_invariance_of_ratios(v, c):
    scaled = scaled_by(v, c)
    base = measure("g2avg_ratio", v)
    for key, value in measure("g2avg_ratio", scaled).items():
        assert math.isclose(value, base[key], rel_tol=1e-12)
    base_log = measure("g2avg_log_ratio", v)
    for key, value in measure("g2avg_log_ratio", scaled).items():
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
    scaled = scaled_by(v, c)
    for w in (v, scaled):
        raw = by_group(w.groups, w.values[0])
        best = Fraction(min(raw.values()))
        for key, value in measure("g2min_diff", w).items():
            assert value == float(Fraction(raw[key]) - best)


@given(positive_vectors)
def test_rank_preservation_across_measures(v):
    """Every measure is a monotone transform of the raw metric.

    Stated pairwise because float rounding may collapse raw values an
    ulp apart onto one measure value (log of near-equal inputs); a
    collapse to equality is fine, an inversion never is.
    """
    raw = by_group(v.groups, v.values[0])
    diff = measure("g2min_diff", v)
    ratio = measure("g2avg_ratio", v)
    log_ratio = measure("g2avg_log_ratio", v)
    for a in raw:
        for b in raw:
            if raw[a] < raw[b]:
                assert diff[a] <= diff[b]
                assert ratio[a] <= ratio[b]
                # the log ratio ranks in the opposite direction
                assert log_ratio[a] >= log_ratio[b]


@given(positive_vectors)
def test_sign_coupling(v):
    raw = by_group(v.groups, v.values[0])
    ratio = measure("g2avg_ratio", v)
    log_ratio = measure("g2avg_log_ratio", v)
    for key in raw:
        assert (log_ratio[key] > 0) == (ratio[key] < 1) == (raw[key] < v.aggregates[0])
