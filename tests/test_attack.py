"""Tests for the repeated-attack exposure model."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from biasaudit import (
    AttackScenario,
    attempts_for_probability,
    compare_group_exposure,
    expected_time_to_success,
    success_probability,
)
from helpers import gk

fprs = st.floats(1e-6, 1.0, exclude_max=False)


def test_success_probability_certain_and_empty():
    assert success_probability(AttackScenario(fpr=1.0), 1) == 1.0
    assert success_probability(AttackScenario(fpr=0.3), 0) == 0.0


def test_success_probability_seventeen_hour_attack():
    # 1 - 0.999^1020 evaluated in the log domain: 0.63959
    value = success_probability(AttackScenario(fpr=0.001), 1020)
    assert value == pytest.approx(0.639, abs=0.001)


def test_expected_time_matches_inverse_fpr():
    assert expected_time_to_success(AttackScenario(0.001, 60.0)) == \
        pytest.approx((1000.0, 16.6667), abs=0.001)
    assert expected_time_to_success(AttackScenario(0.005, 60.0)) == \
        pytest.approx((200.0, 3.3333), abs=0.001)
    attempts, hours = expected_time_to_success(AttackScenario(1.0, 60.0))
    assert attempts == 1.0 and hours == pytest.approx(1 / 60)


def test_attempts_for_probability_examples():
    assert attempts_for_probability(AttackScenario(0.5), 0.5) == 1
    # ceil(ln 0.5 / ln 0.999) computed independently
    assert attempts_for_probability(AttackScenario(0.001), 0.5) == 693
    assert attempts_for_probability(AttackScenario(1.0), 0.9) == 1


def test_attempts_for_probability_rejects_bad_q():
    with pytest.raises(ValueError):
        attempts_for_probability(AttackScenario(0.5), 0.0)
    with pytest.raises(ValueError):
        attempts_for_probability(AttackScenario(0.5), 1.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        AttackScenario(fpr=0.0)
    with pytest.raises(ValueError):
        AttackScenario(fpr=1.5)
    with pytest.raises(ValueError):
        AttackScenario(fpr=0.5, attempts_per_hour=0.0)
    with pytest.raises(ValueError):
        AttackScenario(fpr=0.5, attempts_per_hour=math.inf)


@given(fprs, st.integers(0, 5000), st.integers(0, 5000))
def test_success_probability_monotone_in_attempts(fpr, n1, n2):
    s = AttackScenario(fpr=fpr)
    lo, hi = sorted((n1, n2))
    assert success_probability(s, lo) <= success_probability(s, hi)


@given(fprs, fprs, st.integers(1, 5000))
def test_success_probability_monotone_in_fpr(f1, f2, n):
    lo, hi = sorted((f1, f2))
    assert success_probability(AttackScenario(lo), n) <= \
        success_probability(AttackScenario(hi), n) + 1e-15


@given(fprs, fprs, st.floats(1.0, 1000.0))
@example(1.0000000000000002e-06, 1e-06, 1.5)
def test_expected_hours_strictly_decreasing_in_fpr(f1, f2, rate):
    """Expected hours fall strictly as the FPR rises, in exact arithmetic.

    Two adjacent FPRs can round to the same hours (the example above), so
    in floats each step must be one correctly rounded division of the
    exact quantities, which keeps the order and can only tie it.
    """
    lo, hi = sorted((f1, f2))
    if lo == hi:
        return
    _, hours_lo = expected_time_to_success(AttackScenario(lo, rate))
    _, hours_hi = expected_time_to_success(AttackScenario(hi, rate))
    assert hours_hi <= hours_lo
    for fpr, hours in ((lo, hours_lo), (hi, hours_hi)):
        attempts = float(1 / Fraction(fpr))
        assert hours == float(Fraction(attempts) / Fraction(rate))


@given(st.floats(1e-6, 0.999), st.floats(0.01, 0.99))
def test_attempts_for_probability_round_trip(fpr, q):
    """Returned n is the smallest attempt count reaching probability q."""
    s = AttackScenario(fpr=fpr)
    n = attempts_for_probability(s, q)
    assert success_probability(s, n) >= q
    if n > 1:
        assert success_probability(s, n - 1) < q


def test_compare_group_exposure_orders_worst_first():
    entries = compare_group_exposure([gk(g="a"), gk(g="b")], [0.001, 0.005],
                                     attempts_per_hour=60.0)
    assert [e.group for e in entries] == [gk(g="b"), gk(g="a")]
    assert entries[0].expected_hours == pytest.approx(3.3333, abs=0.001)
    assert entries[1].expected_hours == pytest.approx(16.6667, abs=0.001)
    # exposure ratio equals the inverse FPR ratio
    assert entries[1].expected_hours / entries[0].expected_hours == \
        pytest.approx(0.005 / 0.001, rel=1e-12)


def test_compare_group_exposure_single_group():
    entries = compare_group_exposure([gk(g="only")], [0.01])
    assert len(entries) == 1
    assert entries[0].expected_attempts == pytest.approx(100.0)


def test_compare_group_exposure_ties_keep_lexicographic_order():
    entries = compare_group_exposure([gk(g="b"), gk(g="a"), gk(g="c")], [0.01] * 3)
    assert [e.group for e in entries] == [gk(g="a"), gk(g="b"), gk(g="c")]
    assert len({e.expected_hours for e in entries}) == 1


def test_compare_group_exposure_flags_zero_fpr():
    entries = compare_group_exposure([gk(g="a"), gk(g="b")], [0.0, 0.002])
    flagged = [e for e in entries if e.zero_fpr]
    assert len(flagged) == 1
    assert flagged[0].group == gk(g="a")
    assert math.isinf(flagged[0].expected_hours)
    # flagged entries sort after every finite-exposure group
    assert entries[-1] is flagged[0]
