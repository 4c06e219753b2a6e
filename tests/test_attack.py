"""Tests for the repeated-attack exposure model."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from biasaudit import (
    AttackScenario,
    attempts_for_probability,
    expected_time_to_success,
    exposure,
    report_to_dict,
    success_probability,
)
from biasaudit.cli import main
from helpers import gk, rate_metrics, report_of

fprs = st.floats(1e-6, 1.0, exclude_max=False)


def exposure_rows(fprs_by_group, attempts_per_hour=60.0, target_probability=0.5):
    """The report's attack-scenario rows for one design point with these group FPRs."""
    base = rate_metrics({key: [fpr] for key, fpr in fprs_by_group.items()})
    report = report_of(base, attempts_per_hour=attempts_per_hour,
                       target_probability=target_probability)
    (block,) = report_to_dict(report)["attack_scenarios"]
    return block["rows"]


def test_success_probability_certain_and_empty():
    assert success_probability(AttackScenario(fpr=1.0), 1) == 1.0
    assert success_probability(AttackScenario(fpr=0.3), 0) == 0.0


def test_success_probability_rejects_negative_attempts():
    with pytest.raises(ValueError, match="n_attempts must be nonnegative"):
        success_probability(AttackScenario(0.1), -1)


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


@pytest.mark.parametrize("fpr", [1e-300, 1e-320])
def test_attempts_for_probability_rejects_counts_past_exact_floats(fpr):
    # past 2**53 attempts n and n + 1 are one float: the search would never end,
    # and at 1e-320 the estimate itself is infinite
    with pytest.raises(ValueError, match="2\\*\\*53"):
        attempts_for_probability(AttackScenario(fpr), 0.5)


@pytest.mark.parametrize("fpr", ["1e-300", "1e-320"])
def test_scenario_with_a_too_small_fpr_exits_one_with_a_message(capsys, fpr):
    assert main(["scenario", "--fpr", fpr]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --fpr '{fpr}'")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


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


def test_exposure_planes_come_from_the_scalar_functions():
    # repeated FPRs and zeros of both signs, each repeat scattered back to its own cell
    fprs = np.array([[0.001, 0.0, 0.005], [1.0, 0.005, -0.0], [0.001, 0.001, 1.0]])
    times = exposure(fprs, attempts_per_hour=30.0, target_probability=0.9)
    assert times.shape == (3, 3, 3)
    assert not times.flags.writeable
    for index, fpr in np.ndenumerate(fprs):
        attempts, hours, to_target = times[(slice(None), *index)].tolist()
        if fpr == 0.0:
            assert attempts == hours == to_target == math.inf
            continue
        scenario = AttackScenario(float(fpr), 30.0)
        assert (attempts, hours) == expected_time_to_success(scenario)
        assert to_target == attempts_for_probability(scenario, 0.9) / 30.0


def test_compare_group_exposure_orders_worst_first():
    rows = exposure_rows({gk(g="a"): 0.001, gk(g="b"): 0.005}, attempts_per_hour=60.0)
    assert [r["group"] for r in rows] == [gk(g="b").label(), gk(g="a").label()]
    assert rows[0]["expected_hours"] == pytest.approx(3.3333, abs=0.001)
    assert rows[1]["expected_hours"] == pytest.approx(16.6667, abs=0.001)
    # exposure ratio equals the inverse FPR ratio
    assert rows[1]["expected_hours"] / rows[0]["expected_hours"] == \
        pytest.approx(0.005 / 0.001, rel=1e-12)


def test_compare_group_exposure_single_group():
    rows = exposure_rows({gk(g="only"): 0.01})
    assert len(rows) == 1
    assert rows[0]["expected_attempts"] == pytest.approx(100.0)


def test_compare_group_exposure_ties_keep_lexicographic_order():
    rows = exposure_rows({gk(g="b"): 0.01, gk(g="a"): 0.01, gk(g="c"): 0.01})
    assert [r["group"] for r in rows] == [gk(g="a").label(), gk(g="b").label(),
                                          gk(g="c").label()]
    assert len({r["expected_hours"] for r in rows}) == 1


def test_compare_group_exposure_sorts_like_group_key_order_within_fpr_ties():
    """Unsorted input with FPR ties, including zero: group order is GroupKey's own order."""
    groups = [gk(g="b", r="x"), gk(g="a"), gk(r="y"), gk(g="b", r="a"), gk(g="a", r="z"),
              gk(g="c"), gk(r="a"), gk(g="a", r="a")]
    fprs = [0.0, 0.01, 0.0, 0.01, 0.0, 0.02, 0.01, 0.0]
    rows = exposure_rows(dict(zip(groups, fprs)))
    assert [(r["fpr"], r["group"]) for r in rows] == [
        (fpr, key.label())
        for fpr, key in sorted(zip(fprs, groups), key=lambda pair: (-pair[0], pair[1]))
    ]
    assert [r["group"] for r in rows] == [
        "g=c", "g=a", "g=b,r=a", "r=a", "g=a,r=a", "g=a,r=z", "g=b,r=x", "r=y",
    ]


def test_compare_group_exposure_flags_zero_fpr():
    rows = exposure_rows({gk(g="a"): 0.0, gk(g="b"): 0.002})
    flagged = [r for r in rows if r["zero_fpr"]]
    assert len(flagged) == 1
    assert flagged[0]["group"] == gk(g="a").label()
    assert math.isinf(float(flagged[0]["expected_hours"]))
    # flagged entries sort after every finite-exposure group
    assert rows[-1] is flagged[0]
