"""Tests for threshold sweeps, EER, minCDet, and disaggregation."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasaudit import (
    DcfParams,
    DegenerateGroupError,
    EmptyPopulationError,
    GroupedTrials,
    GroupScoreModel,
    MetricKey,
    SynthSpec,
    TrialTable,
    assign_groups,
    base_metrics,
    compute_sweep,
    draw,
    eer,
    min_cdet,
    threshold_for_fpr,
)
from helpers import (
    by_group,
    gk,
    grouped_from_scores,
    one_metric,
    permute_rows,
    rates_at_threshold,
    reference_base_metrics,
    reference_eer,
    reference_min_cdet,
    reference_sweep,
    reference_threshold_for_fpr,
)


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
    # the rates are the integer error counts over the population sizes, exactly
    assert curve.false_accepts.dtype.kind == "i" and curve.misses.dtype.kind == "i"
    assert np.array_equal(curve.fpr, curve.false_accepts / curve.n_nontarget)
    assert np.array_equal(curve.fnr, curve.misses / curve.n_target)
    assert curve.false_accepts[0] == curve.n_nontarget and curve.misses[-1] == curve.n_target


# few distinct values, so scores tie across and within the two populations
tied_score_lists = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=20)


@given(score_lists | tied_score_lists, score_lists | tied_score_lists)
def test_sweep_counts_at_any_threshold(tar, non):
    """Counts read at the first grid point >= t are the brute-force counts at t."""
    curve = compute_sweep(tar, non)
    scores = np.unique(np.concatenate([tar, non]))
    thresholds = [
        *scores,
        *(scores[:-1] + scores[1:]) / 2,
        *np.nextafter(scores, math.inf),
        *np.nextafter(scores, -math.inf),
        math.inf, -math.inf, 0.0, -0.0,
    ]
    for t in thresholds:
        i = np.searchsorted(curve.thresholds, t, side="left")
        assert curve.false_accepts[i] == np.count_nonzero(np.asarray(non) >= t)
        assert curve.misses[i] == np.count_nonzero(np.asarray(tar) < t)


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
    base = base_metrics(grouped, ())
    i = base.row(MetricKey("eer"))
    values = base.values[i].tolist()
    assert values[0] == values[1] == base.aggregates[i]


def test_disaggregate_two_gaussian_groups():
    rng = np.random.default_rng(77)
    n = 25_000
    grouped = grouped_from_scores({
        gk(g="a"): (rng.normal(2, 1, n).tolist(), rng.normal(0, 1, n).tolist()),
        gk(g="b"): (rng.normal(1, 1, n).tolist(), rng.normal(0, 1, n).tolist()),
    })
    base = base_metrics(grouped, ())
    eers = by_group(base.groups, base.values[base.row(MetricKey("eer"))])
    assert eers[gk(g="a")] == pytest.approx(0.15866, abs=0.01)
    assert eers[gk(g="b")] == pytest.approx(0.30854, abs=0.01)


def test_disaggregate_degenerate_group_raises():
    good = ([1.0], [0.0])
    for groups, degenerate in (
        ({gk(g="a"): good, gk(g="b"): ([1.0], [])}, gk(g="b")),  # targets only
        ({gk(g="a"): good, gk(g="b"): ([], [0.0])}, gk(g="b")),  # nontargets only
        ({gk(g="a"): ([], [0.0]), gk(g="b"): good}, gk(g="a")),  # sorts before a good group
    ):
        with pytest.raises(DegenerateGroupError, match=f"^group {degenerate} has no target"):
            base_metrics(grouped_from_scores(groups), ())
    # the pooled population is swept first: with no nontarget at all, it is the empty one
    with pytest.raises(EmptyPopulationError, match="no nontarget scores"):
        base_metrics(grouped_from_scores({gk(g="a"): ([1.0], []), gk(g="b"): ([2.0], [])}), ())


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=1, max_size=4),
    st.lists(st.sampled_from([0.5, 0.25, 0.1, 0.05, 0.01]), max_size=4, unique=True),
    st.integers(0, 2**16),
)
def test_design_rows_are_the_rows_base_metrics_builds(sizes, design_fprs, seed):
    """EER, minCDet, then an fpr/fnr pair per design point by descending design FPR."""
    spec = SynthSpec(models=tuple(
        GroupScoreModel(gk(g=f"g{i}"), 1.0 + 0.5 * i, 0.0, 1.0, n_target, n_nontarget)
        for i, (n_target, n_nontarget) in enumerate(sizes)
    ), seed=seed)
    base = base_metrics(assign_groups(*draw(spec), ["g"]), design_fprs)
    n = len(design_fprs)
    assert [p.design_fpr for p in base.design_points] == sorted(design_fprs, reverse=True)
    assert base.keys[:2] == (MetricKey("eer"), MetricKey("min_cdet"))
    assert base.design_rows("fpr") == list(range(2, 2 + 2 * n, 2))
    assert base.design_rows("fnr") == list(range(3, 3 + 2 * n, 2))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from([0.5, 0.25, 0.1, 0.05, 0.01]), max_size=4, unique=True),
    st.randoms(use_true_random=False),
)
def test_row_and_design_rows_agree_with_keys_index_on_permuted_rows(design_fprs, order):
    """``row`` looks a key up in a dict built once; it gives what ``keys.index`` gives,
    whatever the row order, and an unknown key is still a ValueError."""
    grouped = grouped_from_scores({gk(g="a"): ([1.0, 3.0], [0.0, 2.0]), gk(g="b"): ([2.0], [1.0])})
    rows = list(range(2 + 2 * len(design_fprs)))
    order.shuffle(rows)
    base = permute_rows(base_metrics(grouped, design_fprs), rows)
    for key in base.keys:
        assert base.row(key) == base.keys.index(key)
    for kind in ("fpr", "fnr"):
        assert base.design_rows(kind) == [
            base.keys.index(MetricKey(kind, p.design_fpr)) for p in base.design_points
        ]
    with pytest.raises(ValueError):
        base.row(MetricKey("fpr", 0.3))


def test_disaggregate_min_cdet_uses_params():
    grouped = grouped_from_scores({gk(g="a"): ([1.0, 3.0], [0.0, 2.0])})
    params = DcfParams(c_miss=1.0, c_fa=1.0, p_target=0.5, normalize=False)
    base = base_metrics(grouped, (), params)
    assert base.keys[1] == MetricKey("min_cdet")
    assert by_group(base.groups, base.values[1])[gk(g="a")] == 0.25
    assert base.keys[1].name == "min_cdet"


def counts_at(populations, threshold):
    """False accepts and misses of each population at one threshold, read off its sweep."""
    curves = [compute_sweep(*p) for p in populations]
    at = [np.searchsorted(c.thresholds, threshold, side="left") for c in curves]
    return (np.array([c.false_accepts[i] for c, i in zip(curves, at)]),
            np.array([c.misses[i] for c, i in zip(curves, at)]))


def test_disaggregate_at_threshold_boundaries():
    grouped = grouped_from_scores({
        gk(g="a"): ([1.0, 2.0], [0.0, 0.5]),
        gk(g="b"): ([1.5], [0.25]),
    })
    populations = [*map(grouped.scores, grouped.groups.values()), grouped.scores()]
    n_target = np.array([tar.size for tar, _ in populations])
    n_nontarget = np.array([non.size for _, non in populations])
    false_accepts, misses = counts_at(populations, -10.0)
    assert all(v == 1.0 for v in (false_accepts / n_nontarget).tolist())
    assert all(v == 0.0 for v in (misses / n_target).tolist())
    false_accepts, misses = counts_at(populations, 10.0)
    assert all(v == 0.0 for v in (false_accepts / n_nontarget).tolist())
    assert all(v == 1.0 for v in (misses / n_target).tolist())


def test_disaggregate_at_threshold_pooled_equals_group_when_identical():
    # a group identical to the pooled population reproduces the pooled rate exactly
    scores = ([0.5, 1.5, 2.5], [-0.5, 0.0, 1.0])
    grouped = grouped_from_scores({gk(g="only"): scores})
    base = base_metrics(grouped, (0.4,))
    for key in (MetricKey("fpr", 0.4), MetricKey("fnr", 0.4)):
        i = base.row(key)
        assert base.values[i, 0] == base.aggregates[i]


def test_disaggregate_at_threshold_records_counts():
    grouped = grouped_from_scores({gk(g="a"): ([1.0, 2.0], [0.0, 0.5, 1.5])})
    populations = [*map(grouped.scores, grouped.groups.values()), grouped.scores()]
    assert counts_at(populations, 1.0)[0].tolist() == [1, 1]
    assert counts_at(populations, 1.5)[1].tolist() == [1, 1]
    # the pooled threshold for FPR 0.4 is 1.0: one of three nontargets
    # accepted, none of the two targets missed
    base = base_metrics(grouped, (0.4,))
    assert base.design_points[0].threshold == 1.0
    fpr, fnr = base.row(MetricKey("fpr", 0.4)), base.row(MetricKey("fnr", 0.4))
    assert base.keys[fpr].name == "fpr@0.4"
    assert (base.errors[fpr].tolist(), base.population(fpr).tolist()) == ([1, 1], [3, 3])
    assert base.keys[fnr].name == "fnr@0.4"
    assert (base.errors[fnr].tolist(), base.population(fnr).tolist()) == ([0, 0], [2, 2])


@pytest.mark.parametrize("per_group, aggregate", [
    ({}, 0.1),
    ({gk(g="a"): -0.1}, 0.1),
    ({gk(g="a"): math.nan}, 0.1),
    ({gk(g="a"): 0.1}, math.inf),
])
def test_base_metrics_rejects_empty_negative_and_non_finite_values(per_group, aggregate):
    with pytest.raises(ValueError):
        one_metric(per_group, aggregate)


def test_base_metrics_rejects_arrays_that_do_not_match_its_keys():
    base = one_metric({gk(g="a"): 0.1}, 0.1)
    with pytest.raises(ValueError, match="do not match the metric keys and groups"):
        dataclasses.replace(base, keys=(MetricKey("eer"), MetricKey("min_cdet")))


def test_base_metrics_arrays_are_read_only():
    base = one_metric({gk(g="a"): 0.1}, 0.1)
    for arr in (base.values, base.aggregates, base.errors, base.sizes):
        with pytest.raises(ValueError):
            arr[...] = 0


@pytest.mark.parametrize("key, name, is_rate", [
    (MetricKey("eer"), "eer", True),
    (MetricKey("min_cdet"), "min_cdet", False),
    (MetricKey("fpr", 0.025), "fpr@0.025", True),
    (MetricKey("fnr", 1e-05), "fnr@1e-05", True),
])
def test_metric_key_name_and_rate_flag(key, name, is_rate):
    assert (key.name, key.is_rate) == (name, is_rate)


@pytest.mark.parametrize("kind, design_fpr", [("eer", 0.1), ("fpr", None), ("dcf", None)])
def test_metric_key_rejects_bad_rows(kind, design_fpr):
    with pytest.raises(ValueError):
        MetricKey(kind, design_fpr)


# few distinct values (the two zeros among them) so scores tie within and across groups,
# or any value, so they mostly do not
fuzz_scores = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]) | st.floats(-1e3, 1e3)
fuzz_population = st.tuples(
    st.lists(fuzz_scores, min_size=1, max_size=10), st.lists(fuzz_scores, min_size=1, max_size=10)
) | st.builds(  # every score of the group ties
    lambda v, n_target, n_nontarget: ([v] * n_target, [v] * n_nontarget),
    fuzz_scores, st.integers(1, 4), st.integers(1, 4),
)
# 1e-6 lies below 1/n_nontarget of every drawn table: it calibrates to the +inf sentinel
fuzz_design_fprs = st.lists(
    st.sampled_from([1.0, 0.5, 0.25, 0.1, 1e-6]) | st.floats(1e-6, 1.0), max_size=4, unique=True
)
fuzz_dcf = st.builds(
    DcfParams, st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.01, 0.99), st.booleans()
)


def shuffled_groups(populations, unassigned, order) -> GroupedTrials:
    """A GroupedTrials whose groups (g0, g1, ...) and unassigned rows are mixed in the table."""
    cells = [(i, label, v) for i, pair in enumerate([*populations, unassigned])
             for label, values in zip((True, False), pair) for v in values]
    order.shuffle(cells)
    ids = [""] * len(cells)
    table = TrialTable(ids, ids, np.array([c[1] for c in cells], dtype=bool),
                       np.array([c[2] for c in cells], dtype=float))
    owner = np.array([c[0] for c in cells], dtype=np.intp)
    rows = [np.flatnonzero(owner == i) for i in range(len(populations) + 1)]
    groups = {gk(g=f"g{i}"): rows[i] for i in range(len(populations))}
    return GroupedTrials(table, {key: groups[key] for key in sorted(groups)}, rows[-1])


def outcome(fn, *args):
    """What a call gives: its result, or its error's type, message and cause type."""
    try:
        return fn(*args)
    except (ValueError, EmptyPopulationError, DegenerateGroupError) as exc:
        return type(exc), str(exc), type(exc.__cause__)


def assert_same_bits(base, reference):
    """Every array and threshold of two base-metric tables holds the same bytes."""
    assert (base.groups, base.keys) == (reference.groups, reference.keys)
    for name in ("values", "aggregates", "errors", "sizes"):
        a, b = getattr(base, name), getattr(reference, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert [p.design_fpr for p in base.design_points] == [
        p.design_fpr for p in reference.design_points]
    assert np.array([p.threshold for p in base.design_points]).tobytes() == np.array(
        [p.threshold for p in reference.design_points]).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(fuzz_population, min_size=1, max_size=6),
    st.tuples(st.lists(fuzz_scores, max_size=6), st.lists(fuzz_scores, max_size=6)),
    fuzz_design_fprs,
    fuzz_dcf,
    st.randoms(use_true_random=False),
)
def test_base_metrics_equals_one_reference_sweep_per_population(
    populations, unassigned, design_fprs, dcf, order
):
    """The segmented pass gives the bytes of one unique-and-searchsorted sweep per population."""
    grouped = shuffled_groups(populations, unassigned, order)
    base = base_metrics(grouped, design_fprs, dcf)
    assert_same_bits(base, reference_base_metrics(grouped, design_fprs, dcf))
    # the one-population calls are the one-segment case of the same kernels
    thresholds = [p.threshold for p in base.design_points]
    for j, key in enumerate([*base.groups, None]):
        scores = grouped.scores(grouped.groups[key]) if key else grouped.scores()
        curve, reference = compute_sweep(*scores), reference_sweep(*scores)
        for name in ("thresholds", "false_accepts", "misses", "fpr", "fnr"):
            a, b = getattr(curve, name), getattr(reference, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
        assert (curve.n_target, curve.n_nontarget) == (reference.n_target, reference.n_nontarget)
        assert np.array(eer(curve)).tobytes() == np.array(reference_eer(reference)).tobytes()
        assert np.array(min_cdet(curve, dcf)).tobytes() == np.array(
            reference_min_cdet(reference, dcf)).tobytes()
        column = np.concatenate([base.values, base.aggregates[:, None]], axis=1)[:, j]
        assert column[0] == eer(curve)[0] and column[1] == min_cdet(curve, dcf)[0]
        at = np.searchsorted(curve.thresholds, thresholds, side="left")
        assert base.errors[2::2, j].tolist() == curve.false_accepts[at].tolist()
        assert base.errors[3::2, j].tolist() == curve.misses[at].tolist()
        for d in design_fprs:
            assert threshold_for_fpr(curve, d) == reference_threshold_for_fpr(reference, d)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.lists(fuzz_scores, max_size=4), st.lists(fuzz_scores, max_size=4)),
             min_size=1, max_size=5),
    st.tuples(st.lists(fuzz_scores, max_size=3), st.lists(fuzz_scores, max_size=3)),
    st.lists(st.sampled_from([0.5, 0.1, 1e-6, 0.0, 1.5, math.nan]), max_size=2),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_base_metrics_raises_what_the_reference_raises(
    populations, unassigned, design_fprs, non_finite, order
):
    """Empty, degenerate and non-finite draws fail alike: same error, message and cause."""
    if non_finite and populations[0][0]:
        populations[0][0][0] = math.inf
    grouped = shuffled_groups(populations, unassigned, order)
    expected = outcome(reference_base_metrics, grouped, design_fprs)
    actual = outcome(base_metrics, grouped, design_fprs)
    if isinstance(expected, tuple):
        assert actual == expected
    else:
        assert_same_bits(actual, expected)


@pytest.mark.parametrize("populations, unassigned, design_fprs, error", [
    # a non-finite score is a ValueError, also next to a degenerate group
    ([([math.nan, 1.0], [0.0]), ([1.0], [])], ((), ()), (), (ValueError, "scores must be finite")),
    # the pooled population is checked before any group, and before the scores' values
    ([([1.0], []), ([], [])], ((), ()), (), (EmptyPopulationError, "no nontarget scores")),
    ([([math.nan], []), ([2.0], [])], ((), ()), (), (EmptyPopulationError, "no nontarget scores")),
    # a design FPR outside (0, 1] fails before any group is checked
    ([([1.0], [0.0]), ([1.0], [])], ((), ()), (0.0,), (ValueError, "target_fpr must lie")),
    # the first degenerate group in key order is named: one without rows, then one of
    # targets alone
    ([([1.0], [0.0]), ([], []), ([1.0], [])], ((), ()), (0.5,), (DegenerateGroupError, "g1")),
    ([([1.0], [0.0]), ([1.0], []), ([], [0.0])], ((), ()), (), (DegenerateGroupError, "g1")),
    ([([], [0.0]), ([1.0], [])], (([2.0], [])), (), (DegenerateGroupError, "g0")),
    # with no group at all, the table itself is rejected
    ([], (([1.0], [0.0])), (0.5,), (ValueError, "needs at least one group")),
])
def test_base_metrics_error_precedence(populations, unassigned, design_fprs, error):
    grouped = grouped_from_scores(
        {gk(g=f"g{i}"): pair for i, pair in enumerate(populations)}, unassigned
    )
    actual = outcome(base_metrics, grouped, design_fprs)
    assert actual == outcome(reference_base_metrics, grouped, design_fprs)
    kind, text = error
    assert actual[0] is kind and text in actual[1]
    if kind is DegenerateGroupError:
        assert actual[2] is EmptyPopulationError


@pytest.mark.parametrize("rows", [
    ([0, 1], [1, 2]),  # a row in two groups
    ([0, 1, 1], [2, 3]),  # a row twice in one group
    ([0, 1], [0]),  # shared rows win over the target-only group they make
])
def test_base_metrics_rejects_groups_that_share_rows(rows):
    ids = [""] * 4
    table = TrialTable(ids, ids, np.array([True, False, True, False]),
                       np.array([1.0, 0.0, 2.0, 0.5]))
    groups = {gk(g=f"g{i}"): np.array(r, dtype=np.intp) for i, r in enumerate(rows)}
    grouped = GroupedTrials(table, groups, np.empty(0, dtype=np.intp))
    with pytest.raises(ValueError, match="^groups must not share rows$"):
        base_metrics(grouped, (0.5,))


def test_base_metrics_equals_the_reference_past_255_groups():
    """Group codes wider than 8 bits (here 16) sort the same way: 300 small groups, rounded
    scores so that they tie within and across groups, and unassigned rows."""
    rng = np.random.default_rng(5)
    populations = [
        (np.round(rng.normal(1.0, 1.0, rng.integers(1, 5)), 1).tolist(),
         np.round(rng.normal(0.0, 1.0, rng.integers(1, 5)), 1).tolist())
        for _ in range(300)
    ]
    grouped = shuffled_groups(populations, ([0.0, -0.0], [0.0, 0.5]), random.Random(6))
    design_fprs = (0.5, 0.1, 0.01, 1e-6)
    assert_same_bits(base_metrics(grouped, design_fprs),
                     reference_base_metrics(grouped, design_fprs))
