"""Acceptance suite: one test per acceptance criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion. Expected values come from three kinds of oracle, never
from the implementation under test: published-table arithmetic,
closed-form normalCDF evaluations, and exhaustive brute-force scans.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from biasaudit import (
    AttackScenario,
    AuditConfig,
    DcfParams,
    Label,
    MetricKey,
    SpeakerMetadata,
    TrialRecord,
    attempts_for_probability,
    compute_sweep,
    eer,
    bias_measures,
    expected_time_to_success,
    fdr,
    generate,
    min_cdet,
    nrb_suite,
    run_audit,
    success_probability,
    threshold_for_fpr,
    write_metadata,
    write_trials,
)
from biasaudit import GroupKey, GroupScoreModel, SynthSpec
from helpers import by_group, gk, one_metric, split_scores

TOL = 0.002  # fixed tolerance for published-table reproduction


def note(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


# --------------------------------------------------------------------------
# Criterion 1: the three bias measures reproduce the published bias table
# from the published base-metric table.
# --------------------------------------------------------------------------

EER_GENDER = {gk(gender="male"): 3.581, gk(gender="female"): 3.757}
EER_GENDER_AGG = 3.657
CDET_GENDER = {gk(gender="male"): 0.011, gk(gender="female"): 0.012}
CDET_GENDER_AGG = 0.012


def nat(gender, nationality):
    return gk(gender=gender, nationality=nationality)


EER_NAT = {
    nat("male", "IN"): 3.218, nat("male", "US"): 2.999, nat("male", "AUS"): 4.362,
    nat("male", "NO"): 8.210, nat("male", "DE"): 3.013,
    nat("female", "IN"): 7.028, nat("female", "US"): 3.250,
    nat("female", "AUS"): 2.788, nat("female", "NO"): 4.588,
    nat("female", "DE"): 10.641,
}
CDET_NAT = {
    nat("male", "IN"): 0.018, nat("male", "US"): 0.010, nat("male", "AUS"): 0.012,
    nat("male", "NO"): 0.025, nat("male", "DE"): 0.009,
    nat("female", "IN"): 0.023, nat("female", "US"): 0.011,
    nat("female", "AUS"): 0.011, nat("female", "NO"): 0.014,
    nat("female", "DE"): 0.019,
}

EER, CDET = MetricKey("eer"), MetricKey("min_cdet")
VECTORS = {
    ("eer", "gender"): one_metric(EER_GENDER, EER_GENDER_AGG, EER),
    ("eer", "nat"): one_metric(EER_NAT, EER_GENDER_AGG, EER),
    ("min_cdet", "gender"): one_metric(CDET_GENDER, CDET_GENDER_AGG, CDET),
    ("min_cdet", "nat"): one_metric(CDET_NAT, CDET_GENDER_AGG, CDET),
}

# Published bias-table cells reproducible from the published base metrics
# at +/-0.002. The difference measure survives the 3-decimal print precision
# for both base metrics; the ratio measures survive it for EER (and for the
# one minCDet cell whose rounding happens to cooperate).
EXPECTED_T3 = {
    ("g2min_diff", "eer", "gender"): {
        gk(gender="male"): 0.000, gk(gender="female"): 0.176},
    ("g2min_diff", "eer", "nat"): {
        nat("male", "IN"): 0.429, nat("male", "US"): 0.211,
        nat("male", "AUS"): 1.573, nat("male", "DE"): 0.224,
        nat("female", "IN"): 4.240, nat("female", "US"): 0.462,
        nat("female", "AUS"): 0.000, nat("female", "DE"): 7.853},
    ("g2min_diff", "min_cdet", "gender"): {
        gk(gender="male"): 0.000, gk(gender="female"): 0.001},
    ("g2min_diff", "min_cdet", "nat"): {
        nat("male", "IN"): 0.010, nat("male", "US"): 0.001,
        nat("male", "AUS"): 0.003, nat("male", "DE"): 0.000,
        nat("female", "IN"): 0.015, nat("female", "US"): 0.002,
        nat("female", "AUS"): 0.002, nat("female", "DE"): 0.011},
    ("g2avg_ratio", "eer", "gender"): {
        gk(gender="male"): 0.979, gk(gender="female"): 1.027},
    ("g2avg_ratio", "eer", "nat"): {
        nat("male", "IN"): 0.880, nat("male", "US"): 0.820,
        nat("male", "AUS"): 1.193, nat("male", "DE"): 0.824,
        nat("female", "IN"): 1.922, nat("female", "US"): 0.889,
        nat("female", "AUS"): 0.762, nat("female", "DE"): 2.909},
    ("g2avg_ratio", "min_cdet", "nat"): {nat("male", "DE"): 0.749},
    ("g2avg_log_ratio", "eer", "gender"): {
        gk(gender="male"): 0.021, gk(gender="female"): -0.027},
    ("g2avg_log_ratio", "eer", "nat"): {
        nat("male", "IN"): 0.128, nat("male", "US"): 0.198,
        nat("male", "AUS"): -0.176, nat("male", "DE"): 0.194,
        nat("female", "IN"): -0.653, nat("female", "US"): 0.118,
        nat("female", "AUS"): 0.271, nat("female", "DE"): -1.068},
    ("g2avg_log_ratio", "min_cdet", "nat"): {nat("male", "DE"): 0.289},
}

# Cells whose published values were computed from unrounded internals that
# the 3-decimal base-metric print destroys (reference analysis in the
# repository notes): unreachable from the stated inputs at any tolerance
# near 0.002, e.g. male-All minCDet ratio prints 0.954 but 0.011/0.012 =
# 0.917. Kept as a strict expected-failure so the gap stays visible.
UNREACHABLE_T3 = {
    ("g2avg_ratio", "min_cdet", "gender"): {
        gk(gender="male"): 0.954, gk(gender="female"): 1.059},
    ("g2avg_ratio", "min_cdet", "nat"): {
        nat("male", "IN"): 1.571, nat("male", "US"): 0.863,
        nat("male", "AUS"): 1.046,
        nat("female", "IN"): 1.986, nat("female", "US"): 0.937,
        nat("female", "AUS"): 0.945, nat("female", "DE"): 1.662},
    ("g2avg_log_ratio", "min_cdet", "gender"): {
        gk(gender="male"): 0.047, gk(gender="female"): -0.057},
    ("g2avg_log_ratio", "min_cdet", "nat"): {
        nat("male", "IN"): -0.452, nat("male", "US"): 0.148,
        nat("male", "AUS"): -0.045,
        nat("female", "IN"): -0.686, nat("female", "US"): 0.065,
        nat("female", "AUS"): 0.056, nat("female", "DE"): -0.508},
}

def measured(v):
    """Each bias measure of the one-row table ``v``, keyed by measure name, then group."""
    return {name: by_group(v.groups, values) for name, _, values in bias_measures(v).row(0)}


def computed_t3(measure, metric, scope):
    return measured(VECTORS[(metric, scope)])[measure]


def test_c1_bias_table_from_base_metric_table():
    checked = 0
    for (measure, metric, scope), expected in EXPECTED_T3.items():
        got = computed_t3(measure, metric, scope)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=TOL), \
                f"{measure}/{metric}/{key}: got {got[key]:.4f}, table prints {value}"
            checked += 1
    assert checked == 42
    note(f"C1: PASS — {checked} published bias-table cells reproduced at ±{TOL}")


@pytest.mark.xfail(
    strict=True,
    reason="18 minCDet ratio cells need unrounded internals; the 3-decimal "
    "published base metrics cannot reproduce them (male-All ratio prints "
    "0.954 vs 0.011/0.012 = 0.917)",
)
def test_c1_mincdet_ratio_cells_need_unrounded_internals():
    for (measure, metric, scope), expected in UNREACHABLE_T3.items():
        got = computed_t3(measure, metric, scope)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=TOL)


# --------------------------------------------------------------------------
# Criterion 2: FDR spot value at alpha = 1 over the eight published
# group FPRs at design FPR 0.001.
# --------------------------------------------------------------------------

def test_c2_fdr_spot_value():
    fprs = {
        nat("male", "IN"): 0.005, nat("male", "US"): 0.000,
        nat("male", "AUS"): 0.001, nat("male", "DE"): 0.002,
        nat("female", "IN"): 0.003, nat("female", "US"): 0.001,
        nat("female", "AUS"): 0.002, nat("female", "DE"): 0.001,
    }
    # FNRs do not enter at alpha = 1; any shared-threshold vector works
    fnrs = {key: 0.25 for key in fprs}
    result = fdr(
        one_metric(fprs, aggregate=0.001).values[0],
        one_metric(fnrs, aggregate=0.25).values[0],
        alpha=1.0,
        design_fpr=0.001,
        threshold=0.0,
    )
    assert result.fdr == pytest.approx(0.995, abs=0.001)
    note(f"C2: PASS — fdr(alpha=1) = {result.fdr:.4f} (expected 0.995 ± 0.001)")


# --------------------------------------------------------------------------
# Criterion 3: NRB arithmetic over the eight published log-ratio
# magnitudes. The stated oracle is the hand sum over eight:
# (1.659 + 0.912 + 0 + 0.654 + 1.201 + 0.475 + 0.472 + 0.249) / 8
# = 5.622 / 8 = 0.70275. The criterion text prints 0.685, which
# contradicts its own arithmetic; the verified hand sum is asserted and
# the printed constant is kept visible as a strict expected failure.
# --------------------------------------------------------------------------

T4_LOG_MAGNITUDES = (1.659, 0.912, 0.000, 0.654, 1.201, 0.475, 0.472, 0.249)


def nrb_over_magnitudes():
    keys = [gk(g=f"g{i}") for i in range(len(T4_LOG_MAGNITUDES))]
    # metric values whose |log ratio| against aggregate 1.0 equal the inputs
    values = {k: math.exp(-m) for k, m in zip(keys, T4_LOG_MAGNITUDES)}
    v = one_metric(values, aggregate=1.0, key=MetricKey("fpr", 0.001))
    (result,) = nrb_suite(v, bias_measures(v))
    return result


def test_c3_nrb_hand_sum_over_published_magnitudes():
    result = nrb_over_magnitudes()
    hand_sum = sum(T4_LOG_MAGNITUDES) / len(T4_LOG_MAGNITUDES)
    assert hand_sum == pytest.approx(0.70275, abs=1e-12)
    assert result.nrb == pytest.approx(hand_sum, abs=0.001)
    note(f"C3: PASS — nrb = {result.nrb:.5f} equals the hand sum 5.622/8 = 0.70275 "
         "(the criterion's printed 0.685 contradicts its own arithmetic)")


@pytest.mark.xfail(
    strict=True,
    reason="the criterion prints 0.685 but its stated procedure (hand-sum/8 "
    "over the eight published magnitudes) yields 5.622/8 = 0.70275",
)
def test_c3_printed_constant_contradicts_its_procedure():
    assert nrb_over_magnitudes().nrb == pytest.approx(0.685, abs=0.001)


# --------------------------------------------------------------------------
# Criterion 4: pinned-seed Gaussian instance against normal-CDF oracles.
# --------------------------------------------------------------------------

def test_c4_gaussian_closed_form_checks():
    started = time.perf_counter()
    model = GroupScoreModel(gk(cohort="a"), 2.0, 0.0, 1.0, 100_000, 100_000)
    trials, _ = generate(SynthSpec(models=(model,), seed=20260810))
    tar, non = split_scores(trials)
    curve = compute_sweep(tar, non)

    value, _ = eer(curve)
    assert abs(value - 0.15866) <= 0.006  # Phi(-1) from an erfc evaluation

    op = threshold_for_fpr(curve, 0.1)
    assert abs(op.fnr - 0.2363) <= 0.01  # Phi(Phi^-1(0.9) - 2)

    elapsed = time.perf_counter() - started
    assert elapsed <= 5.0
    note(f"C4: PASS — EER {value:.5f} (|Δ| ≤ 0.006 of 0.15866), "
         f"fnr@0.1 {op.fnr:.5f} (|Δ| ≤ 0.01 of 0.2363), {elapsed:.2f}s ≤ 5s")


# --------------------------------------------------------------------------
# Criterion 5: 200 random instances against exhaustive threshold scans.
# --------------------------------------------------------------------------

def brute_force_eer(tar, non, taus):
    fpr = np.array([np.sum(non >= t) for t in taus]) / non.size
    fnr = np.array([np.sum(tar < t) for t in taus]) / tar.size
    i = int(np.argmin(np.abs(fnr - fpr)))
    return 0.5 * (fpr[i] + fnr[i])


def brute_force_min_cdet(tar, non, taus, params):
    fpr = np.array([np.sum(non >= t) for t in taus]) / non.size
    fnr = np.array([np.sum(tar < t) for t in taus]) / tar.size
    cost = params.c_miss * params.p_target * fnr + params.c_fa * (1.0 - params.p_target) * fpr
    i = int(np.argmin(cost))
    value = float(cost[i])
    if params.normalize:
        value /= min(params.c_miss * params.p_target, params.c_fa * (1.0 - params.p_target))
    return value, float(taus[i])


def test_c5_brute_force_equivalence_200_instances():
    started = time.perf_counter()
    rng = np.random.default_rng(1405)
    for trial in range(200):
        n = int(rng.integers(1, 1001))
        m = int(rng.integers(1, 1001))
        separation = float(rng.uniform(0.0, 3.0))
        tar = rng.normal(separation, 1.0, n)
        non = rng.normal(0.0, 1.0, m)
        params = DcfParams(
            c_miss=float(rng.uniform(0.5, 10.0)),
            c_fa=float(rng.uniform(0.5, 10.0)),
            p_target=float(rng.uniform(0.01, 0.5)),
            normalize=bool(rng.integers(0, 2)),
        )
        curve = compute_sweep(tar, non)

        sweep_eer, _ = eer(curve)
        oracle_eer = brute_force_eer(tar, non, curve.thresholds)
        assert abs(sweep_eer - oracle_eer) <= max(1.0 / n, 1.0 / m), \
            f"instance {trial}: eer {sweep_eer} vs scan {oracle_eer} (n={n}, m={m})"

        sweep_cost, sweep_tau = min_cdet(curve, params)
        oracle_cost, oracle_tau = brute_force_min_cdet(tar, non, curve.thresholds, params)
        assert sweep_cost == oracle_cost, f"instance {trial}: cost mismatch"
        assert sweep_tau == oracle_tau, f"instance {trial}: threshold mismatch"

    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    note(f"C5: PASS — 200 instances, EER within one grid step, "
         f"minCDet exact, {elapsed:.1f}s ≤ 30s")


# --------------------------------------------------------------------------
# Criterion 6: scale behavior of every measure, the algebraic form of the
# claim that differences fade with the metric's magnitude while ratios
# are invariant to it.
# --------------------------------------------------------------------------

def test_c6_scale_invariance_suite():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        n_groups = int(rng.integers(2, 9))
        keys = [gk(g=f"g{i}") for i in range(n_groups)]
        values = dict(zip(keys, rng.uniform(1e-4, 10.0, n_groups)))
        aggregate = float(rng.uniform(1e-4, 10.0))
        c = float(10.0 ** rng.uniform(-3.0, 3.0))
        v = one_metric(values, aggregate)
        scaled = one_metric({k: c * x for k, x in values.items()}, c * aggregate)
        base_measures, scaled_measures = measured(v), measured(scaled)

        base_ratio = base_measures["g2avg_ratio"]
        for key, value in scaled_measures["g2avg_ratio"].items():
            assert math.isclose(value, base_ratio[key], rel_tol=1e-12)

        (base_nrb,) = nrb_suite(v, bias_measures(v))
        (scaled_nrb,) = nrb_suite(scaled, bias_measures(scaled))
        assert math.isclose(scaled_nrb.nrb, base_nrb.nrb, rel_tol=1e-12, abs_tol=1e-12)

        base_diff = base_measures["g2min_diff"]
        for key, value in scaled_measures["g2min_diff"].items():
            assert math.isclose(value, c * base_diff[key], rel_tol=1e-12, abs_tol=1e-300)

        # FDR: scaling all rates by c in (0, 1] scales the bias term by c
        c_rate = float(rng.uniform(0.001, 1.0))
        fpr_values = rng.uniform(0.0, 1.0, n_groups)
        fnr_values = rng.uniform(0.0, 1.0, n_groups)
        alpha = float(rng.uniform(0.0, 1.0))
        base = fdr(fpr_values, fnr_values, alpha, 0.01, 0.0).fdr
        scaled_fdr = fdr(c_rate * fpr_values, c_rate * fnr_values, alpha, 0.01, 0.0).fdr
        assert math.isclose(1.0 - scaled_fdr, c_rate * (1.0 - base),
                            rel_tol=1e-12, abs_tol=1e-15)
    note("C6: PASS — 100 random vectors: ratios and NRB scale-invariant at "
         "1e-12, differences scale linearly, 1 - fdr scales with the rates")


# --------------------------------------------------------------------------
# Criterion 7: a system whose group FPRs hold a 5:1 ratio at a pooled FPR
# of 0.001 looks nearly unbiased to the FDR and clearly biased to the NRB,
# in one audit run.
# --------------------------------------------------------------------------

def ladder_fixture(tmp_path):
    """Two groups; nontarget score ladder keeps exceedance counts at 5:1.

    At the threshold calibrated to pooled FPR 0.001 the group FPRs are
    exactly 50/30000 and 10/30000 (ratio 5), so by construction
    fdr(alpha=1) = 1 - 40/30000 = 0.99867 and nrb(fpr@0.001) = ln(5)/2.
    """
    n = 30_000
    ladder = [6.0 - 0.01 * j for j in range(1, 41)]
    trials: list[TrialRecord] = []
    metadata: list[SpeakerMetadata] = []
    counter = 0

    def add(cohort, label, score):
        nonlocal counter
        enroll, test = f"{cohort}{counter}e", f"{cohort}{counter}t"
        counter += 1
        trials.append(TrialRecord(enroll, test, label, score))
        metadata.append(SpeakerMetadata(enroll, {"cohort": cohort}))
        metadata.append(SpeakerMetadata(test, {"cohort": cohort}))

    for cohort, per_step in (("a", 5), ("b", 1)):
        non_scores = [v for v in ladder for _ in range(per_step)]
        non_scores += [-5.0] * (n - len(non_scores))
        tar_scores = [12.0] * (n - 300) + [-6.0] * 300
        for s in tar_scores:
            add(cohort, Label.TARGET, s)
        for s in non_scores:
            add(cohort, Label.NONTARGET, s)

    scores_path = tmp_path / "scores.csv"
    metadata_path = tmp_path / "metadata.csv"
    write_trials(trials, scores_path)
    write_metadata(metadata, metadata_path)
    return scores_path, metadata_path


def test_c7_fdr_nrb_contradiction_in_one_audit(tmp_path):
    scores_path, metadata_path = ladder_fixture(tmp_path)
    config = AuditConfig(
        scores_path=str(scores_path),
        metadata_path=str(metadata_path),
        group_attributes=("cohort",),
        design_fprs=(0.001,),
        alphas=(0.0, 0.5, 1.0),
        output_dir=str(tmp_path / "out"),
    )
    report = run_audit(config)

    cell = next(r for r in report.fdr_grid if r.alpha == 1.0 and r.design_fpr == 0.001)
    suite = {r.key.name: r for r in report.nrb_suite}
    fpr_nrb = suite["fpr@0.001"].nrb

    fprs = report.base.row(MetricKey("fpr", 0.001))
    values = sorted(report.base.values[fprs].tolist())
    assert values[1] / values[0] == pytest.approx(5.0, rel=1e-12)
    assert report.base.aggregates[fprs] == pytest.approx(0.001, rel=1e-12)

    assert cell.fdr >= 0.99
    assert fpr_nrb >= 0.5
    assert fpr_nrb == pytest.approx(math.log(5.0) / 2.0, rel=1e-9)
    note(f"C7: PASS — one audit: fdr(alpha=1) = {cell.fdr:.5f} ≥ 0.99 while "
         f"nrb(fpr@0.001) = {fpr_nrb:.4f} ≥ 0.5")


# --------------------------------------------------------------------------
# Criterion 8: attack-scenario arithmetic.
# --------------------------------------------------------------------------

def test_c8_attack_scenario_arithmetic():
    attempts_a, hours_a = expected_time_to_success(AttackScenario(0.001, 60.0))
    attempts_b, hours_b = expected_time_to_success(AttackScenario(0.005, 60.0))
    assert attempts_a == pytest.approx(1000.0, rel=1e-12)
    assert hours_a == pytest.approx(16.6667, abs=0.0001)  # rounded to "17 hours"
    assert attempts_b == pytest.approx(200.0, rel=1e-12)
    assert hours_b == pytest.approx(3.3333, abs=0.0001)  # rounded to "3.5 hours"
    assert hours_a / hours_b == pytest.approx(5.0, rel=1e-12)
    assert hours_a / hours_b == pytest.approx(0.005 / 0.001, rel=1e-12)

    p = success_probability(AttackScenario(0.001, 60.0), 1020)
    assert p == pytest.approx(0.639, abs=0.001)
    note(f"C8: PASS — 1000 att/16.67h vs 200 att/3.33h, ratio exactly 5, "
         f"p(1020 attempts) = {p:.4f}")


# --------------------------------------------------------------------------
# Criterion 9: the published dataset-level numbers are semantics anchors
# and arithmetic oracles only; nothing here targets them end to end.
# --------------------------------------------------------------------------

def test_c9_desk_scale_boundary_is_explicit():
    """The retracted evaluation data and the pretrained model behind the
    published absolute numbers (overall EERs, per-group table cells,
    figure heights) are not available, so this suite never asserts them
    as end-to-end outcomes. They appear only as printed-table arithmetic
    oracles (criteria 1-3); every end-to-end run above uses synthetic
    data with closed-form or constructed ground truth."""
    end_to_end_oracles = {
        "test_c4_gaussian_closed_form_checks",
        "test_c5_brute_force_equivalence_200_instances",
        "test_c7_fdr_nrb_contradiction_in_one_audit",
    }
    assert end_to_end_oracles <= set(globals())
    note("C9: PASS — published absolute numbers used only as table-arithmetic "
         "oracles; end-to-end assertions run on synthetic ground truth")
