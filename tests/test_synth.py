"""Tests for the synthetic score generator and its analytic oracles."""

from __future__ import annotations

import io

import numpy as np
import pytest

from biasaudit import (
    GroupingPolicy,
    GroupScoreModel,
    Label,
    SynthSpec,
    analytic_eer,
    analytic_rates_at,
    assign_groups,
    compute_sweep,
    generate,
    load_synth_spec,
    write_trials,
)
from helpers import gk, rates_at_threshold, speaker_table, split_scores, trial_table


def model(n=10, mu_t=2.0, mu_n=0.0, sigma=1.0, **attrs):
    key = gk(**(attrs or {"cohort": "a"}))
    return GroupScoreModel(key, mu_t, mu_n, sigma, n, n)


def test_generate_is_deterministic_down_to_bytes():
    spec = SynthSpec(models=(model(50), model(30, cohort="b")), seed=99)
    first_trials, first_meta = generate(spec)
    second_trials, second_meta = generate(spec)
    assert first_trials == second_trials
    assert first_meta == second_meta
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_trials(first_trials, buf_a)
    write_trials(second_trials, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_generate_different_seeds_differ():
    a, _ = generate(SynthSpec(models=(model(20),), seed=1))
    b, _ = generate(SynthSpec(models=(model(20),), seed=2))
    assert a != b


def test_generate_cardinality():
    trials, metadata = generate(SynthSpec(models=(model(10),), seed=5))
    assert len(trials) == 20
    assert len(metadata) == 40  # two fresh speakers per trial
    assert sum(1 for t in trials if t.label is Label.TARGET) == 10


def test_generate_fresh_speaker_ids():
    trials, metadata = generate(SynthSpec(models=(model(10),), seed=5))
    ids = [t.enroll_id for t in trials] + [t.test_id for t in trials]
    assert len(set(ids)) == len(ids)
    assert {m.speaker_id for m in metadata} == set(ids)


def test_generated_trials_group_cleanly_under_both_match():
    spec = SynthSpec(models=(model(25, cohort="a"), model(15, cohort="b")), seed=13)
    trials, metadata = generate(spec)
    grouped = assign_groups(
        trial_table(trials), speaker_table(metadata), ["cohort"], GroupingPolicy.BOTH_MATCH
    )
    assert len(grouped.unassigned) == 0
    assert {k: len(v) for k, v in grouped.groups.items()} == {
        gk(cohort="a"): 50, gk(cohort="b"): 30,
    }


def test_model_validation():
    with pytest.raises(ValueError):
        GroupScoreModel(gk(g="a"), 2.0, 0.0, 0.0, 10, 10)
    with pytest.raises(ValueError):
        GroupScoreModel(gk(g="a"), 2.0, 0.0, 1.0, 0, 10)
    with pytest.raises(ValueError):
        SynthSpec(models=(), seed=1)
    with pytest.raises(ValueError):
        SynthSpec(models=(model(5), model(5)), seed=1)  # duplicate group keys


def test_analytic_eer_values():
    assert analytic_eer(model(mu_t=1.0, mu_n=1.0)) == 0.5
    # standard-normal CDF at -1 and -0.5, verified against an erfc evaluation
    assert analytic_eer(model(mu_t=2.0, mu_n=0.0)) == pytest.approx(0.15866, abs=5e-6)
    assert analytic_eer(model(mu_t=1.0, mu_n=0.0)) == pytest.approx(0.30854, abs=5e-6)


def test_analytic_rates_boundaries_and_midpoint():
    m = model(mu_t=2.0, mu_n=0.0)
    fpr, fnr = analytic_rates_at(m, -1e9)
    assert fpr == pytest.approx(1.0) and fnr == pytest.approx(0.0)
    fpr, fnr = analytic_rates_at(m, 1e9)
    assert fpr == pytest.approx(0.0) and fnr == pytest.approx(1.0)
    # midpoint threshold: both rates equal the analytic EER
    fpr, fnr = analytic_rates_at(m, 1.0)
    assert fpr == pytest.approx(fnr) == pytest.approx(analytic_eer(m))


def test_analytic_rates_at_design_point():
    fpr, fnr = analytic_rates_at(model(mu_t=2.0, mu_n=0.0), 1.2816)
    assert fpr == pytest.approx(0.100, abs=0.001)
    assert fnr == pytest.approx(0.236, abs=0.001)


def test_empirical_rates_converge_to_analytic():
    """Max deviation over a 100-point threshold grid stays within 0.01 at n=1e5."""
    m = GroupScoreModel(gk(cohort="a"), 2.0, 0.0, 1.0, 100_000, 100_000)
    trials, _ = generate(SynthSpec(models=(m,), seed=424242))
    tar, non = split_scores(trials)
    for tau in np.linspace(-2.0, 4.0, 100):
        fpr, fnr = rates_at_threshold(tar, non, float(tau))
        afpr, afnr = analytic_rates_at(m, float(tau))
        assert abs(fpr - afpr) <= 0.01
        assert abs(fnr - afnr) <= 0.01


def test_empirical_eer_converges_to_analytic():
    m = GroupScoreModel(gk(cohort="a"), 2.0, 0.0, 1.0, 100_000, 100_000)
    trials, _ = generate(SynthSpec(models=(m,), seed=20260810))
    tar, non = split_scores(trials)
    from biasaudit import eer

    value, _ = eer(compute_sweep(tar, non))
    assert value == pytest.approx(analytic_eer(m), abs=0.006)


def test_load_synth_spec_from_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"seed": 7, "groups": [{"attributes": {"gender": "f"}, '
        '"mu_target": 2.0, "mu_nontarget": 0.0, "sigma": 1.0, '
        '"n_target": 5, "n_nontarget": 6}]}',
        encoding="utf-8",
    )
    spec = load_synth_spec(path)
    assert spec.seed == 7
    assert spec.models[0].group == gk(gender="f")
    assert spec.models[0].n_nontarget == 6
    assert load_synth_spec(path, seed=99).seed == 99
