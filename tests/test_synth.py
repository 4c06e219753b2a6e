"""Tests for the synthetic score generator and its analytic oracles."""

from __future__ import annotations

import io

import numpy as np
import pytest

from biasaudit import (
    GroupingPolicy,
    GroupKey,
    GroupScoreModel,
    Label,
    SynthSpec,
    analytic_eer,
    analytic_rates_at,
    assign_groups,
    compute_sweep,
    draw,
    generate,
    load_synth_spec,
    write_trials,
)
from helpers import (
    gk,
    rates_at_threshold,
    reference_generate,
    speaker_table,
    split_scores,
    trial_records,
    trial_table,
)


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


# groups with different attribute names, one with none, so the metadata table fills in
# empty values
MIXED_SPEC = SynthSpec(models=(
    model(7, cohort="a"),
    GroupScoreModel(gk(cohort="b", region="x,y"), 1.0, -0.5, 2.0, 3, 5),
    GroupScoreModel(gk(age="30"), 0.0, 0.0, 0.5, 1, 1),
    GroupScoreModel(gk(), 1.0, 0.0, 1.0, 2, 1),
), seed=11)


@pytest.mark.parametrize("spec", [
    MIXED_SPEC,
    SynthSpec(models=(model(50), model(30, cohort="b")), seed=99),
    # group 1000 has a four-digit id prefix: s1000-0000000e
    SynthSpec(models=tuple(model(1, cohort=str(i)) for i in range(1001)), seed=5),
], ids=["mixed", "two-groups", "1001-groups"])
def test_generate_matches_record_reference(spec):
    assert generate(spec) == reference_generate(spec)


def test_draw_tables_hold_the_generated_records():
    trials, speakers = draw(MIXED_SPEC)
    records, metadata = generate(MIXED_SPEC)
    assert trial_records(trials) == records
    assert speakers.speaker_ids == [m.speaker_id for m in metadata]
    assert list(speakers.columns) == ["age", "cohort", "region"]
    for name, column in speakers.columns.items():
        assert column == [m.attributes.get(name, "") for m in metadata]
    assert not (trials.is_target.flags.writeable or trials.scores.flags.writeable)


def test_model_validation():
    with pytest.raises(ValueError):
        GroupScoreModel(gk(g="a"), 2.0, 0.0, 0.0, 10, 10)
    with pytest.raises(ValueError):
        GroupScoreModel(gk(g="a"), 2.0, 0.0, 1.0, 0, 10)
    with pytest.raises(ValueError):
        SynthSpec(models=(), seed=1)
    with pytest.raises(ValueError):
        SynthSpec(models=(model(5), model(5)), seed=1)  # duplicate group keys
    with pytest.raises(ValueError, match="got 'Gender'"):  # load_metadata lowercases it
        GroupScoreModel(GroupKey(("Gender",), ("f",)), 2.0, 0.0, 1.0, 5, 5)


ENTRY = {"mu_target": 2.0, "mu_nontarget": 0.0, "sigma": 1.0, "n_target": 5, "n_nontarget": 5}


@pytest.mark.parametrize("attributes,message", [
    pytest.param([{"gender": 1}], "must be strings, got 1", id="int-value"),
    pytest.param([{"gender": "f", "age": 3.5}], "must be strings, got 3.5", id="float-value"),
    pytest.param([{"gender": ["f"]}], "must be strings, got ['f']", id="list-value"),
    pytest.param([{"": "f"}], "got ''", id="empty-name"),
    pytest.param([{" gender": "f"}], "got ' gender'", id="padded-name"),
    pytest.param([{"gender\t": "f"}], "got 'gender\\t'", id="tab-padded-name"),
    pytest.param([{}], "at least one group needs an attribute", id="no-attributes"),
    pytest.param([{}, {}], "at least one group needs an attribute", id="no-attributes-twice"),
    # a missing attribute is written as "", so these groups' metadata rows are equal
    pytest.param([{"age": "3", "gender": ""}, {"age": "3"}],
                 "groups 0 (age=3,gender=) and 1 (age=3) would write the same metadata row",
                 id="empty-value-row"),
    pytest.param([{"g": "a"}, {"h": "b"}, {"g": ""}, {}],
                 "groups 2 (g=) and 3 () would write the same metadata row",
                 id="no-attributes-row"),
    pytest.param([{"g": "a"}, {"g": "b"}, {"g": "a"}],
                 "groups 0 (g=a) and 2 (g=a) would write the same metadata row",
                 id="equal-keys"),
])
def test_spec_rejects_attributes_the_loaders_would_not_read_back(attributes, message):
    groups = [{**ENTRY, "attributes": a} for a in attributes]
    with pytest.raises(ValueError) as info:
        load_synth_spec({"seed": 1, "groups": groups})
    assert message in str(info.value)


@pytest.mark.parametrize("key", ["seed", "groups", "attributes", "mu_nontarget", "n_target"])
def test_load_synth_spec_names_a_missing_key(key):
    entry = {**ENTRY, "attributes": {"gender": "f"}}
    entry.pop(key, None)
    payload = {"seed": 1, "groups": [entry]}
    payload.pop(key, None)
    with pytest.raises(ValueError) as info:
        load_synth_spec(payload)
    assert str(info.value) == f"missing key {key!r}"


@pytest.mark.parametrize("mu_t,mu_n,sigma", [
    (float("inf"), 0.0, 1.0), (2.0, float("-inf"), 1.0), (float("nan"), 0.0, 1.0),
    (2.0, 0.0, float("inf")), (2.0, 0.0, float("nan")),
])
def test_model_rejects_non_finite_parameters(mu_t, mu_n, sigma):
    with pytest.raises(ValueError, match="cohort=a"):
        model(mu_t=mu_t, mu_n=mu_n, sigma=sigma)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None])
def test_spec_rejects_seeds_that_are_not_nonnegative_integers(seed):
    with pytest.raises(ValueError, match="seed"):
        SynthSpec(models=(model(5),), seed=seed)


@pytest.mark.parametrize("count", [2.9, 2.0, True, "3", None])
@pytest.mark.parametrize("field", ["n_target", "n_nontarget"])
def test_spec_rejects_trial_counts_that_are_not_integers(field, count):
    entry = {"attributes": {"cohort": "a"}, "mu_target": 2.0, "mu_nontarget": 0.0,
             "sigma": 1.0, "n_target": 5, "n_nontarget": 5, field: count}
    with pytest.raises(ValueError, match="cohort=a: trial counts must be integers"):
        load_synth_spec({"seed": 1, "groups": [entry]})


def test_spec_accepts_numpy_integer_counts():
    counts = GroupScoreModel(gk(cohort="a"), 2.0, 0.0, 1.0, np.int64(4), np.int32(3))
    plain = GroupScoreModel(gk(cohort="a"), 2.0, 0.0, 1.0, 4, 3)
    assert generate(SynthSpec(models=(counts,), seed=2)) == \
        generate(SynthSpec(models=(plain,), seed=2))


def test_spec_accepts_numpy_integer_seeds():
    spec = SynthSpec(models=(model(5),), seed=np.int64(7))
    assert generate(spec) == generate(SynthSpec(models=(model(5),), seed=7))


def test_generate_rejects_scores_that_overflow():
    # finite parameters, but mu + sigma * z leaves the float range
    spec = SynthSpec(models=(model(50), model(50, mu_t=1e308, sigma=1e308, cohort="b")), seed=3)
    with pytest.raises(ValueError, match="cohort=b"):
        generate(spec)


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
