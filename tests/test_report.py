"""End-to-end tests for the audit pipeline and report emission."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import sys
import tempfile
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biasaudit import (
    AuditConfig,
    BaseMetrics,
    BiasMeasures,
    BiasReport,
    DataError,
    DegenerateGroupError,
    DesignPoint,
    FdrGrid,
    GroupingPolicy,
    GroupScoreModel,
    MetricKey,
    SpeakerTable,
    SynthSpec,
    TrialTable,
    ZeroAggregateError,
    ZeroGroupValueError,
    assign_groups,
    base_metrics,
    emit,
    generate,
    load_trials,
    report_to_dict,
    run_audit,
    write_metadata,
    write_trials,
)
from biasaudit.measures import ZERO_POLICIES
from biasaudit.report import (
    FIG_FDR_GRID,
    FIG_NRB_SUITE,
    REPORT_JSON,
    TABLE_BASE_METRICS,
    TABLE_BIAS_MEASURES,
    TABLE_DECOMPOSITION,
    _nested,
    _render,
)
from helpers import (
    gk,
    permute_rows,
    rate_metrics,
    reference_emit,
    reference_exposure,
    reference_fdr,
    reference_nrb,
    reference_report_to_dict,
    report_of,
)


def write_two_group_fixture(tmp_path, n=4000, seed=414):
    spec = SynthSpec(
        models=(
            GroupScoreModel(gk(gender="f", nationality="x"), 2.0, 0.0, 1.0, n, n),
            GroupScoreModel(gk(gender="m", nationality="y"), 1.0, 0.0, 1.0, n, n),
        ),
        seed=seed,
    )
    trials, metadata = generate(spec)
    scores_path = tmp_path / "scores.csv"
    metadata_path = tmp_path / "metadata.csv"
    write_trials(trials, scores_path)
    write_metadata(metadata, metadata_path)
    return scores_path, metadata_path


def base_config(tmp_path, **kwargs):
    scores_path, metadata_path = write_two_group_fixture(tmp_path)
    defaults = dict(
        scores_path=str(scores_path),
        metadata_path=str(metadata_path),
        group_attributes=("gender", "nationality"),
        design_fprs=(0.05, 0.1),
        alphas=(0.0, 0.5, 1.0),
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(kwargs)
    return AuditConfig(**defaults)


def test_run_audit_rank_preservation_across_measures(tmp_path):
    report = run_audit(base_config(tmp_path))
    payload = report_to_dict(report)
    metrics = {e["metric"]: e for e in payload["base_metrics"]}
    measures: dict[tuple[str, str], dict[str, float]] = {}
    for entry in payload["bias_measures"]:
        measures[(entry["measure"], entry["metric"])] = {
            row["group"]: row["value"] for row in entry["per_group"]
        }
    for metric_name, metric_entry in metrics.items():
        raw = {row["group"]: row["fraction"] for row in metric_entry["per_group"]}
        by_raw = sorted(raw, key=lambda g: (raw[g], g))
        diff = measures[("g2min_diff", metric_name)]
        ratio = measures[("g2avg_ratio", metric_name)]
        log_ratio = measures[("g2avg_log_ratio", metric_name)]
        assert sorted(diff, key=lambda g: (diff[g], g)) == by_raw
        assert sorted(ratio, key=lambda g: (ratio[g], g)) == by_raw
        assert sorted(log_ratio, key=lambda g: (-log_ratio[g], g)) == by_raw


def test_run_audit_single_group_with_unassigned(tmp_path):
    n = 3000
    spec = SynthSpec(
        models=(GroupScoreModel(gk(cohort="a"), 1.0, 0.0, 1.0, n, n),), seed=55
    )
    trials, metadata = generate(spec)
    # drop metadata for a slice of speakers so their trials go unassigned
    known = {m.speaker_id for m in metadata[: len(metadata) - 800]}
    metadata = [m for m in metadata if m.speaker_id in known]
    scores_path, metadata_path = tmp_path / "s.csv", tmp_path / "m.csv"
    write_trials(trials, scores_path)
    write_metadata(metadata, metadata_path)

    config = AuditConfig(
        scores_path=str(scores_path),
        metadata_path=str(metadata_path),
        group_attributes=("cohort",),
        design_fprs=(0.1, 0.25),
        alphas=(0.0, 1.0),
        output_dir=str(tmp_path / "out"),
    )
    report = run_audit(config)
    unassigned = report_to_dict(report)["unassigned_trials"]
    assert unassigned > 0
    assert any(w.startswith(f"{unassigned} trials are unassigned") for w in report.warnings)
    assert (report.fdr_grid.fdr == 1.0).all()
    # single group: each row's NRB is the lone group's absolute log ratio
    for value, log_ratios in zip(report.nrb.tolist(), report.measures.g2avg_log_ratio):
        (lone,) = log_ratios.tolist()
        assert value == abs(lone)
        assert log_ratios.size == 1


def test_run_audit_missing_scores_file(tmp_path):
    config = AuditConfig(
        scores_path=str(tmp_path / "nope.csv"),
        metadata_path=str(tmp_path / "also_nope.csv"),
        group_attributes=("gender",),
        output_dir=str(tmp_path / "out"),
    )
    with pytest.raises(DataError) as exc:
        run_audit(config)
    assert "nope.csv" in str(exc.value)


def degenerate_fixture(tmp_path):
    """A healthy group plus a group holding only target trials."""
    scores_path, metadata_path = tmp_path / "s.csv", tmp_path / "m.csv"
    n = 1500
    spec = SynthSpec(
        models=(GroupScoreModel(gk(cohort="good"), 1.0, 0.0, 1.0, n, n),), seed=3
    )
    trials, metadata = generate(spec)
    from biasaudit import Label, SpeakerMetadata, TrialRecord

    extra_meta = [SpeakerMetadata(f"bad{i}", {"cohort": "bad"}) for i in range(4)]
    extra = [
        TrialRecord("bad0", "bad1", Label.TARGET, 0.4),
        TrialRecord("bad2", "bad3", Label.TARGET, 1.1),
    ]
    write_trials(trials + extra, scores_path)
    write_metadata(metadata + extra_meta, metadata_path)
    return scores_path, metadata_path


def test_degenerate_group_warns_and_is_pooled_only(tmp_path):
    scores_path, metadata_path = degenerate_fixture(tmp_path)
    config = AuditConfig(
        scores_path=str(scores_path),
        metadata_path=str(metadata_path),
        group_attributes=("cohort",),
        design_fprs=(0.1,),
        alphas=(0.5,),
        output_dir=str(tmp_path / "out"),
    )
    report = run_audit(config)
    assert any("cohort=bad" in w for w in report.warnings)
    assert [k.label() for k in report.base.groups] == ["cohort=good"]
    # the two displaced trials still count toward the pooled population
    assert report.base.sizes[0, -1] == 1500 + 2


# few distinct values, zeros of both signs among them, so zeros tie within and across groups
signed_scores = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0])
trial_rows = st.lists(st.tuples(st.integers(0, 3), st.booleans(), signed_scores), max_size=30)


@given(trial_rows, st.randoms(use_true_random=False))
@example([(0, True, 0.0), (1, True, -0.0)], random.Random(0))
def test_row_order_moves_no_byte_of_the_report(rows, rng):
    """Reversing or shuffling the trial table's rows leaves the report's bytes unchanged.

    Speakers s0-s2 form groups a-c; s3 has no metadata, so its trials are
    unassigned. Each group first gets a target and a nontarget at -1.0 and
    at 1.0, so none is degenerate and no EER is zero.
    """
    speakers = SpeakerTable(["s0", "s1", "s2"], {"g": ["a", "b", "c"]})
    rows = [(g, t, s) for g in range(3) for t in (True, False) for s in (-1.0, 1.0)] + rows
    dumped = set()
    for order in (rows, rows[::-1], rng.sample(rows, len(rows))):
        ids = [f"s{g}" for g, _, _ in order]
        table = TrialTable(
            ids, ids,
            np.array([t for _, t, _ in order], dtype=bool),
            np.array([score for *_, score in order], dtype=float),
        )
        base = base_metrics(assign_groups(table, speakers, ["g"]), (0.5, 0.1))
        dumped.add(repr(_render(report_of(base, zero_policy="smooth"))))
    assert len(dumped) == 1


def test_degenerate_group_raises_under_strict(tmp_path):
    scores_path, metadata_path = degenerate_fixture(tmp_path)
    config = AuditConfig(
        scores_path=str(scores_path),
        metadata_path=str(metadata_path),
        group_attributes=("cohort",),
        design_fprs=(0.1,),
        alphas=(0.5,),
        output_dir=str(tmp_path / "out"),
        strict=True,
    )
    with pytest.raises(DegenerateGroupError):
        run_audit(config)


@pytest.mark.parametrize("metadata, labels", [
    # values holding ',' whose labels differ
    ('speaker_id,a,b\ns1,"1,2",3\ns2,1,"2,3"\n', ["a=1,b=2,3", "a=1,2,b=3"]),
    # both groups would be written a=1,b=2,b=3
    ('speaker_id,a,b\ns1,"1,b=2",3\ns2,1,"2,b=3"\n', None),
], ids=["distinct", "shared"])
def test_groups_that_share_a_label_are_an_input_error(tmp_path, metadata, labels):
    (tmp_path / "m.csv").write_text(metadata, encoding="utf-8")
    (tmp_path / "s.csv").write_text("enroll_id,test_id,label,score\n" + "".join(
        f"{s},{s},{label},{score}\n" for s in ("s1", "s2")
        for label, score in (("target", 1.0), ("target", 0.25), ("nontarget", 0.5),
                             ("nontarget", 0.0))
    ), encoding="utf-8")
    config = AuditConfig(
        scores_path=str(tmp_path / "s.csv"), metadata_path=str(tmp_path / "m.csv"),
        group_attributes=("a", "b"), design_fprs=(0.5,), zero_policy="smooth",
    )
    if labels is not None:
        assert [key.label() for key in run_audit(config).base.groups] == labels
        return
    with pytest.raises(DataError) as info:
        run_audit(config)
    assert str(info.value) == (
        "groups ('1', '2,b=3') and ('1,b=2', '3') share the label 'a=1,b=2,b=3'; "
        "change the values that hold ',' and '='"
    )


def test_emit_writes_six_deterministic_files(tmp_path):
    config = base_config(tmp_path)
    report = run_audit(config)
    first = emit(report, tmp_path / "out1")
    assert [p.name for p in first] == [
        REPORT_JSON, TABLE_BASE_METRICS, TABLE_BIAS_MEASURES,
        TABLE_DECOMPOSITION, FIG_FDR_GRID, FIG_NRB_SUITE,
    ]
    second = emit(run_audit(config), tmp_path / "out2")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    # LF line endings everywhere
    for path in first:
        assert b"\r" not in path.read_bytes()


def test_emit_figures_flag_skips_figure_files(tmp_path):
    config = base_config(tmp_path, emit_figures=False)
    report = run_audit(config)
    written = emit(report, tmp_path / "out")
    assert [p.name for p in written] == [
        REPORT_JSON, TABLE_BASE_METRICS, TABLE_BIAS_MEASURES, TABLE_DECOMPOSITION,
    ]


def test_fdr_grid_csv_has_a_row_per_cell(tmp_path):
    config = base_config(
        tmp_path,
        design_fprs=(0.001, 0.01, 0.025, 0.05, 0.1),
        alphas=(0.0, 0.25, 0.5, 0.75, 1.0),
    )
    report = run_audit(config)
    paths = emit(report, config.output_dir)
    grid_csv = next(p for p in paths if p.name == FIG_FDR_GRID)
    lines = grid_csv.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "design_fpr,alpha,fdr"
    assert len(lines) == 1 + 25


def test_report_json_is_strict_json_and_internally_consistent(tmp_path):
    config = base_config(tmp_path)
    report = run_audit(config)
    paths = emit(report, config.output_dir)
    payload = json.loads(paths[0].read_text(encoding="utf-8"))
    assert payload["schema_version"] == 1
    assert payload["config"]["groups"] == ["gender", "nationality"]

    metrics = {e["metric"]: e for e in payload["base_metrics"]}
    for entry in payload["bias_measures"]:
        base = metrics[entry["metric"]]
        raw = {r["group"]: r["fraction"] for r in base["per_group"]}
        aggregate = base["aggregate"]["fraction"]
        got = {r["group"]: r["value"] for r in entry["per_group"]}
        if entry["measure"] == "g2min_diff":
            best = min(raw.values())
            expected = {g: v - best for g, v in raw.items()}
            expected[min(g for g, v in raw.items() if v == best)] = 0.0
        elif entry["measure"] == "g2avg_ratio":
            expected = {g: v / aggregate for g, v in raw.items()}
        else:
            expected = {g: -math.log(v / aggregate) for g, v in raw.items()}
        assert got == expected


def test_report_unit_discipline(tmp_path):
    config = base_config(tmp_path)
    payload = report_to_dict(run_audit(config))
    for entry in payload["base_metrics"]:
        rows = entry["per_group"] + [entry["aggregate"]]
        for row in rows:
            if entry["metric"] == "min_cdet":
                assert "percent" not in row
            else:
                assert row["percent"] == row["fraction"] * 100.0
            assert row["unit"] == "fraction"


def non_finite_floats(value) -> list[float]:
    """Every non-finite float anywhere in a JSON-ready value."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [f for v in value for f in non_finite_floats(v)]
    return []


def test_payload_writes_unbounded_values_as_strings(tmp_path):
    """An infinite threshold and zero-FPR attack times reach the payload as strings."""
    # the top score is a nontarget, so a design FPR below 1/n calibrates to the +inf sentinel
    (tmp_path / "s.csv").write_text(
        "enroll_id,test_id,label,score\n"
        "a1,a2,target,1.0\na1,a2,target,2.0\na1,a2,nontarget,0.0\na1,a2,nontarget,1.5\n"
        "a1,a2,nontarget,9.0\nb1,b2,target,0.2\nb1,b2,target,2.0\nb1,b2,nontarget,0.0\n"
        "b1,b2,nontarget,0.5\n",
        encoding="utf-8",
    )
    (tmp_path / "m.csv").write_text("speaker_id,g\na1,a\na2,a\nb1,b\nb2,b\n", encoding="utf-8")
    config = AuditConfig(
        scores_path=str(tmp_path / "s.csv"),
        metadata_path=str(tmp_path / "m.csv"),
        group_attributes=("g",),
        design_fprs=(0.5, 1e-9),
        alphas=(0.5,),
        zero_policy="smooth",
        output_dir=str(tmp_path / "out"),
    )
    payload = report_to_dict(run_audit(config))
    assert non_finite_floats(payload) == []
    assert payload["threshold_decomposition"][-1]["threshold"] == "Infinity"
    assert [r["threshold"] for r in payload["fdr_grid"] if r["design_fpr"] == 1e-9] == ["Infinity"]
    block = payload["attack_scenarios"][-1]
    assert block["threshold"] == "Infinity"
    for row in block["rows"]:
        assert row["zero_fpr"]
        for field in ("expected_attempts", "expected_hours", "hours_to_target_probability"):
            assert row[field] == "Infinity"


def test_empty_attribute_value_is_flagged(tmp_path):
    spec = SynthSpec(
        models=(
            GroupScoreModel(gk(gender="f"), 2.0, 0.0, 1.0, 300, 300),
            GroupScoreModel(gk(gender=""), 1.0, 0.0, 1.0, 200, 200),
        ),
        seed=8,
    )
    trials, metadata = generate(spec)
    write_trials(trials, tmp_path / "s.csv")
    write_metadata(metadata, tmp_path / "m.csv")
    config = AuditConfig(
        scores_path=str(tmp_path / "s.csv"),
        metadata_path=str(tmp_path / "m.csv"),
        group_attributes=("gender",),
        design_fprs=(0.1,),
        alphas=(0.5,),
        output_dir=str(tmp_path / "out"),
    )
    report = run_audit(config)
    assert [k.label() for k in report.base.groups] == ["gender=", "gender=f"]
    assert report.warnings == [
        "group gender= has an empty gender value (400 trials); "
        "check the metadata for missing values"
    ]


def test_one_audit_gives_each_kind_of_warning_in_order(tmp_path):
    """Empty values, degenerate groups and the unassigned count, then the measures' warnings."""
    (tmp_path / "m.csv").write_text("speaker_id,g\na,\nc,x\ne,y\n", encoding="utf-8")
    rows = [
        "a,a,target,1", "a,a,target,2", "a,a,nontarget,0", "a,a,nontarget,0.5",  # g=: no FA
        "c,c,target,1", "c,c,target,0.25", "c,c,nontarget,0.5", "c,c,nontarget,3",
        "e,e,target,0.75",  # g=y holds a target alone
        "z,z,nontarget,0.25",  # z has no metadata
    ]
    (tmp_path / "s.csv").write_text(
        "enroll_id,test_id,label,score\n" + "".join(f"{row}\n" for row in rows), encoding="utf-8"
    )
    config = AuditConfig(
        scores_path=str(tmp_path / "s.csv"), metadata_path=str(tmp_path / "m.csv"),
        group_attributes=("g",), design_fprs=(0.5,), zero_policy="infinity",
    )
    assert run_audit(config).warnings == [
        "group g= has an empty g value (4 trials); check the metadata for missing values",
        "group g=y has no nontarget trials; excluded from per-group metrics "
        "(1 trials kept in pooled statistics)",
        "2 trials are unassigned; they count toward pooled metrics only",
        *(f"nrb({name}) is infinite; zero-valued groups: g="
          for name in ("eer", "min_cdet", "fpr@0.5", "fnr@0.5")),
        "fpr@0.5: zero-FPR groups have unbounded expected attack time; "
        "flagged in the exposure table",
    ]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## Library use\n"):]
    block = section[section.index("```python\n") + len("```python\n"):section.index("\n```\n")]
    write_two_group_fixture(tmp_path)
    (tmp_path / "audit.cfg").write_text(
        "scores = scores.csv\nmetadata = metadata.csv\ngroups = gender,nationality\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
    assert (tmp_path / "audit_out" / REPORT_JSON).exists()
    assert namespace["config"].group_attributes == ("gender", "nationality")
    assert namespace["config"].dcf.c_miss == 2.0


def test_enrollment_only_policy_flows_through(tmp_path):
    scores_path, metadata_path = write_two_group_fixture(tmp_path)
    config = AuditConfig(
        scores_path=str(scores_path),
        metadata_path=str(metadata_path),
        group_attributes=("gender",),
        policy=GroupingPolicy.ENROLLMENT_ONLY,
        design_fprs=(0.1,),
        alphas=(0.5,),
        output_dir=str(tmp_path / "out"),
    )
    report = run_audit(config)
    assert report.config.policy is GroupingPolicy.ENROLLMENT_ONLY
    assert {k.label() for k in report.base.groups} == {"gender=f", "gender=m"}


# Literal scores for the golden test: no RNG, so the emitted bytes do not
# depend on the numpy version. Each (enroll, test) pair carries
# (target scores, nontarget scores); fo1/fo2 form a target-only group and
# the last two pairs are unassigned (cross-group and unknown speaker).
GOLDEN_TRIALS = {
    ("fy1", "fy2"): ([2.1, 1.4, 0.9, 1.8, 0.3, 2.6, 1.1, 0.7],
                     [-0.4, 0.2, 1.0, -1.3, 0.5, -0.8, 0.1, 1.5, -0.2, 0.8]),
    ("mo1", "mo2"): ([1.2, 0.4, 2.2, -0.1, 1.7, 0.8, 1.05],
                     [0.6, -0.5, 0.05, 1.3, -1.1, 0.35, -0.25, 0.9, 1.9]),
    ("my1", "my2"): ([3.0, 2.4, 1.6, 0.95, 2.8, 1.25],
                     [-1.5, -0.6, 0.45, -0.9, 1.15, 0.0, -0.3, 0.65]),
    ("fo1", "fo2"): ([1.0, 0.5], []),
    ("fy1", "mo1"): ([0.25], [0.55, -0.75]),
    ("zz1", "my1"): ([1.45], [0.15]),
}
GOLDEN_METADATA = (
    "speaker_id,gender,age\n"
    "fy1,f,young\nfy2,f,young\nmo1,m,old\nmo2,m,old\n"
    "my1,m,young\nmy2,m,young\nfo1,f,old\nfo2,f,old\n"
)
# "smooth" was recorded from the record-based pipeline that computed each
# table separately; "infinity" from the per-table CSV writers that preceded
# the payload projection. Under "infinity" zero-valued groups put
# "Infinity" in report.json and inf in the bias-measure, decomposition and
# NRB tables.
GOLDEN_SHA256 = {
    "smooth": {
        REPORT_JSON: "60d4044b5b32002f34166a4f82e3b99f2683cd91c7b4a712ade7ba10e6cf8519",
        TABLE_BASE_METRICS: "88decd2db84ee62ec2739ecca1d4b3cdb2f916bc8358170e035a2f8ca98704d0",
        TABLE_BIAS_MEASURES: "d9b97d82698f29d97b43034c5a8c7a16682c4b2322ae43ab95ca7ae28323484b",
        TABLE_DECOMPOSITION: "08c3a877934b0f167a755a12538f45e7478c802b5a129f86f0fe7d239f3dfaea",
        FIG_FDR_GRID: "0398a90b22a28418bee22afd78108747cde46c7c0bd141c71b317d73a9494758",
        FIG_NRB_SUITE: "a1c3633758254d39334343631d83cc42f2858ba718df8a0fe0a4b6846383c260",
    },
    "infinity": {
        REPORT_JSON: "c8ea5b3ed2d343a026d8ad5be52525178e58853bf9f0ad93ec7d4eb499f49202",
        TABLE_BASE_METRICS: "88decd2db84ee62ec2739ecca1d4b3cdb2f916bc8358170e035a2f8ca98704d0",
        TABLE_BIAS_MEASURES: "1d8f61580fe4eae08fb2d4b4fee0a289d455bea3749b4cf11cea7ee5040f633c",
        TABLE_DECOMPOSITION: "2ab1acd3dd4eb07747b4f126b2381edcf08394581400ed8ac84d2d510f05c87c",
        FIG_FDR_GRID: "0398a90b22a28418bee22afd78108747cde46c7c0bd141c71b317d73a9494758",
        FIG_NRB_SUITE: "c79f3eb6941d5291ac3aafe7e594002b899a10bf0a12a12b215baeb89ceae7c6",
    },
}


@pytest.mark.parametrize("zero_policy", sorted(GOLDEN_SHA256))
def test_emitted_files_match_golden_digests(tmp_path, monkeypatch, zero_policy):
    monkeypatch.chdir(tmp_path)
    rows = ["enroll_id,test_id,label,score"]
    for (enroll, test), (targets, nontargets) in GOLDEN_TRIALS.items():
        rows += [f"{enroll},{test},target,{s!r}" for s in targets]
        rows += [f"{enroll},{test},nontarget,{s!r}" for s in nontargets]
    Path("scores.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    Path("metadata.csv").write_text(GOLDEN_METADATA, encoding="utf-8")
    config = AuditConfig(
        scores_path="scores.csv",
        metadata_path="metadata.csv",
        group_attributes=("gender", "age"),
        design_fprs=(0.5, 0.1, 0.25),
        alphas=(1.0, 0.0, 0.5),
        zero_policy=zero_policy,
        output_dir="out",
    )
    written = emit(run_audit(config), config.output_dir)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == GOLDEN_SHA256[zero_policy]
    if zero_policy == "infinity":
        text = {p.name: p.read_text(encoding="utf-8") for p in written}
        assert '"Infinity"' in text[REPORT_JSON]
        for name in (TABLE_BIAS_MEASURES, TABLE_DECOMPOSITION, FIG_NRB_SUITE):
            assert ",inf" in text[name]


_CSV_NAMES = (
    TABLE_BASE_METRICS, TABLE_BIAS_MEASURES, TABLE_DECOMPOSITION, FIG_FDR_GRID, FIG_NRB_SUITE,
)


def read_files(paths) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in paths}


def test_csv_mirrors_write_each_number_as_the_repr_of_its_float(tmp_path):
    """Signed zeros side by side in one column, 30.0 and the three non-finite values
    each print as ``repr(float(v))``, however often they repeat, and all six files
    are the reference emitter's bytes."""
    inf, nan = math.inf, math.nan
    groups = (gk(g="a"), gk(g="b"), gk(g="c"))
    zeros = np.array([[-0.0, 0.0, 30.0]] * 4)
    report = BiasReport(
        config=AuditConfig(
            scores_path="s.csv", metadata_path="m.csv", group_attributes=("g",),
            design_fprs=(0.5,),
        ),
        warnings=[],
        base=BaseMetrics(
            groups=groups,
            keys=(MetricKey("eer"), MetricKey("min_cdet"), MetricKey("fpr", 0.5),
                  MetricKey("fnr", 0.5)),
            values=np.array([[-0.0, 0.0, 30.0], [0.0, -0.0, 30.0], [30.0, -0.0, 0.0],
                             [0.0, 0.0, -0.0]]),
            aggregates=np.array([0.0, 30.0, -0.0, 0.0]),
            errors=np.zeros((4, 4), dtype=np.int64),
            sizes=np.ones((2, 4), dtype=np.int64),
            design_points=(DesignPoint(0.5, inf),),
        ),
        measures=BiasMeasures(
            g2min_diff=zeros,
            g2avg_ratio=zeros[:, ::-1],
            g2avg_log_ratio=np.array([[inf, -inf, nan], [-0.0, 0.0, inf], [-inf, nan, 0.0],
                                      [inf, inf, -0.0]]),
            best_groups=groups[:1] * 4,
            average_mode="group_mean",
        ),
        fdr_grid=FdrGrid(
            (-0.0, 30.0, 0.0), np.array([0.0]), np.array([-0.0]), np.array([[-0.0, 30.0, 0.0]])
        ),
        nrb=np.array([inf, -0.0, nan, -inf]),
        exposure=np.full((3, 1, 3), inf),
    )
    written = emit(report, tmp_path / "out")
    text = {path.name: path.read_text(encoding="utf-8") for path in written}
    assert text[TABLE_BASE_METRICS] == (
        "metric,group,value_fraction,value_percent\n"
        "eer,g=a,-0.0,-0.0\neer,g=b,0.0,0.0\neer,g=c,30.0,3000.0\neer,pooled,0.0,0.0\n"
        "min_cdet,g=a,0.0,\nmin_cdet,g=b,-0.0,\nmin_cdet,g=c,30.0,\nmin_cdet,pooled,30.0,\n"
        "fpr@0.5,g=a,30.0,3000.0\nfpr@0.5,g=b,-0.0,-0.0\nfpr@0.5,g=c,0.0,0.0\n"
        "fpr@0.5,pooled,-0.0,-0.0\n"
        "fnr@0.5,g=a,0.0,0.0\nfnr@0.5,g=b,0.0,0.0\nfnr@0.5,g=c,-0.0,-0.0\n"
        "fnr@0.5,pooled,0.0,0.0\n"
    )
    log_ratios = [["inf", "-inf", "nan"], ["-0.0", "0.0", "inf"], ["-inf", "nan", "0.0"],
                  ["inf", "inf", "-0.0"]]
    assert [line.split(",")[3] for line in text[TABLE_BIAS_MEASURES].splitlines()[1:]] == [
        v for row in log_ratios for v in ["-0.0", "0.0", "30.0", "30.0", "0.0", "-0.0", *row]
    ]
    assert text[TABLE_DECOMPOSITION] == (
        "design_fpr,threshold,group,fpr,g2min_diff,g2avg_log_ratio\n"
        "0.5,inf,g=a,30.0,-0.0,-inf\n0.5,inf,g=b,-0.0,0.0,nan\n0.5,inf,g=c,0.0,30.0,0.0\n"
    )
    assert text[FIG_FDR_GRID] == (
        "design_fpr,alpha,fdr\n0.5,-0.0,-0.0\n0.5,30.0,30.0\n0.5,0.0,0.0\n"
    )
    assert text[FIG_NRB_SUITE] == (
        "metric_name,nrb\neer,inf\nmin_cdet,-0.0\nfpr@0.5,nan\nfnr@0.5,-inf\n"
    )
    assert read_files(written) == read_files(reference_emit(report, tmp_path / "reference"))


def test_run_audit_splits_and_sweeps_each_population_once(tmp_path, monkeypatch):
    """The row arrays hold every loaded trial once; the segmented sweeps cover each group
    and the pooled population once, in two passes and with no per-population sweep."""
    calls: Counter[str] = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("biasaudit.")]
    for home, name in (("trials", "assign_groups"), ("detection", "compute_sweep"),
                       ("detection", "_sweeps")):
        original = getattr(sys.modules[f"biasaudit.{home}"], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            result = _original(*args, **kwargs)
            if _name == "assign_groups":
                arrays = [*result.groups.values(), result.unassigned]
                calls["trials_bucketed"] += sum(len(rows) for rows in arrays)
            if _name == "_sweeps":
                calls["segments"] += len(args[2]) - 1
            return result

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    config = base_config(tmp_path)
    report = run_audit(config)
    populations = len(report.base.groups) + 1
    n_trials = len(load_trials(config.scores_path))
    assert calls == {
        "assign_groups": 1, "_sweeps": 2, "segments": populations, "trials_bucketed": n_trials,
    }


def test_run_audit_evaluates_each_measure_once_per_metric_row(tmp_path, monkeypatch):
    """Every measure covers every base-metric row exactly once; NRB and the
    decomposition read the computed rows instead of recomputing them."""
    rows: Counter[str] = Counter()
    measures_module = sys.modules["biasaudit.measures"]
    for name in ("g2min_diff", "g2avg_ratio", "g2avg_log_ratio"):
        original = getattr(measures_module, name)

        def counted(first, *args, _name=name, _original=original, **kwargs):
            # a call on a (metrics x groups) array covers its rows; one on a vector, one row
            rows[_name] += first.shape[0] if getattr(first, "ndim", 1) == 2 else 1
            return _original(first, *args, **kwargs)

        for module in [m for n, m in sys.modules.items() if n.startswith("biasaudit.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    config = base_config(tmp_path)
    payload = report_to_dict(run_audit(config))
    metric_rows = len(payload["base_metrics"])
    assert metric_rows == 2 + 2 * len(config.design_fprs)
    assert rows == {
        "g2min_diff": metric_rows, "g2avg_ratio": metric_rows, "g2avg_log_ratio": metric_rows,
    }


def test_emit_formats_each_distinct_value_once_per_output(tmp_path, monkeypatch):
    """Each number array's texts come from one formatter call per distinct float64 bit
    pattern, so 0.0 and -0.0 are each formatted and no value is formatted twice."""
    report_module = sys.modules["biasaudit.report"]
    texts = report_module._texts
    calls = []

    def counted(values, form):
        made: Counter[int] = Counter()

        def counting(value):
            made[np.float64(value).view(np.int64).item()] += 1
            return form(value)

        result = texts(values, counting)
        calls.append((np.asarray(values, dtype=float), form, made))
        return result

    monkeypatch.setattr(report_module, "_texts", counted)
    config = base_config(tmp_path)
    written = emit(run_audit(config), config.output_dir)
    assert {path.name for path in written} == set(_CSV_NAMES) | {REPORT_JSON}
    for values, _, made in calls:
        assert set(made.values()) <= {1}
        assert sorted(made) == np.unique(values.ravel().view(np.int64)).tolist()
    assert {form for _, form, _ in calls} == {report_module._finite, report_module._json_number}
    # the arrays repeat their values, so fewer texts are made than cells are formatted
    assert sum(len(made) for *_, made in calls) < sum(values.size for values, *_ in calls)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("part, field", [
    ("fdr_grid", "fdr"), ("fdr_grid", "max_delta_fpr"),
    ("measures", "g2min_diff"),  # its fpr rows are the decomposition's g2min_diff column
])
def test_emit_rejects_a_non_finite_value_before_writing(tmp_path, part, field, bad):
    """A NaN or inf where report.json needs a number raises ValueError, as json.dumps with
    allow_nan=False does, and no report.json is written."""
    report = run_audit(base_config(tmp_path))
    section = getattr(report, part)
    values = getattr(section, field).copy()
    if part == "measures":
        values[report.base.design_rows("fpr")[0], -1] = bad
    else:
        values.flat[-1] = bad
    report = dataclasses.replace(
        report, **{part: dataclasses.replace(section, **{field: values})}
    )
    with pytest.raises(ValueError):
        emit(report, tmp_path / "out")
    assert not (tmp_path / "out" / REPORT_JSON).exists()
    with pytest.raises(ValueError):
        report_to_dict(report)
    with pytest.raises(ValueError):
        reference_emit(report, tmp_path / "reference")
    assert not (tmp_path / "reference" / REPORT_JSON).exists()


# Group keys with one or two attributes, so FPR ties are broken by GroupKey's own order.
_GROUPS = st.lists(
    st.tuples(st.sampled_from(["g", "r", "gr"]), st.integers(0, 30)),
    min_size=1, max_size=50, unique=True,
).map(lambda specs: [
    gk(**{name: str(i if name == "g" or names == "r" else i % 3) for name in names})
    for names, i in specs
])
# zeros, ones and repeated values, so the report's worst-first order meets ties
_RATES = st.sampled_from([0.0, 1.0, 0.5, 0.001]) | st.floats(1e-6, 1.0)


@st.composite
def _rate_tables(draw, group_keys=_GROUPS):
    """A BaseMetrics with drawn fpr/fnr rows, and the alphas and attack settings."""
    groups = draw(group_keys)
    design_fprs = sorted(draw(st.lists(
        st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.25]), min_size=1, max_size=3, unique=True,
    )), reverse=True)
    rates = st.lists(_RATES, min_size=len(design_fprs), max_size=len(design_fprs))
    base = rate_metrics(
        {key: draw(rates) for key in groups}, {key: draw(rates) for key in groups}, design_fprs
    )
    base = permute_rows(base, draw(st.permutations(range(len(base.keys)))))
    alphas = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True))
    return base, alphas, draw(st.floats(0.5, 1000.0)), draw(st.floats(0.01, 0.99))


# largest FPR gaps 0.1 and 0.05, with the rows reversed: no fpr row is where base_metrics
# puts it, so a reader that finds rows by position reads other rows' gaps
_REVERSED_ROWS = (
    permute_rows(
        rate_metrics({gk(g="a"): [0.2, 0.05], gk(g="b"): [0.1, 0.0]}, design_fprs=(0.1, 0.01)),
        [5, 4, 3, 2, 1, 0],
    ),
    [0.0, 1.0], 60.0, 0.5,
)


@settings(max_examples=150, deadline=None)
@given(_rate_tables())
@example((  # repeated FPRs and zeros in every design point, so exposure meets each FPR again
    rate_metrics(
        {gk(g="a"): [0.5, 0.0], gk(g="b"): [0.5, 0.001], gk(g="c"): [0.0, 0.001],
         gk(g="d"): [0.5, 0.0]},
        design_fprs=(0.1, 0.01),
    ),
    [0.5], 60.0, 0.5,
))
@example(_REVERSED_ROWS)
def test_meta_measures_and_exposure_match_scalar_references(table):
    """FDR cells, NRB values and exposure rows, as the report lists them, equal
    the per-cell and per-group scalar forms bit for bit."""
    base, alphas, rate, q = table
    report = report_of(base, alphas, rate, q)
    payload = report_to_dict(report)
    labels = {key: key.label() for key in base.groups}
    fpr_rows, fnr_rows = (
        {point: base.values[base.row(MetricKey(kind, point.design_fpr))].tolist()
         for point in base.design_points}
        for kind in ("fpr", "fnr")
    )

    def gap(row):
        return max(row) - min(row)

    assert [(c["design_fpr"], c["alpha"], c["max_delta_fpr"], c["max_delta_fnr"], c["fdr"])
            for c in payload["fdr_grid"]] == [
        (point.design_fpr, alpha, gap(fpr_rows[point]), gap(fnr_rows[point]),
         reference_fdr(fpr_rows[point], fnr_rows[point], alpha))
        for point in sorted(base.design_points, key=lambda p: p.design_fpr)
        for alpha in sorted(alphas)
    ]
    log_ratios = report.measures.g2avg_log_ratio.tolist()
    assert [float(r["nrb"]) for r in payload["nrb_suite"]] == list(map(reference_nrb, log_ratios))
    assert [r["zero_value_groups"] for r in payload["nrb_suite"]] == [
        [labels[key] for key, v in zip(base.groups, row) if math.isinf(v)] for row in log_ratios
    ]
    for block, point in zip(payload["attack_scenarios"], base.design_points, strict=True):
        assert block["design_fpr"] == point.design_fpr
        expected = reference_exposure(base.groups, fpr_rows[point], rate, q)
        assert [
            (r["group"], r["fpr"], float(r["expected_attempts"]), float(r["expected_hours"]),
             float(r["hours_to_target_probability"]), r["zero_fpr"])
            for r in block["rows"]
        ] == [(labels[key], *rest) for key, *rest in expected]


# Group values that report.json must escape and the CSV mirrors must quote.
_GROUP_VALUES = st.text(
    st.sampled_from(["a", "b", "\u00e9", "\u4e2d", "\U0001f600", '"', ",", "\r", " "]),
    min_size=1, max_size=4,
)


def assert_emits_the_reference_bytes(report: BiasReport) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        written = emit(report, Path(tmp, "out"))
        assert read_files(written) == read_files(reference_emit(report, Path(tmp, "reference")))
    assert report_to_dict(report) == reference_report_to_dict(report)


@settings(max_examples=100, deadline=None)
@given(
    _rate_tables(st.lists(_GROUP_VALUES, min_size=1, max_size=8, unique=True).map(
        lambda values: [gk(g=value) for value in values]
    )),
    st.sampled_from(ZERO_POLICIES),
)
@example(_REVERSED_ROWS, "infinity")
def test_emit_writes_the_reference_bytes_for_drawn_rate_tables(table, zero_policy):
    """All six files are the bytes of the payload-dict emitter, and report_to_dict is
    that emitter's payload."""
    base, alphas, rate, q = table
    try:
        report = report_of(base, alphas, rate, q, zero_policy=zero_policy)
    except (ZeroAggregateError, ZeroGroupValueError):  # a zero rate under zero-policy 'error'
        assume(False)
    assert_emits_the_reference_bytes(report)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(_GROUP_VALUES, min_size=1, max_size=4, unique=True),
    st.sampled_from(ZERO_POLICIES),
    st.lists(st.sampled_from([0.5, 0.25, 0.1, 0.01]), min_size=1, max_size=3, unique=True),
    st.integers(0, 2**16),
)
def test_emit_writes_the_reference_bytes_for_synthetic_audits(
    values, zero_policy, design_fprs, seed
):
    """The same for run_audit over a drawn synthetic spec."""
    spec = SynthSpec(
        models=tuple(
            GroupScoreModel(gk(g=value), 1.0 + 0.5 * i, 0.0, 1.0, 30, 40)
            for i, value in enumerate(values)
        ),
        seed=seed,
    )
    trials, metadata = generate(spec)
    with tempfile.TemporaryDirectory() as tmp:
        write_trials(trials, Path(tmp, "s.csv"))
        write_metadata(metadata, Path(tmp, "m.csv"))
        config = AuditConfig(
            scores_path=str(Path(tmp, "s.csv")), metadata_path=str(Path(tmp, "m.csv")),
            group_attributes=("g",), design_fprs=tuple(design_fprs), alphas=(0.0, 0.5, 1.0),
            zero_policy=zero_policy,
        )
        try:
            report = run_audit(config)
        except (ZeroAggregateError, ZeroGroupValueError):  # a zero rate under 'error'
            assume(False)
    assert_emits_the_reference_bytes(report)


# Characters json.dumps must escape: a raw newline inside a string would break _nested.
_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\u00e9", "\u2028", "\U0001f600",
                     "{", "}", "[", "]", ",", ":", " ", "a"]) | st.characters(),
    max_size=6,
)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**200), 2**200),
    _FLOATS, _FLOATS.map(np.float64), _TEXT,
    st.sampled_from([True, 1, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


@st.composite
def _rows(draw, cells):
    """Table rows: shared keys, sometimes reordered, sometimes holding a container."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(keys)) if draw(st.booleans()) else keys
        rows.append({key: draw(cells if draw(st.integers(0, 5)) == 0 else _SCALARS)
                     for key in order})
    return rows


# json turns these keys into strings: "1", "true", "null", "-0.0"
_KEYS = _TEXT | st.sampled_from([0, 1, True, False, None, 1.5, -0.0])
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        _rows(children),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_TREES, st.integers(0, 3))
@example([{1: 0}, {True: 0}, {1.0: 0}], 1)  # equal keys, three spellings
@example([0.0, -0.0, 0.0, -0.0], 1)  # equal values, two spellings
@example([{"v": 30}, {"v": 30.0}, {"v": True}, {"v": 1}, {"v": 1.0}], 2)  # equal table cells
@example([0.5, np.float64(0.5), 0.5], 1)  # equal values of two types, one spelling
@example({"rows": [{"g": "a", "v": [1]}, {"g": "b", "v": 2}], "empty": [{}, [], ()]}, 1)
@example({"text": "a\nb", "rows": ["\n", {"\n": "\r\n"}]}, 3)  # escaped newlines stay put
def test_report_encoder_writes_the_bytes_of_json_dumps_indent_2(tree, level):
    """A section written by ``_nested`` at depth ``level`` reads as json.dumps(indent=2)
    writes it inside ``level`` lists."""
    wrapped = tree
    for _ in range(level):
        wrapped = [wrapped]
    opening = "".join("[\n" + "  " * (depth + 1) for depth in range(level))
    closing = "".join("\n" + "  " * depth + "]" for depth in reversed(range(level)))
    assert opening + _nested(tree, level) + closing == json.dumps(
        wrapped, indent=2, allow_nan=False
    )


@settings(max_examples=100, deadline=None)
@given(
    _TREES,
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]),
    st.lists(st.sampled_from(["list", "tuple", "dict", "row"]), max_size=4),
)
def test_report_encoder_rejects_non_finite_floats_at_every_depth(tree, bad, path):
    value = bad
    for kind in path:
        value = {
            "list": [tree, value],
            "tuple": (value,),
            "dict": {"a": tree, "b": value},
            "row": [{"k": 1.0, "v": 0.0}, {"k": 2.0, "v": value}],  # a table cell
        }[kind]
    with pytest.raises(ValueError):
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        _nested(value, 1)


@pytest.mark.parametrize("wrap", [
    lambda x: x,
    lambda x: [1, x],
    lambda x: {"a": x},
    lambda x: [{"g": "a", "v": 1}, {"g": "b", "v": x}],
    lambda x: {"nested": [[x]]},
    lambda x: [0.5, x],  # after an equal float
    lambda x: [{"g": "a", "v": 0.5}, {"g": "b", "v": x}],  # a table cell after an equal one
])
@pytest.mark.parametrize("unsupported", [
    object(), {1, 2}, b"raw", np.int64(3),
    Fraction(1, 2), Decimal("0.5"), np.float32(0.5),  # each equals 0.5 and hashes like it
])
def test_report_encoder_rejects_unsupported_objects(wrap, unsupported):
    with pytest.raises(TypeError):
        json.dumps(wrap(unsupported), indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        _nested(wrap(unsupported), 1)


def test_report_encoder_rejects_unsupported_keys():
    for value in ({(1, 2): 0}, [{(1, 2): 0}], {"a": {(1, 2): [0]}}):
        with pytest.raises(TypeError):
            _nested(value, 1)
