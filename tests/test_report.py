"""End-to-end tests for the audit pipeline and report emission."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from biasaudit import (
    AuditConfig,
    DataError,
    DegenerateGroupError,
    GroupingPolicy,
    GroupScoreModel,
    SynthSpec,
    emit,
    generate,
    load_trials,
    report_to_dict,
    run_audit,
    write_metadata,
    write_trials,
)
from biasaudit.report import (
    FIG_FDR_GRID,
    FIG_NRB_SUITE,
    REPORT_JSON,
    TABLE_BASE_METRICS,
    TABLE_BIAS_MEASURES,
    TABLE_DECOMPOSITION,
)
from helpers import gk


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
    assert any("unassigned" in w for w in report.warnings)
    assert all(r.fdr == 1.0 for r in report.fdr_grid)
    # single group: the suite value is the lone group's absolute log ratio
    for result, log_ratios in zip(report.nrb_suite, report.measures.g2avg_log_ratio):
        (lone,) = log_ratios.tolist()
        assert result.nrb == abs(lone)
        assert result.group_count == 1


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


def test_run_audit_splits_and_sweeps_each_population_once(tmp_path, monkeypatch):
    """The buckets hold every loaded trial once; one sweep per group plus the pooled."""
    calls: Counter[str] = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("biasaudit.")]
    for home, name in (("trials", "assign_groups"), ("detection", "compute_sweep")):
        original = getattr(sys.modules[f"biasaudit.{home}"], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            result = _original(*args, **kwargs)
            if _name == "assign_groups":
                buckets = [*result.groups.values(), result.unassigned]
                calls["trials_bucketed"] += sum(len(scores) for scores in buckets)
            return result

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    config = base_config(tmp_path)
    report = run_audit(config)
    populations = len(report.base.groups) + 1
    n_trials = len(load_trials(config.scores_path))
    assert calls == {
        "assign_groups": 1, "compute_sweep": populations, "trials_bucketed": n_trials,
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
