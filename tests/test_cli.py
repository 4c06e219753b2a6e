"""CLI tests: subcommands, config files, presets, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biasaudit.cli import audit, main
from biasaudit.config import PARSERS
from biasaudit import (
    AuditConfig,
    ConfigError,
    GroupScoreModel,
    SynthSpec,
    generate,
    write_metadata,
    write_trials,
)
from helpers import gk

SYNTH_SPEC = {
    "seed": 2026,
    "groups": [
        {"attributes": {"gender": "f"}, "mu_target": 2.0, "mu_nontarget": 0.0,
         "sigma": 1.0, "n_target": 2500, "n_nontarget": 2500},
        {"attributes": {"gender": "m"}, "mu_target": 1.2, "mu_nontarget": 0.0,
         "sigma": 1.0, "n_target": 2500, "n_nontarget": 2500},
    ],
}


@pytest.fixture()
def data_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "scores.csv").exists()
    assert (tmp_path / "metadata.csv").exists()
    return tmp_path


def audit_args(data_dir, out="out", extra=()):
    return [
        "audit",
        "--scores", str(data_dir / "scores.csv"),
        "--metadata", str(data_dir / "metadata.csv"),
        "--groups", "gender",
        "--design-fprs", "0.05,0.1",
        "--alphas", "0,0.5,1",
        "--out", str(data_dir / out),
        *extra,
    ]


def test_audit_end_to_end(data_dir, capsys):
    assert main(audit_args(data_dir)) == 0
    out = data_dir / "out"
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "fig_fdr_grid.csv", "fig_nrb_suite.csv", "report.json",
        "table_base_metrics.csv", "table_bias_measures.csv",
        "table_threshold_decomposition.csv",
    ]
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert {g["group"] for g in payload["groups"]} == {"gender=f", "gender=m"}


def test_cli_determinism(data_dir):
    args = audit_args(data_dir, out="a")
    names = ("report.json", "fig_fdr_grid.csv", "table_bias_measures.csv")
    assert main(args) == 0
    snapshots = {n: (data_dir / "a" / n).read_bytes() for n in names}
    assert main(args) == 0  # identical inputs and config
    for name in names:
        assert (data_dir / "a" / name).read_bytes() == snapshots[name]


def test_preset_paper_pins_grids(data_dir):
    args = [
        "audit",
        "--scores", str(data_dir / "scores.csv"),
        "--metadata", str(data_dir / "metadata.csv"),
        "--groups", "gender",
        "--preset", "paper",
        "--out", str(data_dir / "preset_out"),
    ]
    assert main(args) == 0
    lines = (data_dir / "preset_out" / "fig_fdr_grid.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 25  # five design FPRs times five alphas


def test_preset_paper_pins_only_the_grids(data_dir):
    config_path = data_dir / "audit.cfg"
    config_path.write_text(
        f"scores = {data_dir / 'scores.csv'}\n"
        f"metadata = {data_dir / 'metadata.csv'}\n"
        "groups = gender\n"
        "design_fprs = 0.1\n"
        "dcf_c_miss = 2.0\n"
        "dcf_p_target = 0.1\n"
        f"out = {data_dir / 'preset_cfg_out'}\n",
        encoding="utf-8",
    )
    assert main(["audit", "--config", str(config_path), "--preset", "paper"]) == 0
    out = data_dir / "preset_cfg_out"
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert payload["config"]["design_fprs"] == [0.001, 0.01, 0.025, 0.05, 0.1]
    assert payload["config"]["dcf"] == {
        "c_miss": 2.0, "c_fa": 1.0, "p_target": 0.1, "normalize": True,
    }


# (config key, the flags that set it, the same value as config-file text)
FLAG_CASES = [
    ("scores", ("--scores", "other.csv"), "other.csv"),
    ("metadata", ("--metadata", "other_meta.csv"), "other_meta.csv"),
    ("groups", ("--groups", "gender, nationality"), "gender, nationality"),
    ("policy", ("--policy", "enrollment-only"), "enrollment-only"),
    ("design_fprs", ("--design-fprs", "0.01,0.1"), "0.01,0.1"),
    ("alphas", ("--alphas", "0,1"), "0,1"),
    ("dcf_p_target", ("--dcf-pt", "0.1"), "0.1"),
    ("dcf_c_miss", ("--dcf-cmiss", "2"), "2"),
    ("dcf_c_fa", ("--dcf-cfa", "1.5"), "1.5"),
    ("dcf_normalize", ("--no-dcf-normalize",), "false"),
    ("zero_policy", ("--zero-policy", "smooth"), "smooth"),
    ("average_mode", ("--average-mode", "group_mean"), "group_mean"),
    ("out", ("--out", "elsewhere"), "elsewhere"),
    ("strict", ("--strict",), "true"),
]


class _Captured(Exception):
    def __init__(self, config):
        self.config = config


def _audit_config(monkeypatch, tmp_path, lines, flags=()):
    """The AuditConfig `audit` builds from a config file plus flags, without running it."""
    def capture(config):
        raise _Captured(config)

    monkeypatch.setattr("biasaudit.cli.run_audit", capture)
    config_path = tmp_path / "audit.cfg"
    config_path.write_text(
        "scores = s.csv\nmetadata = m.csv\ngroups = gender\n" + "".join(lines),
        encoding="utf-8",
    )
    with pytest.raises(_Captured) as info:
        main(["audit", "--config", str(config_path), *flags])
    return info.value.config


def test_every_audit_flag_sets_a_config_key():
    destinations = {p.name for p in audit.params} - {"config_path", "preset"}
    assert destinations <= PARSERS.keys()
    assert destinations == {key for key, _, _ in FLAG_CASES}


@pytest.mark.parametrize("key, flags, raw", FLAG_CASES, ids=[c[0] for c in FLAG_CASES])
def test_flag_and_config_key_give_the_same_config(monkeypatch, tmp_path, key, flags, raw):
    from_file = _audit_config(monkeypatch, tmp_path, [f"{key} = {raw}\n"])
    from_flag = _audit_config(monkeypatch, tmp_path, [], flags)
    assert from_flag == from_file
    assert from_flag != _audit_config(monkeypatch, tmp_path, [])  # not the default


@pytest.mark.parametrize("flags, message", [
    (("--dcf-pt", "x"), "dcf_p_target: bad value 'x'"),
    (("--design-fprs", "0.1,x"), "design_fprs: cannot parse float list"),
])
def test_bad_flag_value_names_its_config_key(data_dir, capsys, flags, message):
    assert main(audit_args(data_dir, extra=flags)) == 1
    assert message in capsys.readouterr().err


def test_config_file_with_cli_override(data_dir):
    config_path = data_dir / "audit.cfg"
    config_path.write_text(
        "# audit configuration\n"
        f"scores = {data_dir / 'scores.csv'}\n"
        f"metadata = {data_dir / 'metadata.csv'}\n"
        "groups = gender\n"
        "design_fprs = 0.1\n"
        "alphas = 0.5\n"
        f"out = {data_dir / 'cfg_out'}\n",
        encoding="utf-8",
    )
    # flag overrides the config file's alphas
    assert main(["audit", "--config", str(config_path), "--alphas", "0,1"]) == 0
    lines = (data_dir / "cfg_out" / "fig_fdr_grid.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2


def test_usage_error_exits_one(data_dir):
    assert main(["audit", "--no-such-flag"]) == 1
    assert main(["audit", "--scores", "x.csv"]) == 1  # metadata missing -> config error
    config_path = data_dir / "bad.cfg"
    config_path.write_text("unknown_key = 1\n", encoding="utf-8")
    assert main(["audit", "--config", str(config_path)]) == 1


@pytest.mark.parametrize("field, values", [
    ("design_fprs", (0.01, 0.01)),
    ("design_fprs", (0.001, 0.0010000001)),  # both would be named fpr@0.001
    ("alphas", (0.5, 0.5)),
])
def test_config_rejects_repeated_grid_values(field, values):
    with pytest.raises(ConfigError, match=field) as info:
        AuditConfig(
            scores_path="s.csv", metadata_path="m.csv", group_attributes=("g",),
            **{field: values},
        )
    assert all(repr(v) in str(info.value) for v in values)


def test_repeated_design_fprs_exit_one(data_dir, capsys):
    # the later --design-fprs flag overrides the one audit_args sets
    assert main(audit_args(data_dir, extra=("--design-fprs", "0.001,0.0010000001"))) == 1
    assert "0.0010000001" in capsys.readouterr().err


def test_non_finite_dcf_cost_exits_one(data_dir, capsys):
    assert main(audit_args(data_dir, extra=("--dcf-cmiss", "inf"))) == 1
    assert "finite" in capsys.readouterr().err


def test_config_rejects_infinite_attack_rate(tmp_path):
    with pytest.raises(ConfigError, match="attempts_per_hour"):
        AuditConfig(
            scores_path=str(tmp_path / "s.csv"),
            metadata_path=str(tmp_path / "m.csv"),
            group_attributes=("gender",),
            attempts_per_hour=math.inf,
        )


def test_missing_data_exits_two(tmp_path):
    args = [
        "audit",
        "--scores", str(tmp_path / "missing.csv"),
        "--metadata", str(tmp_path / "missing_meta.csv"),
        "--groups", "gender",
        "--out", str(tmp_path / "out"),
    ]
    assert main(args) == 2


def test_malformed_scores_exits_two(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("enroll_id,test_id,label,score\na,b,maybe,0.1\n", encoding="utf-8")
    meta = tmp_path / "meta.csv"
    meta.write_text("speaker_id,gender\na,f\nb,f\n", encoding="utf-8")
    args = [
        "audit", "--scores", str(scores), "--metadata", str(meta),
        "--groups", "gender", "--out", str(tmp_path / "out"),
    ]
    assert main(args) == 2


def test_non_utf8_scores_exit_two(data_dir, capsys):
    scores = data_dir / "scores.csv"
    scores.write_bytes(scores.read_bytes() + "Jos\xe9,b,target,0.5\n".encode("latin-1"))
    assert main(audit_args(data_dir)) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_unparsable_csv_field_exits_two(data_dir, capsys):
    scores = data_dir / "scores.csv"
    field = "x" * 200_000  # over the csv module's default field size limit
    scores.write_text(scores.read_text(encoding="utf-8") + f"{field},b,target,0.5\n",
                      encoding="utf-8")
    assert main(audit_args(data_dir)) == 2
    assert "malformed CSV" in capsys.readouterr().err


def test_python_m_biasaudit_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "biasaudit", "scenario", "--fpr", "0.01"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )},
    )
    assert result.returncode == 0, result.stderr
    assert "fpr=0.01" in result.stdout


def test_strict_degenerate_exits_three(tmp_path):
    from biasaudit import Label, SpeakerMetadata, TrialRecord

    spec = SynthSpec(
        models=(GroupScoreModel(gk(cohort="good"), 1.0, 0.0, 1.0, 400, 400),), seed=1
    )
    trials, metadata = generate(spec)
    trials += [TrialRecord("z0", "z1", Label.TARGET, 0.5)]
    metadata += [SpeakerMetadata("z0", {"cohort": "bad"}),
                 SpeakerMetadata("z1", {"cohort": "bad"})]
    write_trials(trials, tmp_path / "scores.csv")
    write_metadata(metadata, tmp_path / "metadata.csv")
    args = [
        "audit",
        "--scores", str(tmp_path / "scores.csv"),
        "--metadata", str(tmp_path / "metadata.csv"),
        "--groups", "cohort",
        "--design-fprs", "0.1",
        "--alphas", "0.5",
        "--out", str(tmp_path / "out"),
    ]
    assert main([*args, "--strict"]) == 3
    assert main(args) == 0  # non-strict: warn and continue


def test_policy_and_knob_flags_flow_into_report(data_dir):
    args = audit_args(data_dir, out="knobs", extra=(
        "--policy", "enrollment-only",
        "--zero-policy", "infinity",
        "--average-mode", "group_mean",
        "--dcf-pt", "0.1", "--dcf-cmiss", "2.0", "--dcf-cfa", "1.5",
        "--no-dcf-normalize",
    ))
    assert main(args) == 0
    payload = json.loads((data_dir / "knobs" / "report.json").read_text(encoding="utf-8"))
    assert payload["config"]["policy"] == "enrollment-only"
    assert payload["config"]["zero_policy"] == "infinity"
    assert payload["config"]["average_mode"] == "group_mean"
    assert payload["config"]["dcf"] == {
        "c_miss": 2.0, "c_fa": 1.5, "p_target": 0.1, "normalize": False,
    }


def test_scenario_text_and_json(capsys):
    assert main([
        "scenario", "--fpr", "in_male=0.005", "--fpr", "avg=0.001",
        "--rate", "60", "--attempts", "1020",
    ]) == 0
    text = capsys.readouterr().out
    assert "in_male" in text.splitlines()[1]  # worst exposure listed first

    assert main([
        "scenario", "--fpr", "0.001", "--attempts", "1020", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["rows"][0]
    assert row["expected_attempts"] == pytest.approx(1000.0)
    assert row["expected_hours"] == pytest.approx(16.667, abs=0.001)
    assert row["success_probability_at_attempts"] == pytest.approx(0.639, abs=0.001)


def test_scenario_rejects_bad_fpr():
    assert main(["scenario", "--fpr", "nope"]) == 1
    assert main(["scenario", "--fpr", "2.0"]) == 1


@pytest.mark.parametrize("extra", [
    ("--target-probability", "1.5"),
    ("--target-probability", "0"),
    ("--attempts", "-1"),
    ("--rate", "0"),
    ("--rate", "inf"),
    ("--fpr", "2"),
])
def test_scenario_rejects_bad_settings(capsys, extra):
    assert main(["scenario", "--fpr", "0.01", *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert extra[0] in err


def test_synth_is_deterministic(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "scores.csv").read_bytes() == \
        (tmp_path / "b" / "scores.csv").read_bytes()
    assert (tmp_path / "a" / "metadata.csv").read_bytes() == \
        (tmp_path / "b" / "metadata.csv").read_bytes()


def test_synth_bad_spec_exits_one(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"groups": []}', encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 1
