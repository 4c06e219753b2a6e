"""CLI tests: subcommands, config files, presets, exit codes."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from biasaudit.cli import audit, main
from biasaudit.config import PARSERS, build_config, config_as_dict, parse_config_file
from biasaudit import (
    AuditConfig,
    __version__,
    ConfigError,
    GroupScoreModel,
    SynthSpec,
    generate,
    load_synth_spec,
    write_metadata,
    write_trials,
)
from helpers import gk, reference_generate, reference_write_metadata, reference_write_trials

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


def test_config_echo_holds_every_key_in_table_order():
    """Each PARSERS key in table order, the dcf_* keys as one mapping after policy."""
    config = build_config({
        "scores": "s.csv", "metadata": "m.csv", "groups": "g, h", "policy": "enrollment-only",
    })
    echo = config_as_dict(config)
    assert list(echo) == list(dict.fromkeys(
        "dcf" if key.startswith("dcf_") else key for key in PARSERS
    ))
    assert list(echo)[list(echo).index("policy") + 1] == "dcf"
    assert echo["dcf"] == {"c_miss": 1.0, "c_fa": 1.0, "p_target": 0.05, "normalize": True}
    assert echo["groups"] == ["g", "h"] and echo["policy"] == "enrollment-only"
    assert json.loads(json.dumps(echo)) == echo


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


def test_config_file_with_a_bom_is_read(data_dir):
    """A config file saved with a UTF-8 BOM gives the audit its flags give."""
    config_path = data_dir / "bom.cfg"
    config_path.write_text(
        f"groups = gender\nscores = {data_dir / 'scores.csv'}\n"
        f"metadata = {data_dir / 'metadata.csv'}\n"
        f"design_fprs = 0.05,0.1\nalphas = 0,0.5,1\nout = {data_dir / 'bom_out'}\n",
        encoding="utf-8-sig",
    )
    assert config_path.read_bytes().startswith(b"\xef\xbb\xbfgroups")
    assert main(["audit", "--config", str(config_path)]) == 0
    assert main(audit_args(data_dir, out="flag_out")) == 0
    for table in sorted((data_dir / "flag_out").glob("*.csv")):
        assert (data_dir / "bom_out" / table.name).read_bytes() == table.read_bytes()


def test_non_utf8_config_file_exits_one(data_dir, capsys):
    config_path = data_dir / "latin1.cfg"
    config_path.write_bytes(b"groups = gender\n# caf\xe9\n")
    assert main(["audit", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: cannot read config file {config_path}: not UTF-8 text: cannot decode "
        "byte 0xe9; save the file as UTF-8\n"
    )


# every line end of str.splitlines other than LF, CRLF and CR
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in NOT_LINE_ENDS])
def test_config_file_lines_end_only_at_lf_crlf_and_cr(tmp_path, separator):
    """A config line ends at LF, CRLF or CR, as a loaded CSV's does; other separators stay in
    the value or the comment they are in, and later lines keep their numbers."""
    config_path = tmp_path / "audit.cfg"
    text = (
        f"# note{separator}scores = other.csv\r"
        f"scores = a{separator}b.csv\r\n"
        f"# old: metadata = m.csv{separator}groups = gender\n"
        "metadata = m.csv\r"
    )
    config_path.write_text(text, encoding="utf-8", newline="")
    assert parse_config_file(config_path) == {"scores": f"a{separator}b.csv", "metadata": "m.csv"}
    config_path.write_text(text + "\rnot a setting\n", encoding="utf-8", newline="")
    with pytest.raises(ConfigError, match=r"\.cfg:6: expected key=value, got 'not a setting'$"):
        parse_config_file(config_path)


def test_usage_error_exits_one(data_dir):
    assert main(["audit", "--no-such-flag"]) == 1
    assert main(["audit", "--scores", "x.csv"]) == 1  # metadata missing -> config error
    config_path = data_dir / "bad.cfg"
    config_path.write_text("unknown_key = 1\n", encoding="utf-8")
    assert main(["audit", "--config", str(config_path)]) == 1


def test_a_missing_setting_is_named_by_its_config_key(capsys):
    assert main(["audit", "--metadata", "m.csv", "--groups", "g"]) == 1
    assert capsys.readouterr().err == (
        "error: missing required settings: scores; set each by its flag or in the config file\n"
    )
    assert main(["audit", "--scores", "s.csv"]) == 1
    assert "error: missing required settings: metadata, groups;" in capsys.readouterr().err


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


def test_version_runs_from_a_source_checkout(capsys):
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"biasaudit, version {version}\n"
    assert version == __version__


def _write_audit_inputs(folder, score_rows, metadata_text):
    folder.mkdir(exist_ok=True)
    (folder / "scores.csv").write_text(
        "enroll_id,test_id,label,score\n" + "".join(f"{row}\n" for row in score_rows),
        encoding="utf-8",
    )
    (folder / "metadata.csv").write_text(metadata_text, encoding="utf-8")


def _audit_in(folder, *flags):
    """Exit code of an audit of the inputs in ``folder``, written to ``folder/out``."""
    return main([
        "audit", "--scores", str(folder / "scores.csv"),
        "--metadata", str(folder / "metadata.csv"), "--out", str(folder / "out"), *flags,
    ])


def test_swapping_rows_with_signed_zeros_moves_no_byte(tmp_path, monkeypatch):
    rows = [
        "a,b,target,1", "a,b,target,-0.5", "a,b,nontarget,-0", "a,b,nontarget,0",
        "c,d,target,2", "c,d,target,3", "c,d,nontarget,-0.25", "c,d,nontarget,-2",
    ]
    swapped = rows[:2] + [rows[3], rows[2]] + rows[4:]
    outputs = []
    for name, score_rows in (("file", rows), ("swapped", swapped)):
        _write_audit_inputs(tmp_path / name, score_rows, "speaker_id,g\na,x\nb,x\nc,y\nd,y\n")
        monkeypatch.chdir(tmp_path / name)  # report.json echoes the paths: keep them equal
        assert _audit_in(Path("."), "--groups", "g", "--design-fprs", "0.5",
                         "--zero-policy", "infinity") == 0
        outputs.append({p.name: p.read_bytes() for p in Path("out").iterdir()})
    assert outputs[0] == outputs[1]
    assert b'"threshold": 0.0' in outputs[0]["report.json"]
    assert b"-0.0" not in outputs[0]["report.json"]


def test_audit_with_no_trial_in_the_metadata_says_why(tmp_path, capsys):
    _write_audit_inputs(tmp_path, ["a,b,target,1", "a,b,nontarget,0"], "speaker_id,g\nx,1\n")
    assert _audit_in(tmp_path, "--groups", "g") == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: no group has both target and nontarget trials: "
        "all 2 trials are unassigned and 0 groups are degenerate; check that the scores "
        "file's enroll_id and test_id values are speaker_id values in the metadata"
    )
    assert "both-match" in err


def test_audit_with_only_degenerate_groups_says_why(tmp_path, capsys):
    # group x has only targets and group y only nontargets; e and f have no metadata
    rows = ["a,b,target,1", "c,d,nontarget,0", "e,f,target,0.5"]
    _write_audit_inputs(tmp_path, rows, "speaker_id,g\na,x\nb,x\nc,y\nd,y\n")
    assert _audit_in(tmp_path, "--groups", "g") == 2
    assert capsys.readouterr().err == (
        "error: no group has both target and nontarget trials: "
        "1 of 3 trials are unassigned and 2 groups are degenerate\n"
    )


def test_audit_of_groups_that_share_a_label_exits_two_before_writing(tmp_path, capsys):
    rows = [f"{s},{s},{label},{score}" for s in ("s1", "s2")
            for label, score in (("target", 1), ("nontarget", 0))]
    _write_audit_inputs(tmp_path, rows, 'speaker_id,a,b\ns1,"1,b=2",3\ns2,1,"2,b=3"\n')
    assert _audit_in(
        tmp_path, "--groups", "a,b", "--design-fprs", "0.5", "--zero-policy", "smooth"
    ) == 2
    assert "share the label 'a=1,b=2,b=3'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("score_rows, metadata_text, file_name, message", [
    ([], "speaker_id,g\na,x\n", "scores.csv", "the file holds no trials"),
    (["a,b,target,1", "a,b,nontarget,0"], "speaker_id,g\n", "metadata.csv",
     "the file lists no speakers"),
    # a blank row is no trial, and the scores file is named first
    (["", ""], "speaker_id,g\n", "scores.csv", "the file holds no trials"),
], ids=["scores", "metadata", "both"])
def test_audit_of_a_file_with_a_header_alone_names_the_file(
    tmp_path, capsys, score_rows, metadata_text, file_name, message
):
    _write_audit_inputs(tmp_path, score_rows, metadata_text)
    assert _audit_in(tmp_path, "--groups", "g") == 2
    assert capsys.readouterr().err == f"error: in {tmp_path / file_name}: {message}\n"
    assert not (tmp_path / "out").exists()


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


def _no_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def test_scenario_json_writes_an_overflowed_time_as_report_json_does(capsys):
    """A rate so small that the hours overflow gives the string "Infinity", not a bare token."""
    assert main(["scenario", "--fpr", "0.5", "--rate", "1e-320", "--attempts", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert payload["attempts_per_hour"] == 1e-320
    (row,) = payload["rows"]
    assert row["expected_attempts"] == 2.0
    assert row["expected_hours"] == "Infinity"
    assert row["hours_to_target_probability"] == "Infinity"
    assert row["attempts_to_target_probability"] == 1
    assert row["success_probability_at_attempts"] == 0.875


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


def test_synth_writes_the_record_reference_bytes(tmp_path, capsys):
    """The groups name different attributes, so metadata rows carry empty values."""
    spec = {"seed": 4, "groups": [
        {"attributes": {"gender": "f"}, "mu_target": 2.0, "mu_nontarget": 0.0,
         "sigma": 1.0, "n_target": 30, "n_nontarget": 20},
        {"attributes": {"Gender": "m", "region": 'x,"é"'}, "mu_target": 1.0,
         "mu_nontarget": -1.0, "sigma": 0.5, "n_target": 4, "n_nontarget": 9},
        {"attributes": {"age": "30\n39"}, "mu_target": 0.0, "mu_nontarget": 0.0,
         "sigma": 1e-9, "n_target": 1, "n_nontarget": 1},
    ]}
    assert _synth(tmp_path, json.dumps(spec)) == 0
    out = tmp_path / "out"
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out / 'scores.csv'} (65 trials)",
        f"wrote {out / 'metadata.csv'} (130 speakers)",
    ]
    trials, metadata = reference_generate(load_synth_spec(spec))
    reference_write_trials(trials, tmp_path / "scores.csv")
    reference_write_metadata(metadata, tmp_path / "metadata.csv")
    for name in ("scores.csv", "metadata.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("field,count", [
    ("n_target", 2.9), ("n_nontarget", True), ("n_target", "3"),
])
def test_synth_rejects_trial_counts_that_are_not_integers(tmp_path, capsys, field, count):
    assert _synth(tmp_path, _spec_text(**{field: count})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad synthesis spec") and "trial counts must be integers" in err
    assert not (tmp_path / "out").exists()


def test_synth_bad_spec_exits_one(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"groups": []}', encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 1


def test_synth_spec_with_a_bom_writes_the_same_files(tmp_path):
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps(SYNTH_SPEC), encoding=encoding)
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "bom.json").read_bytes().startswith(b"\xef\xbb\xbf{")
    for file_name in ("scores.csv", "metadata.csv"):
        assert (tmp_path / "bom" / file_name).read_bytes() == \
            (tmp_path / "plain" / file_name).read_bytes()


def _synth(tmp_path, spec_text, *extra, out="out"):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text, encoding="utf-8")
    return main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / out), *extra])


def _spec_text(seed=2026, **group):
    spec = {**SYNTH_SPEC, "seed": seed}
    spec["groups"] = [{**spec["groups"][0], **group}, spec["groups"][1]]
    return json.dumps(spec)


@pytest.mark.parametrize("spec_text,extra", [
    pytest.param(_spec_text(), ("--seed", "-1"), id="flag-negative"),
    pytest.param(_spec_text(seed=-1), (), id="spec-negative"),
    pytest.param(_spec_text(seed=1.5), (), id="spec-fractional"),
])
def test_synth_rejects_a_bad_seed(tmp_path, capsys, spec_text, extra):
    assert _synth(tmp_path, spec_text, *extra) == 1
    assert capsys.readouterr().err.startswith("error: bad synthesis spec")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, byte", [
    (b"\xff{}", "0xff"), (b'\xef\xbb\xbf{"seed": "caf\xe9"}', "0xe9"),
], ids=["first-byte", "after-a-bom"])
def test_synth_rejects_a_spec_that_is_not_utf8_with_the_loaders_message(
    tmp_path, capsys, data, byte
):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(data)
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: bad synthesis spec {spec_path}: not UTF-8 text: cannot decode byte "
        f"{byte}; save the file as UTF-8\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec_text", [
    pytest.param(_spec_text().replace('"sigma": 1.0', '"sigma": 1e400', 1), id="sigma-1e400"),
    pytest.param(_spec_text(mu_target="inf"), id="mu-inf"),
    # finite parameters whose draws overflow
    pytest.param(_spec_text(mu_target=1e308, sigma=1e308), id="draws-overflow"),
])
def test_synth_rejects_specs_whose_scores_are_not_finite(tmp_path, capsys, spec_text):
    assert _synth(tmp_path, spec_text) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad synthesis spec") and "gender=f" in err
    assert not (tmp_path / "out").exists()


def test_synth_rejects_attribute_names_equal_after_lowercasing(tmp_path, capsys):
    spec = json.loads(_spec_text())
    spec["groups"][0]["attributes"] = {"Gender": "f", "gender": "m"}
    assert _synth(tmp_path, json.dumps(spec)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad synthesis spec") and "'Gender' and 'gender'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("attributes,message", [
    pytest.param([{"gender": 1}, {"gender": "m"}], "must be strings, got 1", id="int-value"),
    pytest.param([{"gender": None}, {"gender": "m"}], "must be strings, got None", id="null-value"),
    pytest.param([{"": "f"}, {"": "m"}], "got ''", id="empty-name"),
    pytest.param([{" gender ": "f"}, {" gender ": "m"}], "got ' gender '", id="padded-name"),
    pytest.param([{}, {}], "at least one group needs an attribute", id="no-attributes"),
    pytest.param([{"age": "3", "gender": ""}, {"age": "3"}],
                 "groups 0 (age=3,gender=) and 1 (age=3)", id="colliding-rows"),
])
def test_synth_rejects_attributes_the_loaders_would_not_read_back(
    tmp_path, capsys, attributes, message
):
    spec = json.loads(_spec_text())
    for group, attrs in zip(spec["groups"], attributes):
        group["attributes"] = attrs
    assert _synth(tmp_path, json.dumps(spec)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad synthesis spec") and message in err
    assert not (tmp_path / "out").exists()


def test_synth_unwritable_out_exits_one(tmp_path, capsys):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    assert _synth(tmp_path, _spec_text(), out="afile/sub") == 1
    out = tmp_path / "afile" / "sub"
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_audit_unwritable_out_exits_one_after_its_warnings(data_dir, capsys):
    metadata = data_dir / "metadata.csv"
    lines = metadata.read_text(encoding="utf-8").splitlines(keepends=True)
    metadata.write_text("".join(lines[:-20]), encoding="utf-8")  # some trials go unassigned
    (data_dir / "afile").write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(audit_args(data_dir, out="afile/sub")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("warning: ") and "unassigned" in err[0]
    assert err[-1].startswith(f"error: cannot write {data_dir / 'afile' / 'sub'}: ")
