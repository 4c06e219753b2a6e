"""Exact metamorphic relations of a whole audit, from input files to the emitted report.

One synthetic fixture is audited as written, then in transformed copies:
other line ends, a byte-order mark, every field quoted, every trial
repeated, every score scaled by a power of two, every attribute value
renamed in an order-preserving way. Each relation states which
values of the report may change and how; every other value must be
byte-identical. The last three relations are also hypothesis properties
over small drawn specs, seeds and settings; an audit that fails must fail
the same way after the transform.
"""

from __future__ import annotations

import codecs
import copy
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasaudit import (
    AuditConfig,
    AuditError,
    GroupScoreModel,
    SpeakerTable,
    SynthSpec,
    TrialTable,
    draw,
    emit,
    report_to_dict,
    run_audit,
    write_metadata,
    write_trials,
)
from helpers import gk

SPEC = SynthSpec(
    models=tuple(
        GroupScoreModel(gk(accent=f"a{k}"), 1.0 + 0.3 * k, 0.1 * k, 1.0, 300, 500)
        for k in range(5)
    ),
    seed=20,
)
TRIALS, SPEAKERS = draw(SPEC)
CONFIG_PATHS = ("scores", "metadata", "out")


def audit(tmp_path, name: str, scores: bytes, metadata: bytes, **options) -> tuple[dict, dict]:
    """(report payload without its input and output paths, emitted CSV bytes by file name).

    ``options`` are further AuditConfig fields. Compare payloads as
    ``json.dumps`` text, which tells -0.0 from 0.0.
    """
    root = tmp_path / name
    root.mkdir()
    (root / "scores.csv").write_bytes(scores)
    (root / "metadata.csv").write_bytes(metadata)
    config = AuditConfig(
        scores_path=str(root / "scores.csv"),
        metadata_path=str(root / "metadata.csv"),
        group_attributes=("accent",),
        output_dir=str(root / "out"),
        **{"design_fprs": (0.01, 0.05, 0.1), **options},
    )
    report = run_audit(config)
    payload = report_to_dict(report)
    for key in CONFIG_PATHS:
        del payload["config"][key]
    files = emit(report, config.output_dir)
    return payload, {path.name: path.read_bytes() for path in files if path.suffix == ".csv"}


def written(table) -> bytes:
    """The CSV file of a trial or speaker table, as its writer writes it."""
    buffer = io.StringIO()
    (write_trials if isinstance(table, TrialTable) else write_metadata)(table, buffer)
    return buffer.getvalue().encode()


SCORES, METADATA = written(TRIALS), written(SPEAKERS)


def crlf(data: bytes) -> bytes:
    return data.replace(b"\n", b"\r\n")


def cr(data: bytes) -> bytes:
    return data.replace(b"\n", b"\r")


def bom(data: bytes) -> bytes:
    return codecs.BOM_UTF8 + data


def quoted(data: bytes) -> bytes:
    """Every field in quotes; no field of the fixture holds a comma, quote or line break."""
    return b"".join(
        b",".join(b'"' + field + b'"' for field in line.split(b",")) + b"\n"
        for line in data.splitlines()
    )


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return audit(tmp_path_factory.mktemp("plain"), "lf", SCORES, METADATA)


@pytest.mark.parametrize("transform", [
    crlf, cr, bom, quoted, lambda data: bom(crlf(data)), lambda data: crlf(quoted(data)),
], ids=["crlf", "cr", "bom", "quoted", "bom-crlf", "quoted-crlf"])
def test_audit_does_not_depend_on_the_input_format(tmp_path, plain, transform):
    """LF, CRLF, CR, BOM-prefixed and fully quoted copies give the same report and tables."""
    payload, tables = audit(tmp_path, "copy", transform(SCORES), transform(METADATA))
    assert json.dumps(payload) == json.dumps(plain[0])
    assert tables == plain[1]


@pytest.mark.parametrize("k", [2, 3])
def test_repeating_every_trial_changes_only_the_counts(tmp_path, plain, k):
    rows = np.repeat(np.arange(len(TRIALS)), k)
    repeated = TrialTable(
        [TRIALS.enroll_ids[j] for j in rows.tolist()],
        [TRIALS.test_ids[j] for j in rows.tolist()],
        TRIALS.is_target[rows],
        TRIALS.scores[rows],
    )
    payload, _ = audit(tmp_path, "repeated", written(repeated), METADATA)
    expected = copy.deepcopy(plain[0])
    for counts in (*expected["groups"], expected["pooled"]):
        counts["n_target"] *= k
        counts["n_nontarget"] *= k
    assert json.dumps(payload) == json.dumps(expected)


@pytest.mark.parametrize("k", [-3, 1, 4])
def test_scaling_every_score_by_a_power_of_two_scales_only_the_thresholds(tmp_path, plain, k):
    scale = 2.0 ** k
    scaled = TrialTable(TRIALS.enroll_ids, TRIALS.test_ids, TRIALS.is_target, TRIALS.scores * scale)
    payload, _ = audit(tmp_path, "scaled", written(scaled), METADATA)
    expected = copy.deepcopy(plain[0])
    sections = ("threshold_decomposition", "fdr_grid", "attack_scenarios")
    for entry in (entry for section in sections for entry in expected[section]):
        if isinstance(entry["threshold"], float):  # the +inf sentinel is written "Infinity"
            entry["threshold"] *= scale
    assert json.dumps(payload) == json.dumps(expected)


def test_renaming_attribute_values_in_order_changes_only_the_group_labels(tmp_path, plain):
    """A shared prefix keeps the order of the values: each label gains it, nothing else moves."""
    values = SPEAKERS.columns["accent"]
    renamed = SpeakerTable(SPEAKERS.speaker_ids, {"accent": ["z-" + v for v in values]})
    payload, tables = audit(tmp_path, "renamed", SCORES, written(renamed))
    text = json.dumps(plain[0])
    assert text.count("accent=") > len(SPEC.models)  # labels appear in every section
    assert json.dumps(payload) == text.replace("accent=", "accent=z-")
    assert tables == {
        name: data.replace(b"accent=", b"accent=z-") for name, data in plain[1].items()
    }


# The properties below audit small drawn specs: 2-4 groups of 20-40 targets and 20-60
# nontargets whose score distributions overlap, so that every pooled rate at these
# design FPRs counts at least one error and only a group value can be zero.
VALUES = st.text(alphabet="abc012", min_size=1, max_size=3)
RENAMED_VALUES = st.text(alphabet="xyz789", min_size=1, max_size=3)
DESIGN_FPRS = (0.05, 0.1, 0.2)
AVERAGE_MODES = st.sampled_from(["pooled", "group_mean"])


@st.composite
def small_specs(draw) -> SynthSpec:
    models = tuple(
        GroupScoreModel(
            gk(accent=value),
            mu_target=draw(st.sampled_from([0.5, 1.0, 2.0])),
            mu_nontarget=draw(st.sampled_from([0.0, 0.25])),
            sigma=draw(st.sampled_from([1.0, 1.5])),
            n_target=draw(st.integers(20, 40)),
            n_nontarget=draw(st.integers(20, 60)),
        )
        for value in draw(st.lists(VALUES, min_size=2, max_size=4, unique=True))
    )
    return SynthSpec(models=models, seed=draw(st.integers(0, 2**32 - 1)))


def outcome(root, name: str, scores: bytes, metadata: bytes, **options):
    """``audit``'s (payload, tables), or the type name and message of the AuditError it raises."""
    try:
        return audit(root, name, scores, metadata, design_fprs=DESIGN_FPRS, **options)
    except AuditError as exc:
        return type(exc).__name__, str(exc)


def raised(result) -> bool:
    return isinstance(result[0], str)


# zero_policy=smooth is left out: (errors + 0.5) / (trials + 0.5) moves when both are
# multiplied by k
@given(
    spec=small_specs(), k=st.integers(2, 4),
    zero_policy=st.sampled_from(["error", "infinity"]), average_mode=AVERAGE_MODES,
)
@settings(max_examples=15, deadline=None)
def test_repeating_every_trial_k_times_changes_only_the_counts(
    tmp_path_factory, spec, k, zero_policy, average_mode
):
    root = tmp_path_factory.mktemp("repeat")
    trials, speakers = draw(spec)
    rows = np.repeat(np.arange(len(trials)), k).tolist()
    repeated = TrialTable(
        [trials.enroll_ids[j] for j in rows], [trials.test_ids[j] for j in rows],
        trials.is_target[rows], trials.scores[rows],
    )
    options = {"zero_policy": zero_policy, "average_mode": average_mode}
    plain = outcome(root, "plain", written(trials), written(speakers), **options)
    result = outcome(root, "repeated", written(repeated), written(speakers), **options)
    if raised(plain):
        assert result == plain
        return
    expected = copy.deepcopy(plain[0])
    for counts in (*expected["groups"], expected["pooled"]):
        counts["n_target"] *= k
        counts["n_nontarget"] *= k
    assert json.dumps(result[0]) == json.dumps(expected)


@given(
    spec=small_specs(), k=st.integers(-8, 8).filter(bool),
    zero_policy=st.sampled_from(["error", "infinity", "smooth"]), average_mode=AVERAGE_MODES,
)
@settings(max_examples=15, deadline=None)
def test_scaling_every_score_by_any_power_of_two_scales_only_the_thresholds(
    tmp_path_factory, spec, k, zero_policy, average_mode
):
    root = tmp_path_factory.mktemp("scale")
    trials, speakers = draw(spec)
    scale = 2.0 ** k
    scaled = TrialTable(trials.enroll_ids, trials.test_ids, trials.is_target, trials.scores * scale)
    options = {"zero_policy": zero_policy, "average_mode": average_mode}
    plain = outcome(root, "plain", written(trials), written(speakers), **options)
    result = outcome(root, "scaled", written(scaled), written(speakers), **options)
    if raised(plain):
        assert result == plain
        return
    expected = copy.deepcopy(plain[0])
    sections = ("threshold_decomposition", "fdr_grid", "attack_scenarios")
    for entry in (entry for section in sections for entry in expected[section]):
        if isinstance(entry["threshold"], float):  # the +inf sentinel is written "Infinity"
            entry["threshold"] *= scale
    assert json.dumps(result[0]) == json.dumps(expected)


@given(
    spec=small_specs(), data=st.data(),
    zero_policy=st.sampled_from(["error", "infinity", "smooth"]), average_mode=AVERAGE_MODES,
)
@settings(max_examples=15, deadline=None)
def test_renaming_attribute_values_in_any_order_preserving_way_changes_only_the_labels(
    tmp_path_factory, spec, data, zero_policy, average_mode
):
    """Each value is mapped to the value of its rank among other drawn values, no prefix."""
    root = tmp_path_factory.mktemp("rename")
    trials, speakers = draw(spec)
    values = sorted(set(speakers.columns["accent"]))
    size = len(values)
    new = sorted(data.draw(st.lists(RENAMED_VALUES, min_size=size, max_size=size, unique=True)))
    name_of = dict(zip(values, new))
    renamed = SpeakerTable(
        speakers.speaker_ids, {"accent": list(map(name_of.get, speakers.columns["accent"]))}
    )
    options = {"zero_policy": zero_policy, "average_mode": average_mode}
    plain = outcome(root, "plain", written(trials), written(speakers), **options)
    result = outcome(root, "renamed", written(trials), written(renamed), **options)

    def relabel(text: str) -> str:  # every label ends where the value's alphabet does
        return re.sub("(?<=accent=)[abc012]+", lambda match: name_of[match.group()], text)

    if raised(plain):
        assert result == (plain[0], relabel(plain[1]))
        return
    assert json.dumps(result[0]) == relabel(json.dumps(plain[0]))
    assert result[1] == {
        name: relabel(table.decode()).encode() for name, table in plain[1].items()
    }
