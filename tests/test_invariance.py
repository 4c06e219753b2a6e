"""Exact metamorphic relations of a whole audit, from input files to the emitted report.

One synthetic fixture is audited as written, then in transformed copies:
other line ends, a byte-order mark, every field quoted, every trial
repeated, every score scaled by a power of two, every attribute value
renamed in an order-preserving way. Each relation states which
values of the report may change and how; every other value must be
byte-identical.
"""

from __future__ import annotations

import codecs
import copy
import io
import json

import numpy as np
import pytest

from biasaudit import (
    AuditConfig,
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


def audit(tmp_path, name: str, scores: bytes, metadata: bytes) -> tuple[dict, dict]:
    """(report payload without its input and output paths, emitted CSV bytes by file name).

    Compare payloads as ``json.dumps`` text, which tells -0.0 from 0.0.
    """
    root = tmp_path / name
    root.mkdir()
    (root / "scores.csv").write_bytes(scores)
    (root / "metadata.csv").write_bytes(metadata)
    config = AuditConfig(
        scores_path=str(root / "scores.csv"),
        metadata_path=str(root / "metadata.csv"),
        group_attributes=("accent",),
        design_fprs=(0.01, 0.05, 0.1),
        output_dir=str(root / "out"),
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
