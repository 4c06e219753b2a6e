"""Shared fixture builders for the test suite."""

from __future__ import annotations

import io
import math
from typing import Iterable, Sequence

import numpy as np

from biasaudit import (
    BadLabelError,
    BaseMetrics,
    DataError,
    DuplicateSpeakerError,
    EmptyFileError,
    GroupedTrials,
    GroupKey,
    Label,
    MetricKey,
    MissingHeaderError,
    NonFiniteScoreError,
    Scores,
    SpeakerMetadata,
    SpeakerTable,
    TrialRecord,
    TrialTable,
    load_metadata,
    load_trials,
    write_metadata,
    write_trials,
)
from biasaudit.trials import _LABELS, METADATA_ID_COLUMN, TRIAL_HEADER, Source, _csv_rows


def gk(**attributes: str) -> GroupKey:
    return GroupKey.from_attributes(attributes)


def grouped_from_scores(
    groups: dict[GroupKey, tuple[list, list]],
    unassigned: tuple[list, list] = ((), ()),
) -> GroupedTrials:
    """Build a GroupedTrials directly from per-group score lists."""

    def scores(target, nontarget) -> Scores:
        return Scores(np.asarray(target, dtype=float), np.asarray(nontarget, dtype=float))

    return GroupedTrials(
        groups={key: scores(*pair) for key, pair in sorted(groups.items())},
        unassigned=scores(*unassigned),
    )


def one_metric(
    per_group: dict[GroupKey, float],
    aggregate: float,
    key: MetricKey = MetricKey("eer"),
    counts: dict[GroupKey, tuple[int, int]] | None = None,
    pooled_counts: tuple[int, int] = (0, 0),
) -> BaseMetrics:
    """A one-row BaseMetrics built from per-group values keyed by GroupKey.

    ``counts`` maps each group to the (errors, population) behind an
    fpr/fnr rate and ``pooled_counts`` gives the pooled pair.
    """
    groups = tuple(sorted(per_group))
    errors = np.zeros((1, len(groups) + 1), dtype=np.int64)
    sizes = np.zeros((2, len(groups) + 1), dtype=np.int64)
    if counts is not None:
        pairs = [counts[g] for g in groups] + [pooled_counts]
        errors[0] = [e for e, _ in pairs]
        sizes[1 if key.kind == "fpr" else 0] = [n for _, n in pairs]
    return BaseMetrics(
        groups=groups,
        keys=(key,),
        values=np.array([[per_group[g] for g in groups]], dtype=float),
        aggregates=np.array([aggregate], dtype=float),
        errors=errors,
        sizes=sizes,
    )


def by_group(groups: Sequence[GroupKey], row: np.ndarray) -> dict[GroupKey, float]:
    """One row of a (metrics x groups) array, keyed by GroupKey."""
    return dict(zip(groups, row.tolist(), strict=True))


def rates_at_threshold(
    target_scores: Sequence[float],
    nontarget_scores: Sequence[float],
    threshold: float,
) -> tuple[float, float]:
    """(fpr, fnr) at one threshold under the accept-iff-score>=t rule; a test reference."""
    tar = np.asarray(target_scores, dtype=float)
    non = np.asarray(nontarget_scores, dtype=float)
    fpr = float(np.count_nonzero(non >= threshold)) / non.size if non.size else math.nan
    fnr = float(np.count_nonzero(tar < threshold)) / tar.size if tar.size else math.nan
    return fpr, fnr


def split_scores(trials: Iterable[TrialRecord]) -> tuple[np.ndarray, np.ndarray]:
    """(target_scores, nontarget_scores) of a record list; the record-level reference."""
    tar, non = [], []
    for t in trials:
        (tar if t.label is Label.TARGET else non).append(t.score)
    return np.asarray(tar, dtype=float), np.asarray(non, dtype=float)


def trial_table(records: Iterable[TrialRecord]) -> TrialTable:
    """A TrialTable of records, round-tripped through write_trials and load_trials.

    write_trials writes each score's repr, so the round trip is exact.
    """
    buffer = io.StringIO()
    write_trials(records, buffer)
    return load_trials(io.StringIO(buffer.getvalue()))


def speaker_table(records: Iterable[SpeakerMetadata]) -> SpeakerTable:
    """A SpeakerTable of records, round-tripped through write_metadata and load_metadata."""
    buffer = io.StringIO()
    write_metadata(records, buffer)
    return load_metadata(io.StringIO(buffer.getvalue()))


def trial_records(table: TrialTable) -> list[TrialRecord]:
    """The rows of a TrialTable as records, for comparing against record lists."""
    labels = [Label.TARGET if t else Label.NONTARGET for t in table.is_target.tolist()]
    return list(map(TrialRecord, table.enroll_ids, table.test_ids, labels, table.scores.tolist()))


def speaker_records(table: SpeakerTable) -> list[SpeakerMetadata]:
    """The rows of a SpeakerTable as records, for comparing against record lists."""
    rows = zip(*table.columns.values())
    return [
        SpeakerMetadata(speaker_id, dict(zip(table.columns, values)))
        for speaker_id, values in zip(table.speaker_ids, rows)
    ]


def reference_load_metadata(source: Source) -> list[SpeakerMetadata]:
    """The record-level metadata loader that checks each row as it is read; a test reference."""
    with _csv_rows(source) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError("metadata file is empty") from None
        if not header or header[0].strip().lower() != METADATA_ID_COLUMN:
            raise MissingHeaderError(
                f"metadata header must start with {METADATA_ID_COLUMN!r}, "
                f"got {header!r}"
            )
        attr_names = [c.strip().lower() for c in header[1:]]
        if not attr_names:
            raise MissingHeaderError("metadata header needs at least one attribute column")
        if len(set(attr_names)) != len(attr_names):
            raise DataError(f"duplicate metadata columns after lowercasing: {attr_names}")

        records: list[SpeakerMetadata] = []
        seen: set[str] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"row {lineno}: expected {len(header)} columns, got {len(row)}"
                )
            speaker_id = row[0].strip()
            if not speaker_id:
                raise DataError(f"row {lineno}: empty speaker_id")
            if speaker_id in seen:
                raise DuplicateSpeakerError(speaker_id)
            seen.add(speaker_id)
            records.append(SpeakerMetadata(speaker_id, dict(zip(attr_names, row[1:]))))
        return records


def reference_load_trials(source: Source) -> list[TrialRecord]:
    """The record-level trial loader that checks each row as it is read; a test reference."""
    with _csv_rows(source) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise MissingHeaderError("scores file is empty") from None
        if [c.strip().lower() for c in header] != list(TRIAL_HEADER):
            raise MissingHeaderError(
                f"scores header must be {','.join(TRIAL_HEADER)!r}, got {header!r}"
            )

        trials: list[TrialRecord] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"row {lineno}: expected 4 columns, got {len(row)}")
            enroll_id, test_id, raw_label, raw_score = [c.strip() for c in row]
            label = _LABELS.get(raw_label.lower())
            if label is None:
                raise BadLabelError(lineno, raw_label)
            try:
                score = float(raw_score)
            except ValueError:
                raise NonFiniteScoreError(lineno, raw_score) from None
            if not math.isfinite(score):
                raise NonFiniteScoreError(lineno, raw_score)
            trials.append(TrialRecord(enroll_id, test_id, label, score))
        return trials
