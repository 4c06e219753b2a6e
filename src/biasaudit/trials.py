"""Trial-score ingestion, validation, and demographic grouping.

Scores arrive as a UTF-8 CSV (a byte-order mark is allowed) with
header ``enroll_id,test_id,label,score``; speaker metadata as a UTF-8
CSV whose header starts with ``speaker_id`` followed by one column per
attribute. Attribute names are lowercased at load time, values are kept
verbatim. Loading is single-threaded and all loaded structures are
treated as immutable afterward.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    BadLabelError,
    ConfigError,
    DataError,
    DuplicateSpeakerError,
    EmptyFileError,
    MissingHeaderError,
    NonFiniteScoreError,
    UnknownAttributeError,
)

TRIAL_HEADER = ("enroll_id", "test_id", "label", "score")
METADATA_ID_COLUMN = "speaker_id"

Source = Union[str, Path, bytes, IO]


class Label(Enum):
    TARGET = "target"
    NONTARGET = "nontarget"


_LABELS = {label.value: label for label in Label}


class GroupingPolicy(Enum):
    """How a trial's two speakers determine its group.

    BOTH_MATCH buckets a trial only when both speakers carry identical
    attribute tuples; ENROLLMENT_ONLY buckets by the enrollment speaker
    alone (the test speaker's metadata is ignored).
    """

    BOTH_MATCH = "both-match"
    ENROLLMENT_ONLY = "enrollment-only"


@dataclass(frozen=True)
class SpeakerMetadata:
    """One speaker and its attribute values (e.g. gender, nationality)."""

    speaker_id: str
    attributes: Mapping[str, str]


@dataclass(frozen=True)
class TrialRecord:
    """One verification trial; higher score means more likely same speaker."""

    enroll_id: str
    test_id: str
    label: Label
    score: float


@dataclass(frozen=True, order=True)
class GroupKey:
    """Canonical (attribute names, values) tuple identifying one group.

    Names are stored sorted lexicographically so equal groups compare
    equal regardless of how callers ordered the attributes.
    """

    names: tuple[str, ...]
    values: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise ValueError("GroupKey names and values must have equal length")
        if tuple(sorted(self.names)) != self.names:
            raise ValueError("GroupKey names must be sorted; use from_attributes()")

    @classmethod
    def from_attributes(cls, attributes: Mapping[str, str]) -> "GroupKey":
        names = tuple(sorted(n.lower() for n in attributes))
        lowered = {n.lower(): v for n, v in attributes.items()}
        return cls(names=names, values=tuple(lowered[n] for n in names))

    def label(self) -> str:
        return ",".join(f"{n}={v}" for n, v in zip(self.names, self.values))

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True, eq=False)
class Scores:
    """Target and nontarget score arrays of one population; ``len`` counts both."""

    target: np.ndarray
    nontarget: np.ndarray

    def __len__(self) -> int:
        return self.target.size + self.nontarget.size

    @classmethod
    def concatenate(cls, parts: Sequence["Scores"]) -> "Scores":
        return cls(
            np.concatenate([p.target for p in parts]),
            np.concatenate([p.nontarget for p in parts]),
        )


@dataclass(frozen=True)
class GroupedTrials:
    """Partition of a trial list into group buckets plus an unassigned rest.

    Every input trial lands in exactly one bucket of score arrays. Pooled
    (overall) statistics always use all trials, unassigned included.
    """

    groups: dict[GroupKey, Scores]
    unassigned: Scores

    def pooled(self) -> Scores:
        """The pooled population: every trial from every bucket."""
        return Scores.concatenate([*self.groups.values(), self.unassigned])


def split_scores(trials: Iterable[TrialRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Split trials into (target_scores, nontarget_scores) arrays."""
    tar, non = [], []
    for t in trials:
        (tar if t.label is Label.TARGET else non).append(t.score)
    return np.asarray(tar, dtype=float), np.asarray(non, dtype=float)


@contextmanager
def _csv_rows(source: Source) -> Iterator[Iterator[list[str]]]:
    """CSV rows of a path, bytes, or file-like source.

    Bytes are decoded as UTF-8 with a leading byte-order mark skipped; a
    byte that is not UTF-8, or a row the csv module cannot parse, raises
    DataError. A caller's stream is left open.
    """
    reader = None
    try:
        with ExitStack() as stack:
            if isinstance(source, (str, Path)):
                stream = stack.enter_context(
                    open(source, "r", encoding="utf-8-sig", newline="")
                )
            elif isinstance(source, bytes):
                stream = io.StringIO(source.decode("utf-8-sig"))
            elif isinstance(source, io.TextIOBase):
                stream = source
            elif hasattr(source, "read"):  # binary file-like
                stream = io.TextIOWrapper(source, encoding="utf-8-sig")
                stack.callback(stream.detach)  # closing the wrapper would close the source
            else:
                raise TypeError(f"unsupported source type: {type(source)!r}")
            reader = csv.reader(stream)
            yield reader
    except UnicodeDecodeError as exc:
        raise DataError(
            f"not UTF-8 text: cannot decode byte {exc.object[exc.start]:#04x}; "
            "save the file as UTF-8"
        ) from exc
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: malformed CSV: {exc}") from exc


def load_metadata(source: Source) -> list[SpeakerMetadata]:
    """Load speaker metadata from CSV.

    The header must start with ``speaker_id`` followed by at least one
    attribute column. Attribute names are lowercased; values kept
    verbatim. Duplicate speaker ids are an error.
    """
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
            records.append(
                SpeakerMetadata(
                    speaker_id=speaker_id,
                    attributes=dict(zip(attr_names, (v for v in row[1:]))),
                )
            )
        return records


def load_trials(source: Source) -> list[TrialRecord]:
    """Load trial scores from CSV, preserving row order.

    The header must be exactly ``enroll_id,test_id,label,score``. Labels
    are case-insensitive; scores must parse as finite reals.
    """
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


def write_trials(trials: Iterable[TrialRecord], dest: Union[str, Path, IO[str]]) -> None:
    """Write trials in the scores-CSV format (LF line endings, UTF-8)."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_trials(trials, fh)
        return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(TRIAL_HEADER)
    for t in trials:
        writer.writerow([t.enroll_id, t.test_id, t.label.value, repr(t.score)])


def write_metadata(
    records: Iterable[SpeakerMetadata], dest: Union[str, Path, IO[str]]
) -> None:
    """Write speaker metadata in the metadata-CSV format.

    The attribute column set is the sorted union over all records;
    speakers missing an attribute get an empty value.
    """
    records = list(records)
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_metadata(records, fh)
        return
    names = sorted({n for r in records for n in r.attributes})
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow([METADATA_ID_COLUMN, *names])
    for r in records:
        writer.writerow([r.speaker_id, *(r.attributes.get(n, "") for n in names)])


def assign_groups(
    trials: Sequence[TrialRecord],
    metadata: Sequence[SpeakerMetadata],
    attribute_names: Sequence[str],
    policy: GroupingPolicy = GroupingPolicy.BOTH_MATCH,
) -> GroupedTrials:
    """Partition trials into attribute-value groups.

    Under BOTH_MATCH a trial joins group g only if both its speakers
    carry exactly g's attribute tuple; under ENROLLMENT_ONLY the
    enrollment speaker's tuple decides alone. Trials whose deciding
    speakers are missing from the metadata go to ``unassigned``. Each
    bucket is split into its score arrays once.
    """
    names = tuple(n.strip().lower() for n in attribute_names)
    if not names or any(not n for n in names) or len(set(names)) != len(names):
        raise ConfigError("attribute_names must be a nonempty list of distinct nonempty names")
    try:
        tuples = {r.speaker_id: tuple(r.attributes[n] for n in names) for r in metadata}
    except KeyError as exc:
        raise UnknownAttributeError(exc.args[0]) from None
    # bucket by the raw value tuple; None collects the unassigned trials
    buckets: dict[tuple[str, ...] | None, list[TrialRecord]] = {None: []}
    for trial in trials:
        chosen = tuples.get(trial.enroll_id)
        if policy is GroupingPolicy.BOTH_MATCH and chosen != tuples.get(trial.test_id):
            chosen = None
        buckets.setdefault(chosen, []).append(trial)

    unassigned = Scores(*split_scores(buckets.pop(None)))
    groups = {
        GroupKey.from_attributes(dict(zip(names, values))): Scores(*split_scores(members))
        for values, members in buckets.items()
    }
    return GroupedTrials(groups=dict(sorted(groups.items())), unassigned=unassigned)
