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
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

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


@dataclass
class GroupedTrials:
    """Partition of a trial list into group buckets plus an unassigned rest.

    Every input trial lands in exactly one bucket. Pooled (overall)
    statistics always use all trials, unassigned included.
    """

    groups: dict[GroupKey, list[TrialRecord]]
    unassigned: list[TrialRecord]
    policy: GroupingPolicy
    attribute_names: tuple[str, ...]

    def all_trials(self) -> list[TrialRecord]:
        """The pooled population: every trial from every bucket."""
        pooled: list[TrialRecord] = []
        for key in sorted(self.groups):
            pooled.extend(self.groups[key])
        pooled.extend(self.unassigned)
        return pooled

    def n_trials(self) -> int:
        return sum(len(t) for t in self.groups.values()) + len(self.unassigned)


@contextmanager
def _csv_rows(source: Source) -> Iterator[Iterator[list[str]]]:
    """CSV rows of a path, bytes, or file-like source.

    Bytes are decoded as UTF-8 with a leading byte-order mark skipped; a
    byte that is not UTF-8 raises DataError.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8-sig", newline="") as stream:
                yield csv.reader(stream)
        elif isinstance(source, bytes):
            yield csv.reader(io.StringIO(source.decode("utf-8-sig")))
        elif isinstance(source, io.TextIOBase):
            yield csv.reader(source)
        elif hasattr(source, "read"):  # binary file-like
            yield csv.reader(io.TextIOWrapper(source, encoding="utf-8-sig"))
        else:
            raise TypeError(f"unsupported source type: {type(source)!r}")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"not UTF-8 text: cannot decode byte {exc.object[exc.start]:#04x}; "
            "save the file as UTF-8"
        ) from exc


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
            enroll_id, test_id, raw_label, raw_score = (c.strip() for c in row)
            label_value = raw_label.lower()
            if label_value == Label.TARGET.value:
                label = Label.TARGET
            elif label_value == Label.NONTARGET.value:
                label = Label.NONTARGET
            else:
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
    speakers are missing from the metadata go to ``unassigned``.
    """
    names = tuple(n.strip().lower() for n in attribute_names)
    if not names or any(not n for n in names):
        raise ConfigError("attribute_names must be a nonempty list of nonempty names")
    for name in names:
        if any(name not in r.attributes for r in metadata):
            raise UnknownAttributeError(name)

    tuples: dict[str, tuple[str, ...]] = {
        r.speaker_id: tuple(r.attributes[n] for n in names) for r in metadata
    }
    sorted_names = tuple(sorted(names))
    # values must follow the sorted-name order GroupKey canonicalizes to
    order = [names.index(n) for n in sorted_names]

    groups: dict[GroupKey, list[TrialRecord]] = {}
    unassigned: list[TrialRecord] = []
    for trial in trials:
        enroll = tuples.get(trial.enroll_id)
        test = tuples.get(trial.test_id)
        if policy is GroupingPolicy.BOTH_MATCH:
            chosen = enroll if (enroll is not None and enroll == test) else None
        else:
            chosen = enroll
        if chosen is None:
            unassigned.append(trial)
            continue
        key = GroupKey(names=sorted_names, values=tuple(chosen[i] for i in order))
        groups.setdefault(key, []).append(trial)

    return GroupedTrials(
        groups={k: groups[k] for k in sorted(groups)},
        unassigned=unassigned,
        policy=policy,
        attribute_names=sorted_names,
    )
