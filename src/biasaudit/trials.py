"""Trial-score ingestion, validation, and demographic grouping.

Scores arrive as a UTF-8 CSV (a byte-order mark is allowed) with
header ``enroll_id,test_id,label,score``; speaker metadata as a UTF-8
CSV whose header starts with ``speaker_id`` followed by one column per
attribute. Attribute names are lowercased at load time, values are kept
verbatim. The loaders return column tables (``TrialTable``,
``SpeakerTable``) and read the CSV in chunks of ``CHUNK_ROWS`` rows:
each chunk is checked column by column, and only a chunk that fails a
check is walked row by row to report its first bad row. Loading is
single-threaded and all loaded structures are treated as immutable
afterward.
"""

from __future__ import annotations

import csv
import gc
import io
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
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
CHUNK_ROWS = 4096  # rows held at once while a chunk is split into columns

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


@dataclass(frozen=True, eq=False)
class TrialTable:
    """Loaded trials as columns in file order; ``len`` counts the trials.

    ``is_target`` is a read-only bool array and ``scores`` a read-only
    float64 array, one entry per trial.
    """

    enroll_ids: list[str]
    test_ids: list[str]
    is_target: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        for arr in (self.is_target, self.scores):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True, eq=False)
class SpeakerTable:
    """Loaded speaker metadata as columns; ``len`` counts the speakers.

    ``columns`` maps each lowercased attribute name, in header order, to
    its values, which line up with ``speaker_ids`` and are kept verbatim.
    """

    speaker_ids: list[str]
    columns: dict[str, list[str]]

    def __len__(self) -> int:
        return len(self.speaker_ids)


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring its previous state on exit.

    A loader makes no reference cycles, but each chunk's row lists live
    long enough to be promoted, which sets off full collections that walk
    every id list read so far: with the collector on, loading 2M
    metadata rows took 7.3 s instead of 2.3 s on a 2-vCPU host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _csv_rows(source: Source) -> Iterator[Iterator[list[str]]]:
    """CSV rows of a path, bytes, or file-like source.

    Bytes are decoded as UTF-8 with a leading byte-order mark skipped; a
    byte that is not UTF-8, or a row the csv module cannot parse, raises
    DataError. Every source is read with ``newline=""``, so the csv
    module alone splits lines and quoted line breaks stay verbatim. A
    caller's stream is left open. The garbage collector is paused while
    the rows are read (see ``_gc_paused``).
    """
    reader = None
    try:
        with ExitStack() as stack:
            stack.enter_context(_gc_paused())
            if isinstance(source, (str, Path)):
                stream = stack.enter_context(
                    open(source, "r", encoding="utf-8-sig", newline="")
                )
            elif isinstance(source, bytes):
                stream = io.StringIO(source.decode("utf-8-sig"), newline="")
            elif isinstance(source, io.TextIOBase):
                stream = source
            elif hasattr(source, "read"):  # binary file-like
                stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
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


def _chunks(reader: Iterator[list[str]]) -> Iterator[tuple[int, list[list[str]]]]:
    """Runs of up to CHUNK_ROWS rows after the header, each with its first record number.

    Records count from 2 and include blank rows. When the reader raises,
    the rows read before the failure are yielded first, so a bad row
    among them is reported ahead of the parse error, as it would be by
    a loop checking each row as it is read.
    """
    first, rows = 2, []
    try:
        for row in reader:
            rows.append(row)
            if len(rows) == CHUNK_ROWS:
                yield first, rows
                first, rows = first + CHUNK_ROWS, []
    except (csv.Error, UnicodeDecodeError):
        yield first, rows
        raise
    if rows:
        yield first, rows


def _fields(rows: list[list[str]], width: int) -> list[tuple[str, ...]] | None:
    """The columns of a chunk's non-blank rows, or None if a row is not ``width`` wide."""
    lengths = set(map(len, rows))
    if 0 in lengths:
        rows = [row for row in rows if row]
        lengths.discard(0)
    if not lengths <= {width}:
        return None
    return list(zip(*rows)) if rows else [()] * width


def _check_metadata_rows(rows: list[list[str]], first: int, width: int, seen: set[str]):
    """Walk a chunk that failed a check row by row and raise at its first bad row."""
    for lineno, row in enumerate(rows, start=first):
        if not row:
            continue
        if len(row) != width:
            raise DataError(f"row {lineno}: expected {width} columns, got {len(row)}")
        speaker_id = row[0].strip()
        if not speaker_id:
            raise DataError(f"row {lineno}: empty speaker_id")
        if speaker_id in seen:
            raise DuplicateSpeakerError(speaker_id)
        seen.add(speaker_id)
    raise AssertionError("a chunk that failed its checks has no bad row")


def load_metadata(source: Source) -> SpeakerTable:
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

        speaker_ids: list[str] = []
        columns: dict[str, list[str]] = {name: [] for name in attr_names}
        seen: set[str] = set()
        shared: dict[str, str] = {}  # one string object per distinct value
        for first, rows in _chunks(reader):
            fields = _fields(rows, len(header))
            ids = [] if fields is None else list(map(str.strip, fields[0]))
            new_ids = set(ids)
            unique = len(new_ids) == len(ids) and "" not in new_ids and seen.isdisjoint(new_ids)
            if fields is None or not unique:
                _check_metadata_rows(rows, first, len(header), seen)
            seen |= new_ids
            speaker_ids += ids
            for column, values in zip(columns.values(), fields[1:]):
                column += map(shared.setdefault, values, values)
        return SpeakerTable(speaker_ids, columns)


def _check_trial_rows(rows: list[list[str]], first: int):
    """Walk a chunk that failed a check row by row and raise at its first bad row."""
    for lineno, row in enumerate(rows, start=first):
        if not row:
            continue
        if len(row) != 4:
            raise DataError(f"row {lineno}: expected 4 columns, got {len(row)}")
        _, _, raw_label, raw_score = [c.strip() for c in row]
        if raw_label.lower() not in _LABELS:
            raise BadLabelError(lineno, raw_label)
        try:
            score = float(raw_score)
        except ValueError:
            raise NonFiniteScoreError(lineno, raw_score) from None
        if not math.isfinite(score):
            raise NonFiniteScoreError(lineno, raw_score)
    raise AssertionError("a chunk that failed its checks has no bad row")


def _parse_trial_fields(
    labels: tuple[str, ...], raw_scores: tuple[str, ...], is_target: dict[str, bool]
) -> tuple[np.ndarray, np.ndarray] | None:
    """A chunk's label and score arrays, or None if a label or score does not parse.

    Each distinct raw label is looked up once and added to ``is_target``;
    scores are parsed by ``float``, so they read exactly as Python reads
    them. Finiteness is left to the caller.
    """
    for raw in set(labels).difference(is_target):
        label = _LABELS.get(raw.strip().lower())
        if label is None:
            return None
        is_target[raw] = label is Label.TARGET
    try:
        scores = np.fromiter(map(float, map(str.strip, raw_scores)), float, len(raw_scores))
    except ValueError:
        return None
    return np.fromiter(map(is_target.__getitem__, labels), bool, len(labels)), scores


def load_trials(source: Source) -> TrialTable:
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

        enroll_ids: list[str] = []
        test_ids: list[str] = []
        targets = [np.zeros(0, dtype=bool)]
        scores = [np.zeros(0, dtype=float)]
        is_target: dict[str, bool] = {}  # raw label field -> target or not
        for first, rows in _chunks(reader):
            fields = _fields(rows, 4)
            parsed = None if fields is None else _parse_trial_fields(*fields[2:], is_target)
            if parsed is None or not np.isfinite(parsed[1]).all():
                _check_trial_rows(rows, first)
            targets.append(parsed[0])
            scores.append(parsed[1])
            enroll_ids += map(str.strip, fields[0])
            test_ids += map(str.strip, fields[1])
        return TrialTable(enroll_ids, test_ids, np.concatenate(targets), np.concatenate(scores))


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
    trials: TrialTable,
    speakers: SpeakerTable,
    attribute_names: Sequence[str],
    policy: GroupingPolicy = GroupingPolicy.BOTH_MATCH,
) -> GroupedTrials:
    """Partition trials into attribute-value groups.

    Under BOTH_MATCH a trial joins group g only if both its speakers
    carry exactly g's attribute tuple; under ENROLLMENT_ONLY the
    enrollment speaker's tuple decides alone. Trials whose deciding
    speakers are missing from the metadata go to ``unassigned``. Trials
    are ordered by group code with one stable sort, so each bucket keeps
    input order, and each bucket is split into its score arrays once.
    """
    names = tuple(n.strip().lower() for n in attribute_names)
    if not names or any(not n for n in names) or len(set(names)) != len(names):
        raise ConfigError("attribute_names must be a nonempty list of distinct nonempty names")
    try:
        columns = [speakers.columns[n] for n in names]
    except KeyError as exc:
        raise UnknownAttributeError(exc.args[0]) from None
    # each distinct value tuple gets a code, in first-seen order
    codes = {values: code for code, values in enumerate(dict.fromkeys(zip(*columns)))}
    code_of = dict(zip(speakers.speaker_ids, map(codes.__getitem__, zip(*columns))))

    def trial_codes(ids: list[str]) -> np.ndarray:
        return np.fromiter(map(code_of.get, ids, repeat(-1)), np.intp, len(ids))

    group = trial_codes(trials.enroll_ids)
    if policy is GroupingPolicy.BOTH_MATCH:
        group = np.where(group == trial_codes(trials.test_ids), group, -1)
    order = np.argsort(group, kind="stable")
    # bounds[c + 1] is where code c starts in sorted order; -1 (unassigned) comes first
    bounds = np.searchsorted(group[order], np.arange(-1, len(codes) + 1)).tolist()
    scores, is_target = trials.scores[order], trials.is_target[order]

    def bucket(lo: int, hi: int) -> Scores:
        members, target = scores[lo:hi], is_target[lo:hi]
        return Scores(members[target], members[~target])

    groups = {
        GroupKey.from_attributes(dict(zip(names, values))): bucket(lo, hi)
        for values, lo, hi in zip(codes, bounds[1:], bounds[2:])
        if hi > lo
    }
    return GroupedTrials(groups=dict(sorted(groups.items())), unassigned=bucket(*bounds[:2]))
