"""Trial-score ingestion, validation, and demographic grouping.

Scores arrive as a UTF-8 CSV (a byte-order mark is allowed) with
header ``enroll_id,test_id,label,score``; speaker metadata as a UTF-8
CSV whose header starts with ``speaker_id`` followed by one column per
attribute. Attribute names are lowercased at load time, values are kept
verbatim. The loaders return column tables (``TrialTable``,
``SpeakerTable``). A source is a path, ``bytes``, or anything whose
``read`` gives bytes or text; each is read in blocks of ``BLOCK_BYTES``
bytes cut after their last LF, CRLF or CR. A plain block (no quote or
NUL) is split with ``str`` methods once each CRLF and CR is made an LF;
from the first that is not plain, ``csv.reader`` reads runs of
``CHUNK_ROWS`` rows. Each chunk is checked column by column, and only a
chunk that fails a check is walked row by row to report its first bad
row. Loading is single-threaded; loaded tables are treated as immutable.
"""

from __future__ import annotations

import codecs
import csv
import gc
import io
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from operator import attrgetter, is_
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, Union

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
    not_utf8,
)

TRIAL_HEADER = ("enroll_id", "test_id", "label", "score")
METADATA_ID_COLUMN = "speaker_id"
CHUNK_ROWS = 4096  # rows held at once while a chunk is split into columns
BLOCK_BYTES = 65536  # bytes (characters, if ``read`` gives text) read at once from a source

Source = Union[str, Path, bytes, IO]


class Label(Enum):
    TARGET = "target"
    NONTARGET = "nontarget"


_LABELS = {label.value: label for label in Label}
_LABEL_TEXT = (Label.NONTARGET.value, Label.TARGET.value)  # indexed by is_target


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
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"GroupKey names must be distinct, got {self.names!r}")

    @classmethod
    def from_attributes(cls, attributes: Mapping[str, str]) -> "GroupKey":
        """The key of an attribute mapping; names are lowercased, values kept verbatim.

        Two names that are equal after lowercasing raise ValueError.
        """
        lowered: dict[str, str] = {}
        for name in attributes:
            other = lowered.setdefault(name.lower(), name)
            if other != name:
                raise ValueError(
                    f"attribute names {other!r} and {name!r} are the same after lowercasing"
                )
        names = tuple(sorted(lowered))
        return cls(names=names, values=tuple(attributes[lowered[n]] for n in names))

    def label(self) -> str:
        return ",".join(f"{n}={v}" for n, v in zip(self.names, self.values))

    def __str__(self) -> str:
        return self.label()


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

    @classmethod
    def from_records(cls, records: Iterable[TrialRecord]) -> "TrialTable":
        """The columns of a record list, in list order."""
        records = list(records)
        return cls(
            list(map(attrgetter("enroll_id"), records)),
            list(map(attrgetter("test_id"), records)),
            np.fromiter(
                map(is_, map(attrgetter("label"), records), repeat(Label.TARGET)),
                bool, len(records),
            ),
            np.fromiter(map(attrgetter("score"), records), float, len(records)),
        )


@dataclass(frozen=True, eq=False)
class GroupedTrials:
    """A partition of a trial table's rows into groups plus an unassigned rest.

    Each array holds read-only row numbers into ``trials`` in file
    order, every row is in exactly one array, and ``groups`` is in sorted
    key order. Pooled statistics use every row, unassigned included.
    """

    trials: TrialTable
    groups: dict[GroupKey, np.ndarray]
    unassigned: np.ndarray

    def __post_init__(self):
        for rows in (*self.groups.values(), self.unassigned):
            rows.flags.writeable = False

    def scores(self, rows: np.ndarray | slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(target, nontarget) scores of ``rows``, in row order; by default every row."""
        scores, is_target = self.trials.scores[rows], self.trials.is_target[rows]
        # compress is 2-4x faster than a boolean index when labels alternate at random
        return scores.compress(is_target), scores.compress(~is_target)


@dataclass(frozen=True, eq=False)
class SpeakerTable:
    """Speaker metadata as columns; ``len`` counts the speakers.

    ``columns`` maps each attribute name to its values, which line up
    with ``speaker_ids``. ``load_metadata`` gives the lowercased names in
    header order and keeps values verbatim.
    """

    speaker_ids: list[str]
    columns: dict[str, list[str]]

    def __len__(self) -> int:
        return len(self.speaker_ids)

    @classmethod
    def from_records(cls, records: Iterable[SpeakerMetadata]) -> "SpeakerTable":
        """The columns of a record list: the sorted union of attribute names.

        A speaker without an attribute gets an empty value.
        """
        records = list(records)
        names = sorted({n for r in records for n in r.attributes})
        return cls(
            [r.speaker_id for r in records],
            {n: [r.attributes.get(n, "") for r in records] for n in names},
        )


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


# Characters that may make csv.reader read a line otherwise than str.split(","),
# once each line end (LF, CRLF or CR) is made an LF: a quote and a NUL (rejected
# on Python 3.10). The tests check every other code point.
_NOT_PLAIN = '"\x00'

_Chunk = tuple[int, Union[list[Sequence[str]], None], Iterable[list[str]]]


def _text_blocks(read: Callable[[int], Union[bytes, str]]) -> Iterator[str]:
    """The UTF-8 text of ``read(BLOCK_BYTES)`` calls in blocks of whole lines, a BOM skipped.

    A read that gives ``str`` is encoded, a lone surrogate as bytes that do not decode.
    Each block is cut after its last LF or CR (never part of a longer UTF-8 sequence), but
    not after a CR that may be half a CRLF: the last byte read. If a block does not decode,
    the lines ahead of its first bad byte are yielded before the UnicodeDecodeError.
    """
    pieces: list[bytes] = []  # a line that no line end has ended yet, as read
    skip = codecs.BOM_UTF8  # stripped from the first block only
    while True:
        data = read(BLOCK_BYTES)
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        if data and not cut:
            pieces.append(data)  # joined once, when the line ends
            continue
        pieces.append(data[:cut])
        block = b"".join(pieces).removeprefix(skip)
        pieces, skip = [data[cut:]], b""
        try:
            yield block.decode()
        except UnicodeDecodeError as exc:
            ends = block.rfind(b"\n", 0, exc.start), block.rfind(b"\r", 0, exc.start)
            yield block[:max(ends) + 1].decode()
            raise
        if not data:
            return


class _CsvReader:
    """The rows of text blocks of whole lines: ``header`` reads the first, ``chunks`` the rest.

    ``line_num`` counts the physical lines read so far, as ``csv.reader.line_num`` does.
    """

    def __init__(self, blocks: Iterator[str]):
        self._blocks = blocks
        self._block = io.StringIO()  # the block csv.reader reads lines from
        self._reader = csv.reader(self._lines())
        self._lines_before = 0  # physical lines read other than by self._reader

    @property
    def line_num(self) -> int:
        return self._lines_before + self._reader.line_num

    def _lines(self) -> Iterator[str]:
        """The lines of each block, split as ``newline=""`` splits them."""
        while (block := next(self._blocks, None)) is not None:
            self._block = io.StringIO(block, newline="")
            yield from self._block

    def header(self) -> Union[list[str], None]:
        """The first row, or None if the text holds none."""
        return next(self._reader, None)

    def chunks(self, width: int) -> Iterator[_Chunk]:
        """(first record number, columns, rows) of each run of the rows after the header.

        Records count from 2 and include blank rows. ``columns`` are those
        of the run's non-blank rows, or None if one of them is not
        ``width`` fields wide; ``rows`` gives the run's rows, for a walk
        row by row. Plain blocks are split directly (see ``_split_chunks``),
        the rest read by ``csv.reader`` CHUNK_ROWS rows at a time. When
        reading raises, the rows read before are yielded first, so a bad
        row among them is reported first, as a row-by-row check would.
        """
        first = yield from self._split_chunks(width)
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(islice(self._reader, CHUNK_ROWS))  # keeps the rows read before a raise
            except (csv.Error, UnicodeDecodeError):
                yield first, _fields(rows, width), rows
                raise
            if not rows:
                return
            yield first, _fields(rows, width), rows
            first += len(rows)

    def _split_chunks(self, width: int) -> Iterator[_Chunk]:
        """Chunks of plain blocks; returns the next record number for ``csv.reader`` to read.

        The blocks start with the rest of the header's block. With each CRLF,
        then each CR, made an LF, a block with no ``_NOT_PLAIN`` character and
        no line over ``csv.field_size_limit()`` is one row per line, split by
        ``str.split(",")`` as ``csv.reader`` would. From the first block that
        is not plain, ``csv.reader`` reads on, line endings intact.
        """
        first = 2
        limit = csv.field_size_limit()
        for text in chain([self._block.read()], self._blocks):
            plain = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
            lines = plain.split("\n")
            if not lines[-1]:
                lines.pop()
            if any(map(plain.__contains__, _NOT_PLAIN)) or (
                len(plain) > limit and max(map(len, lines)) > limit
            ):
                self._blocks = chain([text], self._blocks)
                break
            if lines:
                rows = (line.split(",") if line else [] for line in lines)
                yield first, _split_fields(lines, width), rows
                first += len(lines)
                self._lines_before += len(lines)
        return first


@contextmanager
def _csv_rows(source: Source) -> Iterator[_CsvReader]:
    """A ``_CsvReader`` of the ``_text_blocks`` of a path, ``bytes``, or anything with ``read``.

    A path is opened binary and bytes are read as a ``BytesIO``; any other
    source's ``read`` may give bytes or text. A byte that is not UTF-8, or a
    row the csv module cannot parse, raises DataError. A caller's stream
    is left open, and the garbage collector paused while rows are read.
    """
    try:
        with ExitStack() as stack:
            stack.enter_context(_gc_paused())
            if isinstance(source, (str, Path)):
                source = stack.enter_context(open(source, "rb"))
            elif isinstance(source, bytes):
                source = io.BytesIO(source)
            elif not hasattr(source, "read"):
                raise TypeError(f"unsupported source type: {type(source)!r}")
            yield (reader := _CsvReader(_text_blocks(source.read)))
    except UnicodeDecodeError as exc:
        raise DataError(not_utf8(exc)) from exc
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: malformed CSV: {exc}") from exc


def _fields(rows: list[list[str]], width: int) -> list[tuple[str, ...]] | None:
    """The columns of a chunk's non-blank rows, or None if a row is not ``width`` wide."""
    lengths = set(map(len, rows))
    if 0 in lengths:
        rows = [row for row in rows if row]
        lengths.discard(0)
    if not lengths <= {width}:
        return None
    return list(zip(*rows)) if rows else [()] * width


def _split_fields(lines: list[str], width: int) -> list[list[str]] | None:
    """The columns of plain lines that are not blank, or None if one is not ``width`` wide."""
    if "" in lines:
        lines = list(filter(None, lines))
    if not set(map(str.count, lines, repeat(","))) <= {width - 1}:
        return None
    fields = ",".join(lines).split(",") if lines else []
    return [fields[k::width] for k in range(width)]


def _raise_at_bad_row(rows: Iterable[list[str]], first: int, width: int, check: Callable):
    """Raise at a failed chunk's first non-blank row not ``width`` wide or failing ``check``."""
    for lineno, row in enumerate(rows, start=first):
        if not row:
            continue
        if len(row) != width:
            raise DataError(f"row {lineno}: expected {width} columns, got {len(row)}")
        check(lineno, row)
    raise AssertionError("a chunk that failed its checks has no bad row")


def load_metadata(source: Source) -> SpeakerTable:
    """Load speaker metadata from CSV.

    The header must start with ``speaker_id`` followed by at least one
    attribute column. Attribute names are lowercased; values kept
    verbatim. Duplicate speaker ids are an error.
    """
    with _csv_rows(source) as reader:
        header = reader.header()
        if header is None:
            raise EmptyFileError("metadata file is empty")
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

        def check(lineno: int, row: list[str]) -> None:
            speaker_id = row[0].strip()
            if not speaker_id:
                raise DataError(f"row {lineno}: empty speaker_id")
            if speaker_id in seen:
                raise DuplicateSpeakerError(speaker_id)
            seen.add(speaker_id)
        for first, fields, rows in reader.chunks(len(header)):
            ids = [] if fields is None else list(map(str.strip, fields[0]))
            new_ids = set(ids)
            unique = len(new_ids) == len(ids) and "" not in new_ids and seen.isdisjoint(new_ids)
            if fields is None or not unique:
                _raise_at_bad_row(rows, first, len(header), check)
            seen |= new_ids
            speaker_ids += ids
            for column, values in zip(columns.values(), fields[1:]):
                column += map(shared.setdefault, values, values)
        return SpeakerTable(speaker_ids, columns)


def _check_trial_row(lineno: int, row: list[str]) -> None:
    """Raise at a trial row whose label or score does not parse, or whose score is not finite."""
    _, _, raw_label, raw_score = [c.strip() for c in row]
    if raw_label.lower() not in _LABELS:
        raise BadLabelError(lineno, raw_label)
    try:
        score = float(raw_score)
    except ValueError:
        raise NonFiniteScoreError(lineno, raw_score) from None
    if not math.isfinite(score):
        raise NonFiniteScoreError(lineno, raw_score)


def _parse_trial_fields(
    labels: Sequence[str], raw_scores: Sequence[str], is_target: dict[str, bool]
) -> tuple[np.ndarray, np.ndarray] | None:
    """A chunk's label and score arrays, or None if a label or score does not parse.

    Each distinct raw label is looked up once and added to ``is_target``;
    scores are parsed by ``float``, so they read exactly as Python reads
    them. ``float`` strips the whitespace ``str.strip`` strips except
    U+001C..U+001F, so only a chunk where it fails is parsed again
    stripped. Finiteness is left to the caller.
    """
    for raw in set(labels).difference(is_target):
        label = _LABELS.get(raw.strip().lower())
        if label is None:
            return None
        is_target[raw] = label is Label.TARGET
    try:
        scores = np.fromiter(map(float, raw_scores), float, len(raw_scores))
    except ValueError:
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
        header = reader.header()
        if header is None:
            raise EmptyFileError("scores file is empty")
        if [c.strip().lower() for c in header] != list(TRIAL_HEADER):
            raise MissingHeaderError(
                f"scores header must be {','.join(TRIAL_HEADER)!r}, got {header!r}"
            )

        enroll_ids: list[str] = []
        test_ids: list[str] = []
        targets = [np.zeros(0, dtype=bool)]
        scores = [np.zeros(0, dtype=float)]
        is_target: dict[str, bool] = {}  # raw label field -> target or not
        for first, fields, rows in reader.chunks(4):
            parsed = None if fields is None else _parse_trial_fields(*fields[2:], is_target)
            if parsed is None or not np.isfinite(parsed[1]).all():
                _raise_at_bad_row(rows, first, 4, _check_trial_row)
            targets.append(parsed[0])
            scores.append(parsed[1])
            enroll_ids += map(str.strip, fields[0])
            test_ids += map(str.strip, fields[1])
        return TrialTable(enroll_ids, test_ids, np.concatenate(targets), np.concatenate(scores))


# Every character csv.writer quotes or rejects in a field of a row of two or
# more fields, on any Python from 3.10: "\n", '"' and "," everywhere, a NUL
# (rejected) on 3.10 and "\r" on 3.13. The tests scan every code point.
_MAY_QUOTE = '\x00\n\r",'


class _Echo:
    """A stream whose ``write`` returns its text, so ``csv.writer.writerow`` returns the line."""

    @staticmethod
    def write(text: str) -> str:
        return text


class _QuotedFields(dict):
    """value -> its text as a CSV field, written once per distinct value by ``csv.writer``.

    A value holding a bare CR (one ``csv.writer`` leaves unquoted before
    Python 3.13, so its row splits when read back) is quoted as 3.13
    quotes it.
    """

    _writer = csv.writer(_Echo(), lineterminator="\n")

    def __missing__(self, value: str) -> str:
        text = self._writer.writerow([value, ""])[:-2]
        if text == value and "\r" in value:
            text = '"' + value.replace('"', '""') + '"'
        self[value] = text
        return text


def write_csv(
    stream: IO[str], header: Sequence[str], columns: Sequence[Union[Sequence[str], np.ndarray]]
) -> None:
    """Write a header and equal-length columns as CSV rows ended by LF.

    A column is a sequence of str or a float array; a float is written as
    the ``repr`` of its value. Rows are written CHUNK_ROWS at a time, each
    run with one ``stream.write``. A run of a str column is written
    verbatim unless an ``in`` test finds a character of ``_MAY_QUOTE``;
    then each value is written as ``_QuotedFields`` writes it, so quoting
    and ``csv.Error`` are the stdlib's own. A header of fewer than two
    fields raises ValueError: a row of one empty field reads back blank.
    """
    if len(header) < 2:
        raise ValueError(f"a CSV needs at least two columns, got {len(header)}")
    quoted = _QuotedFields()
    stream.write(",".join(map(quoted.__getitem__, header)) + "\n")
    size = len(columns[0])
    for start in range(0, size, CHUNK_ROWS):
        run = []
        for column in columns:
            part = column[start:start + CHUNK_ROWS]
            if isinstance(part, np.ndarray):
                part = list(map(repr, part.tolist()))
            elif any(map("".join(part).__contains__, _MAY_QUOTE)):
                part = list(map(quoted.__getitem__, part))
            run.append(part)
        stream.write("\n".join(map(",".join, zip(*run))) + "\n")


@contextmanager
def _text_dest(dest: Union[str, Path, IO[str]]) -> Iterator[IO[str]]:
    """A text stream for a path (opened UTF-8, ``newline=""``) or the caller's own stream."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield dest


def write_trials(
    trials: Union[TrialTable, Iterable[TrialRecord]], dest: Union[str, Path, IO[str]]
) -> None:
    """Write trials in the scores-CSV format (LF line endings, UTF-8) with ``write_csv``.

    Records are first made a TrialTable. Each score is written as the
    ``repr`` of its float64 value, so ``load_trials`` reads it back exactly.
    """
    if not isinstance(trials, TrialTable):
        trials = TrialTable.from_records(trials)
    labels = list(map(_LABEL_TEXT.__getitem__, trials.is_target.tolist()))
    with _text_dest(dest) as stream:
        write_csv(
            stream, TRIAL_HEADER, [trials.enroll_ids, trials.test_ids, labels, trials.scores]
        )


def write_metadata(
    speakers: Union[SpeakerTable, Iterable[SpeakerMetadata]],
    dest: Union[str, Path, IO[str]],
) -> None:
    """Write speaker metadata in the metadata-CSV format with ``write_csv``.

    A table's columns are written in its order. Records are first made a
    SpeakerTable, so their columns are the sorted union of attribute
    names and a speaker missing an attribute gets an empty value. Speakers
    without any attribute column raise ValueError before ``dest`` is
    opened, as ``load_metadata`` rejects a file of speaker ids alone.
    """
    if not isinstance(speakers, SpeakerTable):
        speakers = SpeakerTable.from_records(speakers)
    if not speakers.columns:
        raise ValueError("metadata needs at least one attribute column")
    with _text_dest(dest) as stream:
        write_csv(
            stream,
            [METADATA_ID_COLUMN, *speakers.columns],
            [speakers.speaker_ids, *speakers.columns.values()],
        )


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
    speakers are missing from the metadata go to ``unassigned``. Row
    numbers are ordered by group code with one stable sort, and each group
    is a slice of that order, so it lists its rows in file order.
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
    groups = {
        GroupKey.from_attributes(dict(zip(names, values))): order[lo:hi]
        for values, lo, hi in zip(codes, bounds[1:], bounds[2:])
        if hi > lo
    }
    return GroupedTrials(trials, dict(sorted(groups.items())), order[bounds[0]:bounds[1]])
