"""Tests for CSV ingestion and group assignment."""

from __future__ import annotations

import codecs
import csv
import gc
import io
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from biasaudit import (
    BadLabelError,
    ConfigError,
    DataError,
    DuplicateSpeakerError,
    EmptyFileError,
    GroupingPolicy,
    GroupKey,
    Label,
    MissingHeaderError,
    NonFiniteScoreError,
    SpeakerMetadata,
    SpeakerTable,
    TrialRecord,
    TrialTable,
    UnknownAttributeError,
    assign_groups,
    load_metadata,
    load_trials,
    write_metadata,
    write_trials,
)
from biasaudit.trials import _MAY_QUOTE, _NOT_PLAIN, BLOCK_BYTES, _Echo, _text_blocks, write_csv
from helpers import (
    gk,
    grouped_from_scores,
    reference_load_metadata,
    reference_load_trials,
    reference_write_metadata,
    reference_write_trials,
    speaker_records,
    speaker_table,
    split_scores,
    trial_records,
    trial_table,
)


def test_group_key_rejects_attribute_names_equal_after_lowercasing():
    assert gk(Gender="f", Age="old") == GroupKey(("age", "gender"), ("old", "f"))
    with pytest.raises(ValueError, match="'Gender' and 'gender'"):
        GroupKey.from_attributes({"Gender": "f", "gender": "m"})
    with pytest.raises(ValueError, match="distinct"):
        GroupKey(("gender", "gender"), ("f", "m"))


@pytest.mark.parametrize("names, values, message", [
    (("age", "gender"), ("old",), "equal length"),
    (("gender", "age"), ("f", "old"), "must be sorted"),
], ids=["lengths", "unsorted"])
def test_group_key_rejects_malformed_names(names, values, message):
    with pytest.raises(ValueError, match=message):
        GroupKey(names, values)


def test_load_metadata_maps_rows():
    speakers = load_metadata(io.StringIO(
        "speaker_id,Gender,nationality\nid001,male,US\n"
    ))
    assert len(speakers) == 1
    assert speakers.speaker_ids == ["id001"]
    # names lowercased, values verbatim
    assert speakers.columns == {"gender": ["male"], "nationality": ["US"]}


def test_load_metadata_header_only_is_valid_and_empty():
    speakers = load_metadata(io.StringIO("speaker_id,gender\n"))
    assert len(speakers) == 0
    assert speakers.columns == {"gender": []}


def test_load_metadata_duplicate_speaker_is_error():
    with pytest.raises(DuplicateSpeakerError):
        load_metadata(io.StringIO(
            "speaker_id,gender\nid001,male\nid001,female\n"
        ))


def test_load_metadata_requires_speaker_id_first():
    with pytest.raises(MissingHeaderError):
        load_metadata(io.StringIO("name,gender\nid001,male\n"))


def test_load_metadata_requires_attribute_column():
    with pytest.raises(MissingHeaderError):
        load_metadata(io.StringIO("speaker_id\nid001\n"))


def test_load_metadata_empty_file():
    with pytest.raises(EmptyFileError):
        load_metadata(io.StringIO(""))


def test_load_metadata_accepts_bytes():
    speakers = load_metadata(b"speaker_id,gender\nid001,male\n")
    assert speakers.columns["gender"] == ["male"]


BOM = "\ufeff".encode("utf-8")
SCORES_CSV = "enroll_id,test_id,label,score\na,b,target,0.5\n".encode("utf-8")
METADATA_CSV = "speaker_id,gender\na,f\n".encode("utf-8")


@pytest.mark.parametrize("as_path", [False, True], ids=["bytes", "path"])
def test_loaders_skip_utf8_byte_order_mark(tmp_path, as_path):
    sources = {"scores": BOM + SCORES_CSV, "metadata": BOM + METADATA_CSV}
    if as_path:
        for name, data in sources.items():
            (tmp_path / name).write_bytes(data)
            sources[name] = str(tmp_path / name)
    assert trial_records(load_trials(sources["scores"])) == trial_records(load_trials(SCORES_CSV))
    assert speaker_records(load_metadata(sources["metadata"])) == speaker_records(
        load_metadata(METADATA_CSV)
    )


@pytest.mark.parametrize("as_path", [False, True], ids=["bytes", "path"])
@pytest.mark.parametrize("loader, data", [
    (load_trials, "enroll_id,test_id,label,score\nJos\xe9,b,target,0.5\n"),
    (load_metadata, "speaker_id,gender\nJos\xe9,f\n"),
], ids=["scores", "metadata"])
def test_loaders_reject_non_utf8_bytes_as_data_error(tmp_path, loader, data, as_path):
    source = data.encode("latin-1")
    if as_path:
        (tmp_path / "input.csv").write_bytes(source)
        source = str(tmp_path / "input.csv")
    with pytest.raises(DataError, match="0xe9"):
        loader(source)


@pytest.mark.parametrize("bad_row", [False, True], ids=["loads", "fails"])
@pytest.mark.parametrize("loader, data", [
    (load_trials, SCORES_CSV), (load_metadata, METADATA_CSV),
], ids=["scores", "metadata"])
def test_loaders_leave_a_binary_stream_open(loader, data, bad_row):
    stream = io.BytesIO(data + (b"x\n" if bad_row else b""))
    if bad_row:
        with pytest.raises(DataError):
            loader(stream)
    else:
        loader(stream)
    gc.collect()
    assert not stream.closed


@pytest.mark.parametrize("as_path", [False, True], ids=["bytes", "path"])
@pytest.mark.parametrize("loader, row", [
    (load_trials, "enroll_id,test_id,label,score\na,b,target,0.5\n{field},b,target,0.5\n"),
    (load_metadata, "speaker_id,gender\na,f\n{field},f\n"),
], ids=["scores", "metadata"])
def test_loaders_report_unparsable_csv_as_data_error(tmp_path, loader, row, as_path):
    field = "x" * (csv.field_size_limit() + 1)
    source = row.format(field=field).encode("utf-8")
    if as_path:
        (tmp_path / "input.csv").write_bytes(source)
        source = str(tmp_path / "input.csv")
    with pytest.raises(DataError, match="row 3: malformed CSV: field larger than field limit"):
        loader(source)


@pytest.mark.parametrize("source_type", ["bytes", "stream", "text-stream", "path"])
def test_loaders_split_lines_the_same_for_every_source_type(tmp_path, source_type):
    def source(data: bytes):
        if source_type == "stream":
            return io.BytesIO(data)
        if source_type == "text-stream":
            return io.StringIO(data.decode())
        if source_type == "path":
            (tmp_path / "input.csv").write_bytes(data)
            return str(tmp_path / "input.csv")
        return data

    # a bare CR ends a row
    speakers = load_metadata(source(b"speaker_id,gender\na,f\rb,m\n"))
    assert list(zip(speakers.speaker_ids, speakers.columns["gender"])) == [("a", "f"), ("b", "m")]
    # a quoted CRLF is kept verbatim
    speakers = load_metadata(source(b'speaker_id,gender\n"a\r\nb",f\n'))
    assert speakers.speaker_ids == ["a\r\nb"]


FUZZ_SEEDS = {
    load_trials: b"enroll_id,test_id,label,score\na,b,target,0.5\nc,d,NonTarget,-1e3\n",
    load_metadata: b'speaker_id,gender,nationality\na,f,US\nb,m,"I,N"\n',
}
# seeds spanning several two-row chunks, with a blank row
LONGER_FUZZ_SEEDS = {
    load_trials: b"enroll_id,test_id,label,score\na,b,target,0.5\nc,d,NonTarget,-1e3\n"
    b"e,f,target,2\n\ng,h,nontarget,1\n",
    load_metadata: b'speaker_id,gender,nationality\na,f,US\nb,m,"I,N"\nc,f,DE\n\nd,m,US\ne,f,FR\n',
}
FUZZ_SPLICES = [
    b",", b'"', b"\n", b"\r", b"\r\n", b"\x00", b"\x1c", b"\xef\xbb\xbf", b"\xe9", b"\xc2",
    b"nan", b"TARGET",
]


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """A valid file with a few byte ranges replaced by random or CSV-significant bytes."""
    data = valid
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 4)))
        splice = draw(st.binary(max_size=4) | st.sampled_from(FUZZ_SPLICES))
        data = data[:start] + splice + data[stop:]
    return data


# each loader, its record-level reference, and the table-to-records view of its result
REFERENCES = {
    load_trials: (reference_load_trials, trial_records),
    load_metadata: (reference_load_metadata, speaker_records),
}


def load_or_error(load, source):
    """What loading ``source`` gives: the loaded value, or the error's type and message."""
    try:
        return load(source)
    except DataError as exc:
        return type(exc), str(exc)


class TextReads:
    """A source that is no ``io`` class: its ``read`` gives at most five characters of ``str``."""

    def __init__(self, text: str):
        self._text = io.StringIO(text)

    def read(self, size: int = -1) -> str:
        return self._text.read(5 if size < 0 else min(size, 5))


def assert_loads_like_reference(loader, raw: bytes):
    """Both loaders load equal content, or raise the same DataError type and message, from
    bytes, a binary stream and, if ``raw`` is UTF-8, a text stream and a ``TextReads`` of
    its text; every source loads what the bytes load."""
    reference, as_records = REFERENCES[loader]
    pairs = [(raw, raw), (io.BytesIO(raw), io.BytesIO(raw))]
    try:
        text = raw.decode()
    except UnicodeDecodeError:
        pass
    else:
        pairs += [(io.StringIO(text), io.StringIO(text)), (TextReads(text), TextReads(text))]
    loaded = [load_or_error(loader, source) for source, _ in pairs]
    loaded = [result if isinstance(result, tuple) else as_records(result) for result in loaded]
    assert loaded == [load_or_error(reference, source) for _, source in pairs]
    assert loaded == loaded[:1] * len(pairs)
    gc.collect()
    assert not any(stream.closed for pair in pairs[1:3] for stream in pair)


# each loader with the module's block size, and in blocks of 5 bytes, which cut most rows
FUZZ_LOADERS = [
    pytest.param(loader, block_bytes, id=name + suffix)
    for block_bytes, suffix in ((BLOCK_BYTES, ""), (5, "-5-byte-blocks"))
    for loader, name in ((load_trials, "scores"), (load_metadata, "metadata"))
]


@pytest.mark.parametrize("loader, block_bytes", FUZZ_LOADERS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_loaders_load_or_raise_data_error(loader, block_bytes, data):
    """Differential: the chunked loaders agree with the row-by-row references."""
    raw = data.draw(st.binary(max_size=64) | mutated(FUZZ_SEEDS[loader]))
    with patch("biasaudit.trials.BLOCK_BYTES", block_bytes):
        assert_loads_like_reference(loader, raw)


@pytest.mark.parametrize("loader, block_bytes", FUZZ_LOADERS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_loaders_match_reference_in_two_row_chunks(loader, block_bytes, data):
    raw = data.draw(mutated(LONGER_FUZZ_SEEDS[loader]))
    with patch("biasaudit.trials.CHUNK_ROWS", 2), \
            patch("biasaudit.trials.BLOCK_BYTES", block_bytes):
        assert_loads_like_reference(loader, raw)


def test_loaders_report_a_bad_row_before_a_utf8_sequence_cut_off_at_the_end():
    """The rows ahead of a UTF-8 sequence cut off by the end of the file are checked first."""
    assert_loads_like_reference(
        load_trials,
        b"enroll_id,test_id,label,score\n,a,b,target,0.5\nc,d,NonTarget,-1e3\n"
        b"e,f,target,2\n\ng,h,nontarge\xc2",
    )


LIMIT = csv.field_size_limit()
OVERSIZE_FIELD = b"x" * (LIMIT + 1)
SCORE_HEADER = b"enroll_id,test_id,label,score\n"
# each row longer than a 12-byte block
SCORE_ROWS = [b"e%02d,t%02d,target,%d\n" % (k, k, k) for k in range(12)]
CRLF_SCORE_HEADER = SCORE_HEADER[:-1] + b"\r\n"
CRLF_SCORE_ROWS = [row[:-1] + b"\r\n" for row in SCORE_ROWS]
CR_SCORE_HEADER = SCORE_HEADER[:-1] + b"\r"
CR_SCORE_ROWS = [row[:-1] + b"\r" for row in SCORE_ROWS]
QUOTED_SCORE_ROW = b'"e\nx",t,nontarget,1\n'  # one record on two physical lines
# loader, input, and the error message (or row count) it must give in 12-byte blocks
# and three-row chunks; the rows of a plain block are split without csv.reader
SMALL_CHUNK_CASES = {
    "scores-bad-label": (
        load_trials,
        b"enroll_id,test_id,label,score\n" + b"a,b,target,1\n" * 4 + b"\na,b,maybe,1\n",
        "row 7: bad trial label 'maybe'",
    ),
    "scores-blank-rows": (
        load_trials,
        b"enroll_id,test_id,label,score\na,b,target,1\n\n\n\nc,d,nontarget,2\ne,f,target,3\n\ng,h\n",
        "row 9: expected 4 columns, got 2",
    ),
    "scores-bad-row-before-parse-error": (
        load_trials,
        b"enroll_id,test_id,label,score\na,b,target,1\na,b,target,inf\n" + OVERSIZE_FIELD + b"\n",
        "row 3: score 'inf' is not a finite number",
    ),
    "scores-parse-error": (
        load_trials,
        b"enroll_id,test_id,label,score\n" + b"a,b,target,1\n" * 4 + OVERSIZE_FIELD + b"\n",
        f"row 6: malformed CSV: field larger than field limit ({csv.field_size_limit()})",
    ),
    "metadata-duplicate-across-chunks": (
        load_metadata,
        b"speaker_id,g\na,x\nb,y\n\nc,x\nd,y\nb,x\ne,y\n",
        "duplicate speaker_id 'b'",
    ),
    "metadata-bad-row-before-duplicate": (
        load_metadata,
        b"speaker_id,g\na,x\nb,y\nc,x\n ,y\na,x\n",
        "row 5: empty speaker_id",
    ),
    "metadata-loads": (
        load_metadata,
        b"speaker_id,g\na,x\nb,y\n\nc,x\nd,y\ne,y\nf,x\ng,x\n",
        7,
    ),
    "scores-rows-straddle-blocks": (load_trials, SCORE_HEADER + b"".join(SCORE_ROWS), 12),
    "scores-last-line-without-lf": (load_trials, SCORE_HEADER + b"".join(SCORE_ROWS)[:-1], 12),
    "scores-last-line-blank": (load_trials, SCORE_HEADER + b"".join(SCORE_ROWS) + b"\n", 12),
    "scores-blank-lines-then-bad-width": (
        load_trials,
        SCORE_HEADER + b"".join(SCORE_ROWS[:5]) + b"\n\n\n" + b"".join(SCORE_ROWS[5:9])
        + b"e,t,target\n" + b"".join(SCORE_ROWS[9:]),
        "row 14: expected 4 columns, got 3",
    ),
    "scores-bad-label-in-a-late-block": (
        load_trials,
        SCORE_HEADER + b"".join(SCORE_ROWS[:9]) + b"e,t,maybe,1\n" + b"".join(SCORE_ROWS[9:]),
        "row 11: bad trial label 'maybe'",
    ),
    "scores-quote-then-parse-error": (
        load_trials,
        SCORE_HEADER + b"".join(SCORE_ROWS[:6]) + QUOTED_SCORE_ROW + b"".join(SCORE_ROWS[6:9])
        + OVERSIZE_FIELD + b"\n" + b"".join(SCORE_ROWS[9:]),
        f"row 13: malformed CSV: field larger than field limit ({LIMIT})",  # a physical line
    ),
    "scores-quote-then-bad-label": (
        load_trials,
        SCORE_HEADER + b"".join(SCORE_ROWS[:6]) + QUOTED_SCORE_ROW + b"".join(SCORE_ROWS[6:9])
        + b"e,t,maybe,1\n",
        "row 12: bad trial label 'maybe'",
    ),
    "scores-crlf-rows-straddle-blocks": (
        load_trials, CRLF_SCORE_HEADER + b"".join(CRLF_SCORE_ROWS), 12,
    ),
    "scores-bom-then-crlf": (load_trials, BOM + CRLF_SCORE_HEADER + b"".join(CRLF_SCORE_ROWS), 12),
    "scores-bare-cr-in-a-crlf-block": (
        load_trials,
        CRLF_SCORE_HEADER + b"".join(CRLF_SCORE_ROWS[:8]) + b"e,t,target,1\re,t,maybe,2\r\n"
        + b"".join(CRLF_SCORE_ROWS[8:]),
        "row 11: bad trial label 'maybe'",
    ),
    "scores-cr-rows-straddle-blocks": (load_trials, CR_SCORE_HEADER + b"".join(CR_SCORE_ROWS), 12),
    "scores-cr-rows-then-bad-label": (
        load_trials,
        CR_SCORE_HEADER + b"".join(CR_SCORE_ROWS[:9]) + b"e,t,maybe,1\r"
        + b"".join(CR_SCORE_ROWS[9:]),
        "row 11: bad trial label 'maybe'",
    ),
    "scores-cr-bad-row-before-an-invalid-byte": (
        load_trials,
        b"enroll_id,test_id,label,score\rbad\ra,b,target,0.5\r\xff\r",
        "row 2: expected 4 columns, got 1",
    ),
    "scores-crlf-split-by-a-read": (  # the CR is byte 47, the last of the fourth read
        load_trials, SCORE_HEADER + b"ab,cd,target,1.00\r\ne,f,maybe,1\r\n",
        "row 3: bad trial label 'maybe'",
    ),
    "scores-bad-row-then-invalid-byte-in-one-block": (
        load_trials,
        SCORE_HEADER + b"a,b,maybe,1\n\xe9\n" + b"".join(SCORE_ROWS),
        "row 2: bad trial label 'maybe'",
    ),
    "metadata-bom-at-a-later-block-start-is-kept": (
        load_metadata, b"speaker_id,g\ns000000,xx\n" + BOM + b"a,x\na,y\n", 3,
    ),
    "scores-crlf-from-a-late-block-then-parse-error": (
        load_trials,
        SCORE_HEADER + b"".join(SCORE_ROWS[:7]) + b"".join(CRLF_SCORE_ROWS[7:])
        + OVERSIZE_FIELD + b"\r\n",
        f"row 14: malformed CSV: field larger than field limit ({LIMIT})",
    ),
    "scores-bare-cr-in-a-late-block": (
        load_trials,
        SCORE_HEADER + b"".join(SCORE_ROWS[:8]) + b"e,t,target,1\re,t,target,2\n",
        10,
    ),
    "metadata-nul-in-a-late-block-then-duplicate": (
        load_metadata,
        b"speaker_id,g\n" + b"".join(b"s%03d,x\n" % k for k in range(10))
        + b"n\x00l,x\n" + b"s001,y\n",
        "row 12: malformed CSV: line contains NUL" if sys.version_info < (3, 11)
        else "duplicate speaker_id 's001'",
    ),
    "scores-oversize-field-in-a-late-block": (
        load_trials,
        SCORE_HEADER + b"".join(SCORE_ROWS[:8]) + b"e," + OVERSIZE_FIELD + b",target,1\n",
        f"row 10: malformed CSV: field larger than field limit ({LIMIT})",
    ),
    "scores-long-line-of-short-fields": (
        load_trials,
        SCORE_HEADER + b"".join(SCORE_ROWS[:8]) + OVERSIZE_FIELD[:LIMIT] + b","
        + OVERSIZE_FIELD[:LIMIT] + b",target,1\n" + b"".join(SCORE_ROWS[8:]),
        13,
    ),
    "metadata-header-on-two-lines-then-parse-error": (
        load_metadata,
        b'speaker_id,"gen\nder"\n' + b"".join(b"s%03d,x\n" % k for k in range(10))
        + b'"q",x\n' + OVERSIZE_FIELD + b",x\n",
        f"row 14: malformed CSV: field larger than field limit ({LIMIT})",
    ),
    "metadata-header-on-two-lines-then-bad-row": (
        load_metadata,
        b'speaker_id,"gen\nder"\n' + b"".join(b"s%03d,x\n" % k for k in range(10)) + b" ,x\n",
        "row 12: empty speaker_id",
    ),
}


@pytest.mark.parametrize("case", list(SMALL_CHUNK_CASES))
def test_loaders_match_reference_across_chunk_boundaries(monkeypatch, case):
    """12-byte blocks and three-row chunks: errors keep their row, duplicates are caught
    across chunks, and csv.reader reads on from the first quote or NUL."""
    monkeypatch.setattr("biasaudit.trials.BLOCK_BYTES", 12)
    monkeypatch.setattr("biasaudit.trials.CHUNK_ROWS", 3)
    loader, raw, expected = SMALL_CHUNK_CASES[case]
    loaded = load_or_error(loader, raw)
    assert (len(loaded) if isinstance(expected, int) else loaded[1]) == expected
    assert_loads_like_reference(loader, raw)


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_loaders_check_the_lines_ahead_of_a_bad_byte_first(end):
    """In one block, the lines ahead of a byte that is not UTF-8 are read first, whatever
    their line ends."""
    lines = [b"enroll_id,test_id,label,score", b"bad", b"a,b,target,0.5", b"\xff", b"c,d,target,1"]
    raw = end.join([*lines, b""])
    assert load_or_error(load_trials, raw)[1] == "row 2: expected 4 columns, got 1"
    assert_loads_like_reference(load_trials, raw)


@pytest.mark.parametrize("rows", [CR_SCORE_ROWS, CRLF_SCORE_ROWS], ids=["cr", "crlf"])
def test_text_blocks_are_cut_after_every_kind_of_line_end(monkeypatch, rows):
    """Bare-CR lines are cut into blocks like LF lines; a CRLF split by a read is kept whole."""
    monkeypatch.setattr("biasaudit.trials.BLOCK_BYTES", 7)  # the second CRLF ends a read at its CR
    blocks = list(_text_blocks(io.BytesIO(b"".join(rows)).read))
    assert "".join(blocks) == b"".join(rows).decode()
    assert len(blocks) > len(rows) // 2
    assert all(block.endswith(rows[0][-1:].decode()) for block in blocks[:-1])


class ShortReads(io.BytesIO):
    """A binary stream whose ``read`` returns at most three bytes at a time."""

    def read(self, size=-1):
        return super().read(3 if size is None or size < 0 else min(size, 3))


@pytest.mark.parametrize("loader, raw", [
    (load_trials, LONGER_FUZZ_SEEDS[load_trials]),
    (load_trials, BOM + CRLF_SCORE_HEADER + b"".join(CRLF_SCORE_ROWS)),
    (load_trials, SCORE_HEADER + b"".join(SCORE_ROWS) + b"e,t,target,\xc2"),
    (load_metadata, LONGER_FUZZ_SEEDS[load_metadata]),
    (load_metadata, BOM + b'speaker_id,g\r\na,"x\r\ny"\r\nb,y\r\na,x\r\n'),
], ids=["scores", "scores-bom-crlf", "scores-cut-off-utf8", "metadata", "metadata-duplicate"])
def test_loaders_read_a_binary_stream_of_short_reads_as_a_bytes_io(loader, raw):
    stream = ShortReads(raw)
    loaded, expected = load_or_error(loader, stream), load_or_error(loader, io.BytesIO(raw))
    if not isinstance(expected, tuple):  # tables compare by identity, so compare their rows
        as_records = REFERENCES[loader][1]
        loaded, expected = as_records(loaded), as_records(expected)
    assert loaded == expected
    gc.collect()
    assert not stream.closed


def test_loaders_read_a_text_stream_by_its_own_lines():
    """A caller's text stream ends its lines at LF, CRLF and CR, and skips a BOM, as a file does."""
    for text in (
        "speaker_id,gender\na,f\rb,m\n", "speaker_id,gender\ra,f\rb,m\r",
        "\ufeffspeaker_id,gender\r\na,f\r\nb,m\r\n",
    ):
        speakers = load_metadata(io.StringIO(text))
        assert speakers.speaker_ids == ["a", "b"] and speakers.columns["gender"] == ["f", "m"]
        assert speaker_records(speakers) == reference_load_metadata(io.StringIO(text))


# the fuzz seeds and a few more; every chunk-boundary case and fuzz example is also read
# from a text stream by assert_loads_like_reference, in small blocks
TEXT_CASES = {
    **{f"{name}-seed-{loader.__name__}": (loader, seeds[loader]) for loader in FUZZ_SEEDS
       for name, seeds in (("fuzz", FUZZ_SEEDS), ("longer-fuzz", LONGER_FUZZ_SEEDS))},
    "scores-cr-only": (load_trials, LONGER_FUZZ_SEEDS[load_trials].replace(b"\n", b"\r")),
    "metadata-bom": (load_metadata, BOM + LONGER_FUZZ_SEEDS[load_metadata]),
    "metadata-quoted-crlf": (load_metadata, b'speaker_id,gender\r\n"a\r\nb",f\r\n'),
    "scores-non-ascii": (load_trials, SCORE_HEADER + "Jos\xe9,b,target,1\n".encode()),
    "scores-empty": (load_trials, b""),
}


@pytest.mark.parametrize("case", list(TEXT_CASES))
def test_a_text_stream_loads_as_its_bytes_do(case):
    loader, raw = TEXT_CASES[case]
    loaded, expected = load_or_error(loader, io.StringIO(raw.decode())), load_or_error(loader, raw)
    if not isinstance(expected, tuple):
        as_records = REFERENCES[loader][1]
        loaded, expected = as_records(loaded), as_records(expected)
    assert loaded == expected


NOT_UTF8_0XED = "not UTF-8 text: cannot decode byte 0xed; save the file as UTF-8"


@pytest.mark.parametrize("loader, text, message", [
    (load_trials, "enroll_id,test_id,label,score\na,b,target,1\nc\ud800,d,target,1\n",
     NOT_UTF8_0XED),
    (load_metadata, "speaker_id,gender\na,f\nb,\udfff\n", NOT_UTF8_0XED),
    (load_trials, "enroll_id,test_id,label,score\nbad\nc\ud800,d,target,1\n",
     "row 2: expected 4 columns, got 1"),
], ids=["scores", "metadata", "scores-bad-row-first"])
def test_a_lone_surrogate_in_a_text_stream_is_a_data_error(loader, text, message):
    """A lone surrogate reads as bytes that do not decode; the rows ahead are checked first."""
    loaded = load_or_error(loader, io.StringIO(text))
    assert loaded[1] == message
    assert loaded == load_or_error(REFERENCES[loader][0], io.StringIO(text))


@contextmanager
def stdlib_text_reader(kind: str, folder, raw: bytes):
    """A stdlib text reader of ``raw`` at its start; none is an ``io.TextIOBase`` on 3.10-3.13."""
    if kind == "codecs-open":
        (folder / "input.csv").write_bytes(raw)
        with codecs.open(folder / "input.csv", "r", "utf-8") as stream:
            yield stream
        return
    make = {"named": tempfile.NamedTemporaryFile, "spooled": tempfile.SpooledTemporaryFile}[kind]
    with make(mode="w+", encoding="utf-8", newline="", dir=folder) as stream:
        stream.write(raw.decode())
        stream.seek(0)
        yield stream


@pytest.mark.parametrize("kind", ["named", "spooled", "codecs-open"])
@pytest.mark.parametrize("loader, raw", [
    (load_trials, BOM + CRLF_SCORE_HEADER + b"".join(CRLF_SCORE_ROWS)),
    (load_metadata, 'speaker_id,gender\nJos\xe9,f\n"a\r\nb",m\rc,f\n'.encode()),
    (load_metadata, b"speaker_id,gender\na,f\n\na,m\n"),
], ids=["scores-bom-crlf", "metadata", "metadata-duplicate"])
def test_stdlib_text_readers_load_as_their_bytes_do(tmp_path, kind, loader, raw):
    with stdlib_text_reader(kind, tmp_path, raw) as stream:
        loaded, expected = load_or_error(loader, stream), load_or_error(loader, raw)
    if not isinstance(expected, tuple):
        as_records = REFERENCES[loader][1]
        loaded, expected = as_records(loaded), as_records(expected)
    assert loaded == expected


def test_a_text_reader_that_cannot_decode_gives_the_loaders_message(tmp_path):
    with stdlib_text_reader("codecs-open", tmp_path, b"speaker_id,gender\nJos\xe9,f\n") as stream:
        assert load_or_error(load_metadata, stream) == (
            DataError, "not UTF-8 text: cannot decode byte 0xe9; save the file as UTF-8"
        )


def test_csv_reader_reads_plain_lines_as_str_split_does():
    """Lines of code points outside _NOT_PLAIN and the line ends read as str.split(",") does."""
    special = _NOT_PLAIN + "\r\n"
    chars = [c for c in map(chr, range(sys.maxunicode + 1)) if c not in special]
    fields = [f"{c},a{c}b,{c}{c}" for c in chars]  # a field of it alone, inside, at both ends
    lines = [",".join(fields[k:k + 1000]) for k in range(0, len(fields), 1000)]
    assert list(csv.reader(lines)) == [line.split(",") for line in lines]
    assert list(csv.reader(['"a",b'])) != [['"a"', "b"]]  # the test is not vacuous


def test_load_trials_maps_row():
    trials = load_trials(io.StringIO(
        "enroll_id,test_id,label,score\nid001,id002,nontarget,-0.31\n"
    ))
    assert trial_records(trials) == [TrialRecord("id001", "id002", Label.NONTARGET, -0.31)]


def test_load_trials_label_case_insensitive_and_order_preserved():
    trials = load_trials(io.StringIO(
        "enroll_id,test_id,label,score\n"
        "a,b,Target,1.5\n"
        "c,d,NONTARGET,0.25\n"
    ))
    assert trials.is_target.tolist() == [True, False]
    assert trials.scores.tolist() == [1.5, 0.25]


def test_load_trials_rejects_a_source_without_read():
    with pytest.raises(TypeError, match="unsupported source type"):
        load_trials(42)


def test_load_trials_bad_label():
    with pytest.raises(BadLabelError) as exc:
        load_trials(io.StringIO("enroll_id,test_id,label,score\na,b,maybe,0.1\n"))
    assert exc.value.row == 2


def test_load_trials_strips_every_space_str_strip_strips_around_a_score():
    """float keeps U+001C..U+001F around a number, which str.strip strips."""
    raw = "enroll_id,test_id,label,score\na,b,target,\x1c1.5\u2003\nc,d,target, 2\x1f\n".encode()
    assert load_trials(raw).scores.tolist() == [1.5, 2.0]
    assert_loads_like_reference(load_trials, raw)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "abc"])
def test_load_trials_non_finite_score(bad):
    with pytest.raises(NonFiniteScoreError):
        load_trials(io.StringIO(f"enroll_id,test_id,label,score\na,b,target,{bad}\n"))


def test_load_trials_missing_header():
    with pytest.raises(MissingHeaderError):
        load_trials(io.StringIO("a,b,target,0.1\n"))
    with pytest.raises(EmptyFileError, match="^scores file is empty$"):
        load_trials(io.StringIO(""))


METADATA = speaker_table([
    SpeakerMetadata("id1", {"gender": "male", "nationality": "US"}),
    SpeakerMetadata("id2", {"gender": "male", "nationality": "US"}),
    SpeakerMetadata("id3", {"gender": "female", "nationality": "US"}),
])

THREE_TRIALS = trial_table([
    TrialRecord("id1", "id2", Label.TARGET, 1.0),
    TrialRecord("id1", "id3", Label.NONTARGET, 0.5),
    TrialRecord("id3", "id3", Label.TARGET, 0.2),
])


def assert_scores(actual, target, nontarget):
    """Exact (target, nontarget) arrays, in input order."""
    assert_array_equal(actual[0], np.asarray(target, dtype=float), strict=True)
    assert_array_equal(actual[1], np.asarray(nontarget, dtype=float), strict=True)


def assert_rows(grouped, rows, target, nontarget):
    """The scores of a group's or the unassigned rows are exactly these, in input order."""
    assert_scores(grouped.scores(rows), target, nontarget)


def test_assign_groups_both_match():
    grouped = assign_groups(THREE_TRIALS, METADATA, ["gender", "nationality"])
    # hand-enumerated: trial 1 matches (male, US); trial 2 endpoints disagree;
    # trial 3 matches (female, US)
    female, male = gk(gender="female", nationality="US"), gk(gender="male", nationality="US")
    assert list(grouped.groups) == [female, male]
    assert_rows(grouped, grouped.groups[female], [0.2], [])
    assert_rows(grouped, grouped.groups[male], [1.0], [])
    assert_rows(grouped, grouped.unassigned, [], [0.5])


def test_assign_groups_enrollment_only():
    grouped = assign_groups(
        THREE_TRIALS, METADATA, ["gender", "nationality"],
        GroupingPolicy.ENROLLMENT_ONLY,
    )
    # hand-enumerated: the mismatched trial now follows its enrollment speaker
    female, male = gk(gender="female", nationality="US"), gk(gender="male", nationality="US")
    assert list(grouped.groups) == [female, male]
    assert_rows(grouped, grouped.groups[female], [0.2], [])
    assert_rows(grouped, grouped.groups[male], [1.0], [0.5])
    assert_rows(grouped, grouped.unassigned, [], [])


def test_assign_groups_missing_speaker_goes_unassigned():
    trials = trial_table([TrialRecord("id1", "ghost", Label.TARGET, 1.0),
                          TrialRecord("ghost", "id1", Label.TARGET, 2.0)])
    grouped = assign_groups(trials, METADATA, ["gender"])
    assert grouped.groups == {}
    assert_rows(grouped, grouped.unassigned, [1.0, 2.0], [])
    # enrollment-only still needs the enrollment speaker
    grouped = assign_groups(trials, METADATA, ["gender"], GroupingPolicy.ENROLLMENT_ONLY)
    assert list(grouped.groups) == [gk(gender="male")]
    assert_rows(grouped, grouped.unassigned, [2.0], [])


def test_pooled_scores_are_the_whole_table():
    grouped = grouped_from_scores(
        {gk(g="b"): ([3.0], [4.0, 5.0]), gk(g="a"): ([1.0], [2.0])},
        unassigned=([6.0], []),
    )
    assert [len(rows) for rows in grouped.groups.values()] == [2, 3]
    assert len(grouped.unassigned) == 1
    assert_scores(grouped.scores(), [1.0, 3.0, 6.0], [2.0, 4.0, 5.0])
    # file order, not group order: the female trial is the table's last row
    grouped = assign_groups(THREE_TRIALS, METADATA, ["gender"])
    table = grouped.trials
    assert table is THREE_TRIALS
    assert_scores(grouped.scores(), table.scores[table.is_target], table.scores[~table.is_target])
    assert_scores(grouped.scores(), [1.0, 0.2], [0.5])


def test_assign_groups_unknown_attribute():
    with pytest.raises(UnknownAttributeError) as exc:
        assign_groups(THREE_TRIALS, METADATA, ["gender", "age"])
    assert exc.value.name == "age"
    # the header names the attributes, so a header-only file is checked too
    with pytest.raises(UnknownAttributeError):
        assign_groups(THREE_TRIALS, load_metadata(b"speaker_id,gender\n"), ["age"])


def test_assign_groups_requires_attributes():
    with pytest.raises(ConfigError):
        assign_groups(THREE_TRIALS, METADATA, [])


def test_assign_groups_rejects_repeated_attribute():
    with pytest.raises(ConfigError, match="distinct"):
        assign_groups(THREE_TRIALS, METADATA, ["gender", "Gender"])


def test_assign_groups_attribute_names_case_insensitive():
    grouped = assign_groups(THREE_TRIALS, METADATA, ["Gender"])
    assert set(grouped.groups) == {gk(gender="male"), gk(gender="female")}


speaker_ids = st.sampled_from([f"s{i}" for i in range(8)])
trial_lists = st.lists(
    st.tuples(
        speaker_ids,
        speaker_ids,
        st.sampled_from(list(Label)),
        st.floats(-100, 100, allow_nan=False),
    ),
    max_size=40,
)
# only s0..s5 carry metadata; s6/s7 are unknown speakers
metadata_strategy = st.lists(
    st.sampled_from(["a", "b", "c"]), min_size=6, max_size=6
).map(lambda values: [
    SpeakerMetadata(f"s{i}", {"g": v}) for i, v in enumerate(values)
])


@given(trial_lists, metadata_strategy, st.sampled_from(list(GroupingPolicy)))
def test_partition_completeness(raw_trials, metadata, policy):
    trials = trial_table(TrialRecord(*t) for t in raw_trials)
    grouped = assign_groups(trials, speaker_table(metadata), ["g"], policy)
    bucketed = sum(len(v) for v in grouped.groups.values()) + len(grouped.unassigned)
    assert bucketed == len(trials)


@given(trial_lists, metadata_strategy)
def test_policy_refinement(raw_trials, metadata):
    """Anything grouped under both-match is grouped identically under enrollment-only."""
    trials, speakers = trial_table(TrialRecord(*t) for t in raw_trials), speaker_table(metadata)
    strict = assign_groups(trials, speakers, ["g"], GroupingPolicy.BOTH_MATCH)
    loose = assign_groups(trials, speakers, ["g"], GroupingPolicy.ENROLLMENT_ONLY)
    for key, members in strict.groups.items():
        wider = loose.groups[key]
        for label, inner_scores, outer_scores in zip(
            (Label.TARGET, Label.NONTARGET), strict.scores(members), loose.scores(wider)
        ):
            inner = Counter((label, s) for s in inner_scores.tolist())
            outer = Counter((label, s) for s in outer_scores.tolist())
            assert not inner - outer


# two attributes requested out of sorted order, so the group key must canonicalise
two_attribute_metadata = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.sampled_from(["p", "q"])),
    min_size=6, max_size=6,
).map(lambda values: [
    SpeakerMetadata(f"s{i}", {"b": b, "a": a}) for i, (b, a) in enumerate(values)
])


@given(trial_lists, two_attribute_metadata, st.sampled_from(list(GroupingPolicy)))
def test_assign_groups_matches_record_level_partition(raw_trials, metadata, policy):
    """Differential check against a record-level reference partition.

    Each speaker's value tuple is looked up per policy, the member
    records of each group are collected in input order, and each group's
    scores must equal ``split_scores`` of its members element for element.
    The row arrays are ascending and disjoint and cover every row.
    """
    trials = [TrialRecord(*t) for t in raw_trials]
    speakers = {m.speaker_id: m.attributes for m in metadata}
    members: dict = {}
    unassigned = []
    for trial in trials:
        enroll, test = speakers.get(trial.enroll_id), speakers.get(trial.test_id)
        if enroll is None or (policy is GroupingPolicy.BOTH_MATCH and enroll != test):
            unassigned.append(trial)
        else:
            members.setdefault(gk(a=enroll["a"], b=enroll["b"]), []).append(trial)

    grouped = assign_groups(trial_table(trials), speaker_table(metadata), ["B", "a"], policy)
    assert list(grouped.groups) == sorted(members)
    for key, records in members.items():
        assert_rows(grouped, grouped.groups[key], *split_scores(records))
    assert_rows(grouped, grouped.unassigned, *split_scores(unassigned))
    arrays = [*grouped.groups.values(), grouped.unassigned]
    assert all((np.diff(rows) > 0).all() and not rows.flags.writeable for rows in arrays)
    assert_array_equal(np.sort(np.concatenate(arrays)), np.arange(len(trials)))


@given(trial_lists, metadata_strategy, st.sampled_from(list(GroupingPolicy)))
@settings(max_examples=25)
def test_round_trip_preserves_partition(raw_trials, metadata, policy):
    trials = trial_table(TrialRecord(*t) for t in raw_trials)
    speakers = speaker_table(metadata)
    grouped = assign_groups(trials, speakers, ["g"], policy)

    scores = io.StringIO()
    write_trials(trial_records(trials), scores)
    meta = io.StringIO()
    write_metadata(speaker_records(speakers), meta)
    reloaded_trials = load_trials(io.StringIO(scores.getvalue()))
    reloaded_meta = load_metadata(io.StringIO(meta.getvalue()))
    regrouped = assign_groups(reloaded_trials, reloaded_meta, ["g"], policy)

    assert list(regrouped.groups) == list(grouped.groups)
    for key, rows in grouped.groups.items():
        assert_rows(regrouped, regrouped.groups[key], *grouped.scores(rows))
    assert_rows(regrouped, regrouped.unassigned, *grouped.scores(grouped.unassigned))


def written(write, value) -> str | tuple:
    """The text ``write`` writes for ``value``, or its csv.Error's type and message."""
    buffer = io.StringIO()
    try:
        write(value, buffer)
    except csv.Error as exc:  # Python 3.10 cannot write a NUL
        return type(exc), str(exc)
    return buffer.getvalue()


# any text, or text built from the characters CSV quoting turns on
any_text = st.text(max_size=8) | st.text(st.sampled_from(list(',"\n\r\x00 é中')), max_size=8)
record_lists = st.lists(
    st.builds(TrialRecord, any_text, any_text, st.sampled_from(list(Label)), st.floats()),
    max_size=20,
)
# each speaker carries any subset of the attributes, so some miss one
speaker_lists = st.lists(
    st.builds(
        SpeakerMetadata,
        any_text,
        st.dictionaries(st.sampled_from(["g", "Age", "région", 'a,"b"']), any_text, max_size=3),
    ),
    max_size=20,
)


def bare_cr(text: str) -> bool:
    """Whether csv.writer leaves ``text`` unquoted though it holds a CR (before Python 3.13)."""
    return sys.version_info < (3, 13) and "\r" in text and not set('\n",') & set(text)


@given(record_lists)
@example([])
def test_write_trials_matches_record_reference(records):
    """Differential: records, a record iterator and a table all give the reference's text.

    The writers quote a bare CR on every Python, the reference only from 3.13.
    """
    assume(not any(bare_cr(r.enroll_id) or bare_cr(r.test_id) for r in records))
    expected = written(reference_write_trials, records)
    assert written(write_trials, records) == expected
    assert written(write_trials, iter(records)) == expected
    assert written(write_trials, TrialTable.from_records(records)) == expected


@given(speaker_lists)
@example([])
def test_write_metadata_matches_record_reference(records):
    assume(not any(bare_cr(r.speaker_id) or any(map(bare_cr, r.attributes.values()))
                   for r in records))
    if not any(r.attributes for r in records):
        # load_metadata rejects a file of speaker ids alone, so none is written
        for speakers in (records, iter(records), SpeakerTable.from_records(records)):
            with pytest.raises(ValueError, match="at least one attribute column"):
                written(write_metadata, speakers)
        return
    expected = written(reference_write_metadata, records)
    assert written(write_metadata, records) == expected
    assert written(write_metadata, iter(records)) == expected
    assert written(write_metadata, SpeakerTable.from_records(records)) == expected


@pytest.mark.parametrize("speakers", [
    [],
    [SpeakerMetadata("a", {})],
    SpeakerTable(["a", "b"], {}),
], ids=["no-records", "no-attributes", "no-columns"])
def test_write_metadata_rejects_speakers_without_attributes_before_opening(tmp_path, speakers):
    with pytest.raises(ValueError, match="at least one attribute column"):
        write_metadata(speakers, tmp_path / "metadata.csv")
    assert not (tmp_path / "metadata.csv").exists()


def test_writers_write_paths_like_the_reference(tmp_path):
    records = [TrialRecord("a", 'b"', Label.NONTARGET, -0.5)]
    speakers = [SpeakerMetadata("a", {"g": "é"}), SpeakerMetadata("b,", {"h": "x\ny"})]
    for name, write, reference, rows in (
        ("scores.csv", write_trials, reference_write_trials, records),
        ("metadata.csv", write_metadata, reference_write_metadata, speakers),
    ):
        write(rows, tmp_path / name)
        reference(rows, tmp_path / f"reference-{name}")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"reference-{name}").read_bytes()


@pytest.mark.parametrize("score,text", [
    (np.float64(0.5), "0.5"),
    (np.float32(0.1), repr(float(np.float32(0.1)))),
    (3, "3.0"),
])
def test_write_trials_writes_each_score_as_a_float(score, text):
    """A numpy score used to be written as its repr, ``np.float64(0.5)``, which no loader reads."""
    buffer = io.StringIO()
    write_trials([TrialRecord("a", "b", Label.TARGET, score)], buffer)
    assert buffer.getvalue().splitlines()[1] == f"a,b,target,{text}"
    assert load_trials(io.StringIO(buffer.getvalue())).scores.tolist() == [float(score)]


round_trip_text = st.text(st.sampled_from(list('ab ,"\n\ré中')), max_size=6)


@given(st.lists(
    st.tuples(
        round_trip_text, round_trip_text, st.sampled_from(list(Label)),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=20,
))
def test_written_trials_load_back_column_for_column(rows):
    table = trial_table(TrialRecord(*row) for row in rows)
    reloaded = load_trials(io.StringIO(written(write_trials, table)))
    assert reloaded.enroll_ids == table.enroll_ids
    assert reloaded.test_ids == table.test_ids
    assert_array_equal(reloaded.is_target, table.is_target, strict=True)
    assert_array_equal(reloaded.scores, table.scores, strict=True)


@given(st.lists(
    st.tuples(round_trip_text.filter(str.strip), round_trip_text, round_trip_text),
    max_size=20, unique_by=lambda row: row[0].strip(),
))
def test_written_metadata_loads_back_column_for_column(rows):
    # as loaded: ids stripped, names lowercased, values verbatim
    ids, regions, gs = map(list, zip(*rows)) if rows else ([], [], [])
    table = SpeakerTable([i.strip() for i in ids], {"région": regions, "g": gs})
    reloaded = load_metadata(io.StringIO(written(write_metadata, table)))
    assert reloaded.speaker_ids == table.speaker_ids
    assert reloaded.columns == table.columns


def test_written_metadata_keeps_a_bare_carriage_return():
    """csv.writer leaves a bare CR unquoted before Python 3.13; the writers quote it."""
    table = SpeakerTable(["a\rb"], {"g": ["x\ry"]})
    text = written(write_metadata, table)
    assert text == 'speaker_id,g\n"a\rb","x\ry"\n'
    reloaded = load_metadata(io.StringIO(text))
    assert reloaded.speaker_ids == table.speaker_ids
    assert reloaded.columns == table.columns


def reference_csv(header, columns) -> str:
    """``csv.writer``'s text for the rows, with every field holding a CR quoted.

    With CRLF as its line terminator csv.writer quotes CR on every Python;
    each line is then ended with LF instead.
    """
    writer = csv.writer(_Echo(), lineterminator="\r\n")
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return "".join(writer.writerow(row)[:-2] + "\n" for row in [header, *rows])


csv_text = st.text(max_size=8) | st.text(st.sampled_from(list(',"\n\r\x00\x1f é中')), max_size=8)


@st.composite
def csv_tables(draw):
    """A header and columns of 1-4 fields and 0, 1, 3 or 4 rows; some columns float arrays."""
    width = draw(st.integers(1, 4))
    size = draw(st.sampled_from([0, 1, 3, 4]))
    header = draw(st.lists(csv_text, min_size=width, max_size=width))
    columns = [
        np.array(draw(st.lists(st.floats(), min_size=size, max_size=size)), dtype=float)
        if draw(st.booleans())
        else draw(st.lists(csv_text, min_size=size, max_size=size))
        for _ in range(width)
    ]
    return header, columns


@given(csv_tables())
@example((["a"], [[""]]))
@example((["a", "b"], [["x\ry", "p,q"], np.array([0.1, float("nan")])]))
def test_write_csv_matches_csv_writer(table):
    """Differential, in three-row runs: the text of csv.writer, a CR always quoted.

    A header of one field raises ValueError: a lone empty field reads back blank.
    """
    if len(table[0]) < 2:
        with pytest.raises(ValueError, match="at least two columns, got 1"):
            written(lambda t, stream: write_csv(stream, *t), table)
        return
    try:
        expected = reference_csv(*table)
    except csv.Error as exc:  # Python 3.10 cannot write a NUL
        expected = type(exc), str(exc)
    with patch("biasaudit.trials.CHUNK_ROWS", 3):
        assert written(lambda t, stream: write_csv(stream, *t), table) == expected


def test_write_csv_scans_for_every_character_csv_writer_quotes():
    """Every code point csv.writer quotes or rejects in a two-field row is in the scan's class."""
    writer = csv.writer(_Echo(), lineterminator="\n")
    quoted = []
    for char in map(chr, range(sys.maxunicode + 1)):
        try:
            if writer.writerow([char, ""]) != char + ",\n":
                quoted.append(char)
        except csv.Error:
            quoted.append(char)
    assert "\n" in quoted
    assert all(char in _MAY_QUOTE for char in quoted)
