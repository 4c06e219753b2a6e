"""Tests for CSV ingestion and group assignment."""

from __future__ import annotations

import csv
import gc
import io
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from biasaudit import (
    BadLabelError,
    ConfigError,
    DataError,
    DuplicateSpeakerError,
    EmptyFileError,
    GroupingPolicy,
    Label,
    MissingHeaderError,
    NonFiniteScoreError,
    SpeakerMetadata,
    TrialRecord,
    UnknownAttributeError,
    assign_groups,
    load_metadata,
    load_trials,
    write_metadata,
    write_trials,
)
from helpers import (
    gk,
    grouped_from_scores,
    reference_load_metadata,
    reference_load_trials,
    speaker_records,
    speaker_table,
    split_scores,
    trial_records,
    trial_table,
)


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


@pytest.mark.parametrize("source_type", ["bytes", "stream", "path"])
def test_loaders_split_lines_the_same_for_every_source_type(tmp_path, source_type):
    def source(data: bytes):
        if source_type == "stream":
            return io.BytesIO(data)
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
FUZZ_SPLICES = [b",", b'"', b"\n", b"\r", b"\x00", b"\xef\xbb\xbf", b"\xe9", b"nan", b"TARGET"]


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


def assert_loads_like_reference(loader, raw: bytes):
    """Both loaders load equal content, or raise the same DataError type and message."""
    reference, as_records = REFERENCES[loader]
    streams = (io.BytesIO(raw), io.BytesIO(raw))
    for source, reference_source in ((raw, raw), streams):
        loaded = load_or_error(loader, source)
        if not isinstance(loaded, tuple):
            loaded = as_records(loaded)
        assert loaded == load_or_error(reference, reference_source)
    gc.collect()
    assert not any(stream.closed for stream in streams)


@pytest.mark.parametrize("loader", list(FUZZ_SEEDS), ids=["scores", "metadata"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_loaders_load_or_raise_data_error(loader, data):
    """Differential: the chunked loaders agree with the row-by-row references."""
    raw = data.draw(st.binary(max_size=64) | mutated(FUZZ_SEEDS[loader]))
    assert_loads_like_reference(loader, raw)


@pytest.mark.parametrize("loader", list(FUZZ_SEEDS), ids=["scores", "metadata"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_loaders_match_reference_in_two_row_chunks(loader, data):
    raw = data.draw(mutated(LONGER_FUZZ_SEEDS[loader]))
    with patch("biasaudit.trials.CHUNK_ROWS", 2):
        assert_loads_like_reference(loader, raw)


OVERSIZE_FIELD = b"x" * (csv.field_size_limit() + 1)
# loader, input, and the error message (or row count) it must give with three-row chunks
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
}


@pytest.mark.parametrize("case", list(SMALL_CHUNK_CASES))
def test_loaders_match_reference_across_chunk_boundaries(monkeypatch, case):
    """Three-row chunks: errors keep their row, and duplicates are caught across chunks."""
    monkeypatch.setattr("biasaudit.trials.CHUNK_ROWS", 3)
    loader, raw, expected = SMALL_CHUNK_CASES[case]
    loaded = load_or_error(loader, raw)
    assert (len(loaded) if isinstance(expected, int) else loaded[1]) == expected
    assert_loads_like_reference(loader, raw)


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


def test_load_trials_bad_label():
    with pytest.raises(BadLabelError) as exc:
        load_trials(io.StringIO("enroll_id,test_id,label,score\na,b,maybe,0.1\n"))
    assert exc.value.row == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "abc"])
def test_load_trials_non_finite_score(bad):
    with pytest.raises(NonFiniteScoreError):
        load_trials(io.StringIO(f"enroll_id,test_id,label,score\na,b,target,{bad}\n"))


def test_load_trials_missing_header():
    with pytest.raises(MissingHeaderError):
        load_trials(io.StringIO("a,b,target,0.1\n"))
    with pytest.raises(MissingHeaderError):
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
    """Exact arrays, in input order."""
    assert_array_equal(actual.target, np.asarray(target, dtype=float), strict=True)
    assert_array_equal(actual.nontarget, np.asarray(nontarget, dtype=float), strict=True)


def test_assign_groups_both_match():
    grouped = assign_groups(THREE_TRIALS, METADATA, ["gender", "nationality"])
    # hand-enumerated: trial 1 matches (male, US); trial 2 endpoints disagree;
    # trial 3 matches (female, US)
    female, male = gk(gender="female", nationality="US"), gk(gender="male", nationality="US")
    assert list(grouped.groups) == [female, male]
    assert_scores(grouped.groups[female], [0.2], [])
    assert_scores(grouped.groups[male], [1.0], [])
    assert_scores(grouped.unassigned, [], [0.5])


def test_assign_groups_enrollment_only():
    grouped = assign_groups(
        THREE_TRIALS, METADATA, ["gender", "nationality"],
        GroupingPolicy.ENROLLMENT_ONLY,
    )
    # hand-enumerated: the mismatched trial now follows its enrollment speaker
    female, male = gk(gender="female", nationality="US"), gk(gender="male", nationality="US")
    assert list(grouped.groups) == [female, male]
    assert_scores(grouped.groups[female], [0.2], [])
    assert_scores(grouped.groups[male], [1.0], [0.5])
    assert_scores(grouped.unassigned, [], [])


def test_assign_groups_missing_speaker_goes_unassigned():
    trials = trial_table([TrialRecord("id1", "ghost", Label.TARGET, 1.0),
                          TrialRecord("ghost", "id1", Label.TARGET, 2.0)])
    grouped = assign_groups(trials, METADATA, ["gender"])
    assert grouped.groups == {}
    assert_scores(grouped.unassigned, [1.0, 2.0], [])
    # enrollment-only still needs the enrollment speaker
    grouped = assign_groups(trials, METADATA, ["gender"], GroupingPolicy.ENROLLMENT_ONLY)
    assert list(grouped.groups) == [gk(gender="male")]
    assert_scores(grouped.unassigned, [2.0], [])


def test_pooled_concatenates_every_bucket():
    grouped = grouped_from_scores(
        {gk(g="b"): ([3.0], [4.0, 5.0]), gk(g="a"): ([1.0], [2.0])},
        unassigned=([6.0], []),
    )
    assert [len(s) for s in grouped.groups.values()] == [2, 3]
    assert len(grouped.unassigned) == 1
    assert_scores(grouped.pooled(), [1.0, 3.0, 6.0], [2.0, 4.0, 5.0])


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
        for label, side in ((Label.TARGET, "target"), (Label.NONTARGET, "nontarget")):
            inner = Counter((label, s) for s in getattr(members, side).tolist())
            outer = Counter((label, s) for s in getattr(wider, side).tolist())
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
    records of each bucket are collected in input order, and each bucket
    must equal ``split_scores`` of its members element for element.
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
        assert_scores(grouped.groups[key], *split_scores(records))
    assert_scores(grouped.unassigned, *split_scores(unassigned))


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
    for key, group_scores in grouped.groups.items():
        assert_scores(regrouped.groups[key], group_scores.target, group_scores.nontarget)
    assert_scores(regrouped.unassigned, grouped.unassigned.target, grouped.unassigned.nontarget)
