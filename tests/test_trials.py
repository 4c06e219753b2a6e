"""Tests for CSV ingestion and group assignment."""

from __future__ import annotations

import csv
import gc
import io
from collections import Counter

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
    split_scores,
    write_metadata,
    write_trials,
)
from helpers import gk, grouped_from_scores


def test_load_metadata_maps_rows():
    records = load_metadata(io.StringIO(
        "speaker_id,Gender,nationality\nid001,male,US\n"
    ))
    assert len(records) == 1
    assert records[0].speaker_id == "id001"
    # names lowercased, values verbatim
    assert records[0].attributes == {"gender": "male", "nationality": "US"}


def test_load_metadata_header_only_is_valid_and_empty():
    assert load_metadata(io.StringIO("speaker_id,gender\n")) == []


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
    records = load_metadata(b"speaker_id,gender\nid001,male\n")
    assert records[0].attributes["gender"] == "male"


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
    assert load_trials(sources["scores"]) == load_trials(SCORES_CSV)
    assert load_metadata(sources["metadata"]) == load_metadata(METADATA_CSV)


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


FUZZ_SEEDS = {
    load_trials: b"enroll_id,test_id,label,score\na,b,target,0.5\nc,d,NonTarget,-1e3\n",
    load_metadata: b'speaker_id,gender,nationality\na,f,US\nb,m,"I,N"\n',
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


@pytest.mark.parametrize("loader", list(FUZZ_SEEDS), ids=["scores", "metadata"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_loaders_load_or_raise_data_error(loader, data):
    raw = data.draw(st.binary(max_size=64) | mutated(FUZZ_SEEDS[loader]))
    stream = io.BytesIO(raw)
    for source in (raw, stream):
        try:
            loader(source)
        except DataError:
            pass
    gc.collect()
    assert not stream.closed


def test_load_trials_maps_row():
    trials = load_trials(io.StringIO(
        "enroll_id,test_id,label,score\nid001,id002,nontarget,-0.31\n"
    ))
    assert trials == [TrialRecord("id001", "id002", Label.NONTARGET, -0.31)]


def test_load_trials_label_case_insensitive_and_order_preserved():
    trials = load_trials(io.StringIO(
        "enroll_id,test_id,label,score\n"
        "a,b,Target,1.5\n"
        "c,d,NONTARGET,0.25\n"
    ))
    assert [t.label for t in trials] == [Label.TARGET, Label.NONTARGET]
    assert [t.score for t in trials] == [1.5, 0.25]


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


METADATA = [
    SpeakerMetadata("id1", {"gender": "male", "nationality": "US"}),
    SpeakerMetadata("id2", {"gender": "male", "nationality": "US"}),
    SpeakerMetadata("id3", {"gender": "female", "nationality": "US"}),
]

THREE_TRIALS = [
    TrialRecord("id1", "id2", Label.TARGET, 1.0),
    TrialRecord("id1", "id3", Label.NONTARGET, 0.5),
    TrialRecord("id3", "id3", Label.TARGET, 0.2),
]


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
    trials = [TrialRecord("id1", "ghost", Label.TARGET, 1.0),
              TrialRecord("ghost", "id1", Label.TARGET, 2.0)]
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
    trials = [TrialRecord(*t) for t in raw_trials]
    grouped = assign_groups(trials, metadata, ["g"], policy)
    bucketed = sum(len(v) for v in grouped.groups.values()) + len(grouped.unassigned)
    assert bucketed == len(trials)


@given(trial_lists, metadata_strategy)
def test_policy_refinement(raw_trials, metadata):
    """Anything grouped under both-match is grouped identically under enrollment-only."""
    trials = [TrialRecord(*t) for t in raw_trials]
    strict = assign_groups(trials, metadata, ["g"], GroupingPolicy.BOTH_MATCH)
    loose = assign_groups(trials, metadata, ["g"], GroupingPolicy.ENROLLMENT_ONLY)
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

    grouped = assign_groups(trials, metadata, ["B", "a"], policy)
    assert list(grouped.groups) == sorted(members)
    for key, records in members.items():
        assert_scores(grouped.groups[key], *split_scores(records))
    assert_scores(grouped.unassigned, *split_scores(unassigned))


@given(trial_lists, metadata_strategy, st.sampled_from(list(GroupingPolicy)))
@settings(max_examples=25)
def test_round_trip_preserves_partition(raw_trials, metadata, policy):
    trials = [TrialRecord(*t) for t in raw_trials]
    grouped = assign_groups(trials, metadata, ["g"], policy)

    scores = io.StringIO()
    write_trials(trials, scores)
    meta = io.StringIO()
    write_metadata(metadata, meta)
    reloaded_trials = load_trials(io.StringIO(scores.getvalue()))
    reloaded_meta = load_metadata(io.StringIO(meta.getvalue()))
    regrouped = assign_groups(reloaded_trials, reloaded_meta, ["g"], policy)

    assert list(regrouped.groups) == list(grouped.groups)
    for key, group_scores in grouped.groups.items():
        assert_scores(regrouped.groups[key], group_scores.target, group_scores.nontarget)
    assert_scores(regrouped.unassigned, grouped.unassigned.target, grouped.unassigned.nontarget)
