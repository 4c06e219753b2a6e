"""Tests for CSV ingestion and group assignment."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from helpers import gk


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


def test_assign_groups_both_match():
    grouped = assign_groups(THREE_TRIALS, METADATA, ["gender", "nationality"])
    # hand-enumerated: trial 1 matches (male, US); trial 2 endpoints disagree;
    # trial 3 matches (female, US)
    assert grouped.groups == {
        gk(gender="female", nationality="US"): [THREE_TRIALS[2]],
        gk(gender="male", nationality="US"): [THREE_TRIALS[0]],
    }
    assert grouped.unassigned == [THREE_TRIALS[1]]


def test_assign_groups_enrollment_only():
    grouped = assign_groups(
        THREE_TRIALS, METADATA, ["gender", "nationality"],
        GroupingPolicy.ENROLLMENT_ONLY,
    )
    # hand-enumerated: the mismatched trial now follows its enrollment speaker
    assert grouped.groups == {
        gk(gender="female", nationality="US"): [THREE_TRIALS[2]],
        gk(gender="male", nationality="US"): [THREE_TRIALS[0], THREE_TRIALS[1]],
    }
    assert grouped.unassigned == []


def test_assign_groups_missing_speaker_goes_unassigned():
    trials = [TrialRecord("id1", "ghost", Label.TARGET, 1.0),
              TrialRecord("ghost", "id1", Label.TARGET, 1.0)]
    grouped = assign_groups(trials, METADATA, ["gender"])
    assert grouped.groups == {}
    assert grouped.unassigned == trials
    # enrollment-only still needs the enrollment speaker
    grouped = assign_groups(trials, METADATA, ["gender"], GroupingPolicy.ENROLLMENT_ONLY)
    assert list(grouped.groups) == [gk(gender="male")]
    assert grouped.unassigned == [trials[1]]


def test_assign_groups_unknown_attribute():
    with pytest.raises(UnknownAttributeError):
        assign_groups(THREE_TRIALS, METADATA, ["gender", "age"])


def test_assign_groups_requires_attributes():
    with pytest.raises(ConfigError):
        assign_groups(THREE_TRIALS, METADATA, [])


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
        for trial in members:
            assert trial in loose.groups.get(key, [])


@given(trial_lists, metadata_strategy, st.sampled_from(list(GroupingPolicy)))
@settings(max_examples=25)
def test_round_trip_preserves_partition(raw_trials, metadata, policy):
    trials = [TrialRecord(*t) for t in raw_trials]
    grouped = assign_groups(trials, metadata, ["g"], policy)

    scores = io.StringIO()
    write_trials(grouped.all_trials(), scores)
    meta = io.StringIO()
    write_metadata(metadata, meta)
    reloaded_trials = load_trials(io.StringIO(scores.getvalue()))
    reloaded_meta = load_metadata(io.StringIO(meta.getvalue()))
    regrouped = assign_groups(reloaded_trials, reloaded_meta, ["g"], policy)

    assert regrouped.groups == grouped.groups
    assert sorted(regrouped.unassigned, key=lambda t: (t.enroll_id, t.test_id, t.score)) == \
        sorted(grouped.unassigned, key=lambda t: (t.enroll_id, t.test_id, t.score))
