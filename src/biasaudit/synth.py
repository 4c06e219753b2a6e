"""Deterministic synthetic score generation with closed-form error rates.

Each group draws target scores from Normal(mu_target, sigma) and
nontarget scores from Normal(mu_nontarget, sigma); the shared sigma
keeps the EER closed-form: EER = Phi(-(mu_target - mu_nontarget) /
(2 * sigma)), attained at the midpoint threshold.

Determinism: group streams are numpy PCG64 generators spawned from
``SeedSequence(seed)`` in group order, and normals come from
``Generator.normal`` (ziggurat). For a given numpy version the output
is bit-identical across platforms, so pinned seeds freeze fixtures.
Every trial gets two fresh speaker ids carrying the group's attributes,
so the BothMatch policy holds by construction.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import not_utf8
from .trials import (
    GroupKey,
    Label,
    SpeakerMetadata,
    SpeakerTable,
    TrialRecord,
    TrialTable,
)


@dataclass(frozen=True)
class GroupScoreModel:
    """Score distributions and trial counts for one synthetic group."""

    group: GroupKey
    mu_target: float
    mu_nontarget: float
    sigma: float
    n_target: int
    n_nontarget: int

    def __post_init__(self):
        # metadata.csv must read back under the same names and values
        for item in (*self.group.names, *self.group.values):
            if not isinstance(item, str):
                raise ValueError(f"group {self.group}: attribute names and values "
                                 f"must be strings, got {item!r}")
        for name in self.group.names:
            if not name or name != name.strip().lower():
                raise ValueError(f"group {self.group}: attribute names must be non-empty, "
                                 f"lowercase and unpadded, got {name!r}")
        if not (math.isfinite(self.mu_target) and math.isfinite(self.mu_nontarget)):
            raise ValueError(f"group {self.group}: score means must be finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"group {self.group}: sigma must be positive and finite")
        # int() would truncate 2.9 to 2 and read true as 1
        for count in (self.n_target, self.n_nontarget):
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"group {self.group}: trial counts must be integers, "
                                 f"got {count!r}")
        if self.n_target < 1 or self.n_nontarget < 1:
            raise ValueError("trial counts must be at least 1")


@dataclass(frozen=True)
class SynthSpec:
    models: tuple[GroupScoreModel, ...]
    seed: int

    def __post_init__(self):
        if not self.models:
            raise ValueError("at least one group model is required")
        # a metadata.csv of speaker ids alone does not load
        if not any(m.group.names for m in self.models):
            raise ValueError("at least one group needs an attribute")
        # a missing attribute is written "", so each group's filled row must be its own
        names = sorted({n for m in self.models for n in m.group.names})
        first: dict[tuple[str, ...], int] = {}
        for i, m in enumerate(self.models):
            row = tuple(dict(zip(m.group.names, m.group.values)).get(n, "") for n in names)
            if (j := first.setdefault(row, i)) != i:
                raise ValueError(f"groups {j} ({self.models[j].group}) and {i} ({m.group}) "
                                 "would write the same metadata row")
        # a float seed would be truncated and SeedSequence rejects negative ones
        seed = self.seed
        if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def analytic_eer(model: GroupScoreModel) -> float:
    """Closed-form EER of the equal-variance two-Gaussian score model."""
    return _norm_cdf(-(model.mu_target - model.mu_nontarget) / (2.0 * model.sigma))


def analytic_rates_at(model: GroupScoreModel, threshold: float) -> tuple[float, float]:
    """Closed-form (fpr, fnr) at a threshold under accept-iff-score>=t."""
    fpr = 1.0 - _norm_cdf((threshold - model.mu_nontarget) / model.sigma)
    fnr = _norm_cdf((threshold - model.mu_target) / model.sigma)
    return fpr, fnr


def draw(spec: SynthSpec) -> tuple[TrialTable, SpeakerTable]:
    """Draw the trial and speaker tables a SynthSpec describes.

    Trials are emitted per group in model order, targets before
    nontargets; speakers in trial order, each trial's enrollment speaker
    before its test speaker. The metadata columns are the sorted union of
    attribute names, and a group without an attribute gets an empty
    value. Output is a pure function of the SynthSpec.
    """
    streams = np.random.SeedSequence(spec.seed).spawn(len(spec.models))
    enroll_ids: list[str] = []
    test_ids: list[str] = []
    speaker_ids: list[str] = []
    targets: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    names = sorted({n for m in spec.models for n in m.group.names})
    levels: dict[str, dict[str, int]] = {n: {} for n in names}  # value -> code, per attribute
    codes: dict[str, list[np.ndarray]] = {n: [] for n in names}
    for gi, (model, stream) in enumerate(zip(spec.models, streams)):
        rng = np.random.default_rng(stream)
        target_scores = rng.normal(model.mu_target, model.sigma, model.n_target)
        nontarget_scores = rng.normal(model.mu_nontarget, model.sigma, model.n_nontarget)
        # finite means and sigma can still overflow: 1e308 + 1e308 * z
        if not (np.isfinite(target_scores).all() and np.isfinite(nontarget_scores).all()):
            raise ValueError(f"group {model.group}: a drawn score is not finite; "
                             "lower the means or sigma")
        n = model.n_target + model.n_nontarget
        # %07d writes what {:07d} writes, without parsing a format spec per trial
        stems = list(map(f"s{gi:03d}-%07d".__mod__, range(n)))
        enroll = [stem + "e" for stem in stems]
        test = [stem + "t" for stem in stems]
        enroll_ids += enroll
        test_ids += test
        speakers = enroll + test
        speakers[::2], speakers[1::2] = enroll, test
        speaker_ids += speakers
        attributes = dict(zip(model.group.names, model.group.values))
        for name, parts in codes.items():
            coder = levels[name]
            code = coder.setdefault(attributes.get(name, ""), len(coder))
            parts.append(np.full(2 * n, code, np.int32))
        targets.append(np.arange(n) < model.n_target)
        scores += [target_scores, nontarget_scores]
    trials = TrialTable(enroll_ids, test_ids, np.concatenate(targets), np.concatenate(scores))
    speakers = SpeakerTable.from_codes(
        speaker_ids,
        {name: np.concatenate(parts) for name, parts in codes.items()},
        {name: list(coder) for name, coder in levels.items()},
    )
    return trials, speakers


def generate(spec: SynthSpec) -> tuple[list[TrialRecord], list[SpeakerMetadata]]:
    """The records of ``draw(spec)``: one per trial and one per speaker.

    Each speaker record's attributes are its group's own attributes,
    without the empty values the metadata table fills in.
    """
    trials, speakers = draw(spec)
    labels = [Label.TARGET if t else Label.NONTARGET for t in trials.is_target.tolist()]
    trial_records = list(
        map(TrialRecord, trials.enroll_ids, trials.test_ids, labels, trials.scores.tolist())
    )
    metadata: list[SpeakerMetadata] = []
    start = 0
    for model in spec.models:
        stop = start + 2 * (model.n_target + model.n_nontarget)
        attributes = dict(zip(model.group.names, model.group.values))
        metadata += [SpeakerMetadata(s, attributes) for s in speakers.speaker_ids[start:stop]]
        start = stop
    return trial_records, metadata


def load_synth_spec(source: Union[str, Path, dict], seed: int | None = None) -> SynthSpec:
    """Build a SynthSpec from a UTF-8 JSON file (a leading BOM is skipped) or a parsed dict.

    Expected shape::

        {"seed": 42,
         "groups": [{"attributes": {"gender": "f"}, "mu_target": 2.0,
                     "mu_nontarget": 0.0, "sigma": 1.0,
                     "n_target": 1000, "n_nontarget": 1000}, ...]}

    ``seed`` overrides the file's seed when given. A missing key raises
    ValueError naming it, and a file that is not UTF-8 one naming its first bad byte.
    """
    if isinstance(source, (str, Path)):
        try:
            payload = json.loads(Path(source).read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise ValueError(not_utf8(exc)) from exc
    else:
        payload = source
    try:
        models = tuple(
            GroupScoreModel(
                group=GroupKey.from_attributes(entry["attributes"]),
                mu_target=float(entry["mu_target"]),
                mu_nontarget=float(entry["mu_nontarget"]),
                sigma=float(entry["sigma"]),
                n_target=entry["n_target"],
                n_nontarget=entry["n_nontarget"],
            )
            for entry in payload["groups"]
        )
        chosen = seed if seed is not None else payload["seed"]
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from None
    return SynthSpec(models=models, seed=chosen)
