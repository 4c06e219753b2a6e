"""The benchmark's workloads: seeded input generation, CLI arguments and output checks.

Every path here is relative to the checkout root, and every workload
keeps its inputs and outputs at fixed paths, because ``report.json``
echoes the input and output paths and its digest must not depend on
where the checkout lives.

Score models are per-group equal-variance normals, so each group's EER
has the closed form ``synth.analytic_eer`` and the audit's EER table can
be checked against it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from biasaudit.synth import (
    GroupScoreModel,
    SynthSpec,
    analytic_eer,
    generate,
    load_synth_spec,
)
from biasaudit.trials import (
    GroupKey,
    Label,
    SpeakerMetadata,
    TrialRecord,
    write_metadata,
    write_trials,
)

WORK_ROOT = Path("perfbench") / "work"
DEFAULT_SEED = 0

# A group's audited EER must lie within this many (approximate, binomial)
# standard errors of the closed form; at 5 a correct program fails about
# once in 1.7 million group checks.
EER_TOLERANCE_SE = 5.0

# Files `biasaudit audit` writes (emit_figures defaults to on).
AUDIT_FILES = (
    "report.json",
    "table_base_metrics.csv",
    "table_bias_measures.csv",
    "table_threshold_decomposition.csv",
    "fig_fdr_grid.csv",
    "fig_nrb_suite.csv",
)
SYNTH_FILES = ("scores.csv", "metadata.csv")

NATIONALITIES = ("australia", "canada", "germany", "india", "uk", "usa")
AGE_BANDS = ("18-29", "30-44", "45-59", "60+")
REGIONS = ("africa", "americas", "asia", "europe", "oceania")
LANGUAGES = ("ar", "en", "es", "fr", "hi", "zh")

INTERSECTIONAL_FPRS = (
    0.001, 0.002, 0.005, 0.01, 0.015, 0.02, 0.025, 0.03,
    0.04, 0.05, 0.06, 0.075, 0.1, 0.15, 0.2,
)
INTERSECTIONAL_ALPHAS = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class Expected:
    """What the generator produced: the models the scores came from and the counts."""

    models: tuple[GroupScoreModel, ...]
    unassigned: int
    n_trials: int
    n_speakers: int

    def to_json(self) -> dict:
        return {
            "groups": [
                {
                    "attributes": dict(zip(m.group.names, m.group.values)),
                    "mu_target": m.mu_target,
                    "mu_nontarget": m.mu_nontarget,
                    "sigma": m.sigma,
                    "n_target": m.n_target,
                    "n_nontarget": m.n_nontarget,
                }
                for m in self.models
            ],
            "unassigned": self.unassigned,
            "n_trials": self.n_trials,
            "n_speakers": self.n_speakers,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Expected":
        models = load_synth_spec({"seed": 0, "groups": payload["groups"]}).models
        return cls(models, payload["unassigned"], payload["n_trials"], payload["n_speakers"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    write: Callable[..., Expected]  # (directory, seed, **size) -> Expected
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    argv: tuple[str, ...]  # after "--out DIR"; input paths are relative to the directory
    full: dict
    smoke: dict

    def directory(self, smoke: bool) -> Path:
        return WORK_ROOT / (f"{self.name}-smoke" if smoke else self.name)


def _voxceleb_models(n_target: np.ndarray, n_nontarget: np.ndarray) -> tuple[GroupScoreModel, ...]:
    models = []
    for g in range(12):
        gender, nationality = ("f", "m")[g // 6], NATIONALITIES[g % 6]
        models.append(
            GroupScoreModel(
                group=GroupKey.from_attributes({"gender": gender, "nationality": nationality}),
                mu_target=3.5 + 0.1 * (g % 6) + 0.2 * (g // 6),
                mu_nontarget=0.0,
                sigma=1.0,
                n_target=int(n_target[g]),
                n_nontarget=int(n_nontarget[g]),
            )
        )
    return tuple(models)


def write_voxceleb(directory: Path, seed: int, n_trials: int, n_speakers: int) -> Expected:
    """A VoxCeleb1-E/H-shaped list: few speakers, many trials, 12 gender x nationality groups.

    A third of the trials are targets (same speaker on both sides), and a
    tenth are cross-group nontargets, which ``both-match`` leaves
    unassigned. Every score comes from the enrolling speaker's group
    model, so the per-group closed-form EER holds.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    n_groups = 12
    speaker_group = rng.permutation(np.arange(n_speakers) % n_groups)
    members = np.argsort(speaker_group, kind="stable")
    group_size = np.bincount(speaker_group, minlength=n_groups)
    offset = np.concatenate([[0], np.cumsum(group_size)[:-1]])
    position = np.empty(n_speakers, dtype=np.int64)
    position[members] = np.arange(n_speakers) - np.repeat(offset, group_size)

    n_cross = n_trials // 10
    n_within = n_trials - n_cross
    enroll = rng.integers(n_speakers, size=n_trials)
    is_target = np.zeros(n_trials, dtype=bool)
    is_target[:n_within] = rng.random(n_within) < 1.0 / 3.0
    g_enroll = speaker_group[enroll]

    # within-group nontargets: another speaker of the enrolling group
    test = enroll.copy()
    within_non = np.flatnonzero(~is_target[:n_within])
    g = g_enroll[within_non]
    j = (rng.random(within_non.size) * (group_size[g] - 1)).astype(np.int64)
    j += j >= position[enroll[within_non]]
    test[within_non] = members[offset[g] + j]
    # cross-group nontargets: redraw until the test speaker's group differs
    cross = np.arange(n_within, n_trials)
    test[cross] = rng.integers(n_speakers, size=n_cross)
    clash = cross[speaker_group[test[cross]] == g_enroll[cross]]
    while clash.size:
        test[clash] = rng.integers(n_speakers, size=clash.size)
        clash = clash[speaker_group[test[clash]] == g_enroll[clash]]

    models = _voxceleb_models(
        np.bincount(g_enroll[:n_within][is_target[:n_within]], minlength=n_groups),
        np.bincount(g_enroll[:n_within][~is_target[:n_within]], minlength=n_groups),
    )
    mu = np.array([[m.mu_nontarget, m.mu_target] for m in models])
    scores = mu[g_enroll, is_target.astype(np.int64)] + rng.standard_normal(n_trials)
    order = rng.permutation(n_trials)

    ids = [f"id{10001 + k}" for k in range(n_speakers)]
    trials = [
        TrialRecord(
            ids[enroll[i]],
            ids[test[i]],
            Label.TARGET if is_target[i] else Label.NONTARGET,
            float(scores[i]),
        )
        for i in order.tolist()
    ]
    attributes = [dict(zip(m.group.names, m.group.values)) for m in models]
    metadata = [SpeakerMetadata(ids[k], attributes[speaker_group[k]]) for k in range(n_speakers)]
    write_trials(trials, directory / "scores.csv")
    write_metadata(metadata, directory / "metadata.csv")
    return Expected(models, unassigned=n_cross, n_trials=n_trials, n_speakers=n_speakers)


def _intersectional_spec(seed: int, per_group: int) -> SynthSpec:
    models = []
    for i, (age, region, language) in enumerate(
        (a, r, lang) for a in AGE_BANDS for r in REGIONS for lang in LANGUAGES
    ):
        models.append(
            GroupScoreModel(
                group=GroupKey.from_attributes(
                    {"age": age, "region": region, "language": language}
                ),
                mu_target=0.8 + 0.07 * (i % 7),
                mu_nontarget=0.0,
                sigma=1.0,
                n_target=per_group,
                n_nontarget=per_group,
            )
        )
    return SynthSpec(models=tuple(models), seed=seed)


def write_intersectional(directory: Path, seed: int, per_group: int) -> Expected:
    """120 small groups over three attributes, generated by ``synth.generate``.

    A tenth of each group's nontargets are re-pointed at a test speaker
    of another group; ``enrollment-only`` still assigns them to the
    enrolling group, whose nontarget model drew their scores.
    """
    spec = _intersectional_spec(seed, per_group)
    trials, metadata = generate(spec)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    size = 2 * per_group
    n_groups = len(spec.models)
    for gi in range(n_groups):
        chosen = rng.choice(per_group, size=per_group // 10, replace=False)
        for k in np.sort(chosen).tolist():
            i = gi * size + per_group + k
            other = (gi + 1 + int(rng.integers(n_groups - 1))) % n_groups
            donor = trials[other * size + int(rng.integers(size))]
            t = trials[i]
            trials[i] = TrialRecord(t.enroll_id, donor.test_id, t.label, t.score)
    write_trials(trials, directory / "scores.csv")
    write_metadata(metadata, directory / "metadata.csv")
    return Expected(spec.models, unassigned=0, n_trials=len(trials), n_speakers=len(metadata))


def write_fixture_spec(directory: Path, seed: int, per_group: int) -> Expected:
    """The JSON spec `biasaudit synth` reads: 5 single-attribute groups."""
    payload = {
        "seed": seed,
        "groups": [
            {"attributes": {"region": region}, "mu_target": 2.0 + 0.25 * i,
             "mu_nontarget": 0.0, "sigma": 1.0,
             "n_target": per_group, "n_nontarget": per_group}
            for i, region in enumerate(REGIONS)
        ],
    }
    (directory / "spec.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    models = load_synth_spec(payload).models
    n_trials = sum(m.n_target + m.n_nontarget for m in models)
    return Expected(models, unassigned=0, n_trials=n_trials, n_speakers=2 * n_trials)


_AUDIT_INPUTS = ("scores.csv", "metadata.csv")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="voxceleb-scale",
            why="24k trials over 1,251 speakers in 12 gender x nationality groups, a tenth "
                "cross-group: parsing, grouping and per-group sweeps dominate, as on VoxCeleb1-E/H",
            write=write_voxceleb,
            inputs=_AUDIT_INPUTS,
            outputs=AUDIT_FILES,
            argv=(
                "audit", "--scores", "scores.csv", "--metadata", "metadata.csv",
                "--groups", "gender,nationality", "--policy", "both-match",
                "--preset", "paper", "--zero-policy", "smooth",
            ),
            full={"n_trials": 24_000, "n_speakers": 1251},
            smoke={"n_trials": 6_000, "n_speakers": 120},
        ),
        Workload(
            name="intersectional-wide",
            why="7.2k trials in 120 small groups over 3 attributes on a 15x11 FPR-by-alpha grid: "
                "per-group calls and report emission dominate; measures, meta and attack do real work",
            write=write_intersectional,
            inputs=_AUDIT_INPUTS,
            outputs=AUDIT_FILES,
            argv=(
                "audit", "--scores", "scores.csv", "--metadata", "metadata.csv",
                "--groups", "age,region,language", "--policy", "enrollment-only",
                "--design-fprs", ",".join(f"{f:g}" for f in INTERSECTIONAL_FPRS),
                "--alphas", ",".join(f"{a:g}" for a in INTERSECTIONAL_ALPHAS),
                "--zero-policy", "smooth",
            ),
            full={"per_group": 30},
            smoke={"per_group": 20},
        ),
        Workload(
            name="synth-fixture",
            why="40k-trial, 5-group fixture generation: the generate-and-write path next to "
                "the audits' read path, with no audit layer",
            write=write_fixture_spec,
            inputs=("spec.json",),
            outputs=SYNTH_FILES,
            argv=("synth", "--spec", "spec.json"),
            full={"per_group": 4_000},
            smoke={"per_group": 500},
        ),
    )
}


def write_inputs(workload: Workload, seed: int, smoke: bool) -> Expected:
    """Write the workload's inputs into its directory and record what they hold."""
    directory = workload.directory(smoke)
    directory.mkdir(parents=True, exist_ok=True)
    expected = workload.write(directory, seed, **(workload.smoke if smoke else workload.full))
    (directory / "expected.json").write_text(json.dumps(expected.to_json()), encoding="utf-8")
    return expected


def load_expected(workload: Workload, smoke: bool) -> Expected:
    path = workload.directory(smoke) / "expected.json"
    return Expected.from_json(json.loads(path.read_text(encoding="utf-8")))


def output_dir(workload: Workload, smoke: bool) -> Path:
    return workload.directory(smoke) / "out"


def cli_args(workload: Workload, smoke: bool) -> list[str]:
    """Arguments for `biasaudit`; the program sees only the generated files."""
    directory = workload.directory(smoke)
    argv = [
        str(directory / a) if a in workload.inputs else a for a in workload.argv
    ]
    return argv + ["--out", str(output_dir(workload, smoke))]


def _digests(directory: Path, names: tuple[str, ...]) -> dict[str, str]:
    digests = {}
    for name in names:
        with open(directory / name, "rb") as fh:
            digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def digest_outputs(workload: Workload, smoke: bool) -> dict[str, str]:
    """SHA-256 of every file the operation emits, by file name."""
    return _digests(output_dir(workload, smoke), workload.outputs)


def digest_inputs(workload: Workload, smoke: bool) -> dict[str, str]:
    """SHA-256 of every file the program under test reads, by file name."""
    return _digests(workload.directory(smoke), workload.inputs)


def emitted_bytes(workload: Workload, smoke: bool) -> int:
    out = output_dir(workload, smoke)
    return sum((out / name).stat().st_size for name in workload.outputs)


def _eer_se(model: GroupScoreModel) -> float:
    p = analytic_eer(model)
    return math.sqrt(p * (1.0 - p) * (1.0 / model.n_target + 1.0 / model.n_nontarget))


def check_outputs(workload: Workload, smoke: bool, expected: Expected) -> list[str]:
    """Compare the emitted files with what the generator produced; return the failures."""
    if workload.outputs == SYNTH_FILES:
        return _check_synth(workload, smoke, expected)
    out = output_dir(workload, smoke)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = []
    want = {
        m.group.label(): (m.n_target, m.n_nontarget) for m in expected.models
    }
    got = {g["group"]: (g["n_target"], g["n_nontarget"]) for g in report["groups"]}
    if got != want:
        problems.append("group counts differ from the generated counts")
    if report["unassigned_trials"] != expected.unassigned:
        problems.append(
            f"unassigned {report['unassigned_trials']} != generated {expected.unassigned}"
        )
    pooled = (report["pooled"]["n_target"], report["pooled"]["n_nontarget"])
    if sum(pooled) != expected.n_trials:
        problems.append(f"pooled counts {pooled} do not sum to {expected.n_trials}")
    eer_rows = next(m for m in report["base_metrics"] if m["metric"] == "eer")["per_group"]
    eers = {row["group"]: row["fraction"] for row in eer_rows}
    for model in expected.models:
        label = model.group.label()
        bound = EER_TOLERANCE_SE * _eer_se(model)
        if abs(eers.get(label, math.inf) - analytic_eer(model)) > bound:
            problems.append(
                f"{label}: EER {eers.get(label)} is more than {EER_TOLERANCE_SE:g} SE "
                f"from the closed form {analytic_eer(model):.6f}"
            )
    return problems


def _check_synth(workload: Workload, smoke: bool, expected: Expected) -> list[str]:
    """Row counts, group counts and per-group score means of the written fixture."""
    out = output_dir(workload, smoke)
    problems = []
    with open(out / "metadata.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        group_of = {row[0]: tuple(row[1:]) for row in reader}
    if len(group_of) != expected.n_speakers:
        problems.append(f"{len(group_of)} speakers written, expected {expected.n_speakers}")
    scores: dict[tuple, tuple[list, list]] = {}
    with open(out / "scores.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for enroll_id, _test_id, label, score in reader:
            tar, non = scores.setdefault(group_of.get(enroll_id), ([], []))
            (tar if label == "target" else non).append(float(score))
    names = header[1:]
    for model in expected.models:
        key = tuple(dict(zip(model.group.names, model.group.values))[n] for n in names)
        tar, non = scores.pop(key, ([], []))
        if (len(tar), len(non)) != (model.n_target, model.n_nontarget):
            problems.append(f"{model.group}: counts {(len(tar), len(non))} differ")
            continue
        for values, mu in ((tar, model.mu_target), (non, model.mu_nontarget)):
            se = model.sigma / math.sqrt(len(values))
            if abs(float(np.mean(values)) - mu) > EER_TOLERANCE_SE * se:
                problems.append(
                    f"{model.group}: score mean is more than {EER_TOLERANCE_SE:g} SE from {mu}"
                )
    if scores:
        problems.append(f"trials from unexpected groups: {sorted(map(str, scores))}")
    return problems
