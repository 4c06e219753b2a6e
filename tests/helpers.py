"""Shared fixture builders for the test suite."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence, Union

import numpy as np

from biasaudit import (
    AttackScenario,
    AuditConfig,
    BadLabelError,
    BaseMetrics,
    BiasReport,
    DataError,
    DcfParams,
    DegenerateGroupError,
    DesignPoint,
    DuplicateSpeakerError,
    EmptyFileError,
    EmptyPopulationError,
    GroupedTrials,
    GroupKey,
    Label,
    MetricKey,
    MissingHeaderError,
    NonFiniteScoreError,
    OperatingPoint,
    SpeakerMetadata,
    SpeakerTable,
    SweepCurve,
    SynthSpec,
    TrialRecord,
    TrialTable,
    attempts_for_probability,
    bias_measures,
    expected_time_to_success,
    exposure,
    fdr_grid,
    load_metadata,
    load_trials,
    nrb,
    write_metadata,
    write_trials,
)
from biasaudit.config import config_as_dict
from biasaudit.report import (
    FIG_FDR_GRID,
    FIG_NRB_SUITE,
    REPORT_JSON,
    SCHEMA_VERSION,
    TABLE_BASE_METRICS,
    TABLE_BIAS_MEASURES,
    TABLE_DECOMPOSITION,
    json_float,
)
from biasaudit.trials import _LABELS, METADATA_ID_COLUMN, TRIAL_HEADER, Source, write_csv


def gk(**attributes: str) -> GroupKey:
    return GroupKey.from_attributes(attributes)


def grouped_from_scores(
    groups: dict[GroupKey, tuple[list, list]],
    unassigned: tuple[list, list] = ((), ()),
) -> GroupedTrials:
    """A GroupedTrials over a table of per-group score lists, each group one range of rows.

    The table holds each group's targets then its nontargets, groups in
    sorted key order, and the unassigned trials last.
    """
    keys = sorted(groups)
    populations = [groups[key] for key in keys] + [unassigned]
    is_target = [t for tar, non in populations for t in [True] * len(tar) + [False] * len(non)]
    scores = [float(v) for tar, non in populations for v in (*tar, *non)]
    ids = [""] * len(scores)
    table = TrialTable(ids, ids, np.array(is_target, dtype=bool), np.array(scores, dtype=float))
    bounds = np.cumsum([0] + [len(tar) + len(non) for tar, non in populations]).tolist()
    rows = [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return GroupedTrials(table, dict(zip(keys, rows)), rows[-1])


def one_metric(
    per_group: dict[GroupKey, float],
    aggregate: float,
    key: MetricKey = MetricKey("eer"),
    counts: dict[GroupKey, tuple[int, int]] | None = None,
    pooled_counts: tuple[int, int] = (0, 0),
) -> BaseMetrics:
    """A one-row BaseMetrics built from per-group values keyed by GroupKey.

    ``counts`` maps each group to the (errors, population) behind an
    fpr/fnr rate and ``pooled_counts`` gives the pooled pair.
    """
    groups = tuple(sorted(per_group))
    errors = np.zeros((1, len(groups) + 1), dtype=np.int64)
    sizes = np.zeros((2, len(groups) + 1), dtype=np.int64)
    if counts is not None:
        pairs = [counts[g] for g in groups] + [pooled_counts]
        errors[0] = [e for e, _ in pairs]
        sizes[1 if key.kind == "fpr" else 0] = [n for _, n in pairs]
    return BaseMetrics(
        groups=groups,
        keys=(key,),
        values=np.array([[per_group[g] for g in groups]], dtype=float),
        aggregates=np.array([aggregate], dtype=float),
        errors=errors,
        sizes=sizes,
    )


def rate_metrics(
    fprs: dict[GroupKey, Sequence[float]],
    fnrs: dict[GroupKey, Sequence[float]] | None = None,
    design_fprs: Sequence[float] = (0.01,),
) -> BaseMetrics:
    """A BaseMetrics whose fpr/fnr rows hold the given per-group rates.

    ``fprs[g][k]`` is group g's FPR at ``design_fprs[k]`` (descending, as
    ``base_metrics`` orders them); ``fnrs`` defaults to 0.5 everywhere.
    EER, minCDet and every aggregate are 0.5, and design point k has
    threshold k.
    """
    groups = tuple(sorted(fprs))
    n = len(design_fprs)
    fnrs = fnrs if fnrs is not None else {g: [0.5] * n for g in groups}
    keys = (MetricKey("eer"), MetricKey("min_cdet"))
    keys += tuple(MetricKey(kind, d) for d in design_fprs for kind in ("fpr", "fnr"))
    values = np.full((len(keys), len(groups)), 0.5)
    values[2::2] = np.array([fprs[g] for g in groups], dtype=float).T
    values[3::2] = np.array([fnrs[g] for g in groups], dtype=float).T
    return BaseMetrics(
        groups=groups,
        keys=keys,
        values=values,
        aggregates=np.full(len(keys), 0.5),
        errors=np.zeros((len(keys), len(groups) + 1), dtype=np.int64),
        sizes=np.zeros((2, len(groups) + 1), dtype=np.int64),
        design_points=tuple(map(DesignPoint, design_fprs, map(float, range(n)))),
    )


def permute_rows(base: BaseMetrics, order: Sequence[int]) -> BaseMetrics:
    """The same table with its rows in ``order``: row i is row ``order[i]`` of ``base``."""
    order = list(order)
    return dataclasses.replace(
        base,
        keys=tuple(base.keys[i] for i in order),
        values=base.values[order],
        aggregates=base.aggregates[order],
        errors=base.errors[order],
    )


def fpr_rows(base: BaseMetrics) -> np.ndarray:
    """Each design point's fpr row, found by its MetricKey; a test reference."""
    return base.values[[base.row(MetricKey("fpr", p.design_fpr)) for p in base.design_points]]


def report_of(
    base: BaseMetrics,
    alphas: Sequence[float] = (0.0, 0.5, 1.0),
    attempts_per_hour: float = 60.0,
    target_probability: float = 0.5,
    zero_policy: str = "infinity",
) -> BiasReport:
    """The BiasReport that run_audit builds from ``base`` (by default zero-policy 'infinity')."""
    config = AuditConfig(
        scores_path="scores.csv",
        metadata_path="metadata.csv",
        group_attributes=("g",),
        design_fprs=tuple(p.design_fpr for p in base.design_points),
        alphas=tuple(alphas),
        zero_policy=zero_policy,
        attempts_per_hour=attempts_per_hour,
        target_probability=target_probability,
    )
    measures = bias_measures(base, zero_policy=zero_policy)
    return BiasReport(
        config=config,
        warnings=[],
        base=base,
        measures=measures,
        fdr_grid=fdr_grid(base, alphas),
        nrb=nrb(measures.g2avg_log_ratio),
        exposure=exposure(fpr_rows(base), attempts_per_hour, target_probability),
    )


def reference_fdr(fprs: Sequence[float], fnrs: Sequence[float], alpha: float) -> float:
    """FDR of one cell in Python floats, the scalar form; a test reference."""
    fprs, fnrs = [float(v) for v in fprs], [float(v) for v in fnrs]
    return 1.0 - (alpha * (max(fprs) - min(fprs)) + (1.0 - alpha) * (max(fnrs) - min(fnrs)))


def reference_nrb(log_ratios: Sequence[float]) -> float:
    """NRB of one row, summed left to right in Python floats; a test reference."""
    return sum(abs(float(v)) for v in log_ratios) / len(log_ratios)


def reference_exposure(
    groups: Sequence[GroupKey],
    fprs: Sequence[float],
    attempts_per_hour: float = 60.0,
    target_probability: float = 0.5,
) -> list[tuple[GroupKey, float, float, float, float, bool]]:
    """(group, fpr, attempts, hours, hours to target, zero fpr) per group, worst first.

    One scalar evaluation per group, sorted by (-fpr, group); a test reference.
    """
    rows = []
    for key, fpr in zip(groups, fprs, strict=True):
        if fpr <= 0.0:
            rows.append((key, fpr, math.inf, math.inf, math.inf, True))
            continue
        scenario = AttackScenario(fpr, attempts_per_hour)
        attempts, hours = expected_time_to_success(scenario)
        n_q = attempts_for_probability(scenario, target_probability)
        rows.append((key, fpr, attempts, hours, n_q / attempts_per_hour, False))
    rows.sort(key=lambda r: (-r[1], r[0].names, r[0].values))
    return rows


def by_group(groups: Sequence[GroupKey], row: np.ndarray) -> dict[GroupKey, float]:
    """One row of a (metrics x groups) array, keyed by GroupKey."""
    return dict(zip(groups, row.tolist(), strict=True))


def rates_at_threshold(
    target_scores: Sequence[float],
    nontarget_scores: Sequence[float],
    threshold: float,
) -> tuple[float, float]:
    """(fpr, fnr) at one threshold under the accept-iff-score>=t rule; a test reference."""
    tar = np.asarray(target_scores, dtype=float)
    non = np.asarray(nontarget_scores, dtype=float)
    fpr = float(np.count_nonzero(non >= threshold)) / non.size if non.size else math.nan
    fnr = float(np.count_nonzero(tar < threshold)) / tar.size if tar.size else math.nan
    return fpr, fnr


def reference_sweep(target_scores: Sequence[float], nontarget_scores: Sequence[float]) -> SweepCurve:
    """``compute_sweep`` of one population by ``np.unique`` and two ``searchsorted``; a reference."""
    tar = np.asarray(target_scores, dtype=float)
    non = np.asarray(nontarget_scores, dtype=float)
    if tar.size == 0:
        raise EmptyPopulationError("target")
    if non.size == 0:
        raise EmptyPopulationError("nontarget")
    if not (np.isfinite(tar).all() and np.isfinite(non).all()):
        raise ValueError("scores must be finite")

    # + 0.0 turns a -0.0 into 0.0: np.unique keeps whichever zero sorts first
    taus = np.append(np.unique(np.concatenate([tar, non])) + 0.0, np.inf)
    misses = np.searchsorted(np.sort(tar), taus, side="left")
    false_accepts = non.size - np.searchsorted(np.sort(non), taus, side="left")
    fpr, fnr = false_accepts / non.size, misses / tar.size
    for arr in (taus, false_accepts, misses, fpr, fnr):
        arr.flags.writeable = False
    return SweepCurve(taus, false_accepts, misses, fpr, fnr, int(tar.size), int(non.size))


def reference_eer(curve: SweepCurve) -> tuple[float, float]:
    """``eer`` of one curve by one ``searchsorted`` and scalar interpolation; a reference."""
    diff = curve.fnr - curve.fpr
    idx = int(np.searchsorted(diff, 0.0, side="left"))
    if diff[idx] == 0.0:
        return float(curve.fpr[idx]), float(curve.thresholds[idx])
    lo, hi = idx - 1, idx
    t = -diff[lo] / (diff[hi] - diff[lo])
    value = float(curve.fpr[lo] + t * (curve.fpr[hi] - curve.fpr[lo]))
    tau_hi = curve.thresholds[hi]
    if math.isinf(tau_hi):
        threshold = float(curve.thresholds[lo])
    else:
        threshold = float(curve.thresholds[lo] + t * (tau_hi - curve.thresholds[lo]))
    return value, threshold


def reference_min_cdet(curve: SweepCurve, params: DcfParams = DcfParams()) -> tuple[float, float]:
    """``min_cdet`` of one curve by ``np.argmin``; a reference."""
    cost = (
        params.c_miss * params.p_target * curve.fnr
        + params.c_fa * (1.0 - params.p_target) * curve.fpr
    )
    i = int(np.argmin(cost))  # first occurrence: ties break to the smallest threshold
    value = float(cost[i])
    if params.normalize:
        value /= min(params.c_miss * params.p_target, params.c_fa * (1.0 - params.p_target))
    return value, float(curve.thresholds[i])


def reference_threshold_for_fpr(curve: SweepCurve, target_fpr: float) -> OperatingPoint:
    """``threshold_for_fpr`` by a scan for the first grid FPR within the target; a reference."""
    if not (0.0 < target_fpr <= 1.0):
        raise ValueError("target_fpr must lie in (0, 1]")
    i = int(np.argmax(curve.fpr <= target_fpr))  # fpr nonincreasing: first True
    return OperatingPoint(
        threshold=float(curve.thresholds[i]),
        fpr=float(curve.fpr[i]),
        fnr=float(curve.fnr[i]),
    )


def reference_base_metrics(
    grouped: GroupedTrials,
    design_fprs: Sequence[float],
    dcf: DcfParams = DcfParams(),
) -> BaseMetrics:
    """``base_metrics`` by one reference sweep per population, each group in key order."""
    groups = tuple(sorted(grouped.groups))
    pooled_curve = reference_sweep(*grouped.scores())
    designs = sorted(design_fprs, reverse=True)
    thresholds = [reference_threshold_for_fpr(pooled_curve, d).threshold for d in designs]
    keys = [MetricKey("eer"), MetricKey("min_cdet")]
    keys += [MetricKey(kind, d) for d in designs for kind in ("fpr", "fnr")]

    # one column per group and the pooled population last; fpr and fnr rows alternate
    values = np.zeros((len(keys), len(groups) + 1))
    errors = np.zeros_like(values, dtype=np.int64)
    sizes = np.zeros((2, len(groups) + 1), dtype=np.int64)
    for j, key in enumerate(groups + (None,)):  # each group, then the pooled population
        try:
            curve = reference_sweep(*grouped.scores(grouped.groups[key])) if key else pooled_curve
        except EmptyPopulationError as exc:  # a group without targets or nontargets
            raise DegenerateGroupError(key) from exc
        at = np.searchsorted(curve.thresholds, thresholds, side="left")
        errors[2::2, j], errors[3::2, j] = curve.false_accepts[at], curve.misses[at]
        sizes[:, j] = curve.n_target, curve.n_nontarget
        values[:2, j] = reference_eer(curve)[0], reference_min_cdet(curve, dcf)[0]
    values[2::2] = errors[2::2] / sizes[1]
    values[3::2] = errors[3::2] / sizes[0]
    return BaseMetrics(
        groups=groups,
        keys=tuple(keys),
        values=values[:, :-1],
        aggregates=values[:, -1],
        errors=errors,
        sizes=sizes,
        design_points=tuple(map(DesignPoint, designs, thresholds)),
    )


def split_scores(trials: Iterable[TrialRecord]) -> tuple[np.ndarray, np.ndarray]:
    """(target_scores, nontarget_scores) of a record list; the record-level reference."""
    tar, non = [], []
    for t in trials:
        (tar if t.label is Label.TARGET else non).append(t.score)
    return np.asarray(tar, dtype=float), np.asarray(non, dtype=float)


def trial_table(records: Iterable[TrialRecord]) -> TrialTable:
    """A TrialTable of records, round-tripped through write_trials and load_trials.

    write_trials writes each score's repr, so the round trip is exact.
    """
    buffer = io.StringIO()
    write_trials(records, buffer)
    return load_trials(io.StringIO(buffer.getvalue()))


def speaker_table(records: Iterable[SpeakerMetadata]) -> SpeakerTable:
    """A SpeakerTable of records, round-tripped through write_metadata and load_metadata."""
    buffer = io.StringIO()
    write_metadata(records, buffer)
    return load_metadata(io.StringIO(buffer.getvalue()))


def trial_records(table: TrialTable) -> list[TrialRecord]:
    """The rows of a TrialTable as records, for comparing against record lists."""
    labels = [Label.TARGET if t else Label.NONTARGET for t in table.is_target.tolist()]
    return list(map(TrialRecord, table.enroll_ids, table.test_ids, labels, table.scores.tolist()))


def speaker_records(table: SpeakerTable) -> list[SpeakerMetadata]:
    """The rows of a SpeakerTable as records, for comparing against record lists."""
    columns = table.columns  # derived on each access
    return [
        SpeakerMetadata(speaker_id, dict(zip(columns, values)))
        for speaker_id, values in zip(table.speaker_ids, zip(*columns.values()))
    ]


@contextmanager
def reference_csv_rows(source: Source) -> Iterator[Iterator[list[str]]]:
    """``csv.reader`` over a source decoded line by line; a test reference for the loaders.

    A path is opened binary and bytes are read as a ``BytesIO``; any other
    source is read by ``read()`` calls until one gives nothing, each that
    gives ``str`` encoded as UTF-8 (a lone surrogate as bytes that do not
    decode). The bytes are split at each LF, CRLF and CR, as ``newline=""``
    splits text, and every line is decoded alone, the first as
    ``utf-8-sig``. A byte that is not UTF-8, or a row the csv module cannot
    parse, raises the loaders' DataError.
    """
    with ExitStack() as stack:
        if isinstance(source, (str, Path)):
            source = stack.enter_context(open(source, "rb"))
        elif isinstance(source, bytes):
            source = io.BytesIO(source)
        data = b""
        while piece := source.read():
            data += piece.encode("utf-8", "surrogatepass") if isinstance(piece, str) else piece
        reader = csv.reader(  # bytes.splitlines splits at these three line ends only
            line.decode("utf-8" if k else "utf-8-sig")
            for k, line in enumerate(data.splitlines(keepends=True))
        )
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise DataError(
                f"not UTF-8 text: cannot decode byte {exc.object[exc.start]:#04x}; "
                "save the file as UTF-8"
            ) from exc
        except csv.Error as exc:
            raise DataError(f"row {reader.line_num}: malformed CSV: {exc}") from exc


def reference_load_metadata(source: Source) -> list[SpeakerMetadata]:
    """The record-level metadata loader that checks each row as it is read; a test reference."""
    with reference_csv_rows(source) as reader:
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
            records.append(SpeakerMetadata(speaker_id, dict(zip(attr_names, row[1:]))))
        return records


def reference_assign_groups(
    trials: TrialTable,
    speakers: Iterable[SpeakerMetadata],
    attribute_names: Sequence[str],
    both_match: bool,
) -> tuple[dict[GroupKey, list[int]], list[int]]:
    """(each group's rows in sorted key order, the unassigned rows) by dicts of value tuples.

    A speaker's tuple holds its values of the lowercased ``attribute_names``,
    in their order; a test reference for ``assign_groups``.
    """
    names = [n.strip().lower() for n in attribute_names]
    values_of = {s.speaker_id: tuple(s.attributes[n] for n in names) for s in speakers}
    groups: dict[tuple[str, ...], list[int]] = {}
    unassigned: list[int] = []
    for row, (enroll, test) in enumerate(zip(trials.enroll_ids, trials.test_ids)):
        values = values_of.get(enroll)
        if values is None or (both_match and values_of.get(test) != values):
            unassigned.append(row)
        else:
            groups.setdefault(values, []).append(row)
    keyed = {GroupKey.from_attributes(dict(zip(names, v))): rows for v, rows in groups.items()}
    return dict(sorted(keyed.items())), unassigned


def reference_load_trials(source: Source) -> list[TrialRecord]:
    """The record-level trial loader that checks each row as it is read; a test reference."""
    with reference_csv_rows(source) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError("scores file is empty") from None
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


def reference_generate(spec: SynthSpec) -> tuple[list[TrialRecord], list[SpeakerMetadata]]:
    """The record-level generator that builds one record per trial and speaker; a test reference."""
    streams = np.random.SeedSequence(spec.seed).spawn(len(spec.models))
    trials: list[TrialRecord] = []
    metadata: list[SpeakerMetadata] = []
    for gi, (model, stream) in enumerate(zip(spec.models, streams)):
        rng = np.random.default_rng(stream)
        target_scores = rng.normal(model.mu_target, model.sigma, model.n_target)
        nontarget_scores = rng.normal(model.mu_nontarget, model.sigma, model.n_nontarget)
        if not (np.isfinite(target_scores).all() and np.isfinite(nontarget_scores).all()):
            raise ValueError(f"group {model.group}: a drawn score is not finite; "
                             "lower the means or sigma")
        attributes = dict(zip(model.group.names, model.group.values))
        for k, (label, score) in enumerate(
            [(Label.TARGET, s) for s in target_scores]
            + [(Label.NONTARGET, s) for s in nontarget_scores]
        ):
            enroll_id = f"s{gi:03d}-{k:07d}e"
            test_id = f"s{gi:03d}-{k:07d}t"
            trials.append(TrialRecord(enroll_id, test_id, label, float(score)))
            metadata.append(SpeakerMetadata(enroll_id, attributes))
            metadata.append(SpeakerMetadata(test_id, attributes))
    return trials, metadata


def reference_write_trials(trials: Iterable[TrialRecord], dest: Union[str, Path, IO[str]]) -> None:
    """The record-level scores writer, one row per record; a test reference."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            reference_write_trials(trials, fh)
        return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(TRIAL_HEADER)
    for t in trials:
        writer.writerow([t.enroll_id, t.test_id, t.label.value, repr(t.score)])


def reference_write_metadata(
    records: Iterable[SpeakerMetadata], dest: Union[str, Path, IO[str]]
) -> None:
    """The record-level metadata writer, one row per record; a test reference."""
    records = list(records)
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            reference_write_metadata(records, fh)
        return
    names = sorted({n for r in records for n in r.attributes})
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow([METADATA_ID_COLUMN, *names])
    for r in records:
        writer.writerow([r.speaker_id, *(r.attributes.get(n, "") for n in names)])


def _reference_floats(row) -> list[float | str]:
    return [json_float(v) for v in row.tolist()]


def _reference_metric_entry(key: MetricKey, value: float) -> dict[str, Any]:
    if key.is_rate:  # error rates get a percent display field alongside the fraction
        return {"unit": "fraction", "fraction": value, "percent": value * 100.0}
    return {"unit": "fraction", "fraction": value}


def reference_report_to_dict(report: BiasReport) -> dict[str, Any]:
    """The report's JSON payload, built as nested dicts of Python values; a test reference.

    Non-finite floats of the fields that can hold them are json_float strings;
    any other non-finite value is left in place for json.dumps to reject.
    """
    base, measures, grid = report.base, report.measures, report.fdr_grid
    labels = [key.label() for key in base.groups]
    n_target, n_nontarget = base.sizes.tolist()

    def per_group(row) -> list[dict[str, Any]]:
        return [{"group": label, "value": v} for label, v in zip(labels, _reference_floats(row))]

    def zero_valued(row) -> list[str]:
        return [label for label, v in zip(labels, row.tolist()) if math.isinf(v)]

    def decomposition(point: DesignPoint) -> dict[str, Any]:
        i, j = (base.row(MetricKey(kind, point.design_fpr)) for kind in ("fpr", "fnr"))
        columns = (
            base.values[i].tolist(),
            measures.g2min_diff[i].tolist(),
            _reference_floats(measures.g2avg_log_ratio[i]),
        )
        return {
            "design_fpr": point.design_fpr,
            "threshold": json_float(point.threshold),
            "pooled_fpr": base.aggregates[i].item(),
            "pooled_fnr": base.aggregates[j].item(),
            "rows": [
                {"group": label, "fpr": fpr, "g2min_diff": diff, "g2avg_log_ratio": log_ratio}
                for label, fpr, diff, log_ratio in zip(labels, *columns)
            ],
        }

    def attack_block(point: DesignPoint, fprs, times) -> dict[str, Any]:
        order = sorted(range(len(labels)), key=lambda j: -fprs[j])  # stable: ties keep group order
        fprs = fprs.tolist()
        attempts, hours, to_target = map(_reference_floats, times)
        return {
            "design_fpr": point.design_fpr,
            "threshold": json_float(point.threshold),
            "attempts_per_hour": report.config.attempts_per_hour,
            "target_probability": report.config.target_probability,
            "rows": [
                {
                    "group": labels[j],
                    "fpr": fprs[j],
                    "expected_attempts": attempts[j],
                    "expected_hours": hours[j],
                    "hours_to_target_probability": to_target[j],
                    "zero_fpr": fprs[j] == 0.0,
                }
                for j in order
            ],
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_as_dict(report.config),
        "warnings": list(report.warnings),
        "groups": [
            {"group": label, "n_target": t, "n_nontarget": n}
            for label, t, n in zip(labels, n_target, n_nontarget)
        ],
        "unassigned_trials": int(base.sizes[:, -1].sum() - base.sizes[:, :-1].sum()),
        "pooled": {"n_target": n_target[-1], "n_nontarget": n_nontarget[-1]},
        "base_metrics": [
            {
                "metric": key.name,
                "aggregate": _reference_metric_entry(key, aggregate),
                "per_group": [
                    {"group": label, **_reference_metric_entry(key, v)}
                    for label, v in zip(labels, row)
                ],
            }
            for key, row, aggregate in zip(
                base.keys, base.values.tolist(), base.aggregates.tolist()
            )
        ],
        "bias_measures": [
            {"measure": measure, "metric": key.name, "reference": reference,
             "per_group": per_group(values)}
            for i, key in enumerate(base.keys)
            for measure, reference, values in measures.row(i)
        ],
        "threshold_decomposition": [decomposition(point) for point in base.design_points],
        "fdr_grid": [
            {
                "design_fpr": point.design_fpr,
                "alpha": alpha,
                "threshold": json_float(point.threshold),
                "max_delta_fpr": max_delta_fpr,
                "max_delta_fnr": max_delta_fnr,
                "fdr": value,
            }
            for point, max_delta_fpr, max_delta_fnr, values in reversed(list(zip(
                base.design_points,
                grid.max_delta_fpr.tolist(),
                grid.max_delta_fnr.tolist(),
                grid.fdr.tolist(),
            )))
            for alpha, value in zip(grid.alphas, values)
        ],
        "nrb_suite": [
            {
                "metric": key.name,
                "group_count": len(labels),
                "nrb": json_float(value),
                "per_group_log_ratios": per_group(log_ratios),
                "zero_value_groups": zero_valued(log_ratios),
            }
            for key, value, log_ratios in zip(
                base.keys, report.nrb.tolist(), measures.g2avg_log_ratio
            )
        ],
        "attack_scenarios": [
            attack_block(*block)
            for block in zip(base.design_points, fpr_rows(base), report.exposure.swapaxes(0, 1))
        ],
    }


# (file, header, rows of the payload, the columns holding numbers, figure only)
_REFERENCE_CSV = (
    (
        TABLE_BASE_METRICS, ("metric", "group", "value_fraction", "value_percent"),
        lambda p: (
            (m["metric"], r["group"], r["fraction"], r.get("percent", ""))
            for m in p["base_metrics"]
            for r in [*m["per_group"], {"group": "pooled", **m["aggregate"]}]
        ),
        (2, 3), False,
    ),
    (
        TABLE_BIAS_MEASURES, ("measure", "metric", "group", "value", "reference"),
        lambda p: (
            (b["measure"], b["metric"], r["group"], r["value"], b["reference"])
            for b in p["bias_measures"] for r in b["per_group"]
        ),
        (3,), False,
    ),
    (
        TABLE_DECOMPOSITION,
        ("design_fpr", "threshold", "group", "fpr", "g2min_diff", "g2avg_log_ratio"),
        lambda p: (
            (d["design_fpr"], d["threshold"], r["group"], r["fpr"], r["g2min_diff"],
             r["g2avg_log_ratio"])
            for d in p["threshold_decomposition"] for r in d["rows"]
        ),
        (0, 1, 3, 4, 5), False,
    ),
    (
        FIG_FDR_GRID, ("design_fpr", "alpha", "fdr"),
        lambda p: ((r["design_fpr"], r["alpha"], r["fdr"]) for r in p["fdr_grid"]),
        (0, 1, 2), True,
    ),
    (
        FIG_NRB_SUITE, ("metric_name", "nrb"),
        lambda p: ((r["metric"], r["nrb"]) for r in p["nrb_suite"]),
        (1,), True,
    ),
)


def reference_emit(report: BiasReport, output_dir: Union[str, Path]) -> list[Path]:
    """report.json as json.dumps(indent=2, allow_nan=False) of the reference payload, and
    each CSV mirror projected row for row from that payload, every number written as
    ``repr(float(v))`` (so "Infinity" becomes inf); a test reference."""
    payload = reference_report_to_dict(report)
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / REPORT_JSON
    report_path.write_text(text, encoding="utf-8")
    written = [report_path]
    for name, header, rows, numbers, figure in _REFERENCE_CSV:
        if figure and not report.config.emit_figures:
            continue
        columns = [list(column) for column in zip(*rows(payload))]
        for i in numbers:
            columns[i] = [v if v == "" else repr(float(v)) for v in columns[i]]
        path = out / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, columns)
        written.append(path)
    return written
