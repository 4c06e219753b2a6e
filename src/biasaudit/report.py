"""Audit pipeline orchestration and deterministic report emission.

``run_audit`` executes load -> group -> base metrics -> bias measures ->
FDR grid -> NRB suite -> attack exposure and returns a ``BiasReport``;
every stage after ``base_metrics`` reads that one result.
``emit`` writes ``report.json`` plus CSV mirrors of each table/figure.
Identical inputs and config produce byte-identical files. Rates are
serialized both as fractions (machine field) and percent (display
field); costs, log ratios, and meta-measures are plain fractions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Union

from .attack import GroupExposure, compare_group_exposure
from .config import AuditConfig, config_as_dict
from .detection import DesignPoint, GroupMetricVector, base_metrics
from .errors import DataError, DegenerateGroupError
from .measures import (
    MEASURE_NAMES,
    BiasVector,
    compute_measure,
    g2avg_log_ratio,
    g2min_diff,
)
from .meta import FdrResult, NrbResult, fdr_grid, nrb_suite
from .trials import (
    GroupedTrials,
    GroupKey,
    Label,
    assign_groups,
    load_metadata,
    load_trials,
)

SCHEMA_VERSION = 1

REPORT_JSON = "report.json"
TABLE_BASE_METRICS = "table_base_metrics.csv"
TABLE_BIAS_MEASURES = "table_bias_measures.csv"
TABLE_DECOMPOSITION = "table_threshold_decomposition.csv"
FIG_FDR_GRID = "fig_fdr_grid.csv"
FIG_NRB_SUITE = "fig_nrb_suite.csv"

# rate-valued metrics get a percent display field alongside the fraction
_RATE_METRICS_PREFIXES = ("eer", "fpr@", "fnr@")


@dataclass(frozen=True)
class ThresholdDecomposition:
    """Per-group FPR with its difference and log-ratio bias measures at one design FPR."""

    point: DesignPoint
    diff: BiasVector
    log_ratio: BiasVector


@dataclass(frozen=True)
class ExposureBlock:
    """Per-group attack exposure at one design point, worst-exposed group first."""

    point: DesignPoint
    entries: tuple[GroupExposure, ...]


@dataclass
class BiasReport:
    """Full audit result; every table the emitter writes lives here."""

    config: AuditConfig
    warnings: list[str]
    group_sizes: dict[GroupKey, tuple[int, int]]
    unassigned_count: int
    pooled_counts: tuple[int, int]
    base_metrics: list[GroupMetricVector]
    bias_vectors: list[BiasVector]
    decomposition: list[ThresholdDecomposition]
    fdr_grid: list[FdrResult]
    nrb_suite: list[NrbResult]
    exposures: list[ExposureBlock]


def _drop_degenerate(grouped: GroupedTrials, strict: bool) -> tuple[GroupedTrials, list[str]]:
    """Move groups lacking targets or nontargets out of the group map.

    Their trials still count toward every pooled statistic (they join
    the unassigned bucket), they just get no per-group metrics. Under
    strict mode a degenerate group is an error instead.
    """
    warnings: list[str] = []
    kept: dict[GroupKey, list] = {}
    displaced: list = []
    for key, trials in grouped.groups.items():
        n_target = sum(1 for t in trials if t.label is Label.TARGET)
        if 0 < n_target < len(trials):
            kept[key] = trials
            continue
        if strict:
            raise DegenerateGroupError(key)
        side = "target" if n_target == 0 else "nontarget"
        warnings.append(
            f"group {key} has no {side} trials; excluded from per-group metrics "
            f"({len(trials)} trials kept in pooled statistics)"
        )
        displaced.extend(trials)
    if not kept:
        raise DataError("no group has both target and nontarget trials")
    return replace(grouped, groups=kept, unassigned=grouped.unassigned + displaced), warnings


def _load(loader: Callable[[str], list], path: str, what: str) -> list:
    """Run one CSV loader, naming the file in any error it raises."""
    try:
        return loader(path)
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"in {path}: {exc}") from exc


def run_audit(config: AuditConfig) -> BiasReport:
    """Run the full audit pipeline described by ``config``."""
    trials = _load(load_trials, config.scores_path, "scores")
    metadata = _load(load_metadata, config.metadata_path, "metadata")
    grouped = assign_groups(trials, metadata, config.group_attributes, config.policy)
    grouped, warnings = _drop_degenerate(grouped, strict=config.strict)
    if grouped.unassigned:
        warnings.append(
            f"{len(grouped.unassigned)} trials are unassigned; they count toward "
            "pooled metrics only"
        )

    base = base_metrics(grouped, config.design_fprs, config.dcf)
    bias_vectors = [
        compute_measure(measure, vector, config.zero_policy, config.average_mode)
        for vector in base.vectors()
        for measure in MEASURE_NAMES
    ]
    decomposition = [
        ThresholdDecomposition(
            point=point,
            diff=g2min_diff(point.fpr),
            log_ratio=g2avg_log_ratio(point.fpr, config.zero_policy, config.average_mode),
        )
        for point in base.design_points
    ]
    grid = fdr_grid(base, config.alphas)

    suite = nrb_suite(base, config.zero_policy, config.average_mode)
    for result in suite:
        if result.zero_value_groups:
            warnings.append(
                f"nrb({result.metric_name}) is infinite; zero-valued groups: "
                + ", ".join(str(g) for g in result.zero_value_groups)
            )

    exposures = []
    for point in base.design_points:
        entries = compare_group_exposure(
            point.fpr,
            attempts_per_hour=config.attempts_per_hour,
            target_probability=config.target_probability,
        )
        if any(e.zero_fpr for e in entries):
            warnings.append(
                f"fpr@{point.design_fpr:g}: zero-FPR groups have unbounded expected attack "
                "time; flagged in the exposure table"
            )
        exposures.append(ExposureBlock(point=point, entries=tuple(entries)))

    return BiasReport(
        config=config,
        warnings=warnings,
        group_sizes=base.group_sizes,
        unassigned_count=len(grouped.unassigned),
        pooled_counts=base.pooled_counts,
        base_metrics=base.vectors(),
        bias_vectors=bias_vectors,
        decomposition=decomposition,
        fdr_grid=grid,
        nrb_suite=suite,
        exposures=exposures,
    )


def _json_safe(value: Any) -> Any:
    """Replace non-finite floats with strings so report.json stays strict JSON."""
    if isinstance(value, float):
        if math.isfinite(value):  # the common case, tested first
            return value
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _metric_entry(name: str, value: float) -> dict[str, Any]:
    if name.startswith(_RATE_METRICS_PREFIXES):
        return {"unit": "fraction", "fraction": value, "percent": value * 100.0}
    return {"unit": "fraction", "fraction": value}


def report_to_dict(report: BiasReport) -> dict[str, Any]:
    """JSON-ready view of the report (schema documented in the README).

    Groups are sorted and labelled once, from ``report.group_sizes``;
    every per-group vector covers exactly those keys.
    """
    sizes = report.group_sizes
    labels = {key: key.label() for key in sorted(sizes)}
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "config": config_as_dict(report.config),
        "warnings": list(report.warnings),
        "groups": [
            {"group": label, "n_target": sizes[key][0], "n_nontarget": sizes[key][1]}
            for key, label in labels.items()
        ],
        "unassigned_trials": report.unassigned_count,
        "pooled": {
            "n_target": report.pooled_counts[0],
            "n_nontarget": report.pooled_counts[1],
        },
        "base_metrics": [
            {
                "metric": v.metric_name,
                "aggregate": _metric_entry(v.metric_name, v.aggregate),
                "per_group": [
                    {"group": label, **_metric_entry(v.metric_name, v.per_group[key])}
                    for key, label in labels.items()
                ],
            }
            for v in report.base_metrics
        ],
        "bias_measures": [
            {
                "measure": b.measure_name,
                "metric": b.metric_name,
                "reference": b.reference,
                "per_group": [
                    {"group": label, "value": b.per_group[key]}
                    for key, label in labels.items()
                ],
            }
            for b in report.bias_vectors
        ],
        "threshold_decomposition": [
            {
                "design_fpr": d.point.design_fpr,
                "threshold": d.point.operating_point.threshold,
                "pooled_fpr": d.point.operating_point.fpr,
                "pooled_fnr": d.point.operating_point.fnr,
                "rows": [
                    {
                        "group": label,
                        "fpr": d.point.fpr.per_group[key],
                        "g2min_diff": d.diff.per_group[key],
                        "g2avg_log_ratio": d.log_ratio.per_group[key],
                    }
                    for key, label in labels.items()
                ],
            }
            for d in report.decomposition
        ],
        "fdr_grid": [
            {
                "design_fpr": r.design_fpr,
                "alpha": r.alpha,
                "threshold": r.threshold,
                "max_delta_fpr": r.max_delta_fpr,
                "max_delta_fnr": r.max_delta_fnr,
                "fdr": r.fdr,
            }
            for r in report.fdr_grid
        ],
        "nrb_suite": [
            {
                "metric": r.metric_name,
                "group_count": r.group_count,
                "nrb": r.nrb,
                "per_group_log_ratios": [
                    {"group": label, "value": r.per_group_log_ratios[key]}
                    for key, label in labels.items()
                ],
                "zero_value_groups": [labels[g] for g in r.zero_value_groups],
            }
            for r in report.nrb_suite
        ],
        "attack_scenarios": [
            {
                "design_fpr": block.point.design_fpr,
                "threshold": block.point.operating_point.threshold,
                "attempts_per_hour": report.config.attempts_per_hour,
                "target_probability": report.config.target_probability,
                "rows": [
                    {
                        "group": labels[e.group],
                        "fpr": e.fpr,
                        "expected_attempts": e.expected_attempts,
                        "expected_hours": e.expected_hours,
                        "hours_to_target_probability": e.hours_to_probability,
                        "zero_fpr": e.zero_fpr,
                    }
                    for e in block.entries
                ],
            }
            for block in report.exposures
        ],
    }
    return _json_safe(payload)


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form; deterministic.

    Payload values go through ``float`` first, so the JSON-safe strings
    "Infinity", "-Infinity" and "NaN" print as inf, -inf and nan.
    """
    return repr(float(value))


class _CsvFile(NamedTuple):
    """One CSV mirror of the report: a row-for-row projection of a payload section."""

    name: str
    header: tuple[str, ...]
    rows: Callable[[dict[str, Any]], Iterable[list[Any]]]
    figure: bool = False  # written only under ``emit_figures``


_CSV_FILES = (
    _CsvFile(
        TABLE_BASE_METRICS, ("metric", "group", "value_fraction", "value_percent"),
        lambda p: (
            [m["metric"], r["group"], _fmt(r["fraction"]),
             _fmt(r["percent"]) if "percent" in r else ""]
            for m in p["base_metrics"]
            for r in [*m["per_group"], {"group": "pooled", **m["aggregate"]}]
        ),
    ),
    _CsvFile(
        TABLE_BIAS_MEASURES, ("measure", "metric", "group", "value", "reference"),
        lambda p: (
            [b["measure"], b["metric"], r["group"], _fmt(r["value"]), b["reference"]]
            for b in p["bias_measures"] for r in b["per_group"]
        ),
    ),
    _CsvFile(
        TABLE_DECOMPOSITION,
        ("design_fpr", "threshold", "group", "fpr", "g2min_diff", "g2avg_log_ratio"),
        lambda p: (
            [_fmt(d["design_fpr"]), _fmt(d["threshold"]), r["group"], _fmt(r["fpr"]),
             _fmt(r["g2min_diff"]), _fmt(r["g2avg_log_ratio"])]
            for d in p["threshold_decomposition"] for r in d["rows"]
        ),
    ),
    _CsvFile(
        FIG_FDR_GRID, ("design_fpr", "alpha", "fdr"),
        lambda p: (
            [_fmt(r["design_fpr"]), _fmt(r["alpha"]), _fmt(r["fdr"])] for r in p["fdr_grid"]
        ),
        figure=True,
    ),
    _CsvFile(
        FIG_NRB_SUITE, ("metric_name", "nrb"),
        lambda p: ([r["metric"], _fmt(r["nrb"])] for r in p["nrb_suite"]),
        figure=True,
    ),
)


def emit(report: BiasReport, output_dir: Union[str, Path]) -> list[Path]:
    """Write report.json and the CSV projections of its payload; return their paths.

    The figure CSVs (fig_*.csv) are written only under ``emit_figures``.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = report_to_dict(report)
    report_path = out / REPORT_JSON
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    report_path.write_text(text, encoding="utf-8")
    written = [report_path]
    for table in _CSV_FILES:
        if table.figure and not report.config.emit_figures:
            continue
        path = out / table.name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.header)
            writer.writerows(table.rows(payload))
        written.append(path)
    return written
