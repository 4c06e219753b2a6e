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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Union

from .attack import GroupExposure, compare_group_exposure
from .config import AuditConfig, config_as_dict
from .detection import BaseMetrics, DesignPoint, MetricKey, base_metrics
from .errors import DataError, DegenerateGroupError
from .measures import BiasMeasures, bias_measures
from .meta import FdrResult, NrbResult, fdr_grid, nrb_suite
from .trials import (
    GroupedTrials,
    GroupKey,
    Scores,
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


@dataclass(frozen=True)
class ExposureBlock:
    """Per-group attack exposure at one design point, worst-exposed group first."""

    point: DesignPoint
    entries: tuple[GroupExposure, ...]


@dataclass
class BiasReport:
    """Full audit result; every table the emitter writes derives from it."""

    config: AuditConfig
    warnings: list[str]
    unassigned_count: int
    base: BaseMetrics
    measures: BiasMeasures
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
    kept: dict[GroupKey, Scores] = {}
    displaced = [grouped.unassigned]
    for key, scores in grouped.groups.items():
        if scores.target.size and scores.nontarget.size:
            kept[key] = scores
            continue
        if strict:
            raise DegenerateGroupError(key)
        side = "target" if scores.target.size == 0 else "nontarget"
        warnings.append(
            f"group {key} has no {side} trials; excluded from per-group metrics "
            f"({len(scores)} trials kept in pooled statistics)"
        )
        displaced.append(scores)
    if not kept:
        raise DataError("no group has both target and nontarget trials")
    return GroupedTrials(groups=kept, unassigned=Scores.concatenate(displaced)), warnings


def _empty_value_warnings(grouped: GroupedTrials) -> list[str]:
    """One warning per group whose key holds an empty attribute value."""
    return [
        f"group {key} has an empty {name} value ({len(scores)} trials); "
        "check the metadata for missing values"
        for key, scores in grouped.groups.items()
        for name, value in zip(key.names, key.values)
        if not value
    ]


def _load(loader: Callable[[str], Any], path: str, what: str) -> Any:
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
    warnings = _empty_value_warnings(grouped)
    grouped, degenerate = _drop_degenerate(grouped, strict=config.strict)
    warnings += degenerate
    if grouped.unassigned:
        warnings.append(
            f"{len(grouped.unassigned)} trials are unassigned; they count toward "
            "pooled metrics only"
        )

    base = base_metrics(grouped, config.design_fprs, config.dcf)
    measures = bias_measures(base, config.zero_policy, config.average_mode)
    grid = fdr_grid(base, config.alphas)

    suite = nrb_suite(base, measures)
    for result in suite:
        if result.zero_value_groups:
            warnings.append(
                f"nrb({result.key.name}) is infinite; zero-valued groups: "
                + ", ".join(str(g) for g in result.zero_value_groups)
            )

    exposures = []
    for point in base.design_points:
        key = MetricKey("fpr", point.design_fpr)
        entries = compare_group_exposure(
            base.groups,
            base.values[base.row(key)].tolist(),
            attempts_per_hour=config.attempts_per_hour,
            target_probability=config.target_probability,
        )
        if any(e.zero_fpr for e in entries):
            warnings.append(
                f"{key.name}: zero-FPR groups have unbounded expected attack time; "
                "flagged in the exposure table"
            )
        exposures.append(ExposureBlock(point=point, entries=tuple(entries)))

    return BiasReport(
        config=config,
        warnings=warnings,
        unassigned_count=len(grouped.unassigned),
        base=base,
        measures=measures,
        fdr_grid=grid,
        nrb_suite=suite,
        exposures=exposures,
    )


def _json_float(value: float) -> float | str:
    """A float as report.json holds it: non-finite values become strings.

    Only the fields that can hold a non-finite value go through here:
    thresholds (the +inf sentinel), log ratios and NRB (+inf under
    zero-policy 'infinity') and the attack times of zero-FPR groups.
    ``emit`` serializes with ``allow_nan=False``, so a missed field fails
    loudly instead of writing non-standard JSON.
    """
    if math.isfinite(value):
        return value
    return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")


def _json_floats(row) -> list[float | str]:
    """A float array row as report.json holds it; see ``_json_float``."""
    return [_json_float(v) for v in row.tolist()]


def _metric_entry(key: MetricKey, value: float) -> dict[str, Any]:
    if key.is_rate:  # error rates get a percent display field alongside the fraction
        return {"unit": "fraction", "fraction": value, "percent": value * 100.0}
    return {"unit": "fraction", "fraction": value}


def report_to_dict(report: BiasReport) -> dict[str, Any]:
    """JSON-ready view of the report (schema documented in the README).

    Every per-group section reads one row of the ``BaseMetrics`` or
    ``BiasMeasures`` arrays, whose columns follow the sorted group index.
    """
    base, measures = report.base, report.measures
    labels = [key.label() for key in base.groups]
    label_of = dict(zip(base.groups, labels))
    n_target, n_nontarget = base.sizes.tolist()

    def per_group(row) -> list[dict[str, Any]]:
        return [{"group": label, "value": v} for label, v in zip(labels, _json_floats(row))]

    def decomposition(point: DesignPoint) -> dict[str, Any]:
        i = base.row(MetricKey("fpr", point.design_fpr))
        columns = (
            base.values[i].tolist(),
            measures.g2min_diff[i].tolist(),
            _json_floats(measures.g2avg_log_ratio[i]),
        )
        return {
            "design_fpr": point.design_fpr,
            "threshold": _json_float(point.operating_point.threshold),
            "pooled_fpr": point.operating_point.fpr,
            "pooled_fnr": point.operating_point.fnr,
            "rows": [
                {"group": label, "fpr": fpr, "g2min_diff": diff, "g2avg_log_ratio": log_ratio}
                for label, fpr, diff, log_ratio in zip(labels, *columns)
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
        "unassigned_trials": report.unassigned_count,
        "pooled": {"n_target": n_target[-1], "n_nontarget": n_nontarget[-1]},
        "base_metrics": [
            {
                "metric": key.name,
                "aggregate": _metric_entry(key, aggregate),
                "per_group": [
                    {"group": label, **_metric_entry(key, v)} for label, v in zip(labels, row)
                ],
            }
            for key, row, aggregate in zip(
                base.keys, base.values.tolist(), base.aggregates.tolist()
            )
        ],
        "bias_measures": [
            {
                "measure": measure,
                "metric": key.name,
                "reference": reference,
                "per_group": per_group(values),
            }
            for i, key in enumerate(base.keys)
            for measure, reference, values in measures.row(i)
        ],
        "threshold_decomposition": [decomposition(point) for point in base.design_points],
        "fdr_grid": [
            {
                "design_fpr": r.design_fpr,
                "alpha": r.alpha,
                "threshold": _json_float(r.threshold),
                "max_delta_fpr": r.max_delta_fpr,
                "max_delta_fnr": r.max_delta_fnr,
                "fdr": r.fdr,
            }
            for r in report.fdr_grid
        ],
        "nrb_suite": [
            {
                "metric": r.key.name,
                "group_count": r.group_count,
                "nrb": _json_float(r.nrb),
                "per_group_log_ratios": per_group(log_ratios),
                "zero_value_groups": [label_of[g] for g in r.zero_value_groups],
            }
            for r, log_ratios in zip(report.nrb_suite, measures.g2avg_log_ratio)
        ],
        "attack_scenarios": [
            {
                "design_fpr": block.point.design_fpr,
                "threshold": _json_float(block.point.operating_point.threshold),
                "attempts_per_hour": report.config.attempts_per_hour,
                "target_probability": report.config.target_probability,
                "rows": [
                    {
                        "group": label_of[e.group],
                        "fpr": e.fpr,
                        "expected_attempts": _json_float(e.expected_attempts),
                        "expected_hours": _json_float(e.expected_hours),
                        "hours_to_target_probability": _json_float(e.hours_to_probability),
                        "zero_fpr": e.zero_fpr,
                    }
                    for e in block.entries
                ],
            }
            for block in report.exposures
        ],
    }


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
