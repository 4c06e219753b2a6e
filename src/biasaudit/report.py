"""Audit pipeline orchestration and deterministic report emission.

``run_audit`` executes load -> group -> base metrics -> bias measures ->
FDR grid -> NRB -> attack exposure and returns a ``BiasReport``; every
stage after ``base_metrics`` reads that one result, as arrays indexed
like it.
``emit`` writes ``report.json`` plus CSV mirrors of each table/figure.
Identical inputs and config produce byte-identical files. Rates are
serialized both as fractions (machine field) and percent (display
field); costs, log ratios, and meta-measures are plain fractions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, cycle, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .attack import exposure
from .config import AuditConfig, config_as_dict
from .detection import BaseMetrics, DesignPoint, MetricKey, base_metrics
from .errors import DataError, DegenerateGroupError
from .measures import BiasMeasures, bias_measures
from .meta import FdrGrid, fdr_grid, nrb
from .trials import (
    GroupedTrials,
    GroupKey,
    assign_groups,
    load_metadata,
    load_trials,
    write_csv,
)

SCHEMA_VERSION = 1

REPORT_JSON = "report.json"
TABLE_BASE_METRICS = "table_base_metrics.csv"
TABLE_BIAS_MEASURES = "table_bias_measures.csv"
TABLE_DECOMPOSITION = "table_threshold_decomposition.csv"
FIG_FDR_GRID = "fig_fdr_grid.csv"
FIG_NRB_SUITE = "fig_nrb_suite.csv"


@dataclass
class BiasReport:
    """Full audit result; every table the emitter writes derives from it.

    ``fdr_grid`` rows follow ``base.design_points``, ``nrb`` holds one
    value per ``base.keys`` row, and ``exposure`` is the ``(3 x design
    points x groups)`` array of ``attack.exposure`` over the fpr rows.
    """

    config: AuditConfig
    warnings: list[str]
    base: BaseMetrics
    measures: BiasMeasures
    fdr_grid: FdrGrid
    nrb: np.ndarray
    exposure: np.ndarray


def _drop_degenerate(grouped: GroupedTrials, strict: bool) -> tuple[GroupedTrials, list[str]]:
    """Move the rows of groups lacking targets or nontargets out of the group map.

    Their trials still count toward every pooled statistic (they join
    the unassigned rows), they just get no per-group metrics. Under
    strict mode a degenerate group is an error instead. When no group is
    left, the error counts the unassigned trials and degenerate groups.
    """
    warnings: list[str] = []
    kept: dict[GroupKey, np.ndarray] = {}
    displaced = [grouped.unassigned]
    for key, rows in grouped.groups.items():
        n_target = np.count_nonzero(grouped.trials.is_target[rows])
        if 0 < n_target < len(rows):
            kept[key] = rows
            continue
        if strict:
            raise DegenerateGroupError(key)
        side = "target" if n_target == 0 else "nontarget"
        warnings.append(
            f"group {key} has no {side} trials; excluded from per-group metrics "
            f"({len(rows)} trials kept in pooled statistics)"
        )
        displaced.append(rows)
    if not kept:
        n_trials, n_unassigned = len(grouped.trials), len(grouped.unassigned)
        share = "all" if n_unassigned == n_trials else f"{n_unassigned} of"
        groups = "group is" if len(displaced) == 2 else "groups are"
        message = (
            f"no group has both target and nontarget trials: {share} {n_trials} trials "
            f"are unassigned and {len(displaced) - 1} {groups} degenerate"
        )
        if not grouped.groups:
            message += (
                "; check that the scores file's enroll_id and test_id values are speaker_id "
                "values in the metadata (and, under --policy both-match, that both speakers "
                "of a trial share the grouping values)"
            )
        raise DataError(message)
    return GroupedTrials(grouped.trials, kept, np.sort(np.concatenate(displaced))), warnings


def _empty_value_warnings(grouped: GroupedTrials) -> list[str]:
    """One warning per group whose key holds an empty attribute value."""
    return [
        f"group {key} has an empty {name} value ({len(rows)} trials); "
        "check the metadata for missing values"
        for key, rows in grouped.groups.items()
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


def _zero_valued(log_ratios: np.ndarray) -> list[int]:
    """Columns of a log-ratio row whose group value is zero (+inf under zero-policy 'infinity')."""
    return np.flatnonzero(np.isinf(log_ratios)).tolist()


def run_audit(config: AuditConfig) -> BiasReport:
    """Run the full audit pipeline described by ``config``."""
    trials = _load(load_trials, config.scores_path, "scores")
    metadata = _load(load_metadata, config.metadata_path, "metadata")
    for table, path, empty in ((trials, config.scores_path, "holds no trials"),
                               (metadata, config.metadata_path, "lists no speakers")):
        if not len(table):
            raise DataError(f"in {path}: the file {empty}")
    grouped = assign_groups(trials, metadata, config.group_attributes, config.policy)
    warnings = _empty_value_warnings(grouped)
    grouped, degenerate = _drop_degenerate(grouped, strict=config.strict)
    warnings += degenerate
    if len(grouped.unassigned):
        warnings.append(
            f"{len(grouped.unassigned)} trials are unassigned; they count toward "
            "pooled metrics only"
        )

    base = base_metrics(grouped, config.design_fprs, config.dcf)
    measures = bias_measures(base, config.zero_policy, config.average_mode)
    for key, log_ratios in zip(base.keys, measures.g2avg_log_ratio):
        zero_valued = _zero_valued(log_ratios)
        if zero_valued:
            warnings.append(
                f"nrb({key.name}) is infinite; zero-valued groups: "
                + ", ".join(str(base.groups[j]) for j in zero_valued)
            )
    fprs = base.values[2::2]
    for key, row in zip(base.keys[2::2], fprs):
        if (row == 0.0).any():
            warnings.append(
                f"{key.name}: zero-FPR groups have unbounded expected attack time; "
                "flagged in the exposure table"
            )

    return BiasReport(
        config=config,
        warnings=warnings,
        base=base,
        measures=measures,
        fdr_grid=fdr_grid(base, config.alphas),
        nrb=nrb(measures.g2avg_log_ratio),
        exposure=exposure(fprs, config.attempts_per_hour, config.target_probability),
    )


def json_float(value: float) -> float | str:
    """A float as report.json holds it: non-finite values become strings.

    Only the fields that can hold a non-finite value go through here:
    thresholds (the +inf sentinel), log ratios and NRB (+inf under
    zero-policy 'infinity') and the attack times of zero-FPR groups;
    ``scenario --json`` writes its floats the same way. Both serialize
    with ``allow_nan=False``, so a missed field fails loudly instead of
    writing non-standard JSON.
    """
    if math.isfinite(value):
        return value
    return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")


def _json_floats(row) -> list[float | str]:
    """A float array row as report.json holds it; see ``json_float``."""
    return [json_float(v) for v in row.tolist()]


def _metric_entry(key: MetricKey, value: float) -> dict[str, Any]:
    if key.is_rate:  # error rates get a percent display field alongside the fraction
        return {"unit": "fraction", "fraction": value, "percent": value * 100.0}
    return {"unit": "fraction", "fraction": value}


def report_to_dict(report: BiasReport) -> dict[str, Any]:
    """JSON-ready view of the report (schema documented in the README).

    Every per-group section reads one row of the report's arrays, whose
    columns follow the sorted group index. The FDR grid is listed by
    ascending design FPR, and each attack block worst-exposed group first.
    """
    base, measures, grid = report.base, report.measures, report.fdr_grid
    labels = [key.label() for key in base.groups]
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
            "threshold": json_float(point.threshold),
            "pooled_fpr": base.aggregates[i].item(),
            "pooled_fnr": base.aggregates[i + 1].item(),  # the fnr row follows the fpr row
            "rows": [
                {"group": label, "fpr": fpr, "g2min_diff": diff, "g2avg_log_ratio": log_ratio}
                for label, fpr, diff, log_ratio in zip(labels, *columns)
            ],
        }

    def attack_block(point: DesignPoint, fprs, times) -> dict[str, Any]:
        # stable over the sorted group index: ties keep group order, zero FPRs come last
        order = np.argsort(-fprs, kind="stable").tolist()
        fprs = fprs.tolist()
        attempts, hours, to_target = map(_json_floats, times)
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
                "zero_value_groups": [labels[j] for j in _zero_valued(log_ratios)],
            }
            for key, value, log_ratios in zip(
                base.keys, report.nrb.tolist(), measures.g2avg_log_ratio
            )
        ],
        "attack_scenarios": [
            attack_block(*block)
            for block in zip(base.design_points, base.values[2::2], report.exposure.swapaxes(0, 1))
        ],
    }


class _Texts(dict):
    """(type, value) -> the value's text under ``form``, computed once per distinct key.

    One table lives for one output. The key holds the type because equal
    values of different types can print differently (1, 1.0 and True; 30
    and 30.0), and a value ``form`` rejects (``Fraction(1, 2)`` next to an
    equal 0.5) must still be rejected. A float zero is never stored:
    0.0 == -0.0.
    """

    __slots__ = ("_form",)

    def __init__(self, form: Callable[[Any], str]) -> None:
        super().__init__()
        self._form = form

    def __missing__(self, key: tuple[type, Any]) -> str:
        value = key[1]
        text = self._form(value)
        if not (isinstance(value, float) and value == 0.0):
            self[key] = text
        return text

    def of(self, values: Sequence[Any]) -> list[str]:
        """The text of each value, in order."""
        return list(map(self.__getitem__, zip(map(type, values), values)))


def _fmt(value: float) -> str:
    """A CSV number: the shortest round-trip decimal form; deterministic.

    Payload values go through ``float`` first, so the JSON-safe strings
    "Infinity", "-Infinity" and "NaN" print as inf, -inf and nan.
    """
    return repr(float(value))


class _CsvFile(NamedTuple):
    """One CSV mirror of the report: a row-for-row projection of a payload section."""

    name: str
    header: tuple[str, ...]
    rows: Callable[[dict[str, Any]], Iterable[tuple[Any, ...]]]
    numbers: tuple[int, ...]  # the columns written by ``_fmt``; the rest are str
    figure: bool = False  # written only under ``emit_figures``


_CSV_FILES = (
    _CsvFile(
        TABLE_BASE_METRICS, ("metric", "group", "value_fraction", "value_percent"),
        lambda p: (
            (m["metric"], r["group"], r["fraction"], r.get("percent", ""))
            for m in p["base_metrics"]
            for r in [*m["per_group"], {"group": "pooled", **m["aggregate"]}]
        ),
        numbers=(2, 3),
    ),
    _CsvFile(
        TABLE_BIAS_MEASURES, ("measure", "metric", "group", "value", "reference"),
        lambda p: (
            (b["measure"], b["metric"], r["group"], r["value"], b["reference"])
            for b in p["bias_measures"] for r in b["per_group"]
        ),
        numbers=(3,),
    ),
    _CsvFile(
        TABLE_DECOMPOSITION,
        ("design_fpr", "threshold", "group", "fpr", "g2min_diff", "g2avg_log_ratio"),
        lambda p: (
            (d["design_fpr"], d["threshold"], r["group"], r["fpr"], r["g2min_diff"],
             r["g2avg_log_ratio"])
            for d in p["threshold_decomposition"] for r in d["rows"]
        ),
        numbers=(0, 1, 3, 4, 5),
    ),
    _CsvFile(
        FIG_FDR_GRID, ("design_fpr", "alpha", "fdr"),
        lambda p: ((r["design_fpr"], r["alpha"], r["fdr"]) for r in p["fdr_grid"]),
        numbers=(0, 1, 2),
        figure=True,
    ),
    _CsvFile(
        FIG_NRB_SUITE, ("metric_name", "nrb"),
        lambda p: ((r["metric"], r["nrb"]) for r in p["nrb_suite"]),
        numbers=(1,),
        figure=True,
    ),
)


# Item separator "\x00": ensure_ascii writes every control character inside a
# string as an escape, so a raw "\x00" in its output only ever separates items.
_SCALARS = json.JSONEncoder(separators=("\x00", ": "), allow_nan=False)
_CONTAINERS = (list, tuple, dict)


def _json_text(value) -> str:
    """A scalar's text in ``json.dumps(..., allow_nan=False)``; raises as it does."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    return _SCALARS.encode(value)


def _keys(mapping, indent: str) -> list[str]:
    """The openings of a non-empty dict's items: '{' or ',', a newline and '"key": '."""
    items = _SCALARS.encode(dict.fromkeys(mapping, 0))[1:-1].split("\x00")
    names = [indent + item[:-1] for item in items]
    return ["{" + names[0], *("," + name for name in names[1:])]


def _table(rows) -> list[Any] | None:
    """The cells, row by row, of dicts that share one non-empty order of str keys."""
    if not all(map(isinstance, rows, repeat(dict))):
        return None
    keys = tuple(rows[0])  # equal non-str keys can encode differently: 1 == True
    if not keys or not all(map(isinstance, keys, repeat(str))):
        return None
    if not all(map(keys.__eq__, map(tuple, rows))):
        return None
    return list(chain.from_iterable(map(dict.values, rows)))


def _indented(obj, out: list[str], texts: _Texts, level: int = 0) -> None:
    """Append to ``out`` the chunks of ``json.dumps(obj, indent=2, allow_nan=False)``.

    Python walks only the containers. When every value of a dict, a list or a
    table (``_table``) is a scalar, each is joined to the opening that
    precedes it, its text read from ``texts``.
    """
    if not isinstance(obj, _CONTAINERS) or not obj:
        out.append(_SCALARS.encode(obj))
        return
    close = "\n" + "  " * level
    inner = close + "  "
    depth = level + 1
    if isinstance(obj, dict):
        openings, values, end = _keys(obj, inner), list(obj.values()), close + "}"
    elif (cells := _table(obj)) is not None:
        row = _keys(obj[0], inner + "  ")
        # a row's first key also closes the row before it
        later = islice(cycle([inner + "}," + inner + row[0], *row[1:]]), 1, None)
        openings = chain(["[" + inner + row[0]], later)
        values, end, depth = cells, inner + "}" + close + "]", level + 2
    else:
        openings, values, end = chain(["[" + inner], repeat("," + inner)), obj, close + "]"
    if not any(map(isinstance, values, repeat(_CONTAINERS))):
        out.extend(chain.from_iterable(zip(openings, texts.of(values))))
    else:
        for opening, value in zip(openings, values):
            out.append(opening)
            _indented(value, out, texts, depth)
    out.append(end)


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, each distinct scalar encoded once."""
    chunks: list[str] = []
    _indented(obj, chunks, _Texts(_json_text))
    return "".join(chunks)


def emit(report: BiasReport, output_dir: Union[str, Path]) -> list[Path]:
    """Write report.json and the CSV projections of its payload; return their paths.

    The figure CSVs (fig_*.csv) are written only under ``emit_figures``.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = report_to_dict(report)
    report_path = out / REPORT_JSON
    report_path.write_text(_dumps(payload) + "\n", encoding="utf-8")
    written = [report_path]
    texts = _Texts(_fmt)
    texts[str, ""] = ""  # the pooled row of a metric that is no rate has no percent
    for table in _CSV_FILES:
        if table.figure and not report.config.emit_figures:
            continue
        columns = list(zip(*table.rows(payload)))
        for i in table.numbers:
            columns[i] = texts.of(columns[i])
        path = out / table.name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, table.header, columns)
        written.append(path)
    return written
