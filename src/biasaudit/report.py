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
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, Union

import numpy as np

from .attack import exposure
from .config import AuditConfig, config_as_dict
from .detection import BaseMetrics, base_metrics
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


def _kept_groups(grouped: GroupedTrials, strict: bool) -> tuple[GroupedTrials, list[str]]:
    """One pass in key order: check each label, warn on empty values, drop degenerate groups.

    Tables name a group by its label alone, so a shared label raises at once. A group
    lacking targets or nontargets moves, with a warning, to the unassigned rows, which count
    toward pooled statistics only; under strict mode it raises once every label is checked.
    With no group left, the error counts the unassigned trials and degenerate groups.
    """
    labels: dict[str, GroupKey] = {}
    empty: list[str] = []
    kept: dict[GroupKey, np.ndarray] = {}
    degenerate: dict[GroupKey, str] = {}  # key -> its warning
    for key, rows in grouped.groups.items():
        if (other := labels.setdefault(key.label(), key)) != key:
            raise DataError(f"groups {other.values} and {key.values} share the label "
                            f"{key.label()!r}; change the values that hold ',' and '='")
        empty += [f"group {key} has an empty {name} value ({len(rows)} trials); check the "
                  "metadata for missing values" for name, value in zip(key.names, key.values)
                  if not value]
        n_target = np.count_nonzero(grouped.trials.is_target[rows])
        if 0 < n_target < len(rows):
            kept[key] = rows
        else:
            side = "target" if n_target == 0 else "nontarget"
            degenerate[key] = (f"group {key} has no {side} trials; excluded from per-group "
                               f"metrics ({len(rows)} trials kept in pooled statistics)")
    if strict and degenerate:
        raise DegenerateGroupError(next(iter(degenerate)))
    if not kept:
        n_trials, n_unassigned = len(grouped.trials), len(grouped.unassigned)
        share = "all" if n_unassigned == n_trials else f"{n_unassigned} of"
        groups = "group is" if len(degenerate) == 1 else "groups are"
        message = (
            f"no group has both target and nontarget trials: {share} {n_trials} trials "
            f"are unassigned and {len(degenerate)} {groups} degenerate"
        )
        if not grouped.groups:
            message += (
                "; check that the scores file's enroll_id and test_id values are speaker_id "
                "values in the metadata (and, under --policy both-match, that both speakers "
                "of a trial share the grouping values)"
            )
        raise DataError(message)
    displaced = (grouped.groups[key] for key in degenerate)
    unassigned = np.sort(np.concatenate([grouped.unassigned, *displaced]))
    warnings = empty + list(degenerate.values())
    if len(unassigned):
        warnings.append(f"{len(unassigned)} trials are unassigned; they count toward "
                        "pooled metrics only")
    return GroupedTrials(grouped.trials, kept, unassigned), warnings


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
    grouped, warnings = _kept_groups(grouped, config.strict)

    base = base_metrics(grouped, config.design_fprs, config.dcf)
    measures = bias_measures(base, config.zero_policy, config.average_mode)
    for key, log_ratios in zip(base.keys, measures.g2avg_log_ratio):
        zero_valued = _zero_valued(log_ratios)
        if zero_valued:
            warnings.append(
                f"nrb({key.name}) is infinite; zero-valued groups: "
                + ", ".join(str(base.groups[j]) for j in zero_valued)
            )
    fprs = base.values[base.design_rows("fpr")]
    for key, row in zip(base.keys, base.values):
        if key.kind == "fpr" and (row == 0.0).any():
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


def _finite(value: float) -> str:
    """A float's JSON text; a non-finite one raises ValueError, as ``allow_nan=False`` does."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _json_number(value: float) -> str:
    """The JSON text of a field that goes through ``json_float``."""
    return float.__repr__(value) if math.isfinite(value) else f'"{json_float(value)}"'


# the CSV mirrors write a non-finite value as repr does
_CSV_TEXT = {'"Infinity"': "inf", '"-Infinity"': "-inf", '"NaN"': "nan"}


def _texts(values, form: Callable[[float], str]) -> np.ndarray:
    """The JSON and the CSV text of every cell of a float array, as a ``(2,) + shape`` array.

    ``form`` gives a value's JSON text and runs once per distinct float64
    bit pattern, so 0.0 and -0.0 stay apart. A CSV cell holds the same
    text, but a non-finite value is written inf, -inf or nan.
    """
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    json_texts = list(map(form, bits.view(np.float64).tolist()))
    table = np.array([json_texts, [_CSV_TEXT.get(t, t) for t in json_texts]], dtype=object)
    return table[:, inverse.reshape(values.shape)]


def _object(fields: dict[str, str], level: int) -> str:
    """A dict whose values have the texts ``fields`` holds, as ``json.dumps(indent=2)``
    writes it at depth ``level``; a ``%s`` value makes the result a %-template."""
    pad = "\n" + "  " * (level + 1)
    items = ",".join(f'{pad}"{key}": {text}' for key, text in fields.items())
    return "{" + items + "\n" + "  " * level + "}"


def _slots(*keys: str) -> dict[str, str]:
    return dict.fromkeys(keys, "%s")


def _array(items: Sequence[str], level: int) -> str:
    """The JSON list of the texts ``items`` at depth ``level``."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def _nested(value: Any, level: int) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` as it reads at depth ``level``.

    A newline inside a string is written as an escape, so every newline
    of the text starts an indented line.
    """
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + "  " * level)


def _cells(*columns: Iterable[str]) -> tuple[str, ...]:
    """The texts of equal-length columns, row by row."""
    return tuple(chain.from_iterable(zip(*columns)))


def _each(values: Iterable[Any], n: int) -> list[Any]:
    """Every value repeated ``n`` times in a row."""
    return [value for value in values for _ in range(n)]


_Csv = tuple[str, tuple[str, ...], list[list[str]]]


def _render(report: BiasReport) -> tuple[list[str], list[_Csv]]:
    """The chunks of report.json and the (name, header, columns) of each CSV mirror.

    Every section reads the report's arrays: each number array is
    formatted by ``_texts``, and each list of per-group rows is one
    %-template filled with those texts. The CSV mirrors take their
    number cells from the same texts. Every per-group list follows the
    sorted group index; the FDR grid is listed by ascending design FPR,
    and each attack block worst-exposed group first.
    """
    base, measures, grid, config = report.base, report.measures, report.fdr_grid, report.config
    labels = [key.label() for key in base.groups]
    quoted = np.array(list(map(encode_basestring_ascii, labels)), dtype=object)
    n, points, fpr_rows = len(labels), base.design_points, base.design_rows("fpr")
    names = [key.name for key in base.keys]
    design = [json.dumps(point.design_fpr, allow_nan=False) for point in points]
    design_csv = [repr(float(point.design_fpr)) for point in points]
    thresholds = _texts([point.threshold for point in points], _json_number)
    n_target, n_nontarget = base.sizes.tolist()

    def group_rows(*keys: str) -> str:  # a per-group list of dicts at depth 3
        return _array([_object(_slots("group", *keys), 4)] * n, 3)

    # base metrics: a metric's groups then its aggregate as one row
    rows = np.column_stack([base.values, base.aggregates])
    rates = [key.is_rate for key in base.keys]
    fractions = _texts(rows, _finite)
    percents = np.full(fractions.shape, "", dtype=object)
    percents[:, rates] = _texts(rows[rates] * 100.0, _finite)
    templates = {}
    for rate, keys in ((False, ("fraction",)), (True, ("fraction", "percent"))):
        value = {"unit": '"fraction"', **_slots(*keys)}
        rows_template = _array([_object({"group": "%s", **value}, 4)] * n, 3)
        templates[rate] = _object(
            {"metric": "%s", "aggregate": _object(value, 3), "per_group": rows_template}, 2
        )
    base_entries = []
    for name, rate, fraction, percent in zip(
        names, rates, fractions[0].tolist(), percents[0].tolist()
    ):
        columns = (fraction, percent) if rate else (fraction,)
        base_entries.append(templates[rate] % (
            encode_basestring_ascii(name), *(c[-1] for c in columns), *_cells(quoted, *columns)
        ))

    # bias measures: one entry per (metric, measure)
    bias = _texts(np.stack(
        [measures.g2min_diff, measures.g2avg_ratio, measures.g2avg_log_ratio], axis=1
    ), _json_number)
    heads = [
        (measure, name, reference)
        for i, name in enumerate(names)
        for measure, reference, _ in measures.row(i)
    ]
    template = _object(
        {**_slots("measure", "metric", "reference"), "per_group": group_rows("value")}, 2
    )
    bias_entries = [
        template % (*map(encode_basestring_ascii, head), *_cells(quoted, values))
        for head, values in zip(heads, bias[0].reshape(len(heads), n).tolist())
    ]
    log_ratios = bias[:, :, 2]

    # threshold decomposition: one block per design point
    diffs = _texts(measures.g2min_diff[fpr_rows], _finite)
    template = _object({
        **_slots("design_fpr", "threshold", "pooled_fpr", "pooled_fnr"),
        "rows": group_rows("fpr", "g2min_diff", "g2avg_log_ratio"),
    }, 2)
    decomposition = [
        template % (
            design[k], thresholds[0, k], fractions[0, i, n], fractions[0, j, n],
            *_cells(quoted, fractions[0, i], diffs[0, k], log_ratios[0, i]),
        )
        for k, (i, j) in enumerate(zip(fpr_rows, base.design_rows("fnr")))
    ]

    # FDR grid: one dict per (design point, alpha), ascending design FPR
    deltas = _texts(np.stack([grid.max_delta_fpr, grid.max_delta_fnr]), _finite)[0]
    fdr = _texts(grid.fdr, _finite)
    grid_cells = [(k, a) for k in reversed(range(len(points))) for a in range(len(grid.alphas))]
    alphas = [json.dumps(alpha, allow_nan=False) for alpha in grid.alphas]
    template = _object(_slots(
        "design_fpr", "alpha", "threshold", "max_delta_fpr", "max_delta_fnr", "fdr"
    ), 2)
    grid_entries = [
        template % (
            design[k], alphas[a], thresholds[0, k], deltas[0, k], deltas[1, k], fdr[0, k, a]
        )
        for k, a in grid_cells
    ]

    # NRB suite
    nrb_values = _texts(report.nrb, _json_number)
    template = _object({
        "metric": "%s", "group_count": str(n), "nrb": "%s",
        "per_group_log_ratios": group_rows("value"), "zero_value_groups": "%s",
    }, 2)
    nrb_entries = [
        template % (
            encode_basestring_ascii(name), nrb_values[0, i], *_cells(quoted, log_ratios[0, i]),
            _array(quoted[_zero_valued(measures.g2avg_log_ratio[i])].tolist(), 3),
        )
        for i, name in enumerate(names)
    ]

    # attack scenarios: per design point, groups by descending fpr
    times = _texts(report.exposure, _json_number)[0]
    template = _object({
        "design_fpr": "%s", "threshold": "%s",
        "attempts_per_hour": json.dumps(config.attempts_per_hour, allow_nan=False),
        "target_probability": json.dumps(config.target_probability, allow_nan=False),
        "rows": group_rows(
            "fpr", "expected_attempts", "expected_hours", "hours_to_target_probability", "zero_fpr"
        ),
    }, 2)
    attack_entries = []
    for k, i in enumerate(fpr_rows):
        # stable over the sorted group index: ties keep group order, zero FPRs come last
        order = np.argsort(-base.values[i], kind="stable")
        zero = np.where(base.values[i, order] == 0.0, "true", "false").tolist()
        attack_entries.append(template % (design[k], thresholds[0, k], *_cells(
            quoted[order], fractions[0, i, order], *times[:, k, order], zero
        )))

    sections = {
        "schema_version": str(SCHEMA_VERSION),
        "config": _nested(config_as_dict(config), 1),
        "warnings": _nested(list(report.warnings), 1),
        "groups": _array([_object(_slots("group", "n_target", "n_nontarget"), 2)] * n, 1)
        % _cells(quoted, map(str, n_target), map(str, n_nontarget)),
        "unassigned_trials": str(int(base.sizes[:, -1].sum() - base.sizes[:, :-1].sum())),
        "pooled": _nested({"n_target": n_target[-1], "n_nontarget": n_nontarget[-1]}, 1),
        "base_metrics": _array(base_entries, 1),
        "bias_measures": _array(bias_entries, 1),
        "threshold_decomposition": _array(decomposition, 1),
        "fdr_grid": _array(grid_entries, 1),
        "nrb_suite": _array(nrb_entries, 1),
        "attack_scenarios": _array(attack_entries, 1),
    }
    openings = _object(_slots(*sections), 0).split("%s")
    chunks = [*chain.from_iterable(zip(openings, sections.values())), openings[-1] + "\n"]

    measure_names, metric_names, references = zip(*heads)
    tables = [
        (TABLE_BASE_METRICS, ("metric", "group", "value_fraction", "value_percent"), [
            _each(names, n + 1), (labels + ["pooled"]) * len(names),
            fractions[1].ravel().tolist(), percents[1].ravel().tolist(),
        ]),
        (TABLE_BIAS_MEASURES, ("measure", "metric", "group", "value", "reference"), [
            _each(measure_names, n), _each(metric_names, n), labels * len(heads),
            bias[1].ravel().tolist(), _each(references, n),
        ]),
        (TABLE_DECOMPOSITION,
         ("design_fpr", "threshold", "group", "fpr", "g2min_diff", "g2avg_log_ratio"), [
            _each(design_csv, n), _each(thresholds[1].tolist(), n), labels * len(points),
            fractions[1, fpr_rows, :n].ravel().tolist(), diffs[1].ravel().tolist(),
            log_ratios[1, fpr_rows].ravel().tolist(),
        ]),
    ]
    if config.emit_figures:
        alphas_csv = [repr(float(alpha)) for alpha in grid.alphas]
        tables += [
            (FIG_FDR_GRID, ("design_fpr", "alpha", "fdr"), [
                [design_csv[k] for k, _ in grid_cells], [alphas_csv[a] for _, a in grid_cells],
                [fdr[1, k, a] for k, a in grid_cells],
            ]),
            (FIG_NRB_SUITE, ("metric_name", "nrb"), [names, nrb_values[1].tolist()]),
        ]
    return chunks, tables


def report_to_dict(report: BiasReport) -> dict[str, Any]:
    """The report as report.json holds it: the parse of the text ``emit`` writes.

    The schema is documented in the README. A non-finite value in a field
    that report.json cannot hold raises ValueError, as ``emit`` does.
    """
    chunks, _ = _render(report)
    return json.loads("".join(chunks))


def emit(report: BiasReport, output_dir: Union[str, Path]) -> list[Path]:
    """Write report.json and its CSV mirrors; return their paths.

    Everything is rendered before report.json is opened, so a value the
    report cannot hold raises ValueError and writes nothing. The figure
    CSVs (fig_*.csv) are written only under ``emit_figures``.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    chunks, tables = _render(report)
    report_path = out / REPORT_JSON
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    written = [report_path]
    for name, header, columns in tables:
        path = out / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, columns)
        written.append(path)
    return written
