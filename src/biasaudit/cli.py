"""Command-line entry point.

Subcommands: ``audit`` (full pipeline, writes the report file set),
``scenario`` (attack exposure from hand-given FPRs), and ``synth``
(fixture generation). ``audit`` reads a key=value config file; flags
override it.

Exit codes: 0 success, 1 usage or configuration error or an unwritable
output path, 2 data error, 3 degenerate-group error under ``--strict``.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import click

from . import __version__
from .attack import (
    AttackScenario,
    attempts_for_probability,
    expected_time_to_success,
    success_probability,
)
from .config import build_config, parse_config_file
from .errors import (
    AuditError,
    ConfigError,
    DataError,
    DegenerateGroupError,
)
from .measures import AVERAGE_MODES, ZERO_POLICIES
from .report import emit, json_float, run_audit
from .synth import draw, load_synth_spec
from .trials import GroupingPolicy, write_metadata, write_trials


def _config_options(command):
    # each destination is the config key the flag sets (config.PARSERS)
    opts = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="key=value config file"),
        click.option("--scores", default=None, help="trial scores CSV"),
        click.option("--metadata", default=None, help="speaker metadata CSV"),
        click.option("--groups", default=None,
                     help="comma-separated grouping attributes, e.g. gender,nationality"),
        click.option("--policy", default=None,
                     type=click.Choice([p.value for p in GroupingPolicy])),
        click.option("--design-fprs", default=None, help="comma-separated design FPRs"),
        click.option("--alphas", default=None, help="comma-separated FDR alphas"),
        click.option("--dcf-pt", "dcf_p_target", default=None, help="DCF target prior"),
        click.option("--dcf-cmiss", "dcf_c_miss", default=None, help="DCF miss cost"),
        click.option("--dcf-cfa", "dcf_c_fa", default=None, help="DCF false-accept cost"),
        click.option("--dcf-normalize/--no-dcf-normalize", default=None),
        click.option("--zero-policy", default=None, type=click.Choice(ZERO_POLICIES)),
        click.option("--average-mode", default=None, type=click.Choice(AVERAGE_MODES)),
        click.option("--out", default=None, help="output directory"),
        click.option("--preset", default=None, type=click.Choice(["paper"]),
                     help="pin grids to the standard five-by-five preset"),
        click.option("--strict/--no-strict", default=None,
                     help="treat degenerate groups as fatal"),
    ]
    for opt in reversed(opts):
        command = opt(command)
    return command


@contextmanager
def _writing(out):
    """Turn an OSError from creating or writing output files into a ConfigError (exit 1)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc


@click.group()
@click.version_option(version=__version__, prog_name="biasaudit")
def cli():
    """Audit score-based verification systems for group bias."""


@cli.command()
@_config_options
def audit(config_path, preset, **flags):
    """Run the full audit and write the report file set."""
    file_values = parse_config_file(config_path) if config_path else None
    config = build_config(file_values, preset, flags)
    report = run_audit(config)
    for warning in report.warnings:  # before writing, so a failed write still shows them
        click.echo(f"warning: {warning}", err=True)
    with _writing(config.output_dir):
        written = emit(report, config.output_dir)
    for path in written:
        click.echo(f"wrote {path}")


@cli.command()
@click.option("--fpr", "fprs", multiple=True, required=True,
              help="per-attempt false-accept probability, optionally LABEL=VALUE; repeatable")
@click.option("--rate", default=60.0, show_default=True,
              help="attack attempts per hour")
@click.option("--target-probability", default=0.5, show_default=True,
              help="success probability for the geometric model")
@click.option("--attempts", type=int, default=None,
              help="also report the success probability after this many attempts")
@click.option("--json", "as_json", is_flag=True, help="emit JSON instead of text")
def scenario(fprs, rate, target_probability, attempts, as_json):
    """Attack-exposure arithmetic for one or more FPRs."""
    if not 0.0 < rate < math.inf:
        raise ConfigError(f"--rate must be positive and finite, got {rate!r}")
    if not 0.0 < target_probability < 1.0:
        raise ConfigError(f"--target-probability must lie in (0, 1), got {target_probability!r}")
    if attempts is not None and attempts < 0:
        raise ConfigError(f"--attempts must be nonnegative, got {attempts}")
    parsed: list[tuple[str, str, float]] = []
    for i, raw in enumerate(fprs):
        label, _, value = raw.rpartition("=")
        try:
            fpr_value = float(value)
        except ValueError as exc:
            raise ConfigError(f"cannot parse --fpr {raw!r}") from exc
        if not 0.0 < fpr_value <= 1.0:
            raise ConfigError(f"--fpr {raw!r}: the FPR must lie in (0, 1]")
        parsed.append((raw, label or f"fpr{i}", fpr_value))

    rows = []
    for raw, label, fpr_value in parsed:
        s = AttackScenario(fpr=fpr_value, attempts_per_hour=rate)
        expected_attempts, expected_hours = expected_time_to_success(s)
        try:
            n_q = attempts_for_probability(s, target_probability)
        except ValueError as exc:
            raise ConfigError(f"--fpr {raw!r}: {exc}") from exc
        row = {
            "label": label,
            "fpr": fpr_value,
            "expected_attempts": expected_attempts,
            "expected_hours": expected_hours,
            "attempts_to_target_probability": n_q,
            "hours_to_target_probability": n_q / rate,
        }
        if attempts is not None:
            row["success_probability_at_attempts"] = success_probability(s, attempts)
        rows.append(row)
    rows.sort(key=lambda r: (-r["fpr"], r["label"]))

    if as_json:
        # a tiny --rate makes hours overflow to inf; write it as report.json does
        rows_json = [
            {name: json_float(v) if isinstance(v, float) else v for name, v in row.items()}
            for row in rows
        ]
        payload = {"attempts_per_hour": rate, "rows": rows_json}
        click.echo(json.dumps(payload, indent=2, allow_nan=False))
        return
    click.echo(f"attempts/hour: {rate:g}   target probability: {target_probability:g}")
    for row in rows:
        line = (
            f"{row['label']}: fpr={row['fpr']:g}  "
            f"expected {row['expected_attempts']:.6g} attempts "
            f"({row['expected_hours']:.4g} h); "
            f"p>={target_probability:g} after {row['attempts_to_target_probability']} "
            f"attempts ({row['hours_to_target_probability']:.4g} h)"
        )
        if "success_probability_at_attempts" in row:
            line += (
                f"; p(success in {attempts}) = "
                f"{row['success_probability_at_attempts']:.4f}"
            )
        click.echo(line)


@cli.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(),
              help="JSON synthesis spec (see README for the schema)")
@click.option("--seed", type=int, default=None, help="override the seed in the spec file")
@click.option("--out", default="synth_out", show_default=True, help="output directory")
def synth(spec_path, seed, out):
    """Generate synthetic scores and metadata CSVs from a JSON spec."""
    try:
        spec = load_synth_spec(spec_path, seed=seed)
        trials, speakers = draw(spec)
    except OSError as exc:
        raise DataError(f"cannot read spec {spec_path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad synthesis spec {spec_path}: {exc}") from exc
    out_dir = Path(out)
    scores_path = out_dir / "scores.csv"
    metadata_path = out_dir / "metadata.csv"
    with _writing(out):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trials(trials, scores_path)
        write_metadata(speakers, metadata_path)
    click.echo(f"wrote {scores_path} ({len(trials)} trials)")
    click.echo(f"wrote {metadata_path} ({len(speakers)} speakers)")


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except DegenerateGroupError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except AuditError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
