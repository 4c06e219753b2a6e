"""Audit configuration: defaults, flat key=value config files, flags.

Config files are UTF-8 text (a leading BOM is skipped), one
``key = value`` pair per line ended by LF, CRLF or CR, ``#`` comments
and blank lines ignored, each key set once. List values are comma-separated.
Recognized keys are those of ``PARSERS``; the ``audit`` command's flags
set the same keys and go through the same parsers.
Defaults reproduce the standard audit preset: design FPRs
{0.001, 0.01, 0.025, 0.05, 0.1} and alphas {0, 0.25, 0.5, 0.75, 1}.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Union

from .detection import DcfParams, MetricKey
from .errors import ConfigError, not_utf8
from .measures import AVERAGE_MODES, ZERO_POLICIES
from .meta import DEFAULT_ALPHAS, DEFAULT_DESIGN_FPRS
from .trials import GroupingPolicy

PAPER_PRESET = {
    "design_fprs": DEFAULT_DESIGN_FPRS,
    "alphas": DEFAULT_ALPHAS,
}


@dataclass(frozen=True)
class AuditConfig:
    """Everything one audit run needs; echoed verbatim into the report."""

    scores_path: str
    metadata_path: str
    group_attributes: tuple[str, ...]
    policy: GroupingPolicy = GroupingPolicy.BOTH_MATCH
    dcf: DcfParams = field(default_factory=DcfParams)
    design_fprs: tuple[float, ...] = DEFAULT_DESIGN_FPRS
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    zero_policy: str = "error"
    average_mode: str = "pooled"
    output_dir: str = "audit_out"
    emit_figures: bool = True
    attempts_per_hour: float = 60.0
    target_probability: float = 0.5
    strict: bool = False

    def __post_init__(self):
        if not self.scores_path or not self.metadata_path:
            raise ConfigError("scores and metadata paths must be nonempty")
        if not self.group_attributes:
            raise ConfigError("at least one group attribute is required")
        if not self.design_fprs or any(not 0.0 < f <= 1.0 for f in self.design_fprs):
            raise ConfigError("design_fprs must be nonempty, each in (0, 1]")
        if not self.alphas or any(not 0.0 <= a <= 1.0 for a in self.alphas):
            raise ConfigError("alphas must be nonempty, each in [0, 1]")
        # reports name each metric row, so two design FPRs must not share a name
        names = {f: MetricKey("fpr", f).name for f in self.design_fprs}
        clashes = _sharing_a_key(self.design_fprs, names.get)
        if clashes:
            raise ConfigError(
                "design_fprs must be distinct and name distinct metrics; got "
                + ", ".join(f"{f!r} ({names[f]})" for f in clashes)
            )
        clashes = _sharing_a_key(self.alphas, lambda a: a)
        if clashes:
            raise ConfigError(f"alphas must be distinct; got {clashes}")
        if self.zero_policy not in ZERO_POLICIES:
            raise ConfigError(f"zero_policy must be one of {ZERO_POLICIES}")
        if self.average_mode not in AVERAGE_MODES:
            raise ConfigError(f"average_mode must be one of {AVERAGE_MODES}")
        if not 0.0 < self.attempts_per_hour < math.inf:
            raise ConfigError("attempts_per_hour must be positive and finite")
        if not 0.0 < self.target_probability < 1.0:
            raise ConfigError("target_probability must lie in (0, 1)")


def _sharing_a_key(values: tuple[float, ...], key) -> list[float]:
    """The values whose key another value also has, in input order."""
    counts = Counter(key(v) for v in values)
    return [v for v in values if counts[key(v)] > 1]


def parse_config_file(path: Union[str, Path]) -> dict[str, str]:
    """Read a flat key=value config file into a string mapping; a key may be set once."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: {not_utf8(exc)}") from exc
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")  # the loaders' line ends
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if (first := first_line.setdefault(key, lineno)) != lineno:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {first}")
        values[key] = value.strip()
    return values


def _parse_bool(raw: str | bool, key: str) -> bool:
    if isinstance(raw, bool):
        return raw
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: cannot parse boolean from {raw!r}")


def _parse_floats(raw: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse float list from {raw!r}") from exc


def _parse_policy(raw: str) -> GroupingPolicy:
    try:
        return GroupingPolicy(raw.strip().lower().replace("_", "-"))
    except ValueError:
        raise ConfigError(
            f"policy must be one of {[p.value for p in GroupingPolicy]}, got {raw!r}"
        ) from None


# config key -> (AuditConfig field, or a dcf_* DcfParams field; parser of the raw value),
# in the order the report's config echo lists them
PARSERS: dict[str, tuple[str, Callable[[Any], Any]]] = {
    "scores": ("scores_path", str),
    "metadata": ("metadata_path", str),
    "groups": ("group_attributes", lambda raw: tuple(
        p.strip() for p in raw.split(",") if p.strip()
    )),
    "policy": ("policy", _parse_policy),
    "dcf_c_miss": ("dcf_c_miss", float),
    "dcf_c_fa": ("dcf_c_fa", float),
    "dcf_p_target": ("dcf_p_target", float),
    "dcf_normalize": ("dcf_normalize", lambda raw: _parse_bool(raw, "dcf_normalize")),
    "design_fprs": ("design_fprs", lambda raw: _parse_floats(raw, "design_fprs")),
    "alphas": ("alphas", lambda raw: _parse_floats(raw, "alphas")),
    "zero_policy": ("zero_policy", str),
    "average_mode": ("average_mode", str),
    "out": ("output_dir", str),
    "emit_figures": ("emit_figures", lambda raw: _parse_bool(raw, "emit_figures")),
    "attempts_per_hour": ("attempts_per_hour", float),
    "target_probability": ("target_probability", float),
    "strict": ("strict", lambda raw: _parse_bool(raw, "strict")),
}


def _parse_settings(values: Mapping[str, Any]) -> dict[str, Any]:
    """Typed fields from raw values keyed by config key; None leaves a key unset."""
    parsed: dict[str, Any] = {}
    for key, raw in values.items():
        if raw is None:
            continue
        if key not in PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        field_name, parse = PARSERS[key]
        try:
            parsed[field_name] = parse(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: bad value {raw!r}: {exc}") from exc
    return parsed


def build_config(
    file_values: Mapping[str, Any] | None = None,
    preset: str | None = None,
    flags: Mapping[str, Any] | None = None,
) -> AuditConfig:
    """Merge defaults, config-file values, a preset, and command-line flags.

    Both mappings are keyed by config key and parsed by ``PARSERS``; a
    flag of None leaves its key alone. Precedence, lowest to highest:
    defaults, config file, preset (which pins only the grids), flags.
    """
    merged = _parse_settings(file_values or {})
    if preset is not None:
        if preset != "paper":
            raise ConfigError(f"unknown preset {preset!r}")
        merged.update(PAPER_PRESET)
    merged.update(_parse_settings(flags or {}))

    dcf_kwargs = {k[4:]: merged.pop(k) for k in list(merged) if k.startswith("dcf_")}
    if dcf_kwargs:
        try:
            merged["dcf"] = DcfParams(**dcf_kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    required = {f.name for f in fields(AuditConfig) if f.default is MISSING is f.default_factory}
    missing = [k for k, (name, _) in PARSERS.items() if name in required and name not in merged]
    if missing:
        raise ConfigError(
            f"missing required settings: {', '.join(missing)}; "
            "set each by its flag or in the config file"
        )
    return AuditConfig(**merged)


def config_as_dict(config: AuditConfig) -> dict[str, Any]:
    """The report's JSON-ready config echo: each PARSERS key in order, dcf_* under "dcf"."""
    echo: dict[str, Any] = {}
    for key, (field_name, _) in PARSERS.items():
        if key.startswith("dcf_"):
            echo.setdefault("dcf", {})[key[4:]] = getattr(config.dcf, key[4:])
            continue
        value = getattr(config, field_name)
        if isinstance(value, GroupingPolicy):
            value = value.value
        echo[key] = list(value) if isinstance(value, tuple) else value
    return echo
