"""Spans around calls into biasaudit's modules, recorded from outside the package.

Each traced function is replaced, for the duration of one operation, in
every biasaudit module that binds it, so a call is caught under the name
its caller looks it up by (``report.split_scores`` and
``meta.split_scores`` are the same function as
``detection.split_scores``). Spans stay in memory; ``Tracer.spans`` is
written out by the caller when the run ends.

Self time is a span's duration minus the time its direct children
cover. Spans nest strictly (one thread, one operation at a time), so the
self times of one operation add up to its root span's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable

# (span name, home module, function, counter over the result or None).
# Span names are "<module>.<function>" of the function's home module. The
# bias measures run inside compute_measure, nrb and the decomposition and
# are not spanned, so compute_measure's self time holds their cost.
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("trials.load_trials", "trials", "load_trials", lambda r: {"rows": len(r)}),
    ("trials.load_metadata", "trials", "load_metadata", lambda r: {"rows": len(r)}),
    ("trials.assign_groups", "trials", "assign_groups",
     lambda r: {"unassigned": len(r.unassigned)}),
    ("trials.write_trials", "trials", "write_trials", None),
    ("trials.write_metadata", "trials", "write_metadata", None),
    ("detection.split_scores", "detection", "split_scores",
     lambda r: {"trials_scanned": r[0].size + r[1].size}),
    ("detection.compute_sweep", "detection", "compute_sweep", None),
    ("detection.disaggregate_trial_metric", "detection", "disaggregate_trial_metric", None),
    ("detection.disaggregate_at_threshold", "detection", "disaggregate_at_threshold", None),
    ("measures.compute_measure", "measures", "compute_measure", None),
    ("meta.fdr", "meta", "fdr", None),
    ("meta.nrb_suite", "meta", "nrb_suite", None),
    ("attack.compare_group_exposure", "attack", "compare_group_exposure", None),
    ("report.run_audit", "report", "run_audit", None),
    ("report.emit", "report", "emit", None),
    ("report.report_to_dict", "report", "report_to_dict", None),
    ("report.write_csv", "report", "write_base_metrics_csv", None),
    ("report.write_csv", "report", "write_bias_measures_csv", None),
    ("report.write_csv", "report", "write_decomposition_csv", None),
    ("report.write_csv", "report", "write_fdr_grid_csv", None),
    ("report.write_csv", "report", "write_nrb_suite_csv", None),
    ("synth.generate", "synth", "generate", None),
)
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for the root
    counts: dict[str, int] | None = None


class Tracer:
    """Records nested spans for one operation at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Replace every traced function in every biasaudit module that binds it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("biasaudit.")]
        saved = []
        for name, home, attr, count in TRACED:
            original = getattr(sys.modules.get(f"biasaudit.{home}"), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, original))
                        setattr(module, key, wrapper)
        try:
            yield
        finally:
            for module, key, original in reversed(saved):
                setattr(module, key, original)

    def clear(self) -> None:
        self.spans.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, float]:
        """Per-name self time, call count and counters, plus nrb_suite's child time."""
        out: defaultdict[str, float] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            out[f"{span.name}.self_s"] += own
            out[f"{span.name}.calls"] += 1
            for key, value in (span.counts or {}).items():
                out[f"{span.name}.{key}"] += value
            if span.name == "meta.nrb_suite":
                out["meta.nrb_suite.child_s"] += span.end - span.start - own
        return dict(out)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
