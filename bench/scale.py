"""Scale harness: every stage of one audit, timed and sized at fixed synthetic scales.

Run from the root of a checkout:

    python bench/scale.py --out BENCH_name.json
    python bench/scale.py --quick --out scale.json

Each cell of the grid is a single-attribute ``synth`` table of fresh
speakers (two per trial, ``trials x groups``, equal group sizes, half of
each group target trials) written to a temporary directory. The audit
reads it back with the default design FPRs and alphas and zero-policy
``smooth``. For every stage ``run_audit`` calls, and for ``emit``, the
harness records the best wall time of three audits in this
process and, from one more audit under ``tracemalloc``, the stage's
peak traced allocation above what was live when it started, and the
bytes the audit emitted. It also records the peak resident set of one
``biasaudit audit`` in a fresh process (Linux ``VmHWM``), and the
provenance: git commit, Python and numpy versions, CPU count, this
process's ``ru_maxrss`` and ``perfbench/yardstick.py``'s loop time
before and after the grid.
``--quick`` runs only the 10k-trial, 2-group cell. There is no gate or
bound: the file records, it does not judge.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from yardstick import NOMINAL_S, yardstick  # noqa: E402

import biasaudit.report as report  # noqa: E402
from biasaudit import (  # noqa: E402
    AuditConfig,
    GroupKey,
    GroupScoreModel,
    SynthSpec,
    draw,
    write_metadata,
    write_trials,
)

TRIALS = (10_000, 100_000, 1_000_000)
GROUPS = (2, 10, 50)
REPEATS = 3  # timed audits per cell; each stage keeps its best
# the names run_audit looks its stages up by, in pipeline order
STAGES = (
    "load_trials", "load_metadata", "assign_groups", "_kept_groups", "base_metrics",
    "bias_measures", "fdr_grid", "nrb", "exposure",
)
# One fresh-process audit; prints its exit status and its own peak resident set size in
# KiB. The peak is VmHWM, not ru_maxrss: a child started by vfork, as subprocess starts
# it, inherits this harness's ru_maxrss, so it would report the harness's peak.
FRESH_AUDIT = """
import sys
sys.path.insert(0, sys.argv[1])
from biasaudit.cli import main
status = main(sys.argv[2:])
with open("/proc/self/status") as fh:
    print(status, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def spec(n_trials: int, n_groups: int) -> SynthSpec:
    """Equal groups g=00, g=01, ... of fresh speakers, each half targets."""
    half = n_trials // (2 * n_groups)
    return SynthSpec(models=tuple(
        GroupScoreModel(GroupKey.from_attributes({"g": f"{i:02d}"}), 1.0 + 0.05 * i, 0.0, 1.0,
                        half, half)
        for i in range(n_groups)
    ), seed=0)


class StageClock:
    """Wraps each stage in ``report``'s namespace and keeps what one audit measured."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.peaks: dict[str, int] = {}
        self.emitted_bytes = 0
        self._originals = {name: getattr(report, name) for name in STAGES}

    def __enter__(self) -> "StageClock":
        for name, fn in self._originals.items():
            setattr(report, name, self._timed(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._originals.items():
            setattr(report, name, fn)

    def _timed(self, name, fn):
        def stage(*args, **kwargs):
            tracing = tracemalloc.is_tracing()
            if tracing:
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds[name] = time.perf_counter() - t0
            if tracing:
                self.peaks[name] = tracemalloc.get_traced_memory()[1] - live
            return result
        return stage


def audit(config: AuditConfig, out: Path, clock: StageClock) -> None:
    """One ``run_audit`` and ``emit``, their times (and peaks) recorded by ``clock``."""
    t0 = time.perf_counter()
    result = report.run_audit(config)
    clock.seconds["run_audit"] = time.perf_counter() - t0
    if tracemalloc.is_tracing():
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
    t0 = time.perf_counter()
    written = report.emit(result, out)
    clock.seconds["emit"] = time.perf_counter() - t0
    if tracemalloc.is_tracing():
        clock.peaks["emit"] = tracemalloc.get_traced_memory()[1] - live
    clock.emitted_bytes = sum(path.stat().st_size for path in written)


def fresh_peak_rss_mb(config: AuditConfig, out: Path) -> float:
    """Peak resident set of ``biasaudit audit`` on the cell's files, in a process of its own."""
    argv = [
        "audit", "--scores", config.scores_path, "--metadata", config.metadata_path,
        "--groups", "g", "--zero-policy", "smooth", "--out", str(out),
    ]
    done = subprocess.run(
        [sys.executable, "-c", FRESH_AUDIT, str(ROOT / "src"), *argv],
        capture_output=True, text=True, check=True,
    )
    status, kib = done.stdout.split()[-2:]
    if status != "0":
        raise RuntimeError(f"fresh audit exited {status}: {done.stderr}")
    return int(kib) / 1024.0


def cell(n_trials: int, n_groups: int, work: Path) -> dict:
    """Every stage's best time and traced peak, and the fresh-process peak, of one cell."""
    trials, speakers = draw(spec(n_trials, n_groups))
    write_trials(trials, work / "scores.csv")
    write_metadata(speakers, work / "metadata.csv")
    del trials, speakers
    config = AuditConfig(
        scores_path=str(work / "scores.csv"), metadata_path=str(work / "metadata.csv"),
        group_attributes=("g",), zero_policy="smooth", output_dir=str(work / "out"),
    )
    best: dict[str, float] = {}
    for _ in range(REPEATS):
        with StageClock() as clock:
            audit(config, work / "out", clock)
        for name, seconds in clock.seconds.items():
            best[name] = min(best.get(name, seconds), seconds)
    tracemalloc.start()
    try:
        with StageClock() as traced:
            audit(config, work / "out", traced)
    finally:
        tracemalloc.stop()
    return {
        "trials": n_trials,
        "groups": n_groups,
        "stages": {
            name: {"best_s": best[name], "peak_traced_mb": traced.peaks[name] / 1e6}
            for name in (*STAGES, "emit")
        },
        "run_audit_best_s": best["run_audit"],
        "emitted_bytes": traced.emitted_bytes,
        "fresh_audit_peak_rss_mb": fresh_peak_rss_mb(config, work / "fresh"),
    }


def provenance() -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "yardstick_nominal_s": NOMINAL_S,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--quick", action="store_true", help="the 10k x 2 cell only")
    args = parser.parse_args(argv)

    grid = [(TRIALS[0], GROUPS[0])] if args.quick else [(t, g) for t in TRIALS for g in GROUPS]
    result = {"provenance": provenance(), "repeats": REPEATS, "cells": []}
    result["provenance"]["yardstick_before_s"] = min(yardstick() for _ in range(3))
    for n_trials, n_groups in grid:
        with tempfile.TemporaryDirectory() as work:
            result["cells"].append(cell(n_trials, n_groups, Path(work)))
        c = result["cells"][-1]
        print(f"{n_trials} trials x {n_groups} groups: run_audit {c['run_audit_best_s']:.4f} s, "
              f"base_metrics {c['stages']['base_metrics']['best_s']:.4f} s, "
              f"fresh peak RSS {c['fresh_audit_peak_rss_mb']:.1f} MB", flush=True)
    result["provenance"]["yardstick_after_s"] = min(yardstick() for _ in range(3))
    result["provenance"]["self_maxrss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
