"""Benchmark of the biasaudit CLI: one workload per run, metrics as JSON on the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload voxceleb-scale --seed 0 --seconds 30 --trace 0

The run writes the workload's inputs from ``--seed`` in fresh processes
(set-up, timed, repeated before and after the operations), and runs the
operation in a closed loop in one more fresh process for ``--seconds``
after a short untimed warm-up: one client, one operation at a time, no
threads. Every time reported is a wall time scaled to a fixed host speed
by the yardstick run next to it (see yardstick.py); the raw wall times
are kept in the detail file. Every operation's output files are hashed; an
operation fails if it raises, exits non-zero, or emits files whose
digests differ from the reference (the pinned digests at the default
seed, else the run's first operation). The last output is also checked
against the generated counts and the closed-form EER.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics: the
median over traced operations of each span's self time and counters,
and the tracing overhead. ``--smoke`` runs the small sizes the
benchmark's own tests use. Raw samples and the last traced operation's
spans go to ``perfbench/work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from yardstick import scaled

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"

# Set-ups before and after the operations: the median of both groups is
# less sensitive to how busy the machine was in any one moment.
SETUP_REPEATS = (5, 4)
TAIL_BEYOND = 10  # samples above the reported tail percentile
RUN_LIMIT_S = 170.0

END_TO_END = {
    "op_s": "s",
    "op_s_tail": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "trials.load_trials.self_s": "s",
    "trials.load_trials.rows": "count",
    "trials.load_metadata.self_s": "s",
    "trials.load_metadata.rows": "count",
    "trials.assign_groups.self_s": "s",
    "trials.assign_groups.unassigned": "count",
    "trials.write_trials.self_s": "s",
    "trials.write_metadata.self_s": "s",
    "detection.split_scores.self_s": "s",
    "detection.split_scores.calls": "count",
    "detection.split_scores.trials_scanned": "count",
    "detection.rescan_factor": "ratio",
    "detection.compute_sweep.self_s": "s",
    "detection.compute_sweep.calls": "count",
    "detection.disaggregate_trial_metric.self_s": "s",
    "detection.disaggregate_at_threshold.self_s": "s",
    "measures.compute_measure.self_s": "s",
    "measures.compute_measure.calls": "count",
    "meta.fdr.self_s": "s",
    "meta.fdr.calls": "count",
    "meta.nrb_suite.self_s": "s",
    "meta.nrb_suite.child_s": "s",
    "attack.compare_group_exposure.self_s": "s",
    "report.run_audit.self_s": "s",
    "report.report_to_dict.self_s": "s",
    "report.write_csv.self_s": "s",
    "report.emit.self_s": "s",
    "report.emit.bytes": "count",
    "synth.generate.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child(role: str, args: argparse.Namespace, deadline: float) -> dict:
    """Run perfbench/worker.py to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} did not finish in time") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{role} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def pinned_digests(workload: str, smoke: bool, seed: int) -> dict | None:
    """Digests pinned for the default seed, when this numpy can reproduce them."""
    import numpy
    import workloads

    pinned = json.loads(BASELINE.read_text(encoding="utf-8"))["pinned"]
    if seed != workloads.DEFAULT_SEED or numpy.__version__ != pinned["numpy"]:
        return None
    return pinned["digests"][workload]["smoke" if smoke else "full"]


def judge(records: list[dict], reference: dict | None, problems: list[str]) -> int:
    """Count failed operations; see the module docstring for the rule."""
    if reference is None:
        reference = next((r["digest"] for r in records if r["digest"] is not None), None)
    last = records[-1]["digest"]
    failed = 0
    for r in records:
        ok = r["rc"] == 0 and r["digest"] == reference
        if problems and r["digest"] == last:
            ok = False
        failed += not ok
    return failed


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Medians over the timed traced operations; ratios are formed per operation."""
    traced = []
    for r in records:
        if r["traced"] and not r["warmup"]:
            layers = {
                k: scaled(v, r["yard_s"]) if k.endswith("_s") else v for k, v in r["layers"].items()
            }
            layers["trace.op_s"] = scaled(r["s"], r["yard_s"])
            rows = layers.get("trials.load_trials.rows", 0)
            scanned = layers.get("detection.split_scores.trials_scanned", 0)
            layers["detection.rescan_factor"] = scanned / rows if rows else 0.0
            traced.append(layers)
    values = {name: statistics.median_low([t.get(name, 0) for t in traced]) for name in PER_LAYER}
    untraced = [scaled(r["s"], r["yard_s"]) for r in records if not r["traced"] and not r["warmup"]]
    values["trace.overhead_s"] = values["trace.op_s"] - statistics.median_low(untraced)
    return values


def run(args: argparse.Namespace) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S

    setups = [child("setup", args, deadline) for _ in range(SETUP_REPEATS[0])]
    expected = workloads.load_expected(workload, args.smoke)
    result = child("ops", args, deadline)
    records = result["ops"]
    problems = []
    if records[-1]["rc"] == 0:
        problems += workloads.check_outputs(workload, args.smoke, expected)
    setups += [child("setup", args, deadline) for _ in range(SETUP_REPEATS[1])]
    if any(s["inputs"] != setups[0]["inputs"] for s in setups):
        problems.append("set-ups from one seed wrote different inputs")
    reference = pinned_digests(args.workload, args.smoke, args.seed)
    failed = judge(records, reference, problems)
    if reference is not None and records[0]["digest"] != reference:
        problems.append("outputs differ from the digests pinned for the default seed")

    timed = [r for r in records if not r["warmup"] and not r["traced"]]
    times = [scaled(r["s"], r["yard_s"]) for r in timed]
    setup_times = [scaled(s["setup_s"], s["yard_s"]) for s in setups]
    op_s = statistics.median(times)
    tail_s, percentile = tail(times)
    if args.trace:
        metrics = layer_metrics(records)
        units = PER_LAYER
    else:
        metrics = {
            "op_s": op_s,
            "op_s_tail": tail_s,
            "trials_per_s": expected.n_trials / op_s,
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            "setup_s": statistics.median(setup_times),
            "ok_frac": (len(records) - failed) / len(records),
        }
        units = END_TO_END

    detail = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "n_trials": expected.n_trials, "problems": problems,
        "op_s_samples": times, "op_s_tail_percentile": percentile,
        "op_wall_s_samples": [r["s"] for r in timed], "setup_s_samples": setup_times,
        "setup_wall_s_samples": [s["setup_s"] for s in setups], "ops": records,
    }
    (workload.directory(args.smoke) / f"result-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    for problem in problems:
        print(f"problem: {problem}")
    print(
        f"{args.workload} seed {args.seed}: {len(times)} untraced timed ops "
        f"of {len(records)}, op_s median {op_s:.4f} s, "
        f"op_s_tail p{percentile:.1f} {tail_s:.4f} s ({len(times)} samples); "
        f"wall median {statistics.median(r['s'] for r in timed):.4f} s"
    )
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "biasaudit" / "__init__.py").is_file():
        print(f"error: no biasaudit source under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
