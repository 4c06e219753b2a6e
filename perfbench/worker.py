"""Child processes of the benchmark, started by run.py from the checkout root.

``setup`` imports biasaudit, writes one workload's inputs and prints how
long that took, the yardstick's time around it and the inputs' digests.

``ops`` runs the workload's operation in a closed loop, one at a time in
this process, through ``biasaudit.cli.main``, and prints each
operation's wall time, the yardstick's mean time just before and just
after it, its exit code and output digests. It does nothing
else, so its peak RSS is that of the operations. With ``--trace 1`` it
alternates untraced and traced operations and adds each traced one's
per-layer summary.
"""

import time

from yardstick import yardstick

YARD_BEFORE_S = yardstick()
START = time.perf_counter()  # before biasaudit and numpy are imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (imports biasaudit and numpy)
from tracing import ROOT, Tracer  # noqa: E402

# The first operations of a fresh process run slower than later ones;
# these are run and checked but not timed.
WARMUP_OPS = 2
WARMUP_S = 1.0
# The tail percentile needs 10 samples beyond it, so at least 11 are taken
# even when that overruns --seconds, unless the window reaches this cap.
MIN_OPS = 11
WINDOW_CAP_S = 120.0


def setup(workload, seed: int, smoke: bool) -> dict:
    workloads.write_inputs(workload, seed, smoke)
    elapsed = time.perf_counter() - START
    yard_s = (YARD_BEFORE_S + yardstick()) / 2
    return {"setup_s": elapsed, "yard_s": yard_s, "inputs": workloads.digest_inputs(workload, smoke)}


def run_ops(workload, smoke: bool, seconds: float, trace: bool) -> dict:
    from biasaudit import cli

    argv = workloads.cli_args(workload, smoke)
    tracer = Tracer()
    traced_main = tracer.wrap(ROOT, cli.main)
    records: list[dict] = []
    yard = [yardstick()]  # the yardstick's last time, taken just before the next operation

    def one(traced: bool, warmup: bool) -> None:
        if traced:
            tracer.clear()
        patch = tracer.patched() if traced else contextlib.nullcontext()
        main = traced_main if traced else cli.main
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink), patch:
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
        yard_after = yardstick()
        record = {"s": elapsed, "yard_s": (yard[0] + yard_after) / 2, "rc": rc, "traced": traced, "warmup": warmup, "digest": None}
        if rc == 0:
            try:
                record["digest"] = workloads.digest_outputs(workload, smoke)
            except FileNotFoundError as exc:
                record["rc"] = f"missing output: {exc}"
        if traced:
            layers = tracer.summary()
            if "report.emit.calls" in layers:
                layers["report.emit.bytes"] = workloads.emitted_bytes(workload, smoke)
            record["layers"] = layers
        records.append(record)
        yard[0] = yard_after

    t0 = time.perf_counter()
    while len(records) < WARMUP_OPS or time.perf_counter() - t0 < WARMUP_S:
        one(traced=False, warmup=True)

    t0 = time.perf_counter()
    timed = 0
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= WINDOW_CAP_S or (elapsed >= seconds and timed >= MIN_OPS):
            break
        one(traced=trace and timed % 2 == 1, warmup=False)
        timed += 1

    if trace:
        path = workloads.output_dir(workload, smoke).parent / "trace.json"
        path.write_text(json.dumps({"root": ROOT, "spans": tracer.to_json()}), encoding="utf-8")
    return {
        "ops": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=["setup", "ops"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.role == "setup":
        result = setup(workload, args.seed, args.smoke)
    else:
        result = run_ops(workload, args.smoke, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
