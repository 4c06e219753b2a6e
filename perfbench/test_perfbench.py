"""The benchmark's own tests, at the smoke sizes. Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct(name, trace):
    done = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", ["voxceleb-scale", "synth-fixture"])
def test_traced_self_times_add_up_to_the_root_span(name):
    assert bench("--workload", name, "--seconds", "1", "--trace", "1", "--smoke").returncode == 0
    directory = workloads.WORKLOADS[name].directory(smoke=True)
    spans = json.loads((ROOT / directory / "trace.json").read_text(encoding="utf-8"))["spans"]
    tracer = tracing.Tracer()
    tracer.spans.extend(tracing.Span(**s) for s in spans)
    root = spans[0]
    assert root["name"] == tracing.ROOT and root["parent"] == -1
    assert sum(tracer.self_times()) == pytest.approx(root["end"] - root["start"], abs=1e-9)
    detail = json.loads((ROOT / directory / "result-trace1.json").read_text(encoding="utf-8"))
    traced = [op["layers"] for op in detail["ops"] if op["traced"]]
    counts = [{k: v for k, v in t.items() if not k.endswith("_s")} for t in traced]
    assert len(counts) >= 2 and all(c == counts[0] for c in counts)


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = bench("--workload", "voxceleb-scale", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0 and not done.stdout.strip()
