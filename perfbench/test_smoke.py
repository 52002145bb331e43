"""Fast checks of the benchmark itself, at the reduced `smoke` sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced. The checks: each
named metric is emitted with its unit, traced and untraced runs write
the same bytes, layers run only on the workloads meant to exercise them,
and the benchmark refuses to run without the program's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Stage figures each workload prints besides the end-to-end metrics.
HOST = {"setup_wall_s": "s", "loop_wall_s": "s", "host_slowdown": "1"}
REPORTED = {
    "desk_loop": {"train_steps_per_s": "1/s", "predict_paths_per_s": "1/s",
                  "eval_pairs_per_s": "1/s", "ap50": "1", "ap": "1", "loss_end": "1",
                  "ops_failed_share": "1"},
    "paper_train": {"train_steps_per_s": "1/s", "predict_paths_per_s": "1/s",
                    "ckpt_save_s": "s", "ckpt_load_s": "s", "loss_end": "1",
                    "ops_failed_share": "1"},
    "eval_sweep": {"eval_pairs_per_s": "1/s", "ap50": "1", "ap": "1", "ops_failed_share": "1"},
}

# A layer that must do work on a workload (True) or must not run at all (False).
LAYER_RUNS = {
    "desk_loop": {"cli.fit.s": True, "neural_field.backward.calls": True,
                  "metrics.dtw_align.calls": True, "matching.hungarian.calls": True},
    "paper_train": {"trainer.step.s": True, "trainer.save_checkpoint.mb": True,
                    "metrics.dtw_align.calls": False, "cli.fit.s": False},
    "eval_sweep": {"metrics.dtw_align.calls": True, "cli.evaluate.s": True,
                   "neural_field.forward.calls": False, "trainer.step.s": False,
                   "matching.hungarian.calls": False},
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}


def units(metrics: dict) -> dict:
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    untraced, untraced_result = run_bench(workload, 0)
    traced, traced_result = run_bench(workload, 1)
    assert untraced.returncode == 0, untraced.stderr
    assert traced.returncode == 0, traced.stderr
    return workload, (untraced, untraced_result), (traced, traced_result)


def test_untraced_run_emits_every_end_to_end_metric(runs):
    workload, (proc, result), _ = runs
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    reported = {}
    for line in proc.stdout.splitlines():
        if line.startswith("reported "):
            _, name, _, unit = line.split()
            reported[name] = unit
    assert reported == REPORTED[workload] | HOST


def test_traced_run_emits_every_per_layer_metric(runs):
    workload, _, (_, result) = runs
    # correct covers the run's own check that both passes wrote the same bytes
    assert result["correct"] and result["failed"] == 0
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, should_run in LAYER_RUNS[workload].items():
        assert (result["metrics"][name]["value"] > 0) == should_run, name


def test_traced_and_untraced_runs_write_the_same_bytes(runs):
    workload, _, _ = runs
    records = [
        json.loads((ROOT / "perfbench" / "out" / f"{workload}-seed0-trace{t}-smoke.json").read_text())
        for t in (0, 1)
    ]
    digests = [p["digests"] for record in records for p in record["passes"]]
    assert digests[0] and all(d == digests[0] for d in digests)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, _ = run_bench("desk_loop", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
