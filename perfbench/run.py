"""Run one pathfield benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk_loop --seed 0 --seconds 40 --trace 0

With --trace 0 the workload's timed passes run untraced and the result
holds the end-to-end metrics, with times taken at the host's quiet speed
(see hostspeed.py). With --trace 1 one untraced pass is
followed by one traced pass of the same inputs; the result holds the
per-layer metrics of the traced pass, and the two passes must write the
same bytes. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it list every figure by name and unit. The run record and,
for a traced run, its spans go to perfbench/out/. See perfbench/README.md
for the workloads and what each metric should move.
"""
import os

# Pinned before numpy loads. Two threads measured no faster than one on
# these shapes on a 2-core machine, and one thread keeps timings steadier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Kept out of day-to-day tuning: a claimed gain is confirmed on this seed too.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5


def _import_checkout():
    """Import pathfield from this checkout's src/, never from an installed copy."""
    package = SRC / "pathfield"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import pathfield

    if Path(pathfield.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported pathfield from {pathfield.__file__}, not {package}")


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_metadata(args) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(args, workdir: Path) -> list[tuple[float, float]]:
    """(wall, quiet) seconds of fresh processes that import pathfield and set the workload up."""
    code = "\n".join([
        f"import json, sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; import hostspeed",
        "with hostspeed.HostSpeed() as speed:",
        "    import workloads",
        f"    workloads.WORKLOADS[{args.workload!r}]({args.seed}, workloads.SCALES[{args.scale!r}], "
        f"__import__('pathlib').Path({str(workdir)!r})).setup()",
        "print(json.dumps([speed.handler_s, speed.slowdown()]))",
    ])
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, the wait polls in steps of up to 50 ms
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                               stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        handler_s, slowdown = json.loads(child.stdout.splitlines()[-1])
        # interpreter start-up runs before the sampler; it is scaled by the same slowdown
        times.append((wall, (wall - handler_s) / slowdown))
    return times


def _median_reported(passes) -> dict:
    return {
        name: (statistics.median(p.reported[name][0] for p in passes), unit)
        for name, (_, unit) in passes[0].reported.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["desk_loop", "paper_train", "eval_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full",
                        help="problem sizes; smoke is for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_checkout()
    import hostspeed
    import tracing
    import workloads

    meta = run_metadata(args)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times = measure_setup(args, workdir)
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SCALES[args.scale], workdir)
        workload.setup()
        passes, tracer, metrics = [], None, {}
        try:
            if args.trace:
                passes.append(workload.run_pass())
                tracer = tracing.Tracer()
                tracer.run_id = f"{tag}-traced"
                tracer.install()
                try:
                    passes.append(workload.run_pass())
                finally:
                    tracer.restore()
            else:
                # A process's first pass measured up to 20 % slower than later
                # ones. An untimed pass at smoke size warms the same code first,
                # so every timed pass counts and the median has more of them.
                (workdir / "warm-up").mkdir()
                warm_up = workloads.WORKLOADS[args.workload](
                    args.seed, workloads.SCALES["smoke"], workdir / "warm-up")
                warm_up.setup()
                warm_up.run_pass()
                start = time.perf_counter()
                while True:
                    with hostspeed.HostSpeed() as speed:
                        result = workload.run_pass()
                    result.slowdown = speed.slowdown()
                    result.quiet_seconds = speed.quiet_seconds(result.seconds)
                    passes.append(result)
                    expected = statistics.median(p.seconds for p in passes)
                    if passes[-1].failed or time.perf_counter() - start + expected > args.seconds:
                        break
        except Exception:  # noqa: BLE001 - a crashed pass is a failed operation
            traceback.print_exc()
            passes.append(workloads.PassResult(attempted=1, failed=1, failures=["pass raised"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    notes = sorted({n for p in passes for n in p.notes})
    complete = [p for p in passes if not p.failed and p.reported]
    if len(complete) > 1:
        # same inputs, same bytes: with --trace 1 this shows tracing changed nothing
        attempted += 1
        if any(p.digests != complete[0].digests for p in complete[1:]):
            failed += 1
            failures.append("check: passes over the same inputs wrote different bytes")
    if tracer is not None and tracer.missing:
        notes.append("not traced, the program has no " + ", ".join(tracer.missing))
    if args.trace and len(complete) == 2:
        overhead = complete[1].seconds / complete[0].seconds - 1.0
        metrics = tracer.layer_metrics(tracer.run_id, overhead)
        tracer.write(OUT / f"spans-{tag}.jsonl")
    # traced, the figures are those of the untraced reference pass
    timed = complete[:1] if args.trace else complete
    reported = _median_reported(timed) if timed else {}
    if not args.trace and timed:
        # The host's load drifts by up to 2x within minutes; times are reported at
        # its quiet speed (hostspeed.py), with the wall times beside them.
        metrics = {
            "setup_s": {"value": statistics.median(q for _, q in setup_times), "unit": "s"},
            "loop_s": {"value": statistics.median(p.quiet_seconds for p in timed), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
        }
        reported["setup_wall_s"] = (statistics.median(w for w, _ in setup_times), "s")
        reported["loop_wall_s"] = (statistics.median(p.seconds for p in timed), "s")
        reported["host_slowdown"] = (statistics.median(p.slowdown for p in timed), "1")
    correct = failed == 0 and bool(metrics)
    reported["ops_failed_share"] = (failed / max(attempted, 1), "1")
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "passes": [
            {"seconds": p.seconds, "quiet_seconds": p.quiet_seconds, "slowdown": p.slowdown,
             "digests": p.digests}
            for p in passes
        ],
        "setup_s": [{"seconds": w, "quiet_seconds": q} for w, q in setup_times],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    for note in notes:
        print(f"note {note}")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']!r} {entry['unit']}")
    for name, (value, unit) in reported.items():
        print(f"reported {name} {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
