"""Record the eval_sweep report digest of each seed in reference_digests.json.

The eval_sweep check compares every report with the digest recorded
here, so the DTW, F-score and AP values must stay exact. A seed that is
already recorded is checked, not overwritten: a mismatch stops the
script. Delete entries only when the sweep's inputs change, never to
make a changed report pass.

Usage, from the repository root:

    python3 perfbench/record_digests.py --scale full --seeds 0 1 2
"""
import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402  pins the BLAS threads before numpy loads
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    table = json.loads(workloads.REFERENCE_DIGESTS.read_text())
    recorded = table.setdefault(args.scale, {})
    workdir = run.OUT / "record-digests"
    for seed in args.seeds:
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            sweep = workloads.EvalSweep(seed, workloads.SCALES[args.scale], workdir)
            sweep.setup()
            result = sweep.run_pass()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result.failed:
            raise SystemExit(f"seed {seed}: {result.failures}")
        recorded[str(seed)] = result.digests[sweep.report.name]
        print(f"seed {seed}: {recorded[str(seed)]}", flush=True)
    table[args.scale] = dict(sorted(recorded.items(), key=lambda item: int(item[0])))
    workloads.REFERENCE_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
