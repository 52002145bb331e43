"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 7-9 drive the installed CLI end to end in temp directories; the
rest run oracle comparisons in process. Everything is seeded, so results
are reproducible bit for bit.
"""
import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from pathfield.dataio import load_dataset
from pathfield.matching import hungarian
from pathfield.metrics import ap_suite, dtw_align, evaluate_dataset, fscore_bidirectional
from pathfield.neural_field import HeadConfig
from pathfield.paths import Path, PredictedPath, max_second_difference, reverse

from conftest import checkout_env
from test_metrics import brute_force_dtw_cost
from test_neural_field import fd_gradient_check

DELTA = 0.025
THETA = 10.0
Z = np.array([0.0, 0.0, 1.0])


def criterion(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def make_path(positions, orientation=Z):
    pos = np.asarray(positions, dtype=float)
    return Path(np.concatenate([pos, np.tile(orientation, (len(pos), 1))], axis=1))


def run_cli(*args) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "pathfield", *[str(a) for a in args]],
        env=checkout_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"cli failed: {args}\n{proc.stdout}\n{proc.stderr}"
    return proc


FIT_CONFIG = {
    "slots": 8,
    "train_samples": 16,
    "epochs": 500,  # 3 objects -> 1500 optimization steps, well under 5000
    "step_size": 5e-3,
    "lr_schedule": "cosine",
    "lr_min": 1e-5,
    "sampling": "uniform",
    "seed": 0,
    "head": {
        "depth": 2,
        "width": 32,
        "code_dim": 16,
        "activation": "finer",
        "omega0": 10.0,
        "seed": 0,
    },
}


def run_pipeline(workdir, curvature=0.0, activation="finer"):
    """gen -> fit -> predict -> evaluate, returning artifact paths and timing."""
    data = workdir / "fixture.json"
    ckpt = workdir / "checkpoint.json"
    pred = workdir / "predictions.json"
    report = workdir / "report.json"
    config_path = workdir / "train.json"

    config = json.loads(json.dumps(FIT_CONFIG))
    config["head"]["activation"] = activation
    config_path.write_text(json.dumps(config))

    start = time.perf_counter()
    gen_args = ["gen", "--strokes", 4, "--waypoints", 20, "--seed", 0, "--objects", 3,
                "--out", data]
    if curvature:
        gen_args += ["--curvature", curvature]
    run_cli(*gen_args)
    run_cli("fit", "--dataset", data, "--config", config_path, "--checkpoint", ckpt)
    run_cli("predict", "--checkpoint", ckpt, "--object", "all", "--samples", 128, "--out", pred)
    run_cli("evaluate", "--gt", data, "--pred", pred, "--delta", DELTA, "--theta", THETA,
            "--out", report)
    elapsed = time.perf_counter() - start
    return data, ckpt, pred, report, elapsed


@pytest.fixture(scope="module")
def desk_fit(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("desk_fit"))


def test_criterion_1_dtw_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    exact = 0
    for _ in range(500):
        a = rng.uniform(-1, 1, (int(rng.integers(1, 7)), 3))
        b = rng.uniform(-1, 1, (int(rng.integers(1, 7)), 3))
        if dtw_align(a, b).cost == brute_force_dtw_cost(a, b):
            exact += 1
    elapsed = time.perf_counter() - start
    criterion(1, f"dtw cost equals enumeration oracle on {exact}/500 random pairs in {elapsed:.2f}s",
              exact == 500 and elapsed < 10.0)


def test_criterion_2_hungarian_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    exact = 0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        cost = rng.uniform(0, 1, (n, n))
        best = np.inf
        for perm in itertools.permutations(range(n)):
            total = 0.0
            for i, j in enumerate(perm):
                total += float(cost[i, j])
            if total < best:
                best = total
        if hungarian(cost).total_cost == best:
            exact += 1
    elapsed = time.perf_counter() - start
    criterion(2, f"hungarian equals brute force on {exact}/200 matrices in {elapsed:.2f}s",
              exact == 200 and elapsed < 10.0)


def test_criterion_3_gradient_check():
    rng = np.random.default_rng(303)
    worst = 0.0
    checked = 0
    for activation in ("relu", "siren", "finer"):
        for conditioning in ("modulation", "concat"):
            for trial in range(4):
                config = HeadConfig(
                    depth=int(rng.integers(1, 4)),
                    width=int(rng.integers(2, 9)),
                    code_dim=int(rng.integers(1, 5)),
                    activation=activation,
                    conditioning=conditioning,
                    omega0=float(rng.uniform(5.0, 30.0)),
                    seed=int(rng.integers(0, 2**31)),
                )
                worst = max(worst, fd_gradient_check(config, seed=int(rng.integers(0, 2**31))))
                checked += 1
    criterion(3, f"gradients match finite differences on {checked} configs "
                 f"(worst rel err {worst:.2e} < 1e-4)", checked >= 20 and worst < 1e-4)


def _fixture_dataset():
    rng = np.random.default_rng(404)
    dataset = {}
    for o in range(3):
        gts = []
        for k in range(4):
            pos = np.linspace([0.0, 0.2 * k, 0.0], [1.0, 0.2 * k, 0.0], 20)
            pos = pos + rng.normal(0, 0.004, pos.shape)
            gts.append(make_path(pos))
        dataset[f"object-{o:03d}"] = (gts, [PredictedPath(g, 1.0) for g in gts])
    return dataset


def test_criterion_4_metric_ceiling_and_floor():
    dataset = _fixture_dataset()
    report = evaluate_dataset(dataset, DELTA, THETA)
    ceiling = (
        report.ap50 == 1.0
        and report.ap == 1.0
        and report.ap_easy == 1.0
        and report.pcd == 0.0
    )
    shift = np.array([0.0, 0.0, 10 * DELTA, 0.0, 0.0, 0.0])
    translated = {
        oid: (gts, [PredictedPath(Path(p.path.poses + shift), p.confidence) for p in preds])
        for oid, (gts, preds) in dataset.items()
    }
    floor_report = evaluate_dataset(translated, DELTA, THETA)
    floor = floor_report.ap50 == 0.0 and floor_report.ap == 0.0 and floor_report.ap_easy == 0.0
    criterion(4, "identical predictions score (1, 1, 1, pcd 0); a 10-delta translation scores 0",
              ceiling and floor)


def test_criterion_5_reversal_invariance():
    rng = np.random.default_rng(505)
    pairwise = True
    for _ in range(100):
        gt = make_path(rng.uniform(-0.3, 0.3, (int(rng.integers(2, 12)), 3)))
        pred = make_path(rng.uniform(-0.3, 0.3, (int(rng.integers(2, 12)), 3)))
        a = fscore_bidirectional(gt, pred, DELTA, THETA).fscore
        b = fscore_bidirectional(gt, reverse(pred), DELTA, THETA).fscore
        if a != b:
            pairwise = False
            break
    dataset = _fixture_dataset()
    reversed_dataset = {
        oid: (gts, [PredictedPath(reverse(p.path), p.confidence) for p in preds])
        for oid, (gts, preds) in dataset.items()
    }
    suite_equal = ap_suite(dataset, DELTA, THETA) == ap_suite(reversed_dataset, DELTA, THETA)
    criterion(5, "bidirectional F-score and AP are exactly reversal invariant",
              pairwise and suite_equal)


def test_criterion_6_hand_computed_ap():
    gt = make_path([[0.0, 0, 0], [0.5, 0, 0], [1.0, 0, 0]])
    miss = make_path([[0.0, 0, 5.0], [0.5, 0, 5.0], [1.0, 0, 5.0]])

    def ap_of(preds, tau=0.5):
        from pathfield.metrics import average_precision

        return average_precision({"obj": ([gt], preds)}, tau, DELTA, THETA)

    case1 = ap_of([PredictedPath(gt, 0.9)]) == 1.0
    case2 = ap_of([PredictedPath(gt, 0.9), PredictedPath(miss, 0.1)]) == 1.0
    case3 = ap_of([PredictedPath(miss, 0.9), PredictedPath(gt, 0.1)]) == 0.5
    criterion(6, "hand-computed PR curves reproduce AP = 1, 1, 0.5 exactly",
              case1 and case2 and case3)


def test_criterion_7_end_to_end_desk_fit(desk_fit):
    data, ckpt, pred, report_path, elapsed = desk_fit
    report = json.loads(report_path.read_text())
    counts_ok = all(
        entry["n_predictions"] == entry["n_gt"] for entry in report["per_object"].values()
    )
    steps = FIT_CONFIG["epochs"] * 3
    criterion(
        7,
        f"desk-scale fit ({steps} steps, {elapsed:.1f}s): ap50 {report['ap50']}, "
        f"ap {report['ap']:.4f} >= 0.9",
        report["ap50"] == 1.0 and report["ap"] >= 0.9 and steps <= 5000
        and elapsed < 600.0 and counts_ok,
    )


def test_criterion_8_activation_corner_sharpness(tmp_path_factory):
    sharpness = {}
    for activation in ("relu", "finer"):
        workdir = tmp_path_factory.mktemp(f"curved_{activation}")
        _, _, pred, _, _ = run_pipeline(workdir, curvature=0.35, activation=activation)
        records = load_dataset(pred)
        sharpness[activation] = max(
            max_second_difference(p.path) for r in records for p in r.predictions
        )
    criterion(
        8,
        f"relu corners are sharper: max second difference {sharpness['relu']:.5f} "
        f"> finer {sharpness['finer']:.5f}",
        sharpness["relu"] > sharpness["finer"],
    )


def test_criterion_9_determinism(desk_fit, tmp_path_factory):
    _, ckpt_a, _, report_a, _ = desk_fit
    repeat = tmp_path_factory.mktemp("desk_fit_repeat")
    _, ckpt_b, _, report_b, _ = run_pipeline(repeat)
    same_ckpt = ckpt_a.read_bytes() == ckpt_b.read_bytes()
    same_report = report_a.read_bytes() == report_b.read_bytes()
    criterion(9, "repeating the desk fit yields byte-identical checkpoint and report",
              same_ckpt and same_report)
