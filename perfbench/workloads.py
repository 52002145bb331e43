"""The benchmark's workloads: inputs made from a seed, one timed pass, output checks.

Each workload is built around the stage it stresses:

- desk_loop runs acceptance criterion 7's `gen -> fit -> predict ->
  evaluate` pipeline through `pathfield.cli.main`, the user's time to a
  solution. Arrays are tiny, so per-call overhead dominates.
- paper_train fits the paper-scale head (40 slots, 512 x 4, code 384,
  2.5 M parameters) on objects holding from a few to all 40 paths, then
  decodes every slot and saves and reloads the checkpoint. BLAS-bound
  arrays and checkpoint I/O dominate; no DTW runs.
- eval_sweep scores a fixed prediction set under the paper protocol
  (T = 384, delta 0.025, theta 10 degrees) through `pathfield evaluate`.
  DTW dominates; no head or trainer code runs.
"""
from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path as FilePath

import numpy as np

from pathfield import cli, trainer
from pathfield.dataio import ObjectRecord, SyntheticConfig, gen_raster_object, save_dataset
from pathfield.neural_field import HeadConfig, named_parameters
from pathfield.paths import ParamSamplingConfig, Path, PredictedPath, resample, sample_params

REFERENCE_DIGESTS = FilePath(__file__).resolve().parent / "reference_digests.json"


@dataclass(frozen=True)
class Scale:
    """Problem sizes; `full` is what the benchmark measures, `smoke` tests it."""

    name: str
    desk_objects: int
    desk_epochs: int
    desk_criterion_7: bool  # the quality bar is defined for the full 1,500-step fit
    paper_path_counts: tuple[int, ...]
    paper_slots: int
    paper_head: HeadConfig
    paper_train_samples: int
    paper_epochs: int
    paper_predict_samples: int
    sweep_gt_counts: tuple[int, ...]
    sweep_predictions: int
    eval_resample_t: int


SCALES = {
    "full": Scale(
        name="full",
        desk_objects=3,
        desk_epochs=500,
        desk_criterion_7=True,
        paper_path_counts=(3, 10, 24, 40),
        paper_slots=40,
        paper_head=HeadConfig(depth=4, width=512, code_dim=384, activation="finer"),
        paper_train_samples=64,
        paper_epochs=2,
        paper_predict_samples=384,
        sweep_gt_counts=(3, 4, 4, 5),
        sweep_predictions=8,
        eval_resample_t=384,
    ),
    "smoke": Scale(
        name="smoke",
        desk_objects=1,
        desk_epochs=20,
        desk_criterion_7=False,
        paper_path_counts=(1, 6),
        paper_slots=6,
        paper_head=HeadConfig(depth=2, width=16, code_dim=8, activation="finer"),
        paper_train_samples=8,
        paper_epochs=1,
        paper_predict_samples=32,
        sweep_gt_counts=(2, 3),
        sweep_predictions=4,
        eval_resample_t=32,
    ),
}


@dataclass
class PassResult:
    """What one timed pass did: wall time, stage figures, and checked operations."""

    seconds: float = 0.0
    quiet_seconds: float = 0.0  # at the host's quiet speed; set by an untraced run
    slowdown: float = 0.0  # the host's slowdown during the pass; set by an untraced run
    attempted: int = 0
    failed: int = 0
    reported: dict = field(default_factory=dict)  # metric -> (value, unit)
    digests: dict = field(default_factory=dict)  # artifact -> sha256 of its bytes
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} {what} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, f"check: {what}")


def digest(path) -> str:
    return hashlib.sha256(FilePath(path).read_bytes()).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, float]:
    """One `pathfield` command in process, its output kept off our stdout."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, time.perf_counter() - start


def _pair_count(report: dict) -> int:
    # (prediction, ground truth) pairs; both scoring directions count once
    return sum(entry["n_predictions"] * entry["n_gt"] for entry in report["per_object"].values())


class DeskLoop:
    """Acceptance criterion 7's pipeline on a dataset generated from the seed."""

    name = "desk_loop"

    def __init__(self, seed: int, scale: Scale, workdir: FilePath) -> None:
        self.seed, self.scale = seed, scale
        self.data = workdir / "fixture.json"
        self.config = workdir / "train.json"
        self.checkpoint = workdir / "checkpoint.json"
        self.predictions = workdir / "predictions.json"
        self.report = workdir / "report.json"

    def setup(self) -> None:
        config = {
            "slots": 8,
            "train_samples": 16,
            "epochs": self.scale.desk_epochs,
            "step_size": 5e-3,
            "lr_schedule": "cosine",
            "lr_min": 1e-5,
            "sampling": "uniform",
            "seed": 0,
            "head": {"depth": 2, "width": 32, "code_dim": 16, "activation": "finer",
                     "omega0": 10.0, "seed": 0},
        }
        self.config.write_text(json.dumps(config))

    def run_pass(self) -> PassResult:
        result = PassResult()
        commands = [
            ("gen", ["gen", "--strokes", 4, "--waypoints", 20, "--seed", self.seed,
                     "--objects", self.scale.desk_objects, "--out", self.data]),
            ("fit", ["fit", "--dataset", self.data, "--config", self.config,
                     "--checkpoint", self.checkpoint]),
            ("predict", ["predict", "--checkpoint", self.checkpoint, "--object", "all",
                         "--samples", 128, "--out", self.predictions]),
            ("evaluate", ["evaluate", "--gt", self.data, "--pred", self.predictions,
                          "--resample-t", self.scale.eval_resample_t, "--out", self.report]),
        ]
        stage_s = {}
        start = time.perf_counter()
        for stage, argv in commands:
            code, seconds = _run_cli(argv)
            if code != 0:
                break
            stage_s[stage] = seconds
        result.seconds = time.perf_counter() - start
        result.ops(len(commands), len(commands) - len(stage_s), "pathfield commands")
        if len(stage_s) < len(commands):
            return result

        report = json.loads(self.report.read_text())
        history = np.array(json.loads(self.checkpoint.read_text())["loss_history"], dtype=float)
        steps = len(history)
        result.ops(steps, int((~np.isfinite(history).all(axis=1)).sum()), "optimizer steps")
        pairs = _pair_count(report)
        result.ops(pairs, 0, "scored pairs")
        counts_ok = all(e["n_predictions"] == e["n_gt"] for e in report["per_object"].values())
        if self.scale.desk_criterion_7:
            result.check(report["ap50"] == 1.0 and report["ap"] >= 0.9 and counts_ok,
                         f"criterion 7 (ap50 {report['ap50']}, ap {report['ap']}, counts {counts_ok})")
        n_paths = sum(e["n_predictions"] for e in report["per_object"].values())
        result.reported = {
            "train_steps_per_s": (steps / stage_s["fit"], "1/s"),
            "predict_paths_per_s": (n_paths / stage_s["predict"], "1/s"),
            "eval_pairs_per_s": (pairs / stage_s["evaluate"], "1/s"),
            "ap50": (report["ap50"], "1"),
            "ap": (report["ap"], "1"),
            "loss_end": (float(history[-self.scale.desk_objects:, 2].mean()), "1"),
        }
        result.digests = {p.name: digest(p) for p in (self.checkpoint, self.predictions, self.report)}
        return result


def _raster_object(rng: np.random.Generator, strokes: int, object_id: str) -> ObjectRecord:
    config = SyntheticConfig(
        strokes=strokes,
        waypoints_per_stroke=int(rng.integers(12, 33)),
        curvature=float(rng.uniform(0.0, 0.3)),
        jitter_sigma=0.002,
        seed=int(rng.integers(2**31)),
    )
    return gen_raster_object(config, object_id)


def _same_state(a: trainer.TrainState, b: trainer.TrainState) -> bool:
    def same(x: dict, y: dict) -> bool:
        return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)

    return (
        a.config == b.config
        and a.epoch == b.epoch
        and a.loss_history == b.loss_history
        and same(named_parameters(a.head), named_parameters(b.head))
        and same(a.codewords, b.codewords)
        and a.moments.keys() == b.moments.keys()
        and all(
            a.moments[k]["step"] == b.moments[k]["step"]
            and np.array_equal(a.moments[k]["m"], b.moments[k]["m"])
            and np.array_equal(a.moments[k]["v"], b.moments[k]["v"])
            for k in a.moments
        )
    )


class PaperTrain:
    """Paper-scale fit, decode of every slot, checkpoint save and load."""

    name = "paper_train"

    def __init__(self, seed: int, scale: Scale, workdir: FilePath) -> None:
        self.seed, self.scale = seed, scale
        self.checkpoint = workdir / "checkpoint.json"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.dataset = {}
        for index, count in enumerate(self.scale.paper_path_counts):
            record = _raster_object(rng, count, f"object-{index:03d}")
            self.dataset[record.object_id] = record.gt_paths
        self.config = trainer.TrainConfig(
            slots=self.scale.paper_slots,
            train_samples=self.scale.paper_train_samples,
            epochs=self.scale.paper_epochs,
            seed=self.seed,
            head=dataclasses.replace(self.scale.paper_head, seed=self.seed),
        )
        self.initial = trainer.init_state(self.dataset, self.config)

    def run_pass(self) -> PassResult:
        result = PassResult()
        state = copy.deepcopy(self.initial)
        start = time.perf_counter()
        trainer.fit(self.dataset, self.config, state=state)
        fitted = time.perf_counter()
        predictions = {
            oid: trainer.predict(state, oid, self.scale.paper_predict_samples, 0.0)
            for oid in sorted(self.dataset)
        }
        predicted = time.perf_counter()
        trainer.save_checkpoint(state, self.checkpoint)
        saved = time.perf_counter()
        loaded = trainer.load_checkpoint(self.checkpoint)
        end = time.perf_counter()
        result.seconds = end - start

        history = np.array(state.loss_history, dtype=float)
        result.ops(len(history), int((~np.isfinite(history).all(axis=1)).sum()), "optimizer steps")
        n_paths = sum(len(p) for p in predictions.values())
        expected = self.scale.paper_slots * len(self.dataset)
        result.ops(expected, expected - n_paths, "decoded slots")
        result.check(_same_state(state, loaded), "loaded checkpoint equals the saved state")
        result.reported = {
            "train_steps_per_s": (len(history) / (fitted - start), "1/s"),
            "predict_paths_per_s": (n_paths / (predicted - fitted), "1/s"),
            "ckpt_save_s": (saved - predicted, "s"),
            "ckpt_load_s": (end - saved, "s"),
            "loss_end": (float(history[-len(self.dataset):, 2].mean()), "1"),
        }
        result.digests = {self.checkpoint.name: digest(self.checkpoint)}
        return result


def _sweep_prediction(gt_paths: list[Path], kind: int, rng: np.random.Generator) -> PredictedPath:
    """A noisy copy of one ground-truth path, in one of four kinds.

    0: as executed; 1: reversed; 2: only the first half; 3: lifted 0.3
    off the face, so it matches no ground truth. Every kind comes at a
    length other than 384 with its own noise level, so F-scores, and
    with them AP, spread over the whole tau range.
    """
    source = gt_paths[int(rng.integers(len(gt_paths)))]
    length = int(rng.choice([n for n in range(96, 700) if n != 384]))
    poses = resample(source, sample_params(ParamSamplingConfig("equispaced", length))).poses.copy()
    if kind == 2:
        poses = poses[: length // 2]
    poses[:, :3] += rng.normal(0.0, rng.uniform(0.002, 0.02), (len(poses), 3))
    if kind == 3:
        poses[:, 2] += 0.3
    tilted = poses[:, 3:] + rng.normal(0.0, 0.05, (len(poses), 3))
    poses[:, 3:] = tilted / np.linalg.norm(tilted, axis=1)[:, None]
    if kind == 1:
        poses = poses[::-1]
    return PredictedPath(Path(poses), float(rng.uniform(0.05, 0.95)))


class EvalSweep:
    """`pathfield evaluate` on varied predictions of seed-generated objects."""

    name = "eval_sweep"

    def __init__(self, seed: int, scale: Scale, workdir: FilePath) -> None:
        self.seed, self.scale = seed, scale
        self.gt = workdir / "gt.json"
        self.predictions = workdir / "predictions.json"
        self.report = workdir / "report.json"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        gt_records, pred_records = [], []
        for index, count in enumerate(self.scale.sweep_gt_counts):
            record = _raster_object(rng, count, f"object-{index:03d}")
            preds = [_sweep_prediction(record.gt_paths, k % 4, rng)
                     for k in range(self.scale.sweep_predictions)]
            gt_records.append(record)
            pred_records.append(ObjectRecord(record.object_id, [], None, preds))
        save_dataset(gt_records, self.gt)
        save_dataset(pred_records, self.predictions)

    def reference_digest(self) -> str | None:
        table = json.loads(REFERENCE_DIGESTS.read_text())
        return table.get(self.scale.name, {}).get(str(self.seed))

    def run_pass(self) -> PassResult:
        result = PassResult()
        code, result.seconds = _run_cli(["evaluate", "--gt", self.gt, "--pred", self.predictions,
                                         "--resample-t", self.scale.eval_resample_t,
                                         "--out", self.report])
        result.ops(1, int(code != 0), "pathfield commands")
        if code != 0:
            return result
        report = json.loads(self.report.read_text())
        pairs = _pair_count(report)
        result.ops(pairs, 0, "scored pairs")
        result.digests = {self.report.name: digest(self.report)}
        reference = self.reference_digest()
        if reference is None:
            result.notes.append(f"no report digest recorded for {self.scale.name} seed {self.seed}; "
                                "only the passes' agreement is checked")
        else:
            result.check(result.digests[self.report.name] == reference,
                         "report matches the digest recorded for this seed")
        result.reported = {
            "eval_pairs_per_s": (pairs / result.seconds, "1/s"),
            "ap50": (report["ap50"], "1"),
            "ap": (report["ap"], "1"),
        }
        return result


WORKLOADS = {w.name: w for w in (DeskLoop, PaperTrain, EvalSweep)}
