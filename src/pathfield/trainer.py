"""Desk-scale auto-decoder training loop.

Instead of an encoder, every object owns a bank of free codewords that
are optimized jointly with the shared head parameters against the
matching objective. One optimizer step per object per epoch; everything
is float64 and fully deterministic given the config seed.
"""
from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field, fields, asdict
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataio import load_json, save_json
from .matching import LossBreakdown, hungarian, objective, pad_targets, position_cost_matrix
from .neural_field import (
    HeadConfig,
    HeadParams,
    _allocate,
    _backward_from_cache,
    _conf_backward_from_cache,
    _confidence_with_cache,
    _forward_with_cache,
    confidence_forward,
    head_forward_batch,
    init_head,
    named_parameters,
)
from .paths import ParamSamplingConfig, Path, PredictedPath, SAMPLING_STRATEGIES, sample_params

CHECKPOINT_FORMAT = "pathfield.checkpoint.v2"

__all__ = [
    "TrainingError",
    "TrainConfig",
    "TrainState",
    "init_state",
    "adam_step",
    "train_epoch",
    "fit",
    "predict",
    "checkpoint_to_document",
    "checkpoint_from_document",
    "save_checkpoint",
    "load_checkpoint",
]


class TrainingError(RuntimeError):
    """Raised when optimization hits a numeric or bookkeeping problem."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one auto-decoder run.

    slots is the number of prediction slots N (must cover the largest
    ground-truth path count). train_samples / test_samples are the
    scalar counts used during optimization and at inference.
    """

    slots: int = 40
    train_samples: int = 64
    test_samples: int = 384
    epochs: int = 200
    step_size: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    sampling: str = "uniform"
    sampling_noise: float | None = None
    gamma: float = 2.0
    seed: int = 0
    codeword_sigma: float = 0.01
    conf_threshold: float = 0.5
    lr_schedule: str = "constant"
    lr_min: float = 1e-8
    head: HeadConfig = field(default_factory=HeadConfig)

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.train_samples < 1 or self.test_samples < 1:
            raise ValueError("sample counts must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.sampling not in SAMPLING_STRATEGIES:
            raise ValueError(f"unknown sampling strategy {self.sampling!r}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")

    def to_document(self) -> dict:
        return asdict(self)

    @classmethod
    def from_document(cls, doc: dict) -> "TrainConfig":
        if not isinstance(doc, dict):
            raise ValueError("train config document must be a JSON object")
        data = dict(doc)
        head_doc = data.pop("head", None)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown train config keys: {unknown}")
        try:
            if head_doc is not None:
                head_known = {f.name for f in fields(HeadConfig)}
                head_unknown = sorted(set(head_doc) - head_known)
                if head_unknown:
                    raise ValueError(f"unknown head config keys: {head_unknown}")
                data["head"] = HeadConfig(**head_doc)
            return cls(**data)
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"malformed train config: {exc}") from exc


@dataclass
class TrainState:
    """Everything the optimizer mutates, plus the per-step loss history."""

    config: TrainConfig
    head: HeadParams
    codewords: dict[str, np.ndarray]  # object id -> (slots, code_dim)
    moments: dict[str, dict]  # parameter name -> {"m", "v", "step"}
    epoch: int
    loss_history: list[tuple[float, float, float]]  # (points, conf, total) per step


def init_state(dataset: Mapping[str, Sequence[Path]], config: TrainConfig) -> TrainState:
    """Fresh head plus Gaussian codewords for every object in the dataset."""
    ids = sorted(dataset)
    if not ids:
        raise ValueError("dataset is empty")
    for object_id in ids:
        if len(dataset[object_id]) > config.slots:
            raise ValueError(
                f"object {object_id!r} has {len(dataset[object_id])} paths, more than "
                f"the {config.slots} prediction slots"
            )
    head = init_head(config.head)
    rng = np.random.default_rng([config.seed, 1])
    codewords = {
        object_id: rng.normal(0.0, config.codeword_sigma, (config.slots, config.head.code_dim))
        for object_id in ids
    }
    return TrainState(config, head, codewords, {}, 0, [])


def _parameter_registry(state: TrainState) -> dict[str, np.ndarray]:
    registry = {f"head.{name}": arr for name, arr in named_parameters(state.head).items()}
    for object_id, arr in state.codewords.items():
        registry[f"codewords.{object_id}"] = arr
    return registry


def adam_step(
    state: TrainState,
    gradients: Mapping[str, np.ndarray],
    config: TrainConfig | None = None,
    step_size: float | None = None,
) -> TrainState:
    """Bias-corrected adaptive-moment update, in place and in float64.

    Each parameter tensor keeps its own step counter, so codewords that
    are only touched on their object's steps stay correctly corrected.
    """
    cfg = config or state.config
    lr = cfg.step_size if step_size is None else step_size
    registry = _parameter_registry(state)
    for name in sorted(gradients):
        grad = np.asarray(gradients[name], dtype=float)
        if name not in registry:
            raise TrainingError(f"gradient for unknown parameter {name!r}")
        param = registry[name]
        if grad.shape != param.shape:
            raise TrainingError(f"gradient shape {grad.shape} != parameter shape {param.shape} for {name!r}")
        if not np.all(np.isfinite(grad)):
            raise TrainingError(f"non-finite gradient for {name!r}")
        slot = state.moments.get(name)
        if slot is None:
            slot = {"m": np.zeros_like(param), "v": np.zeros_like(param), "step": 0}
            state.moments[name] = slot
        slot["step"] += 1
        slot["m"] = cfg.adam_beta1 * slot["m"] + (1.0 - cfg.adam_beta1) * grad
        slot["v"] = cfg.adam_beta2 * slot["v"] + (1.0 - cfg.adam_beta2) * grad * grad
        m_hat = slot["m"] / (1.0 - cfg.adam_beta1 ** slot["step"])
        v_hat = slot["v"] / (1.0 - cfg.adam_beta2 ** slot["step"])
        param -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return state


def _epoch_step_size(config: TrainConfig, epoch: int) -> float:
    if config.lr_schedule == "constant":
        return config.step_size
    progress = min(epoch / max(config.epochs, 1), 1.0)
    return config.lr_min + 0.5 * (config.step_size - config.lr_min) * (1.0 + math.cos(math.pi * progress))


def _object_gradients(
    state: TrainState,
    object_id: str,
    gt_paths: Sequence[Path],
    svals: np.ndarray,
    config: TrainConfig,
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    head = state.head
    codes = state.codewords[object_id]
    targets = pad_targets(gt_paths, config.slots, svals)
    cache = _forward_with_cache(head, codes, svals)
    conf_cache = _confidence_with_cache(head, codes)
    match = hungarian(position_cost_matrix(targets.paths, targets.conf_targets, cache.raw))
    try:
        breakdown, real, d_raw, d_prob = objective(
            targets, match.permutation, cache.raw, conf_cache.prob, config.gamma
        )
    except ValueError as exc:
        raise TrainingError(f"{exc} for object {object_id!r}") from exc

    pose_grads, pose_code_grads = _backward_from_cache(head, cache, d_raw, real)
    conf_grads, conf_code_grads = _conf_backward_from_cache(head, conf_cache, d_prob)
    grads = {f"head.{name}": arr for name, arr in (pose_grads | conf_grads).items()}
    grads[f"codewords.{object_id}"] = pose_code_grads + conf_code_grads
    return breakdown, grads


def train_epoch(
    state: TrainState,
    dataset: Mapping[str, Sequence[Path]],
    config: TrainConfig | None = None,
) -> float:
    """One pass over the dataset (shuffled by seed), one Adam step per object.

    Returns the mean object loss; per-step breakdowns are appended to the
    state's loss history.
    """
    cfg = config or state.config
    ids = sorted(dataset)
    for object_id in ids:
        if object_id not in state.codewords:
            raise ValueError(f"object {object_id!r} has no codewords in this state")
    order = np.random.default_rng([cfg.seed, state.epoch, 0]).permutation(len(ids))
    lr = _epoch_step_size(cfg, state.epoch)
    losses = []
    for position, index in enumerate(order):
        object_id = ids[int(index)]
        sub_seed = int(np.random.SeedSequence([cfg.seed, state.epoch, position + 1]).generate_state(1)[0])
        svals = sample_params(
            ParamSamplingConfig(cfg.sampling, cfg.train_samples, cfg.sampling_noise, sub_seed)
        )
        breakdown, grads = _object_gradients(state, object_id, list(dataset[object_id]), svals, cfg)
        adam_step(state, grads, cfg, lr)
        state.loss_history.append((breakdown.points_loss, breakdown.conf_loss, breakdown.total))
        losses.append(breakdown.total)
    state.epoch += 1
    return float(np.mean(losses))


def fit(
    dataset: Mapping[str, Sequence[Path]],
    config: TrainConfig,
    state: TrainState | None = None,
    progress: Callable[[int, float], None] | None = None,
) -> TrainState:
    """Train until config.epochs, resuming from `state` when given."""
    if state is None:
        state = init_state(dataset, config)
    while state.epoch < config.epochs:
        loss = train_epoch(state, dataset, config)
        if progress is not None:
            progress(state.epoch, loss)
    return state


def predict(
    state: TrainState,
    object_id: str,
    t_test: int | None = None,
    conf_threshold: float | None = None,
) -> list[PredictedPath]:
    """Decode every slot at equispaced parameters and keep confident paths.

    Paths are returned sorted by confidence, descending; slot order
    breaks ties. The pose view normalizes orientations.
    """
    if object_id not in state.codewords:
        raise ValueError(f"unknown object {object_id!r}")
    cfg = state.config
    count = cfg.test_samples if t_test is None else int(t_test)
    threshold = cfg.conf_threshold if conf_threshold is None else float(conf_threshold)
    grid = sample_params(ParamSamplingConfig("equispaced", count))
    codes = state.codewords[object_id]
    confidences = confidence_forward(state.head, codes)
    kept: list[PredictedPath] = []
    for slot, confidence in enumerate(confidences.tolist()):
        if confidence < threshold:
            continue
        # one slot at a time: a whole bank at test resolution would cache
        # (width, N, T) activations for every block
        raw = head_forward_batch(state.head, codes[slot], grid)
        norms = np.linalg.norm(raw[:, 3:], axis=1)
        if np.any(norms < 1e-12):
            raise TrainingError(f"degenerate predicted orientation for object {object_id!r}")
        poses = np.concatenate([raw[:, :3], raw[:, 3:] / norms[:, None]], axis=1)
        kept.append(PredictedPath(Path(poses), confidence))
    kept.sort(key=lambda p: -p.confidence)
    return kept


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def _decode(text, shape: tuple, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint array {name!r} is not base64 text: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"checkpoint array {name!r} holds {len(raw)} bytes, expected shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def checkpoint_to_document(state: TrainState) -> dict:
    """The config once, then every registry array as base64 of its little-endian float64 bytes."""
    return {
        "format": CHECKPOINT_FORMAT,
        "config": state.config.to_document(),
        "epoch": state.epoch,
        "loss_history": [list(entry) for entry in state.loss_history],
        "parameters": {name: _encode(arr) for name, arr in _parameter_registry(state).items()},
        "moments": {
            name: {"m": _encode(slot["m"]), "v": _encode(slot["v"]), "step": slot["step"]}
            for name, slot in state.moments.items()
        },
    }


def checkpoint_from_document(doc: dict) -> TrainState:
    """Rebuild a state; shapes come from the config, so every array must match its registry name."""
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint document (format {found!r})")
    try:
        config = TrainConfig.from_document(doc["config"])
        arrays = doc["parameters"]
        codewords = {
            name.removeprefix("codewords."): np.zeros((config.slots, config.head.code_dim))
            for name in arrays
            if name.startswith("codewords.")
        }
        history = [tuple(float(x) for x in entry) for entry in doc["loss_history"]]
        state = TrainState(config, _allocate(config.head), codewords, {}, int(doc["epoch"]), history)
        registry = _parameter_registry(state)
        unknown = sorted(arrays.keys() - registry.keys())
        if unknown:
            raise ValueError(f"checkpoint arrays {unknown} are not parameters of this config")
        for name, arr in registry.items():
            if name not in arrays:
                raise ValueError(f"checkpoint is missing array {name!r}")
            arr[...] = _decode(arrays[name], arr.shape, name)
        for name, slot in doc["moments"].items():
            if name not in registry:
                raise ValueError(f"checkpoint has moments for unknown parameter {name!r}")
            shape = registry[name].shape
            state.moments[name] = {
                "m": _decode(slot["m"], shape, f"{name}.m"),
                "v": _decode(slot["v"], shape, f"{name}.v"),
                "step": int(slot["step"]),
            }
    except KeyError as exc:
        raise ValueError(f"checkpoint document is missing key {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint document: {exc}") from exc
    return state


def save_checkpoint(state: TrainState, path) -> None:
    save_json(checkpoint_to_document(state), path, indent=None, separators=(",", ":"))


def load_checkpoint(path) -> TrainState:
    return checkpoint_from_document(load_json(path))
