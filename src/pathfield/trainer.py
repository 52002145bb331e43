"""Desk-scale auto-decoder training loop.

Instead of an encoder, every object owns a bank of free codewords that
are optimized jointly with the shared head parameters against the
matching objective. One optimizer step per object per epoch: one forward
and one backward give the gradients keyed like the Adam moments ("head",
the head's whole vector, and "codewords.<id>"), and Adam updates the
head as one vector at one step counter; everything is float64 and fully
deterministic given the config seed. A checkpoint is one JSON document
with every array as base64, keyed by the per-tensor parameter registry.
"""
from __future__ import annotations

import base64
import functools
import json
import math
import re
from dataclasses import dataclass, field, asdict
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataio import _write_atomic, load_json
from .matching import LossBreakdown, hungarian, objective, pad_targets, position_cost_matrix
from .neural_field import (
    HeadConfig,
    HeadParams,
    _allocate,
    _backward_from_cache,
    _forward_with_cache,
    _parallel,
    confidence_forward,
    head_forward_batch,
    init_head,
    named_parameters,
)
from .paths import ParamSamplingConfig, Path, PredictedPath, SAMPLING_STRATEGIES, sample_params
from .paths import _SAMPLES_MAX, _check_fields, _check_integer, _check_number, _check_object, _unit_rows

CHECKPOINT_FORMAT = "pathfield.checkpoint.v2"
_ADAM_BLOCK = 1 << 15  # floats per Adam update call: its five arrays (1.25 MB) stay in cache

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


# TrainConfig's real fields and the (low, high, ends) interval each must lie in
_REAL_FIELDS = (("step_size", (0, np.inf, "()")), ("adam_beta1", (0, 1, "[)")), ("adam_beta2", (0, 1, "[)")),
                ("adam_eps", (0, np.inf, "()")), ("gamma", (0, np.inf, "[)")), ("codeword_sigma", (0, np.inf, "[)")),
                ("conf_threshold", (0, 1, "[]")), ("lr_min", (0, np.inf, "[)")), ("sampling_noise", (0, np.inf, "[)")))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one auto-decoder run.

    slots is the number of prediction slots N (must cover the largest
    ground-truth path count). train_samples / test_samples are the
    scalar counts used during optimization and at inference, each at
    least 2 because a path needs two poses.
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
        _check_fields(self, (("slots", 1), ("train_samples", 2, _SAMPLES_MAX), ("test_samples", 2, _SAMPLES_MAX),
                             ("epochs", 0), ("seed", 0)), _REAL_FIELDS,
                      (("sampling", SAMPLING_STRATEGIES), ("lr_schedule", ("constant", "cosine"))))

    def to_document(self) -> dict:
        return asdict(self)

    @classmethod
    def from_document(cls, doc: dict) -> "TrainConfig":
        data = _check_object("train config", doc, cls.__dataclass_fields__)
        try:
            if "head" in data:
                data["head"] = HeadConfig(**_check_object("head config", data["head"], HeadConfig.__dataclass_fields__))
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"malformed train config: {exc}") from exc


@dataclass
class TrainState:
    """Everything the optimizer mutates, plus the per-step loss history."""

    config: TrainConfig
    head: HeadParams
    codewords: dict[str, np.ndarray]  # object id -> (slots, code_dim)
    moments: dict[str, dict]  # "head" (over its vector) or a codewords registry name -> {"m", "v", "step"}
    epoch: int
    loss_history: list[tuple[float, float, float]]  # (points, conf, total) per step


def init_state(dataset: Mapping[str, Sequence[Path]], config: TrainConfig) -> TrainState:
    """Fresh head plus Gaussian codewords for every object in the dataset."""
    ids = sorted(dataset)
    if not ids:
        raise ValueError("dataset is empty")
    head = init_head(config.head)
    rng = np.random.default_rng([config.seed, 1])
    codewords = {
        object_id: rng.normal(0.0, config.codeword_sigma, (config.slots, config.head.code_dim))
        for object_id in ids
    }
    return TrainState(config, head, codewords, {}, 0, [])


def _parameter_registry(state: TrainState) -> dict[str, np.ndarray]:
    registry = {f"head.{name}": arr for name, arr in named_parameters(state.head).items()}
    return registry | {f"codewords.{object_id}": arr for object_id, arr in state.codewords.items()}


def _registry_moments(state: TrainState) -> dict[str, dict]:
    """The moments keyed by registry name, the head's one entry as a view per tensor."""
    moments = dict(state.moments)
    if (head := moments.pop("head", None)) is not None:
        m, v = (named_parameters(_allocate(state.config.head, head[key])) for key in "mv")
        moments |= {f"head.{name}": {"m": m[name], "v": v[name], "step": head["step"]} for name in m}
    return moments


def _adam_update(param, m, v, grad, step: int, lr: float, config: TrainConfig) -> None:
    """Adam on one array and its moments, in place; terms keep their left-to-right order."""
    m *= config.adam_beta1
    m += (1.0 - config.adam_beta1) * grad
    v *= config.adam_beta2
    v += (1.0 - config.adam_beta2) * grad * grad
    update = np.divide(m, 1.0 - config.adam_beta1**step)
    update *= lr
    work = np.divide(v, 1.0 - config.adam_beta2**step)
    np.sqrt(work, out=work)
    work += config.adam_eps
    update /= work
    param -= update


def adam_step(
    state: TrainState, gradients: Mapping[str, np.ndarray], step_size: float | None = None
) -> TrainState:
    """Bias-corrected adaptive-moment update, in place and in float64.

    Hyperparameters come from state.config; step_size overrides its
    step_size. `gradients` is keyed like state.moments: "head" holds the
    gradient of the head's whole vector, "codewords.<id>" that of one
    bank. Each entry keeps its own step counter, so banks that are only
    touched on their object's steps stay correctly corrected. Updates run
    in cache-sized blocks. Nothing moves unless every gradient fits and is
    finite, and the gradients are left as they were.
    """
    cfg = state.config
    lr = cfg.step_size if step_size is None else step_size
    params = {"head": state.head.vector} | {f"codewords.{oid}": bank for oid, bank in state.codewords.items()}
    grads = {name: np.asarray(grad, dtype=float) for name, grad in gradients.items()}
    for name, grad in sorted(grads.items()):
        if name not in params:
            raise TrainingError(f"gradient for unknown parameter {name!r}")
        if grad.shape != params[name].shape:
            raise TrainingError(f"gradient shape {grad.shape} != parameter shape {params[name].shape} for {name!r}")
        if not np.isfinite(grad).all():
            if name == "head":  # name the tensor
                head = named_parameters(_allocate(cfg.head, grad))
                name = "head." + next(k for k, arr in head.items() if not np.isfinite(arr).all())
            raise TrainingError(f"non-finite gradient for {name!r}")

    for name, grad in grads.items():
        param = params[name]
        if name not in state.moments:
            state.moments[name] = {"m": np.zeros_like(param), "v": np.zeros_like(param), "step": 0}
        slot = state.moments[name]
        slot["step"] += 1
        arrays = [arr.reshape(-1) for arr in (param, slot["m"], slot["v"], grad)]
        for low in range(0, param.size, _ADAM_BLOCK):
            _adam_update(*(arr[low : low + _ADAM_BLOCK] for arr in arrays), slot["step"], lr, cfg)
    return state


def _epoch_step_size(config: TrainConfig, epoch: int) -> float:
    if config.lr_schedule == "constant":
        return config.step_size
    progress = min(epoch / max(config.epochs, 1), 1.0)
    return config.lr_min + 0.5 * (config.step_size - config.lr_min) * (1.0 + math.cos(math.pi * progress))


def _object_gradients(
    state: TrainState, object_id: str, gt_paths: Sequence[Path], svals: np.ndarray
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """The object's loss and its gradients, keyed like state.moments."""
    codes = state.codewords[object_id]
    targets = pad_targets(gt_paths, state.config.slots, svals)
    cache = _forward_with_cache(state.head, codes, svals)
    match = hungarian(position_cost_matrix(targets, cache.raw))
    try:
        breakdown, real, d_raw, d_prob = objective(
            targets, match.permutation, cache.raw, cache.prob, state.config.gamma
        )
    except ValueError as exc:
        raise TrainingError(f"{exc} for object {object_id!r}") from exc
    grad, code_grads = _backward_from_cache(state.head, cache, d_raw, real, d_prob)
    return breakdown, {"head": grad.vector, f"codewords.{object_id}": code_grads}


def train_epoch(state: TrainState, dataset: Mapping[str, Sequence[Path]]) -> float:
    """One pass over the dataset (shuffled by seed), one Adam step per object.

    Hyperparameters come from state.config. Returns the mean object loss;
    per-step breakdowns are appended to the state's loss history.
    """
    cfg = state.config
    ids = sorted(dataset)
    for object_id in ids:
        if object_id not in state.codewords:
            raise ValueError(f"object {object_id!r} has no codewords in this state")
        if len(dataset[object_id]) > cfg.slots:
            raise ValueError(
                f"object {object_id!r} has {len(dataset[object_id])} paths, more than the {cfg.slots} prediction slots"
            )
    order = np.random.default_rng([cfg.seed, state.epoch, 0]).permutation(len(ids))
    lr = _epoch_step_size(cfg, state.epoch)
    losses = []
    for position, index in enumerate(order):
        object_id = ids[int(index)]
        sub_seed = int(np.random.SeedSequence([cfg.seed, state.epoch, position + 1]).generate_state(1)[0])
        svals = sample_params(
            ParamSamplingConfig(cfg.sampling, cfg.train_samples, cfg.sampling_noise, sub_seed)
        )
        breakdown, grads = _object_gradients(state, object_id, list(dataset[object_id]), svals)
        adam_step(state, grads, lr)
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
    """Train until config.epochs, resuming from `state` when given.

    A given state adopts `config`, so a resumed run can extend epochs or
    change the schedule; slots and head fix the state's array shapes and
    must match its own.
    """
    if state is None:
        state = init_state(dataset, config)
    for name in ("slots", "head"):
        if getattr(config, name) != getattr(state.config, name):
            raise ValueError(f"config {name} differs from the state's: a resumed fit cannot change it")
    state.config = config
    while state.epoch < config.epochs:
        loss = train_epoch(state, dataset)
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

    Every kept slot decodes on its own through the same numpy calls, so
    the bytes do not depend on where it runs: the first alone, the rest
    through neural_field._parallel, one block's cells (width x samples)
    being the work.
    """
    if object_id not in state.codewords:
        raise ValueError(f"unknown object {object_id!r}")
    cfg = state.config
    count = cfg.test_samples if t_test is None else t_test
    threshold = cfg.conf_threshold if conf_threshold is None else conf_threshold
    _check_number("conf_threshold", threshold)
    grid = sample_params(ParamSamplingConfig("equispaced", count))
    codes = state.codewords[object_id]
    confidences = confidence_forward(state.head, codes).tolist()
    slots = [slot for slot, confidence in enumerate(confidences) if confidence >= threshold]
    block0: list[np.ndarray] = []  # block 0 sees x alone when modulated, so it runs once per grid

    def decode(slot: int) -> PredictedPath:
        # one slot at a time: BLAS rounds a multi-slot matmul differently, so
        # a batched decode would not give these prediction bytes
        raw = head_forward_batch(state.head, codes[slot], grid, _block0=block0)
        try:
            units = _unit_rows(raw[:, 3:], "degenerate predicted orientation")[0]
        except ValueError as exc:
            raise TrainingError(f"{exc} for object {object_id!r}") from exc
        return PredictedPath(Path(np.concatenate([raw[:, :3], units], axis=1)), confidences[slot])

    kept = [decode(slot) for slot in slots[:1]]  # fills block0, which the later decodes only read
    kept += _parallel([functools.partial(decode, slot) for slot in slots[1:]], state.head.config.width * grid.size)
    kept.sort(key=lambda p: -p.confidence)
    return kept


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8")).decode("ascii")


def _decode(text, shape: tuple, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint array {name!r} is not base64 text: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"checkpoint array {name!r} holds {len(raw)} bytes, expected shape {shape} from the config")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if not np.isfinite(arr).all():
        raise ValueError(f"checkpoint array {name!r} is not finite")
    return arr


def checkpoint_to_document(state: TrainState, encode: Callable[[np.ndarray], str] = _encode) -> dict:
    """The config once, then every registry array as `encode` gives it, by default base64 text."""
    return {
        "format": CHECKPOINT_FORMAT,
        "config": state.config.to_document(),
        "epoch": state.epoch,
        "loss_history": [list(entry) for entry in state.loss_history],
        "parameters": {name: encode(arr) for name, arr in _parameter_registry(state).items()},
        "moments": {
            name: {"m": encode(slot["m"]), "v": encode(slot["v"]), "step": slot["step"]}
            for name, slot in _registry_moments(state).items()
        },
    }


def checkpoint_from_document(doc: dict) -> TrainState:
    """Rebuild a state; shapes come from the config, so every array must match its registry name.
    Every array must be finite, every counter an integer >= 0, and the head's moments at one step."""
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint document (format {found!r})")
    try:
        config = TrainConfig.from_document(doc["config"])
        arrays = _check_object("parameters", doc["parameters"])
        codewords = {
            name.removeprefix("codewords."): np.zeros((config.slots, config.head.code_dim))
            for name in arrays
            if name.startswith("codewords.")
        }
        if "" in codewords:  # the dataset's rule: an object id is a nonempty string
            raise ValueError("checkpoint array 'codewords.' names an empty object id")
        if type(doc["loss_history"]) is not list:
            raise ValueError(f"loss_history must be a list of rows, not {type(doc['loss_history']).__name__}")
        for k, row in enumerate(doc["loss_history"]):
            if not (type(row) is list and len(row) == 3):
                raise ValueError(f"loss_history[{k}] must hold three finite numbers")
            for i, x in enumerate(row):
                _check_number(f"loss_history[{k}][{i}]", x)
        history = [tuple(float(x) for x in row) for row in doc["loss_history"]]
        _check_integer("epoch", doc["epoch"], 0)
        state = TrainState(config, _allocate(config.head), codewords, {}, doc["epoch"], history)
        registry = _parameter_registry(state)
        unknown = sorted(arrays.keys() - registry.keys())
        if unknown:
            raise ValueError(f"checkpoint arrays {unknown} are not parameters of this config")
        for name, arr in registry.items():
            if name not in arrays:
                raise ValueError(f"checkpoint is missing array {name!r}")
            arr[...] = _decode(arrays[name], arr.shape, name)
        moments = _check_object("moments", doc["moments"])
        for name, slot in moments.items():
            if name not in registry:
                raise ValueError(f"checkpoint has moments for unknown parameter {name!r}")
            _check_integer(f"{name}.step", _check_object(f"moments[{name!r}]", slot).get("step"), 0)
            key, param = ("head", state.head.vector) if name.startswith("head.") else (name, registry[name])
            if key not in state.moments:  # the head's step is its first tensor's
                state.moments[key] = {"m": np.zeros_like(param), "v": np.zeros_like(param), "step": slot["step"]}
        for name, slot in _registry_moments(state).items():
            if moments.get(name, {}).get("step") != slot["step"]:
                raise ValueError(f"checkpoint moments of {name!r} are missing or off the head's step {slot['step']}")
            for key in ("m", "v"):
                if key not in moments[name]:
                    raise ValueError(f"checkpoint is missing array '{name}.{key}'")
                slot[key][...] = _decode(moments[name][key], registry[name].shape, f"{name}.{key}")
    except KeyError as exc:
        raise ValueError(f"checkpoint document is missing key {exc}") from exc
    return state


# An array's placeholder "\0<index>" as json.dumps renders it. Only a string value follows `:"`
# (a key holds `"` only escaped), and object ids are keys, so no other text matches.
_PLACEHOLDER = re.compile(r'(?<=:")\\u0000(\d+)(?=")')


def save_checkpoint(state: TrainState, path) -> None:
    """The bytes of json.dumps(checkpoint_to_document(state), sort_keys=True, separators=(",", ":")) and a
    newline, with each array's base64 written in place of its placeholder, so json never scans it."""
    arrays: list[np.ndarray] = []

    def placeholder(arr: np.ndarray) -> str:
        arrays.append(arr)
        return f"\0{len(arrays) - 1}"

    text = json.dumps(checkpoint_to_document(state, placeholder), sort_keys=True, separators=(",", ":"))
    pieces = _PLACEHOLDER.split(text)  # text, index, text, ..., text
    _write_atomic(path, (_encode(arrays[int(p)]) if k % 2 else p for k, p in enumerate(pieces)))


def load_checkpoint(path) -> TrainState:
    return checkpoint_from_document(load_json(path))
