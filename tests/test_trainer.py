import base64
import copy
import dataclasses
import hashlib
import importlib
import json
import os
import sys
import threading
import typing

import numpy as np
import pytest

import pathfield.neural_field as neural_field_module
import pathfield.pool as pool_module
import pathfield.trainer as trainer_module
from pathfield.cli import main
from pathfield.dataio import ObjectRecord, SyntheticConfig, gen_dataset, save_dataset
from pathfield.matching import (
    focal_loss,
    hungarian,
    pad_targets,
    position_cost_matrix,
)
from pathfield.metrics import evaluate_dataset
from pathfield.neural_field import HeadConfig, allocate, confidence_forward, head_forward_batch, named_parameters
from pathfield.paths import ParamSamplingConfig, Path, PredictedPath, sample_params
from pathfield.trainer import (
    TrainConfig,
    TrainingError,
    _object_gradients,
    _parameter_registry,
    _registry_moments,
    adam_step,
    checkpoint_from_document,
    checkpoint_to_document,
    fit,
    init_state,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_epoch,
)

from conftest import ROOT

Z = np.array([0.0, 0.0, 1.0])
SAMPLE_COUNTS = ("train_samples", "test_samples", "count")  # the integer fields that size a float64 array


def tiny_head(**overrides):
    base = dict(depth=2, width=16, code_dim=8, activation="finer", omega0=10.0, seed=0)
    base.update(overrides)
    return HeadConfig(**base)


def tiny_config(**overrides):
    base = dict(
        slots=4,
        train_samples=12,
        test_samples=48,
        epochs=200,
        step_size=5e-3,
        sampling="uniform",
        seed=0,
        head=tiny_head(),
    )
    base.update(overrides)
    return TrainConfig(**base)


def typed_fields(config_class, kind: type) -> list[str]:
    """The names of a config dataclass's fields typed kind or kind | None."""
    hints = typing.get_type_hints(config_class)
    return [f.name for f in dataclasses.fields(config_class)
            if kind in (typing.get_args(hints[f.name]) or (hints[f.name],))]


def line_path(offset_y, k=12):
    pos = np.linspace([0.0, offset_y, 0.0], [1.0, offset_y, 0.0], k)
    return Path(np.concatenate([pos, np.tile(Z, (k, 1))], axis=1))


@pytest.fixture(scope="module")
def fitted():
    dataset = {"obj": [line_path(0.0), line_path(0.5)]}
    config = tiny_config()
    state = fit(dataset, config)
    return dataset, config, state


def head_gradient(state, **tensors) -> dict[str, np.ndarray]:
    """The head's gradient entry, zero but for the given tensors."""
    grad = allocate(state.config.head)
    for name, value in tensors.items():
        named_parameters(grad)[name][...] = value
    return {"head": grad.vector}


def per_tensor(config, gradients) -> dict[str, np.ndarray]:
    """Gradients keyed by registry name, the head's entry as a view per tensor."""
    grads = dict(gradients)
    if (head := grads.pop("head", None)) is not None:
        grads |= {f"head.{k}": v for k, v in named_parameters(allocate(config.head, head)).items()}
    return grads


class TestAdamStep:
    def test_zero_gradients_leave_parameters(self):
        dataset = {"obj": [line_path(0.0)]}
        state = init_state(dataset, tiny_config(epochs=0))
        before = {k: v.copy() for k, v in named_parameters(state.head).items()}
        adam_step(state, head_gradient(state))
        for name, arr in named_parameters(state.head).items():
            assert np.array_equal(arr, before[name])

    def test_first_step_is_bias_corrected(self):
        dataset = {"obj": [line_path(0.0)]}
        config = tiny_config(epochs=0, step_size=0.1)
        state = init_state(dataset, config)
        out_b = named_parameters(state.head)["out_b"]
        out_b[...] = 0.0
        adam_step(state, head_gradient(state, out_b=np.ones(6)))
        assert np.allclose(out_b, -0.1, atol=1e-8)

    def test_nonfinite_gradient_rejected(self):
        dataset = {"obj": [line_path(0.0)]}
        state = init_state(dataset, tiny_config(epochs=0))
        with pytest.raises(TrainingError, match="out_b"):
            adam_step(state, head_gradient(state, out_b=np.full(6, np.nan)))

    def test_unknown_parameter_rejected(self):
        dataset = {"obj": [line_path(0.0)]}
        state = init_state(dataset, tiny_config(epochs=0))
        with pytest.raises(TrainingError):
            adam_step(state, {"nope": np.zeros(3)})

    def test_update_is_seed_free(self):
        # two states built with different seeds, forced to identical params,
        # must move identically under the same gradient
        dataset = {"obj": [line_path(0.0)]}
        a = init_state(dataset, tiny_config(epochs=0, seed=1))
        b = init_state(dataset, tiny_config(epochs=0, seed=2))
        a_out_b, b_out_b = (named_parameters(state.head)["out_b"] for state in (a, b))
        b_out_b[...] = a_out_b
        grad = np.linspace(-1, 1, 6)
        adam_step(a, head_gradient(a, out_b=grad))
        adam_step(b, head_gradient(b, out_b=grad))
        assert np.array_equal(a_out_b, b_out_b)


def reference_adam(param, m, v, grad, step, lr, config):
    """Adam on one tensor, written out as separate arrays."""
    m = config.adam_beta1 * m + (1.0 - config.adam_beta1) * grad
    v = config.adam_beta2 * v + (1.0 - config.adam_beta2) * grad * grad
    m_hat = m / (1.0 - config.adam_beta1 ** step)
    v_hat = v / (1.0 - config.adam_beta2 ** step)
    return param - lr * m_hat / (np.sqrt(v_hat) + config.adam_eps), m, v


class ReferenceOptimizer:
    """Per-tensor Adam on copies of a state's registry, the oracle of adam_step."""

    def __init__(self, state):
        self.config = state.config
        self.params = {name: arr.copy() for name, arr in _parameter_registry(state).items()}
        self.moments = {name: {"m": slot["m"].copy(), "v": slot["v"].copy(), "step": slot["step"]}
                        for name, slot in _registry_moments(state).items()}

    def step(self, gradients, lr):
        for name, grad in per_tensor(self.config, gradients).items():
            slot = self.moments.setdefault(name, {"m": 0.0, "v": 0.0, "step": 0})
            slot["step"] += 1
            self.params[name], slot["m"], slot["v"] = reference_adam(
                self.params[name], slot["m"], slot["v"], grad, slot["step"], lr, self.config
            )

    def assert_matches(self, state):
        registry = _parameter_registry(state)
        assert registry.keys() == self.params.keys()
        for name, arr in registry.items():
            assert arr.tobytes() == self.params[name].tobytes(), name
        moments = _registry_moments(state)
        assert moments.keys() >= self.moments.keys()
        for name, slot in self.moments.items():
            assert moments[name]["step"] == slot["step"], name
            for key in ("m", "v"):
                assert moments[name][key].tobytes() == np.asarray(slot[key], float).tobytes(), name


def random_gradients(state, names, seed):
    rng = np.random.default_rng(seed)
    shapes = {"head": state.head.vector.shape} | {f"codewords.{k}": v.shape for k, v in state.codewords.items()}
    return {name: rng.normal(0.0, 0.1, shapes[name]) for name in names}


@pytest.fixture
def counted_updates(monkeypatch):
    """How many arrays each adam_step call ran its update on."""
    calls = []
    update = trainer_module._adam_update

    def counting(param, *args):
        calls.append(param.size)
        return update(param, *args)

    monkeypatch.setattr(trainer_module, "_adam_update", counting)
    return calls


class TestFusedAdam:
    """adam_step against ReferenceOptimizer, bit for bit."""

    @staticmethod
    def two_object_state(conditioning):
        dataset = {"a": [line_path(0.0)], "b": [line_path(0.3), line_path(0.6)]}
        return init_state(dataset, tiny_config(epochs=0, head=tiny_head(conditioning=conditioning)))

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    def test_full_steps_run_one_head_update(self, conditioning, counted_updates):
        state = self.two_object_state(conditioning)
        reference = ReferenceOptimizer(state)
        head_size = sum(arr.size for arr in named_parameters(state.head).values())
        for step in range(6):
            # the two objects' codewords step on alternate steps
            grads = random_gradients(state, ["head", f"codewords.{'ab'[step % 2]}"], step)
            lr = 1e-3 * (step + 1)
            adam_step(state, grads, lr)
            reference.step(grads, lr)
            reference.assert_matches(state)
        assert counted_updates == [head_size, 4 * 8] * 6

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    def test_partial_first_update_keeps_one_moment_vector(self, conditioning, counted_updates):
        # a first update of one bank alone makes no head moment; the head steps
        # that follow keep the head's moments as one m and one v vector at one counter
        state = self.two_object_state(conditioning)
        reference = ReferenceOptimizer(state)
        for step, names in enumerate([["codewords.a"], ["head", "codewords.a"], ["head", "codewords.b"]]):
            grads = random_gradients(state, names, step)
            adam_step(state, grads, 1e-3)
            reference.step(grads, 1e-3)
            reference.assert_matches(state)
            if step == 0:
                assert state.moments.keys() == {"codewords.a"}
        head = state.moments["head"]
        assert head["m"].shape == head["v"].shape == state.head.vector.shape and head["step"] == 2
        assert {name: slot["step"] for name, slot in state.moments.items()} == {
            "codewords.a": 2, "head": 2, "codewords.b": 1
        }
        assert counted_updates == [4 * 8] + [state.head.vector.size, 4 * 8] * 2

    @pytest.mark.parametrize("trained", [False, True], ids=["fresh", "trained"])
    def test_deep_copy_continues_like_the_original(self, trained, counted_updates):
        dataset = {"a": [line_path(0.0)], "b": [line_path(0.3), line_path(0.6)]}
        config = tiny_config(epochs=4)
        original = fit(dataset, tiny_config(epochs=2)) if trained else init_state(dataset, config)
        copied = copy.deepcopy(original)
        counted_updates.clear()
        fit(dataset, config, state=copied)
        steps = 2 * (config.epochs - (2 if trained else 0))
        assert counted_updates == [copied.head.vector.size, 4 * 8] * steps  # one head update per step
        fit(dataset, config, state=original)  # after the copy's fit, so shared memory would show
        assert checkpoint_to_document(copied) == checkpoint_to_document(original)

    def test_updates_in_blocks_give_the_per_tensor_bits(self, monkeypatch, counted_updates):
        # blocks of 7 floats leave a short last block in nearly every tensor and in the head vector
        monkeypatch.setattr(trainer_module, "_ADAM_BLOCK", 7)
        state = self.two_object_state("modulation")
        reference = ReferenceOptimizer(state)
        for step, step_names in enumerate([["head", "codewords.a"], ["head", "codewords.b"], ["head"]]):
            grads = random_gradients(state, step_names, step)
            adam_step(state, grads, 1e-3)
            reference.step(grads, 1e-3)
            reference.assert_matches(state)
            assert max(counted_updates) <= 7 and sum(counted_updates) == sum(g.size for g in grads.values())
            counted_updates.clear()

    def test_mixed_counters_resume_like_an_uninterrupted_run(self):
        # every step updates the head; the two banks' counters stay apart
        schedule = [["head", "codewords.b"]] + [["head", f"codewords.{'ab'[i % 2]}"] for i in range(5)]
        straight = self.two_object_state("modulation")
        for step, step_names in enumerate(schedule):
            adam_step(straight, random_gradients(straight, step_names, step), 1e-3)

        resumed = self.two_object_state("modulation")
        for step, step_names in enumerate(schedule[:3]):
            adam_step(resumed, random_gradients(resumed, step_names, step), 1e-3)
        resumed = checkpoint_from_document(json.loads(json.dumps(checkpoint_to_document(resumed))))
        for step, step_names in enumerate(schedule[3:], start=3):
            adam_step(resumed, random_gradients(resumed, step_names, step), 1e-3)
        assert checkpoint_to_document(resumed) == checkpoint_to_document(straight)

    def test_loaded_checkpoint_keeps_the_one_vector_update(self, fitted, counted_updates):
        loaded = checkpoint_from_document(checkpoint_to_document(fitted[2]))
        reference = ReferenceOptimizer(loaded)
        grads = random_gradients(loaded, ["head", "codewords.obj"], 0)
        adam_step(loaded, grads, 1e-3)
        reference.step(grads, 1e-3)
        reference.assert_matches(loaded)
        assert len(counted_updates) == 2

    @pytest.mark.parametrize("bad", ["head.block_w1", "codewords.b"])
    def test_nonfinite_tensor_of_a_full_step_is_named(self, bad):
        state = self.two_object_state("modulation")
        adam_step(state, random_gradients(state, ["head", "codewords.b"], 0), 1e-3)
        before = checkpoint_to_document(state)
        grads = random_gradients(state, ["head", "codewords.b"], 1)
        tensors = per_tensor(state.config, grads)
        tensors[bad][1, 2] = np.nan
        tensors["head.out_w"][0, 0] = np.inf  # after block_w1 in the head's layout, and after codewords
        with pytest.raises(TrainingError, match=f"non-finite gradient for '{bad}'"):
            adam_step(state, grads, 1e-3)
        assert checkpoint_to_document(state) == before

    def test_wrong_shape_of_the_right_size_rejected(self):
        state = self.two_object_state("modulation")
        grads = random_gradients(state, ["head", "codewords.a"], 0)
        for name, wrong in (("head", grads["head"][None]), ("codewords.a", grads["codewords.a"].T.copy())):
            with pytest.raises(TrainingError, match=f"shape .* for '{name}'"):
                adam_step(state, grads | {name: wrong}, 1e-3)
        assert state.moments == {}

    @pytest.mark.parametrize("block", [7, trainer_module._ADAM_BLOCK])
    def test_gradients_are_left_unchanged(self, monkeypatch, block):
        monkeypatch.setattr(trainer_module, "_ADAM_BLOCK", block)
        state = self.two_object_state("modulation")
        for step in range(3):
            grads = random_gradients(state, ["head", f"codewords.{'ab'[step % 2]}"], step)
            kept = {name: grad.copy() for name, grad in grads.items()}
            adam_step(state, grads, 1e-3)
            assert grads.keys() == kept.keys()
            for name, grad in grads.items():
                assert grad.tobytes() == kept[name].tobytes(), name


class TestFocalProbGradient:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_matches_finite_differences(self, gamma, target):
        step = 1e-7
        for f in (0.05, 0.3, 0.5, 0.7, 0.95):
            analytic = focal_loss([target], [f], gamma)[1][0]
            fd = (
                focal_loss([target], [f + step], gamma)[0]
                - focal_loss([target], [f - step], gamma)[0]
            ) / (2 * step)
            assert analytic == pytest.approx(fd, rel=1e-5)


class TestTrainEpoch:
    def test_capacity_validation(self):
        dataset = {"obj": [line_path(i * 0.1) for i in range(5)]}
        with pytest.raises(ValueError, match="^object 'obj' has 5 paths, more than the 4 prediction slots$"):
            fit(dataset, tiny_config(slots=4))

    def test_loss_decreases_and_stays_finite(self, fitted):
        dataset, config, state = fitted
        totals = [entry[2] for entry in state.loss_history]
        assert len(totals) == config.epochs  # one object, one step per epoch
        assert all(np.isfinite(t) for t in totals)
        assert totals[-1] < totals[0]

    def test_loss_decomposition(self, fitted):
        _, _, state = fitted
        for points, conf, total in state.loss_history:
            assert total == points + conf

    def test_converged_state_is_approximately_stationary(self, fitted):
        dataset, config, state = fitted
        state = copy.deepcopy(state)  # one more epoch on a copy: the fixture stays at its 200 steps
        tail = [entry[2] for entry in state.loss_history[-10:]]
        reference = float(np.median(tail))
        before = {k: v.copy() for k, v in named_parameters(state.head).items()}
        more = train_epoch(state, dataset)
        assert more <= max(5 * reference, 1e-3)
        drift = max(
            float(np.max(np.abs(arr - before[name])))
            for name, arr in named_parameters(state.head).items()
        )
        assert drift < 0.05  # one more epoch barely moves the head

    def test_determinism_bitwise(self):
        dataset = {"obj": [line_path(0.0), line_path(0.4)]}
        config = tiny_config(epochs=20)
        a = fit(dataset, config)
        b = fit(dataset, config)
        assert a.loss_history == b.loss_history
        for name, arr in named_parameters(a.head).items():
            assert np.array_equal(arr, named_parameters(b.head)[name]), name
        assert np.array_equal(a.codewords["obj"], b.codewords["obj"])


def object_gradient_case(activation: str, conditioning: str, n_paths: int = 2):
    """The object's paths, a fresh state of a small head, and train-time samples."""
    dataset = {"obj": [line_path(0.5 * i, 6) for i in range(n_paths)]}
    config = tiny_config(
        slots=4,
        train_samples=8,
        codeword_sigma=0.5,
        head=tiny_head(width=4, code_dim=3, activation=activation, conditioning=conditioning),
    )
    state = init_state(dataset, config)
    svals = sample_params(ParamSamplingConfig("uniform", config.train_samples, None, 7))
    return dataset["obj"], state, svals


def assert_gradients_match_finite_differences(gt, state, svals) -> dict[str, np.ndarray]:
    """Central differences of _object_gradients' own loss over every parameter."""

    def loss() -> float:
        return _object_gradients(state, "obj", gt, svals)[0].total

    _, grads = _object_gradients(state, "obj", gt, svals)
    assert grads.keys() == {"head", "codewords.obj"}
    grads = per_tensor(state.config, grads)
    params = {f"head.{k}": v for k, v in named_parameters(state.head).items()}
    params["codewords.obj"] = state.codewords["obj"]
    assert grads.keys() == params.keys()
    step, worst = 1e-6, 0.0
    for name, arr in params.items():
        for idx in np.ndindex(arr.shape):
            saved = arr[idx]
            arr[idx] = saved + step
            plus = loss()
            arr[idx] = saved - step
            minus = loss()
            arr[idx] = saved
            fd = (plus - minus) / (2 * step)
            analytic = grads[name][idx]
            worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6))
    assert worst < 1e-4
    return grads


def reference_set_loss(gt, preds, svals, gamma) -> tuple[float, float]:
    """(points, conf) scored pair by pair on normalised paths, apart from `objective`."""
    targets = pad_targets(gt, len(preds), svals)
    assert targets.shape == (len(gt), len(svals), 6)
    arrays = np.stack([p.path.poses for p in preds])
    perm = hungarian(position_cost_matrix(targets, arrays)).permutation
    real = perm < len(gt)  # slots len(gt).. are padding
    total, count = 0.0, 0
    for i, slot in enumerate(perm):
        if not real[i]:
            continue
        tgt, prd = targets[slot], arrays[i]
        dist = np.linalg.norm(tgt[:, :3] - prd[:, :3], axis=1)
        unit = [v / np.linalg.norm(v, axis=1)[:, None] for v in (tgt[:, 3:], prd[:, 3:])]
        gap = unit[0] - unit[1]
        total += float((dist + 0.5 * (gap * gap).sum(axis=1)).sum())
        count += tgt.shape[0]
    conf = focal_loss(real.astype(float), [p.confidence for p in preds], gamma)[0]
    return (total / count if count else 0.0), conf


class TestObjectGradients:
    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("activation", ["relu", "finer"])
    def test_matches_finite_differences_of_the_loss(self, activation, conditioning):
        assert_gradients_match_finite_differences(*object_gradient_case(activation, conditioning))

    def test_object_without_paths_has_only_confidence_gradients(self):
        gt, state, svals = object_gradient_case("finer", "modulation", n_paths=0)
        breakdown, _ = _object_gradients(state, "obj", gt, svals)
        assert breakdown.points_loss == 0.0 and breakdown.conf_loss > 0
        grads = assert_gradients_match_finite_differences(gt, state, svals)
        for name, grad in grads.items():
            assert np.any(grad != 0) == (name.startswith("head.conf_") or name == "codewords.obj"), name

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    def test_object_filling_every_slot(self, conditioning):
        gt, state, svals = object_gradient_case("finer", conditioning, n_paths=4)
        assert len(gt) == state.config.slots
        assert_gradients_match_finite_differences(gt, state, svals)

    def test_backward_differentiates_only_the_matched_rows(self, monkeypatch):
        dataset = {"a": [line_path(0.0), line_path(0.5)], "b": [line_path(y) for y in (-0.6, -0.2, 0.2, 0.6)], "c": []}
        state = init_state(dataset, tiny_config(epochs=1))
        backward, derivative = trainer_module._backward_from_cache, neural_field_module._activation_derivative
        calls, shapes = [], {}

        def recording(params, cache, upstream, rows, d_prob):
            calls.clear()
            result = backward(params, cache, upstream, rows, d_prob)
            shapes[next(oid for oid, bank in state.codewords.items() if bank is cache.codes)] = list(calls)
            return result

        monkeypatch.setattr(neural_field_module, "_activation_derivative", lambda z, *a: calls.append(z.shape) or derivative(z, *a))
        monkeypatch.setattr(trainer_module, "_backward_from_cache", recording)
        train_epoch(state, dataset)
        # depth 2, width 16, 12 samples: block 1 over the rows matched to paths, block 0 over its one slot
        assert shapes == {"a": [(16, 2, 12), (16, 1, 12)], "b": [(16, 4, 12), (16, 1, 12)], "c": [(16, 0, 12), (16, 1, 12)]}

    def test_bias_free_head_keeps_zero_biases(self):
        dataset = {"obj": [line_path(0.0), line_path(0.5)]}
        state = init_state(dataset, tiny_config(epochs=2, head=tiny_head(use_bias=False)))
        svals = sample_params(ParamSamplingConfig("uniform", state.config.train_samples, None, 7))
        _, grads = _object_gradients(state, "obj", dataset["obj"], svals)
        biases = {name: grad for name, grad in per_tensor(state.config, grads).items() if "_b" in name}
        assert len(biases) == 7 and grads["head"].any()  # depth 2: two blocks, out, two mod, two conf
        for name, grad in biases.items():
            assert grad.tobytes() == bytes(grad.nbytes), name  # exactly +0.0
        fit(dataset, state.config, state=state)
        assert all(not arr.any() for name, arr in named_parameters(state.head).items() if "_b" in name)

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    def test_loss_equals_per_pair_reference(self, conditioning):
        gt, state, svals = object_gradient_case("finer", conditioning)
        breakdown, _ = _object_gradients(state, "obj", gt, svals)

        codes = state.codewords["obj"]
        raw = head_forward_batch(state.head, codes, svals)
        unit = raw[:, :, 3:] / np.linalg.norm(raw[:, :, 3:], axis=2, keepdims=True)
        preds = [
            PredictedPath(Path(np.concatenate([raw[i, :, :3], unit[i]], axis=1)), conf)
            for i, conf in enumerate(confidence_forward(state.head, codes))
        ]
        points, conf = reference_set_loss(gt, preds, svals, state.config.gamma)
        assert breakdown.points_loss > 0 and breakdown.conf_loss > 0
        assert breakdown.points_loss == pytest.approx(points, rel=1e-12)
        assert breakdown.conf_loss == pytest.approx(conf, rel=1e-12)
        assert breakdown.total == pytest.approx(points + conf, rel=1e-12)

    def test_zero_predicted_orientation_is_a_training_error(self, tmp_path):
        dataset = {"obj": [line_path(0.0)]}
        state = init_state(dataset, tiny_config(epochs=1))
        for name in ("out_w", "out_b"):
            named_parameters(state.head)[name][3:] = 0.0
        with pytest.raises(TrainingError, match="degenerate predicted orientation for object 'obj'"):
            train_epoch(state, dataset)
        # the CLI reports it as a runtime error, exit code 2
        data, ckpt = tmp_path / "data.json", tmp_path / "ckpt.json"
        save_dataset([ObjectRecord("obj", dataset["obj"])], data)
        save_checkpoint(state, ckpt)
        assert main(["fit", "--dataset", str(data), "--checkpoint", str(ckpt), "--resume"]) == 2


class TestAllTiePaddedMatching:
    """A code_dim 0 concat head is a plain MLP: every slot predicts the same path."""

    @pytest.mark.parametrize("slots", [8, 40])
    def test_every_column_ties_and_identity_wins(self, slots):
        gt = gen_dataset(SyntheticConfig(strokes=3, waypoints_per_stroke=20, seed=0))[0].gt_paths
        config = tiny_config(slots=slots, head=tiny_head(code_dim=0, conditioning="concat"))
        state = init_state({"obj": gt}, config)
        svals = sample_params(ParamSamplingConfig("uniform", config.train_samples, seed=3))
        raw = head_forward_batch(state.head, state.codewords["obj"], svals)
        cost = position_cost_matrix(pad_targets(gt, slots, svals), raw)
        assert cost.shape == (slots, 3)
        assert np.all(cost == cost[0]) and np.all(cost > 0.0)
        assert hungarian(cost).permutation.tolist() == list(range(slots))


def assert_equals_serial_decode(state, preds, samples):
    """preds, every slot of object 'obj' kept, byte for byte as an unshared decode of each slot gives them."""
    codes = state.codewords["obj"]
    confidences = confidence_forward(state.head, codes)
    grid = sample_params(ParamSamplingConfig("equispaced", samples))
    assert len(preds) == len(codes)
    for pred, slot in zip(preds, np.argsort(-confidences, kind="stable")):
        raw = head_forward_batch(state.head, codes[slot], grid)
        poses = np.concatenate([raw[:, :3], raw[:, 3:] / np.linalg.norm(raw[:, 3:], axis=1)[:, None]], axis=1)
        assert pred.path.poses.tobytes() == Path(poses).poses.tobytes()
        assert np.float64(pred.confidence).tobytes() == confidences[slot].tobytes()


class TestPredict:
    def test_threshold_zero_returns_all_slots(self, fitted):
        _, config, state = fitted
        assert len(predict(state, "obj", 16, conf_threshold=0.0)) == config.slots

    def test_threshold_above_one_returns_none(self, fitted):
        _, _, state = fitted
        assert predict(state, "obj", 16, conf_threshold=1.0 + 1e-9) == []

    def test_retained_count_matches_gt_after_fit(self, fitted):
        dataset, _, state = fitted
        preds = predict(state, "obj", 32)
        assert len(preds) == len(dataset["obj"])
        confs = [p.confidence for p in preds]
        assert confs == sorted(confs, reverse=True)

    def test_unknown_object(self, fitted):
        _, _, state = fitted
        with pytest.raises(ValueError):
            predict(state, "missing")

    def test_nan_threshold_rejected(self, fitted, tmp_path, capsys):
        _, _, state = fitted
        with pytest.raises(ValueError, match="conf_threshold"):
            predict(state, "obj", conf_threshold=float("nan"))
        ckpt, out = tmp_path / "ckpt.json", tmp_path / "pred.json"
        save_checkpoint(state, ckpt)
        assert main(["predict", "--checkpoint", str(ckpt), "--object", "obj", "--threshold", "nan",
                     "--out", str(out)]) == 1
        assert "conf_threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", [float("inf"), float("-inf")], ids=["inf", "-inf"])
    def test_infinite_threshold_rejected(self, fitted, threshold):
        _, _, state = fitted
        with pytest.raises(ValueError, match=rf"conf_threshold must lie in \(-inf, inf\), not {threshold}"):
            predict(state, "obj", conf_threshold=threshold)

    @pytest.mark.parametrize("overrides,message", [
        ({"t_test": 2.5}, "count must be an integer, not 2.5"),
        ({"conf_threshold": "0.5"}, "conf_threshold must be a number, not '0.5'"),
        ({"conf_threshold": True}, "conf_threshold must be a number, not True"),
    ], ids=["t_test-float", "threshold-str", "threshold-bool"])
    def test_non_number_override_rejected(self, fitted, overrides, message):
        _, _, state = fitted
        with pytest.raises(ValueError, match=message):
            predict(state, "obj", **overrides)

    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_equals_an_unshared_decode_of_each_slot(self, kind, conditioning, use_bias):
        head = tiny_head(activation=kind, conditioning=conditioning, use_bias=use_bias)
        state = fit({"obj": [line_path(0.0), line_path(0.5)]}, tiny_config(epochs=3, head=head))
        # an odd count keeps x = 0, where a bias-free relu head decodes a zero orientation, off the grid
        assert_equals_serial_decode(state, predict(state, "obj", 25, conf_threshold=0.0), 25)

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    def test_block0_runs_once_per_call(self, monkeypatch, conditioning):
        state = init_state({"obj": [line_path(0.0)]}, tiny_config(head=tiny_head(conditioning=conditioning)))
        calls = []
        original = neural_field_module._activation_value

        def spy(z, *args):
            calls.append(z.shape)
            return original(z, *args)

        monkeypatch.setattr(neural_field_module, "_activation_value", spy)
        for _ in range(2):
            calls.clear()
            kept = predict(state, "obj", 20, conf_threshold=0.0)
            # depth 2, width 16: block 0 once per call when modulated, else once per slot
            blocks = 1 + len(kept) if conditioning == "modulation" else 2 * len(kept)
            assert len(kept) == 4 and calls == [(16, 1, 20)] * blocks


class TestPoolDecode:
    """predict decodes the slots after the first through pool.parallel, on the shared
    thread pool, when a block holds at least PARALLEL_CELLS cells and more than one CPU is
    usable; the bytes stay those of a serial decode of each slot."""

    SLOTS = 8

    @staticmethod
    def state(**head):
        return init_state({"obj": []}, tiny_config(slots=TestPoolDecode.SLOTS, head=tiny_head(**head)))

    @pytest.fixture
    def pools(self, pools, monkeypatch):
        """The recorded pools, with 16 usable CPUs and one BLAS thread patched in, so that the pool may
        run more threads than there are cores, and a short switch interval."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        monkeypatch.setattr(pool_module, "_blas_threads", lambda: 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield pools
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("head,samples,pooled", [
        ({"width": 64}, 1024, True),
        ({"width": 16}, 48, False),
        ({"width": 64, "conditioning": "concat"}, 1024, True),
    ], ids=["above-rule", "below-rule", "concat"])
    def test_equals_serial_decode_of_each_slot(self, pools, monkeypatch, head, samples, pooled):
        assert (head["width"] * samples >= pool_module.PARALLEL_CELLS) == pooled
        state = self.state(**head)
        blocks = []  # the thread each block's activation ran on
        original = neural_field_module._activation_value
        monkeypatch.setattr(neural_field_module, "_activation_value",
                            lambda *args: blocks.append(threading.get_ident()) or original(*args))
        preds = predict(state, "obj", samples, conf_threshold=0.0)
        # depth 2: a modulated block 0 runs once per call, on the first slot, before any pool decode
        assert len(blocks) == (2 * self.SLOTS if head.get("conditioning") == "concat" else 1 + self.SLOTS)
        # the first slot alone on the caller, each of its 2 blocks' waves over row halves on the pool;
        # then the pool decodes the other 7 slots and the caller none. One pool of 16 threads (one
        # per usable CPU) serves them all.
        started = pools[0].started if pooled else set()
        assert [thread in started for thread in blocks] == [False] * 2 + [pooled] * (len(blocks) - 2)
        assert [(pool.workers, len(pool.ran)) for pool in pools] == ([(16, 2 * 2 + self.SLOTS - 1)] if pooled else [])
        assert all(set(pool.ran) <= pool.started for pool in pools)
        assert_equals_serial_decode(state, preds, samples)

    def test_degenerate_orientation_on_the_pool_path(self, pools, monkeypatch):
        # bias-free, so a zero codeword decodes a zero path; slot 0 decodes serially, slot 5 on the
        # pool (an odd count keeps x = 0, where every bias-free slot decodes a zero orientation, off the grid)
        state = self.state(width=64, use_bias=False)
        assert len(predict(state, "obj", 1025, conf_threshold=0.0)) == self.SLOTS
        calls = 2 * 2 + self.SLOTS - 1  # slot 0's 2 blocks' row halves, then the other slots' decodes
        assert [(pool.workers, len(pool.ran)) for pool in pools] == [(16, calls)]
        state.codewords["obj"][5] = 0.0
        failed = []  # the thread each failed orientation check ran on
        original = trainer_module.unit_rows

        def spy(*args):
            try:
                return original(*args)
            except ValueError:
                failed.append(threading.get_ident())
                raise

        monkeypatch.setattr(trainer_module, "unit_rows", spy)
        with pytest.raises(TrainingError, match="degenerate predicted orientation for object 'obj'"):
            predict(state, "obj", 1025, conf_threshold=0.0)
        # the failed predict pooled as many calls as the first, on the same pool's threads, and slot 5's
        # check failed on one of them
        assert [(pool.workers, len(pool.ran)) for pool in pools] == [(16, 2 * calls)]
        assert set(pools[0].ran) <= pools[0].started
        assert len(failed) == 1 and failed[0] in pools[0].started

    @pytest.mark.parametrize("affinity", ["one-cpu", "no-affinity-call"])
    def test_one_usable_cpu_builds_no_pool(self, monkeypatch, affinity):
        def no_pool(*args, **kwargs):
            raise AssertionError("predict built a thread pool with one usable CPU")

        monkeypatch.setattr(pool_module, "ThreadPoolExecutor", no_pool)
        pool_module._pool.cache_clear()  # so that no pool cached before the test can stand in
        if affinity == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        state = self.state(width=64)
        assert_equals_serial_decode(state, predict(state, "obj", 1024, conf_threshold=0.0), 1024)


class TestParallelBytes:
    """With every piece of work above the cell bound and 2 CPUs per BLAS thread, the waves, the
    backward's matmul pairs and the decodes run through pool.parallel's pool; a fit's
    checkpoint and its predictions stay byte for byte those of the serial route."""

    @staticmethod
    def fit_and_predict(path, head):
        dataset = {"a": [line_path(0.0), line_path(0.5)], "b": [line_path(-0.4)], "c": []}
        state = fit(dataset, tiny_config(epochs=3, head=head))
        save_checkpoint(state, path)
        preds = [pred for oid in sorted(dataset) for pred in predict(state, oid, 25, conf_threshold=0.0)]
        return path.read_bytes(), [(pred.path.poses.tobytes(), pred.confidence) for pred in preds]

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_equal_to_the_serial_route(self, tmp_path, monkeypatch, pools, kind, conditioning):
        head = tiny_head(activation=kind, conditioning=conditioning, width=15)  # odd, so the row halves differ
        monkeypatch.setattr(pool_module, "PARALLEL_CELLS", 0)
        monkeypatch.setattr(pool_module, "_blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = self.fit_and_predict(tmp_path / "serial.json", head)
        assert pools == []

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert self.fit_and_predict(tmp_path / "parallel.json", head) == serial
        # one pool of 2 threads; each of the 9 steps pools 2 waves and a matmul pair at least, 2 calls each
        assert [pool.workers for pool in pools] == [2]
        assert len(pools[0].ran) > 2 * 9 * 3 and set(pools[0].ran) <= pools[0].started


class TestTraceBindings:
    """perfbench times the decode and the training forward by wrapping the
    trainer's own bindings of these names (as neural_field.predict_forward
    and neural_field.forward), so the work must go through those bindings."""

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        original = getattr(trainer_module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(f"pathfield.trainer.{name}", wrapper)
        return calls

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.1])
    def test_predict_decodes_each_kept_slot_once(self, fitted, monkeypatch, threshold):
        _, _, state = fitted
        calls = self.counting(monkeypatch, "head_forward_batch")
        kept = predict(state, "obj", conf_threshold=threshold)
        assert len(calls) == len(kept)
        assert all(np.ndim(args[1]) == 1 for args in calls)

    def test_train_epoch_runs_one_cached_forward_per_step(self, monkeypatch):
        dataset = {"a": [line_path(0.0)], "b": [line_path(0.2), line_path(0.6)], "c": []}
        state = init_state(dataset, tiny_config(epochs=1))
        calls = self.counting(monkeypatch, "_forward_with_cache")
        train_epoch(state, dataset)
        assert len(calls) == len(state.loss_history) == len(dataset)

    def test_benchmark_tracer_finds_every_binding_it_has_not_lost_before(self, monkeypatch):
        # a binding the tracer cannot find drops its per-layer metric to 0 with no failure; these five
        # are gone from the program already, and the benchmark may retire them
        retired = {"pathfield.trainer.accumulate_gradients", "pathfield.trainer.zero_gradients",
                   "pathfield.neural_field.zero_gradients", "pathfield.trainer._confidence_with_cache",
                   "pathfield.trainer._conf_backward_from_cache"}
        monkeypatch.syspath_prepend(ROOT / "perfbench")
        tracer = importlib.import_module("tracing").Tracer()
        try:
            tracer.install()
        finally:
            tracer.restore()
        assert set(tracer.missing) <= retired


class TestCheckpoint:
    def test_document_round_trip(self, fitted):
        _, _, state = fitted
        doc = json.loads(json.dumps(checkpoint_to_document(state)))
        loaded = checkpoint_from_document(doc)
        assert loaded.epoch == state.epoch
        assert loaded.loss_history == state.loss_history
        for name, arr in named_parameters(state.head).items():
            assert np.array_equal(arr, named_parameters(loaded.head)[name])
        assert np.array_equal(loaded.codewords["obj"], state.codewords["obj"])
        for name, slot in state.moments.items():
            assert np.array_equal(loaded.moments[name]["m"], slot["m"])
            assert loaded.moments[name]["step"] == slot["step"]

    def test_resume_equals_straight_run(self, tmp_path):
        dataset = {"obj": [line_path(0.0), line_path(0.3)]}
        straight = fit(dataset, tiny_config(epochs=30))

        half = fit(dataset, tiny_config(epochs=15))
        target = tmp_path / "ckpt.json"
        save_checkpoint(half, target)
        resumed_state = load_checkpoint(target)
        resumed = fit(dataset, tiny_config(epochs=30), state=resumed_state)

        assert resumed.epoch == straight.epoch
        assert resumed.loss_history == straight.loss_history
        for name, arr in named_parameters(straight.head).items():
            assert np.array_equal(arr, named_parameters(resumed.head)[name]), name
        assert np.array_equal(resumed.codewords["obj"], straight.codewords["obj"])

    def test_extended_resume_saves_the_extended_config(self, tmp_path):
        # a resumed fit adopts the config it is given, so the checkpoint it
        # saves is the straight run's, config included
        dataset = {"obj": [line_path(0.0), line_path(0.3)]}
        config = tiny_config(epochs=30)
        straight_path, resumed_path = tmp_path / "straight.json", tmp_path / "resumed.json"
        save_checkpoint(fit(dataset, config), straight_path)

        save_checkpoint(fit(dataset, dataclasses.replace(config, epochs=15)), resumed_path)
        resumed = fit(dataset, config, state=load_checkpoint(resumed_path))
        save_checkpoint(resumed, resumed_path)
        assert load_checkpoint(resumed_path).config.epochs == 30
        assert resumed_path.read_bytes() == straight_path.read_bytes()

    @pytest.mark.parametrize("field,value", [("slots", 5), ("head", tiny_head(width=12))],
                             ids=["slots", "head"])
    def test_resume_rejects_a_config_of_other_shapes(self, field, value):
        dataset = {"obj": [line_path(0.0)]}
        state = init_state(dataset, tiny_config(epochs=1))
        with pytest.raises(ValueError, match=f"config {field} differs"):
            fit(dataset, tiny_config(epochs=1, **{field: value}), state=state)
        assert state.epoch == 0 and state.config == tiny_config(epochs=1)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        dataset = {"obj": [line_path(0.0)]}
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(fit(dataset, tiny_config(epochs=10)), a_path)
        save_checkpoint(fit(dataset, tiny_config(epochs=10)), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            checkpoint_from_document({"format": "something-else"})

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "finer"])
    def test_round_trip_bit_exact(self, kind, conditioning):
        dataset = {"a": [line_path(0.0)], "b": [line_path(0.2), line_path(0.4)]}
        config = tiny_config(epochs=2, head=tiny_head(activation=kind, conditioning=conditioning))
        state = fit(dataset, config)
        doc = json.loads(json.dumps(checkpoint_to_document(state)))
        registry = _parameter_registry(state)
        assert set(doc) == {"format", "config", "epoch", "loss_history", "parameters", "moments"}
        assert doc["parameters"].keys() == registry.keys() == doc["moments"].keys()
        loaded = checkpoint_from_document(doc)
        assert loaded.config == config and loaded.epoch == 2
        assert loaded.loss_history == state.loss_history
        loaded_registry = _parameter_registry(loaded)
        assert loaded_registry.keys() == registry.keys()
        moments, loaded_moments = _registry_moments(state), _registry_moments(loaded)
        assert loaded.moments.keys() == state.moments.keys() == {"head", "codewords.a", "codewords.b"}
        for name, arr in registry.items():
            assert loaded_registry[name].shape == arr.shape, name
            assert loaded_registry[name].tobytes() == arr.tobytes(), name
            for key in ("m", "v"):
                assert loaded_moments[name][key].tobytes() == moments[name][key].tobytes(), name
            assert loaded_moments[name]["step"] == moments[name]["step"]

    def test_missing_array_rejected(self, fitted):
        doc = checkpoint_to_document(fitted[2])
        del doc["parameters"]["head.out_w"]
        with pytest.raises(ValueError, match="head.out_w"):
            checkpoint_from_document(doc)

    def test_wrong_size_array_rejected(self, fitted):
        doc = checkpoint_to_document(fitted[2])
        doc["parameters"]["head.out_b"] = doc["parameters"]["head.conf_b1"]
        with pytest.raises(ValueError, match="head.out_b"):
            checkpoint_from_document(doc)

    def test_extra_array_rejected(self, fitted):
        doc = checkpoint_to_document(fitted[2])
        doc["parameters"]["head.block_w9"] = doc["parameters"]["head.out_b"]
        with pytest.raises(ValueError, match="head.block_w9"):
            checkpoint_from_document(doc)

    def test_unknown_moment_rejected(self, fitted):
        doc = checkpoint_to_document(fitted[2])
        doc["moments"]["codewords.ghost"] = doc["moments"]["codewords.obj"]
        with pytest.raises(ValueError, match="codewords.ghost"):
            checkpoint_from_document(doc)

    @pytest.mark.parametrize("path,value,message", [
        (("epoch",), 1.7, "epoch must be an integer"),
        (("epoch",), True, "epoch must be an integer"),
        (("epoch",), -1, "epoch must be >= 0"),
        (("moments", "codewords.obj", "step"), -3, "codewords.obj.step must be >= 0"),
        (("moments", "head.out_w", "step"), 2.5, "head.out_w.step must be an integer"),
        (("moments", "head.out_w", "step"), False, "head.out_w.step must be an integer"),
        (("loss_history", 1), [0.5, 0.25], r"loss_history\[1\] must hold three finite numbers"),
        (("loss_history", 1), [0.5, 0.25, 0.75, 1.0], r"loss_history\[1\] must hold"),
        (("loss_history", 0, 2), float("nan"), r"loss_history\[0\]\[2\] must lie in \(-inf, inf\), not nan"),
        (("loss_history", 0, 0), True, r"loss_history\[0\]\[0\] must be a number, not True"),
        (("loss_history", 0, 1), "0.5", r"loss_history\[0\]\[1\] must be a number, not '0.5'"),
    ], ids=["epoch-float", "epoch-bool", "epoch-negative", "step-negative", "step-float", "step-bool",
            "row-of-two", "row-of-four", "row-nan", "row-bool", "row-string"])
    def test_bad_counter_is_named(self, fitted, path, value, message):
        doc = json.loads(json.dumps(checkpoint_to_document(fitted[2])))
        *keys, last = path
        holder = doc
        for key in keys:
            holder = holder[key]
        holder[last] = value
        with pytest.raises(ValueError, match=message):
            checkpoint_from_document(doc)

    def test_head_moments_at_another_step_are_named(self, fitted):
        # the head steps as one, so only a partial update could write these
        doc = checkpoint_to_document(fitted[2])
        doc["moments"]["head.conf_b1"]["step"] += 1
        with pytest.raises(ValueError, match="'head.conf_b1' are missing or off the head's step"):
            checkpoint_from_document(doc)
        doc = checkpoint_to_document(fitted[2])
        del doc["moments"]["head.out_w"]
        with pytest.raises(ValueError, match="'head.out_w' are missing"):
            checkpoint_from_document(doc)

    @pytest.mark.parametrize("path", [
        ("parameters", "head.block_w0"), ("parameters", "head.conf_b2"), ("parameters", "codewords.obj"),
        ("moments", "head.out_w", "v"), ("moments", "codewords.obj", "m"),
    ], ids=lambda path: ".".join(path[1:]))
    def test_non_finite_array_is_named(self, fitted, tmp_path, capsys, path):
        doc = checkpoint_to_document(fitted[2])
        *keys, last = path
        holder = doc
        for key in keys:
            holder = holder[key]
        values = np.frombuffer(base64.b64decode(holder[last]), dtype="<f8").copy()
        values[-1] = np.inf if last == "v" else np.nan
        holder[last] = base64.b64encode(values.tobytes()).decode()
        name = ".".join(path[1:])
        with pytest.raises(ValueError, match=f"checkpoint array '{name}' is not finite"):
            checkpoint_from_document(doc)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        capsys.readouterr()
        assert main(["predict", "--checkpoint", str(ckpt), "--object", "obj", "--out", str(tmp_path / "p.json")]) == 1
        assert f"'{name}' is not finite" in capsys.readouterr().err

    def test_non_finite_config_number_is_named(self, fitted, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(fitted[2], ckpt)
        doc = json.loads(ckpt.read_text())
        doc["config"]["gamma"] = float("inf")
        ckpt.write_text(json.dumps(doc))  # json writes the infinity as Infinity, which it reads back
        assert '"gamma": Infinity' in ckpt.read_text()
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, inf\), not inf"):
            load_checkpoint(ckpt)

    def test_failed_save_keeps_previous_checkpoint(self, fitted, tmp_path, monkeypatch):
        # every byte reaches the temp file, then the atomic writer's fsync fails
        target = tmp_path / "ckpt.json"
        save_checkpoint(fitted[2], target)
        before = target.read_bytes()

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(fitted[2], target)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_save_failing_midway_keeps_previous_checkpoint(self, fitted, tmp_path, monkeypatch):
        # encoding the last array fails after the writer has put everything before it on disk
        target = tmp_path / "ckpt.json"
        save_checkpoint(fitted[2], target)
        before = target.read_bytes()
        encode, calls = trainer_module._encode, []
        arrays = len(_parameter_registry(fitted[2])) + 2 * len(_registry_moments(fitted[2]))

        def failing_encode(arr):
            calls.append(arr)
            if len(calls) == arrays:
                assert (tmp_path / "ckpt.json.tmp").stat().st_size > len(before) // 2
                raise OSError("disk full")
            return encode(arr)

        monkeypatch.setattr(trainer_module, "_encode", failing_encode)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(fitted[2], target)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def mixed_counter_state():
    """Two objects whose banks' counters and the head's stay apart."""
    dataset = {"a": [line_path(0.0)], "b": [line_path(0.3), line_path(0.6)]}
    state = init_state(dataset, tiny_config(epochs=0))
    for step, step_names in enumerate([["head", "codewords.b"], ["head", "codewords.a"], ["head", "codewords.b"]]):
        adam_step(state, random_gradients(state, step_names, step), 1e-3)
    return state


def odd_id_state():
    """Object ids that JSON must escape, and ids that read like the splice's placeholders."""
    ids = ['quo"te', "back\\slash", "n\u00efve \u6f22", "nul\x00id", "\x000", ':"\x001"', "\\u00002", ':"\\u00003"', "colon:"]
    dataset = {object_id: [line_path(0.1 * k)] for k, object_id in enumerate(ids)}
    state = init_state(dataset, tiny_config(epochs=0, slots=2))
    train_epoch(state, dataset)
    return state


class TestSplicedSave:
    """save_checkpoint writes exactly the bytes json.dumps writes for the checkpoint document, compact."""

    STATES = {
        "zero_epochs": lambda: init_state({"obj": [line_path(0.0)]}, tiny_config(epochs=0)),
        "desk_fit": lambda: fit({"obj": [line_path(0.0), line_path(0.5)]}, tiny_config(epochs=3)),
        "mixed_counters": mixed_counter_state,
        "bias_free": lambda: fit({"obj": [line_path(0.0)]}, tiny_config(epochs=2, head=tiny_head(use_bias=False))),
        "concat": lambda: fit({"obj": [line_path(0.0)]}, tiny_config(epochs=2, head=tiny_head(conditioning="concat"))),
        "odd_ids": odd_id_state,
    }

    @pytest.mark.parametrize("kind", sorted(STATES))
    def test_bytes_equal_save_json(self, kind, tmp_path):
        state = self.STATES[kind]()
        spliced = tmp_path / "spliced.json"
        save_checkpoint(state, spliced)
        doc = checkpoint_to_document(state)
        assert spliced.read_bytes() == (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
        assert checkpoint_to_document(load_checkpoint(spliced)) == checkpoint_to_document(state)


class TestTrainConfigDocument:
    def test_round_trip(self):
        config = tiny_config(epochs=7)
        assert TrainConfig.from_document(config.to_document()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig.from_document({"slots": 4, "typo_key": 1})

    def test_unknown_head_key_rejected(self):
        with pytest.raises(ValueError, match="head"):
            TrainConfig.from_document({"head": {"widht": 8}})

    @pytest.mark.parametrize("field,value", [
        ("adam_beta1", 1.0), ("adam_beta1", -0.1), ("adam_beta1", float("nan")), ("adam_beta2", 1.0),
        ("adam_eps", 0.0), ("adam_eps", -1e-8), ("lr_min", -1.0), ("lr_min", float("nan")),
        ("codeword_sigma", -0.01), ("conf_threshold", 1.5), ("conf_threshold", -0.1),
        ("sampling_noise", -0.1), ("step_size", float("nan")), ("gamma", float("nan")),
    ])
    def test_out_of_range_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("adam_beta1", 0.0), ("adam_beta2", 0.0), ("adam_eps", 5e-324), ("lr_min", 0.0),
        ("codeword_sigma", 0.0), ("conf_threshold", 0.0), ("conf_threshold", 1.0), ("sampling_noise", 0.0),
    ])
    def test_boundary_value_is_accepted(self, field, value):
        assert getattr(tiny_config(**{field: value}), field) == value

    @pytest.mark.parametrize("field,value", [
        ("epochs", 1.5), ("epochs", 2.0), ("slots", True), ("slots", 8.5), ("train_samples", np.float64(12)),
        ("test_samples", 48.0), ("seed", 1.5), ("seed", False),
    ])
    def test_non_integer_count_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("depth", 2.0), ("width", True), ("code_dim", 8.5), ("conf_hidden", 3.5), ("conf_hidden", False), ("seed", 0.0),
    ])
    def test_non_integer_head_count_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tiny_head(**{field: value})

    @pytest.mark.parametrize("field,value", [("epochs", np.int64(3)), ("slots", np.int32(4)), ("seed", 0)])
    def test_integer_count_is_accepted(self, field, value):
        assert getattr(tiny_config(**{field: value}), field) == value

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("config_class,field", [
        (config_class, field)
        for config_class in (TrainConfig, HeadConfig, ParamSamplingConfig, SyntheticConfig)
        for field in typed_fields(config_class, float)
    ], ids=lambda item: item if isinstance(item, str) else item.__name__)
    def test_every_real_field_rejects_a_non_finite_value(self, config_class, field, value):
        # the fields come from the dataclasses, so a real field added later is checked too
        with pytest.raises(ValueError, match=f"^{field} must lie in .*, not {value}$"):
            config_class(**{field: value})

    @pytest.mark.parametrize("config_class,field", [
        (config_class, field)
        for config_class in (TrainConfig, HeadConfig, ParamSamplingConfig, SyntheticConfig)
        for field in typed_fields(config_class, int)
    ], ids=lambda item: item if isinstance(item, str) else item.__name__)
    def test_every_integer_field_rejects_a_count_beyond_numpy_indices(self, config_class, field):
        # numpy can neither index nor allocate 10**30 of anything; a sample count has the lower float64 bound
        bound = np.iinfo(np.intp).max // (8 if field in SAMPLE_COUNTS else 1)
        with pytest.raises(ValueError, match=f"^{field} must be <= {bound}, not {10**30}$"):
            config_class(**{field: 10**30})

    @pytest.mark.parametrize("config_class,field", [(TrainConfig, "train_samples"), (TrainConfig, "test_samples"),
                                                    (ParamSamplingConfig, "count")],
                             ids=["train_samples", "test_samples", "count"])
    def test_sample_count_is_bounded_by_the_float64_values_numpy_can_size(self, config_class, field):
        # a sample count sizes one float64 array, of at most intp's maximum in bytes
        bound = np.iinfo(np.intp).max // 8
        assert getattr(config_class(**{field: bound}), field) == bound
        with pytest.raises(ValueError, match=f"^{field} must be <= {bound}, not {bound + 1}$"):
            config_class(**{field: bound + 1})

    @pytest.mark.parametrize("value,message", [
        (True, "must be a number, not True"), ("0.5", "must be a number, not '0.5'"),
        (1.5, r"must lie in \[0, 1\], not 1.5"),
    ], ids=["true", "string", "above-one"])
    def test_predicted_path_confidence_follows_the_number_rule(self, value, message):
        with pytest.raises(ValueError, match=f"^confidence {message}$"):
            PredictedPath(line_path(0.0), value)

    @pytest.mark.parametrize("keyword,name,value", [
        ("delta", "delta", True), ("theta_deg", "theta", True), ("delta", "delta", "0.1"),
    ], ids=["delta-true", "theta-true", "delta-string"])
    def test_evaluation_threshold_follows_the_number_rule(self, keyword, name, value):
        dataset = {"obj": ([line_path(0.0)], [PredictedPath(line_path(0.0), 0.5)])}
        with pytest.raises(ValueError, match=f"^{name} must be a number, not {value!r}$"):
            evaluate_dataset(dataset, **{keyword: value})


class TestSmoothPredictions:
    def test_predicted_paths_pass_continuity_probe(self, fitted):
        _, _, state = fitted
        eps = 1e-6
        xs = np.linspace(-1, 1 - eps, 501)
        from pathfield.neural_field import head_forward_batch

        for slot in range(state.config.slots):
            code = state.codewords["obj"][slot]
            a = head_forward_batch(state.head, code, xs)
            b = head_forward_batch(state.head, code, xs + eps)
            assert np.abs(b - a).max() / eps < 1e5


def test_end_to_end_multi_object_fit_reaches_low_loss():
    records = gen_dataset(SyntheticConfig(strokes=2, waypoints_per_stroke=10, seed=3), objects=2)
    dataset = {r.object_id: r.gt_paths for r in records}
    config = tiny_config(slots=3, epochs=120)
    state = fit(dataset, config)
    assert state.loss_history[-1][2] < 0.3 * state.loss_history[0][2]
    for object_id in dataset:
        assert len(predict(state, object_id, 32)) == len(dataset[object_id])


# sha256 of (checkpoint bytes, predicted poses and confidences) of a 20-epoch
# fit of two objects (2 and 4 paths, 4 slots, width 16), recorded before the
# head's forward-only decode and one-pass activation were introduced. Head
# changes that claim bit-identical outputs must keep these. The digests were
# recorded on this machine's numpy/BLAS; another BLAS may round the matmuls
# differently and change them without any change in the code.
PINNED_DIGESTS = {
    ("relu", "modulation"): (
        "5a7203f9a561a15b45f3a8da48d595d998619c06a8883d390acaef220ac0895c",
        "7583a769fbb2a81fcac218cd2b1c9483a4d2a97a4b29e18e793ac9b88679ab28",
    ),
    ("relu", "concat"): (
        "129dbca19eea211b6592769a4641d3a0395b1b5426f2604e03244db1fa271a9d",
        "4b1bd8b6ea60d4dc2541310d13578df5310214276bd6d40606b9ed27716ae3a3",
    ),
    ("siren", "modulation"): (
        "51772927ba2e5c9108cd4b2af5941d04126aceaeaeea395d7ca742c0eb3364ac",
        "f16656f8e0ffa7fc304dd952213faab6c94f76d3d32cde8903fa1cae60e6e42f",
    ),
    ("siren", "concat"): (
        "27369f10aa2847a701698a7198c687d349eb8d6810a99f86feb2569fb147cebb",
        "9501d055d8056889590ac969b22b958d3fbe0bdb571d5818a9b7a502eda2572e",
    ),
    ("finer", "modulation"): (
        "a0baf85c0cb77cc376a74349dc60aa6d723f163f4a8f2a45e1df56f2295b7fe0",
        "f771ca5fda4023d8c294bbd045641cbad91fab4ceedcc502ea1079e645c68b8e",
    ),
    ("finer", "concat"): (
        "01f176dab529b2ddfd2bdd860ce9af2d74366a696965fa1442277a066234dea6",
        "8b3125d2f2b5968e555c30e71bfa7a8d125d33567bb23b4bab4cfb32efdfa24d",
    ),
}


@pytest.mark.parametrize("kind, conditioning", sorted(PINNED_DIGESTS))
def test_output_bytes_match_pinned_digests(kind, conditioning, tmp_path):
    dataset = {"a": [line_path(0.0), line_path(0.5)], "b": [line_path(y) for y in (-0.6, -0.2, 0.2, 0.6)]}
    head = tiny_head(activation=kind, conditioning=conditioning)
    state = fit(dataset, tiny_config(epochs=20, head=head))
    target = tmp_path / "ckpt.json"
    save_checkpoint(state, target)
    predictions = hashlib.sha256()
    for object_id in ("a", "b"):
        for pred in predict(state, object_id, conf_threshold=0.0):
            predictions.update(pred.path.poses.astype("<f8").tobytes())
            predictions.update(np.float64(pred.confidence).astype("<f8").tobytes())
    checkpoint = hashlib.sha256(target.read_bytes()).hexdigest()
    assert (checkpoint, predictions.hexdigest()) == PINNED_DIGESTS[(kind, conditioning)]
