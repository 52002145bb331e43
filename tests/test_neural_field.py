import copy
import functools
import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from conftest import checkout_env

import pathfield.neural_field as neural_field_module
import pathfield.pool as pool_module
from pathfield.neural_field import (
    _activation_derivative,
    _activation_value,
    _backward_from_cache,
    _ForwardCache,
    _forward_with_cache,
    HeadConfig,
    HeadParams,
    activation,
    confidence_forward,
    head_backward,
    head_forward_batch,
    init_head,
    named_parameters,
)
from pathfield.pool import _blas_thread_getter


def naive_forward(params: HeadParams, code, x: float) -> np.ndarray:
    """Loop-based re-derivation of the forward pass, written independently
    of the batched implementation and used as its oracle."""
    cfg, t = params.config, named_parameters(params)
    code = np.asarray(code, dtype=float)
    if cfg.conditioning == "modulation":
        hs = []
        h = np.maximum(t["mod_w0"] @ code + t["mod_b0"], 0.0)
        hs.append(h)
        for layer in range(1, cfg.depth):
            pre = t[f"mod_w{layer}"] @ np.concatenate([hs[-1], code]) + t[f"mod_b{layer}"]
            hs.append(np.maximum(pre, 0.0))
    vec = np.array([float(x)])
    for layer in range(cfg.depth):
        inp = vec if cfg.conditioning == "modulation" else np.concatenate([vec, code])
        z = t[f"block_w{layer}"] @ inp + t[f"block_b{layer}"]
        if cfg.activation == "relu":
            act = np.maximum(z, 0.0)
        elif cfg.activation == "siren":
            act = np.sin(cfg.omega0 * z)
        else:
            act = np.sin(cfg.omega0 * (np.abs(z) + 1.0) * z)
        vec = hs[layer] * act if cfg.conditioning == "modulation" else act
    return t["out_w"] @ vec + t["out_b"]


def fd_gradient_check(config: HeadConfig, seed: int, step=1e-5, tol=1e-4):
    """Compare every analytic gradient (including the codewords') against
    central finite differences of a random linear probe loss over a bank of
    two distinct codewords, so the sum over slots is checked too."""
    params = init_head(config)
    rng = np.random.default_rng(seed)
    codes = rng.normal(0.0, 0.5, (2, config.code_dim))
    xs = rng.uniform(-1.0, 1.0, 5)
    probe = rng.normal(0.0, 1.0, (2, 5, 6))
    conf_weight = rng.normal(0.0, 1.0, 2)

    def loss():
        raw = head_forward_batch(params, codes, xs)
        return float((raw * probe).sum()) + float(conf_weight @ confidence_forward(params, codes))

    grad, code_grads = head_backward(params, codes, xs, probe, conf_weight)
    analytic = named_parameters(grad) | {"codeword": code_grads}

    worst = 0.0
    targets = dict(named_parameters(params))
    targets["codeword"] = codes
    for name, arr in targets.items():
        it = np.nditer(arr, flags=["multi_index"], op_flags=["readwrite"])
        for _ in it:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + step
            plus = loss()
            arr[idx] = saved - step
            minus = loss()
            arr[idx] = saved
            fd = (plus - minus) / (2 * step)
            a = analytic[name][idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst = max(worst, rel)
    assert worst < tol, f"worst relative error {worst:.3e} for {config}"
    return worst


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestInit:
    def test_parameter_count_closed_form(self):
        cfg = HeadConfig(depth=4, width=512, code_dim=384)
        params = init_head(cfg)
        h, c = 512, 384
        expected = (
            (h * 1 + h) + 3 * (h * h + h)  # blocks
            + (6 * h + 6)  # output layer
            + (h * c + h) + 3 * (h * (h + c) + h)  # modulator
            + (c * c + c) + (c + 1)  # confidence branch
        )
        assert params.vector.size == expected

    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    def test_names_shapes_and_order_are_pinned(self, conditioning, use_bias):
        params = init_head(HeadConfig(depth=2, width=5, code_dim=3, conditioning=conditioning, use_bias=use_bias,
                                      conf_hidden=4))
        fan_in = (1, 5) if conditioning == "modulation" else (4, 8)  # concat appends the codeword to each input
        block = [("block_w0", (5, fan_in[0])), ("block_b0", (5,)), ("block_w1", (5, fan_in[1])), ("block_b1", (5,)),
                 ("out_w", (6, 5)), ("out_b", (6,))]
        mod = [("mod_w0", (5, 3)), ("mod_b0", (5,)), ("mod_w1", (5, 8)), ("mod_b1", (5,))]
        conf = [("conf_w1", (4, 3)), ("conf_b1", (4,)), ("conf_w2", (4,)), ("conf_b2", ())]
        expected = block + (mod if conditioning == "modulation" else []) + conf
        assert [(name, arr.shape) for name, arr in named_parameters(params).items()] == expected

    def test_same_seed_bit_identical(self):
        cfg = HeadConfig(depth=2, width=8, code_dim=4, activation="finer", seed=42)
        a = init_head(cfg)
        b = init_head(cfg)
        for name, arr in named_parameters(a).items():
            assert np.array_equal(arr, named_parameters(b)[name]), name

    def test_siren_later_layer_range(self):
        cfg = HeadConfig(depth=3, width=16, code_dim=4, activation="siren", omega0=30.0)
        params = init_head(cfg)
        bound = np.sqrt(6.0 / 16) / 30.0
        named = named_parameters(params)
        for name in ("block_w1", "block_w2", "out_w"):
            assert np.all(np.abs(named[name]) <= bound), name

    def test_finer_first_layer_bias_range(self):
        cfg = HeadConfig(depth=2, width=64, code_dim=4, activation="finer", finer_bias_scale=2.5)
        bias = named_parameters(init_head(cfg))["block_b0"]
        assert np.max(np.abs(bias)) > 1.0  # wider than the 1/sqrt(fan) draw
        assert np.all(np.abs(bias) <= 2.5)

    def test_no_bias_initializes_zero(self):
        cfg = HeadConfig(depth=2, width=8, code_dim=4, use_bias=False)
        named = named_parameters(init_head(cfg))
        assert not named["block_b0"].any()
        assert not named["out_b"].any()

    @pytest.mark.parametrize("field,value", [
        ("conf_hidden", 0), ("conf_hidden", -1), ("omega0", float("nan")),
        ("finer_bias_scale", float("nan")), ("finer_bias_scale", float("inf")),
        ("finer_bias_scale", float("-inf")), ("finer_bias_scale", -0.5),
        ("use_bias", "false"), ("use_bias", 0), ("use_bias", None), ("use_bias", np.bool_(True)),
    ])
    def test_out_of_range_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            HeadConfig(**{field: value})

    def test_zero_finer_bias_scale_draws_zero_first_bias(self):
        named = named_parameters(init_head(HeadConfig(depth=2, width=8, code_dim=4, activation="finer",
                                                      finer_bias_scale=0.0)))
        assert not named["block_b0"].any()
        assert named["block_b1"].any()

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    def test_arrays_are_views_of_one_vector_in_named_order(self, conditioning):
        params = init_head(HeadConfig(depth=3, width=5, code_dim=4, conditioning=conditioning, conf_hidden=3))
        named = named_parameters(params)
        vector = params.vector
        assert vector.shape == (sum(arr.size for arr in named.values()),)
        assert all(arr.base is vector for arr in named.values())
        assert np.array_equal(vector, np.concatenate([arr.ravel() for arr in named.values()]))
        vector[...] = np.arange(vector.size)
        start = 0
        for name, arr in named.items():
            assert arr.ravel().tolist() == list(range(start, start + arr.size)), name
            start += arr.size

    def test_deep_copy_is_one_new_vector(self):
        params = init_head(HeadConfig(depth=2, width=4, code_dim=2))
        copied = copy.deepcopy(params)
        assert copied.config == params.config
        assert not np.shares_memory(copied.vector, params.vector)
        assert_same_bits(copied.vector, params.vector)
        assert all(arr.base is copied.vector for arr in named_parameters(copied).values())
        named_parameters(copied)["out_b"][...] = 7.0
        assert not np.any(named_parameters(params)["out_b"] == 7.0) and np.all(named_parameters(copied)["out_b"] == 7.0)

    def test_arrays_match_pinned_digest(self):
        # sha256 of every array init_head draws over 192 option combinations,
        # recorded with this project's numpy; a change to any draw's bound,
        # order or shape shows here
        digest = hashlib.sha256()
        grid = itertools.product(
            ("relu", "siren", "finer"), ("modulation", "concat"), (True, False),
            (1, 3), (0, 5), (None, 7), (1.0, 2.5),
        )
        for kind, conditioning, use_bias, depth, code_dim, conf_hidden, bias_scale in grid:
            cfg = HeadConfig(
                depth=depth, width=6, code_dim=code_dim, activation=kind, conditioning=conditioning,
                omega0=20.0, use_bias=use_bias, finer_bias_scale=bias_scale, conf_hidden=conf_hidden, seed=3,
            )
            for name, arr in named_parameters(init_head(cfg)).items():
                digest.update(name.encode())
                digest.update(arr.astype("<f8").tobytes())
        assert digest.hexdigest() == "b562947e33493a3eb079767d31b6797a2a4002007ca1f752d11b8f2ab85a19d2"


class TestActivation:
    def test_relu(self):
        assert activation(-1.0, "relu") == (0.0, 0.0)
        assert activation(2.0, "relu") == (2.0, 1.0)

    def test_siren_at_zero(self):
        value, deriv = activation(0.0, "siren", omega0=30.0)
        assert value == 0.0
        assert deriv == 30.0

    def test_finer_at_zero(self):
        value, deriv = activation(0.0, "finer", omega0=30.0)
        assert value == 0.0
        assert deriv == 30.0

    def test_finer_formula(self):
        z = 0.7
        value, deriv = activation(z, "finer", omega0=10.0)
        assert value == pytest.approx(np.sin(10.0 * (abs(z) + 1) * z), rel=1e-15)
        assert deriv == pytest.approx(10.0 * (2 * abs(z) + 1) * np.cos(10.0 * (abs(z) + 1) * z), rel=1e-15)

    def test_array_input(self):
        values, derivs = activation(np.array([-1.0, 2.0]), "relu")
        assert values.tolist() == [0.0, 2.0]
        assert derivs.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_array_form_is_bitwise_the_written_out_formulas(self, kind):
        omega0 = 30.0
        z = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 50.0, -50.0], np.linspace(-2.0, 2.0, 37)])
        if kind == "relu":
            reference = (np.maximum(z, 0.0), (z > 0).astype(float))
        elif kind == "siren":
            reference = (np.sin(omega0 * z), omega0 * np.cos(omega0 * z))
        else:
            scaled = (np.abs(z) + 1.0) * z
            reference = (np.sin(omega0 * scaled), omega0 * (2.0 * np.abs(z) + 1.0) * np.cos(omega0 * scaled))
        before = z.copy()
        for got, want in zip(activation(z, kind, omega0), reference):
            assert_same_bits(got, want)
        assert_same_bits(z, before)

    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_scalar_gives_python_floats(self, kind):
        for z in (0.0, -0.0, 5e-324, 0.7, np.float64(-1.5), np.array(2.0)):
            value, deriv = activation(z, kind)
            assert type(value) is float and type(deriv) is float
            array_value, array_deriv = activation(np.array([z]), kind)
            assert (value, deriv) == (array_value[0], array_deriv[0])


class TestModulator:
    def test_zero_parameters_give_zero(self):
        cfg = HeadConfig(depth=3, width=4, code_dim=2)
        params = init_head(cfg)
        for name, arr in named_parameters(params).items():
            if name.startswith("mod_"):
                arr[...] = 0.0
        hs = _forward_with_cache(params, np.ones(2), [0.0]).mod_hs
        assert all(not h.any() for h in hs)

    def test_outputs_nonnegative(self):
        cfg = HeadConfig(depth=3, width=8, code_dim=4, seed=3)
        params = init_head(cfg)
        codes = np.random.default_rng(0).normal(0, 2, (3, 4))
        hs = _forward_with_cache(params, codes, [0.0]).mod_hs
        assert all(h.shape == (3, 8) and np.all(h >= 0) for h in hs)

    def test_hand_case_unit_weights(self):
        # depth 2, width 2, code 1, all weights and biases one
        cfg = HeadConfig(depth=2, width=2, code_dim=1)
        params = init_head(cfg)
        named = named_parameters(params)
        for name in ("mod_w0", "mod_b0", "mod_w1", "mod_b1"):
            named[name][...] = 1.0
        hs = _forward_with_cache(params, [2.0], [0.0]).mod_hs
        # h0 = relu(1*2 + 1) = 3; h1 = relu(3 + 3 + 2 + 1) = 9
        assert hs[0].tolist() == [[3.0, 3.0]]
        assert hs[1].tolist() == [[9.0, 9.0]]

    def test_concat_mode_has_no_modulator(self):
        cfg = HeadConfig(depth=2, width=4, code_dim=2, conditioning="concat")
        params = init_head(cfg)
        assert not any(name.startswith("mod_") for name in named_parameters(params))
        assert _forward_with_cache(params, np.zeros(2), [0.0]).mod_hs == []


class TestHeadForward:
    def test_zero_parameters_zero_output(self):
        cfg = HeadConfig(depth=2, width=4, code_dim=2)
        params = init_head(cfg)
        for arr in named_parameters(params).values():
            arr[...] = 0.0
        raw = head_forward_batch(params, np.ones(2), [0.3])
        assert raw.tolist() == [[0.0] * 6]

    def test_output_has_six_components(self):
        for cond in ("modulation", "concat"):
            cfg = HeadConfig(depth=3, width=8, code_dim=4, conditioning=cond, seed=1)
            params = init_head(cfg)
            codes = np.random.default_rng(1).normal(0, 1, (3, 4))
            assert head_forward_batch(params, codes[0], [-0.5, 0.5]).shape == (2, 6)
            assert head_forward_batch(params, codes, [-0.5, 0.5]).shape == (3, 2, 6)

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "finer"])
    def test_bank_matches_one_slot_at_a_time(self, kind, conditioning):
        cfg = HeadConfig(
            depth=3, width=8, code_dim=4, activation=kind, conditioning=conditioning, seed=4
        )
        params = init_head(cfg)
        codes = np.random.default_rng(4).normal(0, 1, (5, 4))
        xs = np.linspace(-1, 1, 7)
        bank = head_forward_batch(params, codes, xs)
        for slot, code in enumerate(codes):
            assert np.allclose(bank[slot], head_forward_batch(params, code, xs), rtol=1e-12, atol=1e-14)
        confs = confidence_forward(params, codes)
        assert confs.shape == (5,)
        assert [confidence_forward(params, code) for code in codes] == pytest.approx(confs, rel=1e-12)

    def test_rejects_out_of_range(self):
        cfg = HeadConfig(depth=1, width=4, code_dim=2)
        params = init_head(cfg)
        with pytest.raises(ValueError):
            head_forward_batch(params, np.zeros(2), [1.5])

    @pytest.mark.parametrize("xs", [[], [[-0.5], [0.5]], 0.5], ids=["empty", "column", "scalar"])
    def test_rejects_params_other_than_one_nonempty_row(self, xs):
        params = init_head(HeadConfig(depth=1, width=4, code_dim=2))
        with pytest.raises(ValueError, match="^params must be a nonempty 1-D sequence$"):
            head_forward_batch(params, np.zeros(2), xs)

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_matches_naive_reimplementation(self, kind, conditioning):
        cfg = HeadConfig(
            depth=2, width=8, code_dim=4, activation=kind, conditioning=conditioning, seed=7
        )
        params = init_head(cfg)
        rng = np.random.default_rng(11)
        code = rng.normal(0, 1, 4)
        for x in (-1.0, -0.25, 0.25, 1.0):
            fast = head_forward_batch(params, code, [x])[0]
            slow = naive_forward(params, code, x)
            assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_deterministic_outputs(self):
        cfg = HeadConfig(depth=2, width=8, code_dim=4, activation="siren", seed=5)
        params = init_head(cfg)
        code = np.random.default_rng(3).normal(0, 1, 4)
        xs = np.linspace(-1, 1, 9)
        assert np.array_equal(head_forward_batch(params, code, xs), head_forward_batch(params, code, xs))

    @pytest.mark.parametrize("kind", ["siren", "finer"])
    def test_continuity_probe(self, kind):
        cfg = HeadConfig(depth=3, width=16, code_dim=8, activation=kind, omega0=30.0, seed=2)
        params = init_head(cfg)
        code = np.random.default_rng(2).normal(0, 0.5, 8)
        eps = 1e-6
        xs = np.linspace(-1, 1 - eps, 2001)
        a = head_forward_batch(params, code, xs)
        b = head_forward_batch(params, code, xs + eps)
        ratio = np.abs(b - a).max() / eps
        assert ratio < 1e5  # bounded local slope: no jumps anywhere on the sweep


class TestDegenerateEquivalence:
    def test_concat_c0_equals_all_ones_modulation(self):
        # concat with an empty codeword is a plain MLP; modulation with
        # modulators forced to one must agree on the same block weights
        concat_cfg = HeadConfig(depth=2, width=6, code_dim=0, conditioning="concat", seed=9)
        concat = init_head(concat_cfg)
        mod_cfg = HeadConfig(depth=2, width=6, code_dim=0, conditioning="modulation", seed=9)
        mod = init_head(mod_cfg)
        shared = named_parameters(concat)
        for name, arr in named_parameters(mod).items():
            if name.startswith("mod_"):
                arr[...] = 1.0 if "_b" in name else 0.0  # relu(1) = 1: all-ones modulators
            elif not name.startswith("conf_"):
                arr[...] = shared[name]
        code = np.zeros(0)
        xs = np.linspace(-1, 1, 17)
        assert np.allclose(
            head_forward_batch(concat, code, xs), head_forward_batch(mod, code, xs), atol=1e-15
        )


class TestConfidence:
    def test_zero_weights_give_half(self):
        cfg = HeadConfig(depth=1, width=4, code_dim=3)
        params = init_head(cfg)
        for name in ("conf_w1", "conf_b1", "conf_w2", "conf_b2"):
            named_parameters(params)[name][...] = 0.0
        assert confidence_forward(params, np.ones(3)) == 0.5

    def test_output_in_open_interval(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            cfg = HeadConfig(depth=1, width=4, code_dim=3, seed=seed)
            params = init_head(cfg)
            value = confidence_forward(params, rng.normal(0, 3, 3))
            assert 0.0 < value < 1.0

    def test_hand_case_unit_weights(self):
        cfg = HeadConfig(depth=1, width=4, code_dim=2, conf_hidden=2)
        params = init_head(cfg)
        for name, arr in named_parameters(params).items():
            if name.startswith("conf_"):
                arr[...] = 1.0 if "_w" in name else 0.0
        # hidden = relu([3, 3]) -> logit = 6
        value = confidence_forward(params, [1.0, 2.0])
        assert value == pytest.approx(1.0 / (1.0 + np.exp(-6.0)), rel=1e-15)


class TestBackward:
    def test_zero_upstream_zero_gradients(self):
        cfg = HeadConfig(depth=2, width=8, code_dim=4, activation="siren", seed=1)
        params = init_head(cfg)
        code = np.random.default_rng(1).normal(0, 1, 4)
        xs = np.linspace(-1, 1, 4)
        grad, code_grads = head_backward(params, code[None], xs, np.zeros((1, 4, 6)), np.zeros(1))
        assert grad.vector.shape == params.vector.shape and not grad.vector.any()
        assert not code_grads.any()

    def test_shape_mismatch_raises(self):
        cfg = HeadConfig(depth=1, width=4, code_dim=2)
        params = init_head(cfg)
        with pytest.raises(ValueError, match="upstream gradient shape"):
            head_backward(params, np.zeros((1, 2)), [0.0, 0.5], np.zeros((1, 3, 6)), np.zeros(1))
        with pytest.raises(ValueError, match="confidence gradient shape"):
            head_backward(params, np.zeros((2, 2)), [0.0], np.zeros((2, 1, 6)), np.zeros(3))

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_finite_difference_small_config(self, kind, conditioning):
        cfg = HeadConfig(
            depth=2, width=4, code_dim=3, activation=kind, conditioning=conditioning, seed=13
        )
        fd_gradient_check(cfg, seed=29)

    def test_no_bias_keeps_bias_gradients_zero(self):
        cfg = HeadConfig(depth=2, width=4, code_dim=3, use_bias=False, seed=0)
        params = init_head(cfg)
        codes = np.random.default_rng(0).normal(0, 1, (2, 3))
        grad, _ = head_backward(params, codes, [0.1, 0.7], np.ones((2, 2, 6)), np.ones(2))
        named = named_parameters(grad)
        biases = [name for name in named if "_b" in name]
        assert biases == ["block_b0", "block_b1", "out_b", "mod_b0", "mod_b1", "conf_b1", "conf_b2"]
        for name in biases:
            assert named[name].tobytes() == bytes(named[name].nbytes), name  # exactly +0.0

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    def test_gradient_is_one_vector_in_named_order(self, conditioning):
        cfg = HeadConfig(depth=3, width=5, code_dim=4, conditioning=conditioning, conf_hidden=3, seed=2)
        params = init_head(cfg)
        rng = np.random.default_rng(5)
        grad, _ = head_backward(params, rng.normal(0, 1, (3, 4)), [-0.5, 0.2], rng.normal(0, 1, (3, 2, 6)),
                                rng.normal(0, 1, 3))
        assert grad.config == cfg and grad.vector.shape == params.vector.shape
        named = named_parameters(grad)
        assert named.keys() == named_parameters(params).keys()
        assert all(arr.base is grad.vector for arr in named.values())
        assert_same_bits(grad.vector, np.concatenate([arr.ravel() for arr in named.values()]))



class TestForwardOnly:
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_bitwise_equal_to_training_forward(self, kind, conditioning, use_bias):
        cfg = HeadConfig(
            depth=3, width=16, code_dim=5, activation=kind, conditioning=conditioning, use_bias=use_bias, seed=4
        )
        params = init_head(cfg)
        codes = np.random.default_rng(8).normal(0.0, 0.5, (4, 5))
        xs = np.linspace(-1.0, 1.0, 33)
        assert_same_bits(head_forward_batch(params, codes, xs), _forward_with_cache(params, codes, xs).raw)
        for code in codes:
            assert_same_bits(head_forward_batch(params, code, xs), _forward_with_cache(params, code, xs).raw[0])


def copied_cache(cache: _ForwardCache, rows) -> _ForwardCache:
    """The slots `rows` of a forward cache, every array an explicit fancy-indexed copy
    (block 0's one-slot pre-activation in modulation mode a plain copy)."""
    return _ForwardCache(
        cache.codes[rows],
        [arr[:, rows] for arr in cache.inputs],
        [arr.copy() if arr.shape[1] == 1 else arr[:, rows] for arr in cache.pres],
        [arr[:, rows] for arr in cache.acts],
        [arr[rows] for arr in cache.mod_hs],
        cache.raw[rows],
        cache.hidden[rows],
        cache.prob[rows],
    )


def assert_same_gradients(got, want) -> None:
    assert named_parameters(got).keys() == named_parameters(want).keys()
    for name, arr in named_parameters(got).items():
        assert_same_bits(arr, named_parameters(want)[name])


class TestBackwardRows:
    """The backward reads the cache directly when it takes every slot in
    order, and rebuilds modulation-mode block inputs from the activations;
    both must give the bits that explicit per-row copies give. The copies
    are taken first, since the backward spends the cache it reads. With
    some slots left out, the confidence gradients are zero on both sides,
    so only the pose branch is compared."""

    @staticmethod
    def case(kind, conditioning):
        cfg = HeadConfig(depth=3, width=12, code_dim=5, activation=kind, conditioning=conditioning, seed=6)
        params = init_head(cfg)
        rng = np.random.default_rng(2)
        codes = rng.normal(0.0, 0.5, (4, 5))
        xs = np.sort(rng.uniform(-1.0, 1.0, 9))
        return params, _forward_with_cache(params, codes, xs), rng

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_every_slot_equals_copied_cache(self, kind, conditioning):
        params, cache, rng = self.case(kind, conditioning)
        rows = np.arange(len(cache.codes))
        upstream, d_prob = rng.normal(0.0, 1.0, cache.raw.shape), rng.normal(0.0, 1.0, len(rows))
        copied_rows = copied_cache(cache, rows)
        direct, direct_codes = _backward_from_cache(params, cache, upstream, rows, d_prob)
        copied, copied_codes = _backward_from_cache(params, copied_rows, upstream, rows, d_prob)
        assert_same_gradients(direct, copied)
        assert_same_bits(direct_codes, copied_codes)

    @pytest.mark.parametrize("rows", [[0, 2, 3], [3, 0, 2], [1, 0, 3, 2]])
    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_some_slots_equal_their_copied_cache(self, kind, conditioning, rows):
        params, cache, rng = self.case(kind, conditioning)
        rows = np.array(rows)
        upstream = rng.normal(0.0, 1.0, (len(rows), *cache.raw.shape[1:]))
        copied_rows = copied_cache(cache, rows)
        direct, direct_codes = _backward_from_cache(params, cache, upstream, rows, np.zeros(4))
        copied, copied_codes = _backward_from_cache(
            params, copied_rows, upstream, np.arange(len(rows)), np.zeros(len(rows))
        )
        assert_same_gradients(direct, copied)
        assert_same_bits(direct_codes[rows], copied_codes)
        assert not np.delete(direct_codes, rows, axis=0).any()


class TestLazyCache:
    """Every training cache is lazy: it keeps each block's pre-activation, and the
    backward differentiates the rows it reads. A pre-activation read whole (every
    slot in order, or block 0's one slot in modulation mode) is differentiated
    without a copy and may be overwritten; other rows are copied first. The
    backward drops each block's arrays once read, so a cache is read once. The
    gradients must be the bits of an eager copy of the rows, taken before the backward."""

    @staticmethod
    def case(kind, conditioning):
        cfg = HeadConfig(depth=3, width=12, code_dim=5, activation=kind, conditioning=conditioning, seed=6)
        rng = np.random.default_rng(2)
        return init_head(cfg), rng.normal(0.0, 0.5, (4, 5)), np.sort(rng.uniform(-1.0, 1.0, 9))

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_forward_is_the_eager_forward(self, kind, conditioning):
        # the inference forward's outputs, and activations that are those of the kept pre-activations
        params, codes, xs = self.case(kind, conditioning)
        cache = _forward_with_cache(params, codes, xs)
        assert_same_bits(cache.raw, head_forward_batch(params, codes, xs))
        assert [pre.shape[1] for pre in cache.pres] == [1 if conditioning == "modulation" else 4, 4, 4]
        for pre, act in zip(cache.pres, cache.acts):
            value = _activation_value(pre, kind, params.config.omega0)
            assert_same_bits(np.broadcast_to(value, act.shape), act)

    @pytest.mark.parametrize("rows", [[0, 1, 2, 3], [0, 2, 3], [3, 0, 2], [1, 0, 3, 2], [2]])
    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_gradients_equal_the_eager_cache(self, monkeypatch, kind, conditioning, rows):
        params, codes, xs = self.case(kind, conditioning)
        cache = _forward_with_cache(params, codes, xs)
        rows = np.array(rows)
        pres, eager, before = list(cache.pres), copied_cache(cache, rows), [arr.copy() for arr in cache.pres]
        upstream = np.random.default_rng(3).normal(0.0, 1.0, (len(rows), *cache.raw.shape[1:]))
        want, want_codes = _backward_from_cache(params, eager, upstream, np.arange(len(rows)), np.zeros(len(rows)))
        differentiated, derivative = [], neural_field_module._activation_derivative
        monkeypatch.setattr(
            neural_field_module, "_activation_derivative", lambda z, *args: differentiated.append(z) or derivative(z, *args)
        )
        got, got_codes = _backward_from_cache(params, cache, upstream, rows, np.zeros(len(codes)))
        assert_same_gradients(got, want)
        assert_same_bits(got_codes[rows], want_codes)
        assert cache.pres == cache.acts == cache.inputs == []  # spent
        every_slot = rows.tolist() == list(range(len(codes)))
        for layer, z in zip(reversed(range(3)), differentiated, strict=True):
            whole = every_slot or (conditioning == "modulation" and layer == 0)
            assert (z is pres[layer]) == whole  # read uncopied, else from a copy of the rows
            if not whole:
                assert_same_bits(pres[layer], before[layer])


def spy_activation_values(monkeypatch) -> list[tuple[tuple, object]]:
    """Record (shape of the argument, wave) of every _activation_value call."""
    calls = []
    original = neural_field_module._activation_value

    def spy(z, kind, omega0, wave=np.sin):
        calls.append((z.shape, wave))
        return original(z, kind, omega0, wave)

    monkeypatch.setattr(neural_field_module, "_activation_value", spy)
    return calls


class TestSharedBlock0:
    """In modulation mode block 0 sees x alone, so a training forward evaluates
    it once, over one slot's worth of samples, and the backward differentiates
    it once, whichever slots it reads; in concat mode it sees the codeword, so
    every slot evaluates it."""

    @pytest.mark.parametrize("every_slot", [False, True])
    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_block0_runs_once_per_forward(self, monkeypatch, kind, conditioning, every_slot):
        cfg = HeadConfig(depth=3, width=12, code_dim=5, activation=kind, conditioning=conditioning, seed=6)
        params = init_head(cfg)
        rng = np.random.default_rng(2)
        codes, xs = rng.normal(0.0, 0.5, (4, 5)), np.linspace(-1.0, 1.0, 9)
        calls = spy_activation_values(monkeypatch)
        cache = _forward_with_cache(params, codes, xs)
        block0 = (12, 1 if conditioning == "modulation" else 4, 9)
        assert calls == [(block0, np.sin), ((12, 4, 9), np.sin), ((12, 4, 9), np.sin)]  # no derivative

        calls.clear()
        rows = np.arange(4) if every_slot else np.array([2, 0])
        _backward_from_cache(params, cache, rng.normal(0.0, 1.0, (len(rows), 9, 6)), rows, np.zeros(4))
        block0 = (12, 1 if conditioning == "modulation" else len(rows), 9)
        differentiated = [(12, len(rows), 9), (12, len(rows), 9), block0]
        assert [shape for shape, _ in calls] == (differentiated if kind != "relu" else [])

    @pytest.mark.parametrize("every_slot", [False, True])
    def test_cache_keeps_one_slot_of_block0(self, every_slot):
        cfg = HeadConfig(depth=2, width=8, code_dim=3, activation="finer", seed=1)
        params = init_head(cfg)
        cache = _forward_with_cache(params, np.ones((5, 3)), np.linspace(-1.0, 1.0, 7))
        act = cache.acts[0]
        assert act.shape == (8, 5, 7) and act.strides[1] == 0 and act.base.size == 8 * 7
        assert cache.pres[0].shape == (8, 1, 7) and cache.acts[1].strides[1] != 0
        pre, kept = cache.pres[0], cache.pres[0].copy()
        rows = np.arange(5) if every_slot else np.array([4, 1])
        _backward_from_cache(params, cache, np.ones((len(rows), 7, 6)), rows, np.zeros(5))
        # whichever slots the backward reads, it differentiates block 0's one slot in place
        assert_same_bits(pre, _activation_derivative(kept, "finer", cfg.omega0))

    @pytest.mark.parametrize("conditioning", ["modulation", "concat"])
    @pytest.mark.parametrize("kind", ["relu", "siren", "finer"])
    def test_shared_list_reuses_block0_bits(self, monkeypatch, kind, conditioning):
        cfg = HeadConfig(depth=3, width=16, code_dim=5, activation=kind, conditioning=conditioning, seed=4)
        params = init_head(cfg)
        codes = np.random.default_rng(8).normal(0.0, 0.5, (3, 5))
        xs = np.linspace(-1.0, 1.0, 33)
        want = [head_forward_batch(params, code, xs) for code in codes]
        calls = spy_activation_values(monkeypatch)
        shared: list = []
        for code, raw in zip(codes, want):
            assert_same_bits(head_forward_batch(params, code, xs, _block0=shared), raw)
        assert len(calls) == (1 + 2 * 3 if conditioning == "modulation" else 3 * 3)
        assert len(shared) == (conditioning == "modulation")



def blas_reporting(threads):
    """A stand-in for _blas_thread_getter: a getter that reports `threads`, or none at all."""
    return lambda: None if threads is None else (lambda: threads)


class TestParallel:
    """parallel runs independent calls on the process's one shared pool when the work is large,
    more than one CPU per BLAS thread is usable and the caller is not a pool thread; otherwise
    serially on the caller. The caller runs none of a pooled call's calls. Results come back in
    call order either way."""

    @pytest.fixture
    def pools(self, pools, monkeypatch):
        """The recorded pools, with 2 usable CPUs, one BLAS thread and no cell bound patched in."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(pool_module, "_blas_thread_getter", blas_reporting(1))
        monkeypatch.setattr(pool_module, "PARALLEL_CELLS", 0)
        return pools

    @staticmethod
    def meeting(threads: int):
        """A call that returns the thread it ran on once `threads` calls run at once, so that
        each thread takes one."""
        barrier = threading.Barrier(threads, timeout=30)

        def meet() -> int:
            barrier.wait()
            return threading.get_ident()

        return meet

    def test_results_come_back_in_call_order(self, pools):
        # the first calls finish last
        calls = [functools.partial(lambda k: time.sleep(0.002 * (8 - k)) or k * k, k) for k in range(8)]
        assert pool_module.parallel(calls, 1) == [k * k for k in range(8)]
        assert [pool.workers for pool in pools] == [2]  # 2 CPUs // 1 BLAS thread
        assert len(pools[0].ran) == 8 and set(pools[0].ran) <= pools[0].started

    def test_pool_threads_run_every_call(self, pools, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        threads = pool_module.parallel([self.meeting(3)] * 3, 1)
        assert len(set(threads)) == 3 and set(threads) <= pools[0].started
        assert threading.get_ident() not in threads  # the caller ran none
        assert [pool.workers for pool in pools] == [16]  # 16 CPUs, whatever the number of calls

    def test_consecutive_calls_share_one_pool(self, pools):
        first = pool_module.parallel([self.meeting(2)] * 2, 1)
        second = pool_module.parallel([self.meeting(2)] * 2, 1)
        assert set(first) == set(second) == pools[0].started and len(set(first)) == 2
        assert [pool.workers for pool in pools] == [2]  # built once

    @pytest.mark.parametrize("case", ["one-cpu", "no-affinity-call", "one-call", "below-bound", "blas-per-cpu"])
    def test_serial_on_the_caller(self, pools, monkeypatch, case):
        calls, cells = [threading.get_ident] * 2, 1
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        elif case == "no-affinity-call":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        elif case == "one-call":
            calls = calls[:1]
        elif case == "below-bound":  # checked first, so neither the CPUs nor BLAS are asked
            monkeypatch.setattr(pool_module, "PARALLEL_CELLS", 1 << 15)
            monkeypatch.setattr(os, "sched_getaffinity", None, raising=False)
            monkeypatch.setattr(pool_module, "_blas_thread_getter", None)
            cells = (1 << 15) - 1
        else:  # 2 CPUs, and BLAS runs a thread on each
            monkeypatch.setattr(pool_module, "_blas_thread_getter", blas_reporting(2))
        assert pool_module.parallel(calls, cells) == [threading.get_ident()] * len(calls)
        assert pools == []

    def test_nested_call_runs_serially_on_its_pool_thread(self, pools):
        meet, inner = self.meeting(2), []

        def outer():
            here = meet()
            inner.append((here, pool_module.parallel([threading.get_ident] * 2, 1)))

        pool_module.parallel([outer, outer], 1)
        assert sorted(inner) == sorted((here, [here] * 2) for here in pools[0].started)
        assert [(pool.workers, len(pool.ran)) for pool in pools] == [(2, 2)]  # the outer calls only

    def test_missing_blas_getter_counts_one_thread(self, pools, monkeypatch):
        monkeypatch.setattr(pool_module, "BLAS_THREADS_SYMBOL", "no_such_symbol")
        assert _blas_thread_getter.__wrapped__() is None
        monkeypatch.setattr(pool_module, "_blas_thread_getter", blas_reporting(None))
        assert pool_module._blas_threads() == 1
        assert pool_module.parallel([self.meeting(2)] * 2, 1)
        assert [pool.workers for pool in pools] == [2]  # 2 CPUs // 1 BLAS thread

    def test_worker_exception_reaches_the_caller(self, pools):
        meet = self.meeting(2)

        def call():
            meet()
            raise ZeroDivisionError("raised on a pool thread")

        with pytest.raises(ZeroDivisionError, match="raised on a pool thread"):
            pool_module.parallel([call, meet], 1)
        assert [pool.workers for pool in pools] == [2]
        assert len(set(pools[0].ran)) == 2 and set(pools[0].ran) <= pools[0].started

    def test_exception_waits_for_every_sibling(self, pools):
        finished = []

        def fail():
            raise ZeroDivisionError("raised first")

        def slow():
            time.sleep(0.2)
            finished.append(True)

        with pytest.raises(ZeroDivisionError, match="raised first"):
            pool_module.parallel([fail, slow], 1)
        assert finished == [True]

    def test_forked_child_builds_its_own_pool(self):
        # the child inherits the parent's cached pool but none of its threads: without the fork
        # hook its pooled call would wait forever, so the parent kills it after the timeout
        script = textwrap.dedent("""
            import os, sys, threading, time
            import pathfield.pool as pool

            os.sched_getaffinity = lambda pid: {0, 1}
            pool._blas_threads = lambda: 1
            pool.PARALLEL_CELLS = 0

            def pooled_threads():
                barrier = threading.Barrier(2, timeout=10)

                def meet():
                    barrier.wait()
                    return threading.get_ident()

                return len(set(pool.parallel([meet, meet], 1)))

            assert pooled_threads() == 2  # both pool threads have started
            pid = os.fork()
            if pid == 0:
                os._exit(0 if pooled_threads() == 2 else 3)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    sys.exit(os.waitstatus_to_exitcode(status))
                time.sleep(0.05)
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            sys.exit("the forked child's pooled call did not finish")
        """)
        result = subprocess.run([sys.executable, "-c", script], env=checkout_env(OPENBLAS_NUM_THREADS="1"),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
