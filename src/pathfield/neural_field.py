"""Codeword-conditioned scalar-to-pose network with analytic gradients.

The pose head maps a path parameter x in [-1, 1] to a raw 6-vector
(position plus unnormalized orientation). A codeword conditions the head
either through multiplicative modulation vectors produced by a ReLU
branch (one vector per block, elementwise product with the block
activation), or by concatenating the codeword onto every block input.
A separate two-layer ReLU network with a sigmoid readout maps the same
codeword to a confidence score.

The N codewords of an object run as one batch: block activations are
(width, N, T) arrays, and each weight gradient sums over slots and
samples inside one matmul. In modulation mode block 0 sees x alone, so
it runs once per sample grid, over (width, 1, T), for the slots of a
training cache and a decode of the slots one at a time alike. The
tensors' names, shapes and order are written once, in _layout, and every
head array is a view into one vector, which a deep copy copies as one,
so the optimizer updates the whole head at once; a gradient is laid out
the same way, as a HeadParams whose vector is the whole gradient.
Inference (head_forward_batch) computes activation values only; the
training forward runs both branches and also keeps each block's output
and pre-activation, which one backward through both branches
differentiates for the slots it reads, dropping each block's arrays
once read and writing each gradient into its view of one gradient vector.
The ReLU branches keep only their outputs, which are positive exactly
where their pre-activations are and so are also the backward's masks.
The initialisation rule lives in init_head's one walk over the tensors.

Independent work of one large call runs through _parallel on a pool of
threads that the process builds once and shares, one per usable CPU per
BLAS thread: the activations' row halves, the backward's two matmuls of
each block, and predict's slot decodes. Each piece is the numpy call a
serial run makes, so the bits do not depend on the thread it runs on.

Everything is plain float64 numpy. Backward passes are exact
reverse-mode differentiation of the forward graph; the test suite checks
them against central finite differences.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .paths import _check_fields, _path_params

ACTIVATIONS = ("relu", "siren", "finer")
CONDITIONING = ("modulation", "concat")
DEFAULT_OMEGA0 = 30.0
# Cells (array elements; width x samples for a decoded block) from which _parallel runs a call's pieces on
# the shared pool: on 2 CPUs, against serial, a finer wave took 0.96-1.11x the time at 2^14 cells and 0.76-0.83x
# at 2^15; its derivative 1.03-1.12x at 2^15 and 0.75-0.81x at 2^16; a backward matmul pair 1.5-1.9x at 2^15.
PARALLEL_CELLS = 1 << 15

__all__ = [
    "ACTIVATIONS",
    "CONDITIONING",
    "HeadConfig",
    "HeadParams",
    "init_head",
    "activation",
    "head_forward_batch",
    "confidence_forward",
    "head_backward",
    "named_parameters",
]


@dataclass(frozen=True)
class HeadConfig:
    """Shape and behaviour of one pose head.

    depth:  number of conditioned blocks.
    width:  hidden units per block.
    code_dim: codeword length (0 collapses concat mode to a plain MLP).
    omega0: frequency scale of the sinusoidal activations.
    use_bias: disable to evaluate the bias-free strict form.
    finer_bias_scale: range of the first-layer bias draw under finer, finite and >= 0.
    conf_hidden: hidden width of the confidence branch; None means code_dim.
    """

    depth: int = 4
    width: int = 512
    code_dim: int = 384
    activation: str = "relu"
    conditioning: str = "modulation"
    omega0: float = DEFAULT_OMEGA0
    use_bias: bool = True
    finer_bias_scale: float = 1.0
    conf_hidden: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self, (("depth", 1), ("width", 1), ("code_dim", 0), ("conf_hidden", 1), ("seed", 0)),
                      (("omega0", (0, np.inf, "()")), ("finer_bias_scale", (0, np.inf, "[)"))),
                      (("activation", ACTIVATIONS), ("conditioning", CONDITIONING)))
        if not isinstance(self.use_bias, bool):  # "false" is truthy; no choice row, as 1 in (True, False)
            raise ValueError(f"use_bias must be true or false, not {self.use_bias!r}")

    @property
    def conf_width(self) -> int:
        if self.conf_hidden is not None:
            return self.conf_hidden
        return max(self.code_dim, 1)


@dataclass
class HeadParams:
    """All learnable arrays of one head, shapes fixed by the config, views into `vector`."""

    config: HeadConfig
    vector: np.ndarray  # every tensor, in _layout order
    tensors: dict[str, np.ndarray]  # name -> view into vector, as named_parameters gives it

    def __deepcopy__(self, memo) -> "HeadParams":
        return _allocate(self.config, self.vector.copy())


@functools.cache
def _layout(config: HeadConfig) -> dict[str, tuple[int, ...]]:
    """The head's tensor layout, written once: name -> shape, in the order of its one vector. Each weight
    comes right before its bias, whose shape drops the weight's last (fan-in) axis; concat has no mod_*.
    Built once per config and shared, so it is only read."""
    width, code, depth = config.width, config.code_dim, config.depth
    modulated = config.conditioning == "modulation"
    weights = [("block", l, (width, (1 if l == 0 else width) + (0 if modulated else code))) for l in range(depth)]
    weights += [("out", "", (6, width))]
    weights += [("mod", l, (width, code if l == 0 else width + code)) for l in range(depth)] if modulated else []
    weights += [("conf", 1, (config.conf_width, code)), ("conf", 2, (config.conf_width,))]
    return {name: shape for part, index, w_shape in weights
            for name, shape in ((f"{part}_w{index}", w_shape), (f"{part}_b{index}", w_shape[:-1]))}


def _allocate(config: HeadConfig, vector: np.ndarray | None = None) -> HeadParams:
    """Parameters as views into one vector in _layout order: `vector`, or a new zero one."""
    layout = _layout(config)
    sizes = [math.prod(shape) for shape in layout.values()]
    vector = np.zeros(sum(sizes)) if vector is None else vector
    ends = itertools.accumulate(sizes)  # Python ints: numpy integers slice slower
    tensors = {name: vector[end - size : end].reshape(shape)
               for (name, shape), end, size in zip(layout.items(), ends, sizes)}
    return HeadParams(config, vector, tensors)


def _is_bias(name: str) -> bool:
    return "_b" in name


def init_head(config: HeadConfig) -> HeadParams:
    """Draw fresh parameters, deterministic given the config seed.

    The whole rule is one walk over the layout's tensors, which lists each
    weight right before its bias. A weight and its bias are drawn from
    +-1/sqrt(fan_in), fan_in being the weight's last axis (at least 1).
    Sine-family heads draw block_w0 from +-1/fan_in and the later block
    weights and out_w from +-sqrt(6/fan_in)/omega0; finer draws block_b0
    from +-finer_bias_scale. A bias-free head draws no bias.
    """
    params = _allocate(config)
    rng = np.random.default_rng(config.seed)
    sinusoidal = config.activation in ("siren", "finer")
    for name, arr in params.tensors.items():
        if _is_bias(name):
            if not config.use_bias:
                continue
            wide = config.activation == "finer" and name == "block_b0"
            bound = config.finer_bias_scale if wide else 1.0 / np.sqrt(fan_in)
        else:
            fan_in = max(arr.shape[-1], 1)
            if sinusoidal and name == "block_w0":
                bound = 1.0 / fan_in
            elif sinusoidal and name.startswith(("block_w", "out_w")):
                bound = np.sqrt(6.0 / fan_in) / config.omega0
            else:
                bound = 1.0 / np.sqrt(fan_in)
        arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return params


_pool_thread = threading.local()  # .active: this thread is one of a shared pool's
BLAS_THREADS_SYMBOL = "scipy_openblas_get_num_threads64_"  # the bundled OpenBLAS's thread-count getter


@functools.cache
def _blas_thread_getter() -> Callable[[], int] | None:
    """numpy's bundled OpenBLAS's thread-count getter, found through ctypes in numpy.libs; None where it is missing."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            return getattr(ctypes.CDLL(path), BLAS_THREADS_SYMBOL)
        except (OSError, AttributeError):  # not loadable here, or another build
            continue
    return None


def _blas_threads() -> int:
    """The threads BLAS runs each call on, read and never set; 1 where numpy's OpenBLAS getter is missing."""
    getter = _blas_thread_getter()
    return 1 if getter is None else max(getter(), 1)


def _threads(count: int, cells: int) -> int:
    """The size of the pool _parallel runs `count` calls of `cells` work on; below 2 is serially, on the caller.

    Serial below PARALLEL_CELLS cells (checked first, so small calls make no system call), for fewer
    than 2 calls, on a pool thread (no nested pools), and when usable CPUs // BLAS threads, the pool's
    size, is below 2, so that a pool never competes with BLAS's own threads.
    """
    if cells < PARALLEL_CELLS or count < 2 or getattr(_pool_thread, "active", False):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus // _blas_threads()


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's one pool of `threads` threads, built on first use; each of its threads marks itself."""
    return ThreadPoolExecutor(threads, initializer=setattr, initargs=(_pool_thread, "active", True))


if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but none of its threads; Windows has no fork
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _parallel(calls: Sequence[Callable[[], object]], cells: int) -> list:
    """The results of independent calls, in call order. With _threads(len(calls), cells) >= 2 the
    shared pool of that size runs every call while the caller waits; an exception in a call reaches
    the caller once every call has finished."""
    threads = _threads(len(calls), cells)
    if threads < 2:
        return [call() for call in calls]
    futures = [_pool(threads).submit(call) for call in calls]
    wait(futures)
    return [future.result() for future in futures]


def _row_halves(fn: Callable[..., None], z: np.ndarray, out: np.ndarray, *args) -> None:
    """fn(z, out, *args) once, or over each half of the arrays' rows through _parallel when it has 2 threads."""
    if _threads(2, z.size) < 2:
        fn(z, out, *args)
        return
    half = (len(z) + 1) // 2
    _parallel([lambda: fn(z[:half], out[:half], *args), lambda: fn(z[half:], out[half:], *args)], z.size)


def _activation_value(z: np.ndarray, kind: str, omega0: float, wave=np.sin) -> np.ndarray:
    """The activation of an array as a new array with the written-out bits (wave=np.cos: its argument's cosine).
    Row halves of a large array run through _parallel; the work is elementwise, so the bits are the same."""
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}")
    out = np.empty_like(z)
    _row_halves(_value_rows, z, out, kind, omega0, wave)
    return out


def _value_rows(z: np.ndarray, out: np.ndarray, kind: str, omega0: float, wave) -> None:
    if kind == "relu":
        np.maximum(z, 0.0, out=out)
        return
    if kind == "siren":
        np.multiply(omega0, z, out=out)
    else:
        np.abs(z, out=out)
        out += 1.0
        out *= z
        out *= omega0
    wave(out, out=out)


def _activation_derivative(z: np.ndarray, kind: str, omega0: float) -> np.ndarray:
    """The activation's derivative at an array, with the written-out formula's bits; z may be overwritten.
    Like the value, row halves of a large array run through _parallel."""
    if kind == "relu":
        return np.greater(z, 0.0, out=z)
    deriv = _activation_value(z, kind, omega0, np.cos)
    _row_halves(_derivative_rows, z, deriv, kind, omega0)
    return deriv if kind == "siren" else z


def _derivative_rows(z: np.ndarray, deriv: np.ndarray, kind: str, omega0: float) -> None:
    if kind == "siren":
        deriv *= omega0
        return
    factor = np.abs(z, out=z)
    factor *= 2.0
    factor += 1.0
    factor *= omega0
    factor *= deriv


def activation(z, kind: str, omega0: float = DEFAULT_OMEGA0):
    """Activation value and derivative, elementwise.

    relu: max(0, z). siren: sin(omega0 z). finer: sin(omega0 (|z|+1) z),
    whose derivative is omega0 (2|z|+1) cos(omega0 (|z|+1) z); the |z|
    subgradient at zero is taken as 0. A scalar gives two floats, an
    array two arrays of its shape.
    """
    arr = np.asarray(z, dtype=float)
    z1 = np.atleast_1d(arr)
    value, deriv = _activation_value(z1, kind, omega0), _activation_derivative(z1.copy(), kind, omega0)
    return (float(value[0]), float(deriv[0])) if arr.ndim == 0 else (value, deriv)


def _as_codewords(params: HeadParams, codewords) -> np.ndarray:
    """(N, code_dim) bank from one codeword (code_dim,) or a bank (N, code_dim)."""
    codes = np.atleast_2d(np.asarray(codewords, dtype=float))
    if codes.ndim != 2 or codes.shape[1] != params.config.code_dim:
        raise ValueError(
            f"codewords of shape {np.shape(codewords)} do not match configured code_dim "
            f"{params.config.code_dim}"
        )
    return codes


def _flat(arr: np.ndarray) -> np.ndarray:
    """(dim, N, T) -> (dim, N*T): the samples of every slot side by side as matmul columns."""
    return arr.reshape(arr.shape[0], -1)


def _modulator(params: HeadParams, codes: np.ndarray) -> list[np.ndarray]:
    """The (N, width) modulation vector of every block, the ReLU branch's outputs."""
    tensors = params.tensors
    hs: list[np.ndarray] = []
    for layer in range(params.config.depth):
        inp = codes if layer == 0 else np.concatenate([hs[-1], codes], axis=1)
        hs.append(np.maximum(inp @ tensors[f"mod_w{layer}"].T + tensors[f"mod_b{layer}"], 0.0))
    return hs


@dataclass
class _ForwardCache:
    """What the training backward reads, once. In modulation mode every block input after
    layer 0, and the readout input, is mod_hs[l].T[:, :, None] * acts[l] of the
    block before; the backward rebuilds those with one multiply instead. The
    ReLU branches' masks are their outputs > 0, so their pre-activations are not kept.
    Block 0's arrays in modulation mode are one slot's worth (its activation broadcast over the slots)."""

    codes: np.ndarray  # (N, code_dim)
    inputs: list[np.ndarray] = field(default_factory=list)  # fed to each block (modulation: layer 0 only), (in_dim, N, T)
    pres: list[np.ndarray] = field(default_factory=list)  # block pre-activations (width, N, T), which the backward may overwrite
    acts: list[np.ndarray] = field(default_factory=list)  # block activation outputs, (width, N, T)
    mod_hs: list[np.ndarray] = field(default_factory=list)  # (N, width)
    raw: np.ndarray | None = None  # (N, T, 6)
    hidden: np.ndarray | None = None  # confidence branch outputs (N, conf_width)
    prob: np.ndarray | None = None  # confidences (N,)


def _head_pass(params: HeadParams, codes: np.ndarray, xs, cache: _ForwardCache | None, block0=None) -> np.ndarray:
    """Raw outputs (N, T, 6) of the bank `codes` at the sample parameters xs.

    Arrays are kept only into a given cache. In modulation mode block 0 runs over one slot's worth of
    samples, once for all passes at xs given one list `block0`: the first leaves its activation there,
    and the rest reuse it."""
    cfg, tensors = params.config, params.tensors
    x_arr = _path_params(xs)
    shape = (codes.shape[0], x_arr.size)
    modulated = cfg.conditioning == "modulation"

    if modulated:
        mod_hs = _modulator(params, codes)
        if cache is not None:
            cache.mod_hs = mod_hs
    else:
        code_tile = np.broadcast_to(codes.T[:, :, None], (cfg.code_dim, *shape))

    x = np.broadcast_to(x_arr, (1, *shape))
    for layer in range(cfg.depth):
        inp = x if modulated else np.concatenate([x, code_tile])
        first = modulated and layer == 0
        if first and block0:
            act = block0[0]
        else:
            z = tensors[f"block_w{layer}"] @ (x_arr[None] if first else _flat(inp))
            z += tensors[f"block_b{layer}"][:, None]
            z = z.reshape(cfg.width, -1, x_arr.size)  # one slot's worth at block 0 when modulated
            act = _activation_value(z, cfg.activation, cfg.omega0)
            if first and block0 is not None:
                block0.append(act)
        if cache is not None:
            if layer == 0 or not modulated:
                cache.inputs.append(inp)
            cache.pres.append(z)
            cache.acts.append(np.broadcast_to(act, (cfg.width, *shape)))
        out = None if first or cache is not None else act  # modulate in place, unless act is one slot's or kept
        x = np.multiply(mod_hs[layer].T[:, :, None], act, out=out) if modulated else act
    return (tensors["out_w"] @ _flat(x) + tensors["out_b"][:, None]).reshape(6, *shape).transpose(1, 2, 0)


def _confidence(params: HeadParams, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The confidence branch's hidden outputs (N, conf_width) and confidences (N,) of a bank."""
    tensors = params.tensors
    hidden = np.maximum(codes @ tensors["conf_w1"].T + tensors["conf_b1"], 0.0)
    logit = hidden @ tensors["conf_w2"] + tensors["conf_b2"]
    # logistic sigmoid with exp only ever seeing -|logit|, so it cannot overflow
    e = np.exp(-np.abs(logit))
    return hidden, np.where(logit >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _forward_with_cache(params: HeadParams, codewords, xs) -> _ForwardCache:
    """Raw outputs, confidences and what the backward reads; the backward takes the activation derivatives."""
    cache = _ForwardCache(_as_codewords(params, codewords))
    cache.raw = _head_pass(params, cache.codes, xs, cache)
    cache.hidden, cache.prob = _confidence(params, cache.codes)
    return cache


def head_forward_batch(params: HeadParams, codewords, xs, _block0: list | None = None) -> np.ndarray:
    """Raw outputs at the sample parameters xs, all slots in one pass.

    One codeword (code_dim,) gives (T, 6); a bank (N, code_dim) gives
    (N, T, 6). Nothing a backward pass would need is computed or kept.
    Decodes at one xs that share a list _block0 evaluate block 0 once.
    """
    raw = _head_pass(params, _as_codewords(params, codewords), xs, None, _block0)
    return raw[0] if np.ndim(codewords) == 1 else raw


def confidence_forward(params: HeadParams, codewords):
    """Confidence in (0, 1) of the path each codeword encodes.

    One codeword gives a float; a bank (N, code_dim) gives an (N,) array.
    """
    prob = _confidence(params, _as_codewords(params, codewords))[1]
    return float(prob[0]) if np.ndim(codewords) == 1 else prob


def _backward_from_cache(
    params: HeadParams, cache: _ForwardCache, upstream: np.ndarray, rows: np.ndarray, d_prob
) -> tuple[HeadParams, np.ndarray]:
    """Gradients of both branches through a forward cache, which the backward spends.

    `upstream` is d(loss)/d(raw output) of the slots `rows`, (len(rows), T, 6), and
    `d_prob` d(loss)/d(confidence) of every slot, (N,). Returns the head's gradient as
    a HeadParams, summed over slots and samples (a bias-free head's bias gradients
    exactly 0), and the (N, code_dim) codeword gradients. Each block's cached arrays
    are dropped once read; pre-activations read whole (every slot, or block 0's one
    slot) are differentiated uncopied.
    """
    cfg, tensors = params.config, params.tensors
    d_raw = np.asarray(upstream, dtype=float)
    expected = (len(rows), *cache.raw.shape[1:])
    if d_raw.shape != expected:
        raise ValueError(f"upstream gradient shape {d_raw.shape} != output shape {expected}")
    if not np.all(np.isfinite(d_raw)):
        raise ValueError("upstream gradients must be finite")
    d_prob = np.asarray(d_prob, dtype=float)
    if d_prob.shape != cache.prob.shape:
        raise ValueError(f"confidence gradient shape {d_prob.shape} != output shape {cache.prob.shape}")
    shape = expected[:2]
    codes = cache.codes[rows]
    d_codes = np.zeros_like(codes)
    grad = _allocate(cfg)  # zero pages, each touched as its gradient is written
    grads = grad.tensors
    modulated = cfg.conditioning == "modulation"
    every_slot = len(rows) == len(cache.codes) and np.array_equal(rows, np.arange(len(rows)))

    def take(arr: np.ndarray) -> np.ndarray:
        # the slots `rows` of a (dim, N, T) cache array, copied only when some are left out;
        # any R slots of one broadcast over them (block 0's, in modulation mode) are its first R
        return arr if every_slot else arr[:, : len(rows)] if arr.strides[1] == 0 else arr[:, rows]

    def block_output(layer: int) -> np.ndarray:
        act = take(cache.acts[layer])
        return cache.mod_hs[layer][rows].T[:, :, None] * act if modulated else act

    d_y = _flat(d_raw.transpose(2, 0, 1))  # (6, R*T)
    np.matmul(d_y, _flat(block_output(cfg.depth - 1)).T, out=grads["out_w"])
    grads["out_b"][...] = d_y.sum(axis=1)  # a sum given out= may round otherwise
    d_x = (tensors["out_w"].T @ d_y).reshape(cfg.width, *shape)

    d_mod_h = [np.zeros((len(rows), cfg.width)) for _ in range(cfg.depth)]
    for layer in reversed(range(cfg.depth)):
        pre = cache.pres[layer] if every_slot or (modulated and layer == 0) else cache.pres[layer][:, rows]
        act_deriv = _activation_derivative(pre, cfg.activation, cfg.omega0)  # may overwrite an uncopied pre
        if modulated:
            d_mod_h[layer] = (take(cache.acts[layer]) * d_x).sum(axis=2).T
            d_z = _flat(cache.mod_hs[layer][rows].T[:, :, None] * d_x * act_deriv)
        else:
            d_z = _flat(d_x * act_deriv)
        inp = block_output(layer - 1) if modulated and layer > 0 else take(cache.inputs[layer])
        del cache.pres[layer], cache.acts[layer], cache.inputs[layer:], pre, act_deriv  # spent
        grads[f"block_b{layer}"][...] = d_z.sum(axis=1)
        weight = functools.partial(np.matmul, d_z, _flat(inp).T, out=grads[f"block_w{layer}"])
        if modulated and layer == 0:
            weight()
            break  # block 0's input is x alone, which takes no gradient
        # the weight's and the input's gradients side by side, each one whole matmul
        d_x = np.empty(inp.shape)  # allocated here, not on a pool thread, whose malloc arena would keep it once freed
        _parallel([weight, functools.partial(np.matmul, tensors[f"block_w{layer}"].T, d_z, out=_flat(d_x))], d_z.size)
        d_z = inp = None  # freed before the next layer's activation derivative
        if not modulated:
            split = d_x.shape[0] - cfg.code_dim
            d_codes += d_x[split:].sum(axis=2).T
            d_x = d_x[:split]

    if modulated:
        carry = d_mod_h[cfg.depth - 1]
        for layer in reversed(range(cfg.depth)):
            d_pre = carry * (cache.mod_hs[layer][rows] > 0)
            grads[f"mod_b{layer}"][...] = d_pre.sum(axis=0)
            inp = codes if layer == 0 else np.concatenate([cache.mod_hs[layer - 1][rows], codes], axis=1)
            np.matmul(d_pre.T, inp, out=grads[f"mod_w{layer}"])
            d_inp = d_pre @ tensors[f"mod_w{layer}"]
            split = d_inp.shape[1] - cfg.code_dim
            if layer > 0:
                carry = d_mod_h[layer - 1] + d_inp[:, :split]
            d_codes += d_inp[:, split:]

    d_logit = d_prob * cache.prob * (1.0 - cache.prob)
    d_pre = np.outer(d_logit, tensors["conf_w2"]) * (cache.hidden > 0)
    np.matmul(d_pre.T, cache.codes, out=grads["conf_w1"])
    grads["conf_b1"][...] = d_pre.sum(axis=0)
    np.matmul(d_logit, cache.hidden, out=grads["conf_w2"])
    grads["conf_b2"][...] = d_logit.sum()
    code_grads = np.zeros_like(cache.codes)
    code_grads[rows] = d_codes
    code_grads += d_pre @ tensors["conf_w1"]
    if not cfg.use_bias:  # a bias-free head keeps its biases at zero
        for name, arr in grads.items():
            if _is_bias(name):
                arr[...] = 0.0
    return grad, code_grads


def head_backward(params: HeadParams, codewords, xs, upstream, d_prob) -> tuple[HeadParams, np.ndarray]:
    """Exact gradients of both branches over a codeword bank.

    `upstream` holds d(loss)/d(raw output) per slot and sample, shape
    (N, T, 6), and `d_prob` d(loss)/d(confidence) per slot, shape (N,).
    Returns the head's gradient as a HeadParams (its `vector` in
    named_parameters order), summed over slots and samples, and the
    (N, code_dim) codeword gradients. The modulation product routes
    gradients into both the block branch and the modulator branch.
    """
    cache = _forward_with_cache(params, codewords, xs)
    return _backward_from_cache(params, cache, upstream, np.arange(len(cache.codes)), d_prob)


def named_parameters(params: HeadParams) -> dict[str, np.ndarray]:
    """Stable name -> array view of every learnable tensor, in _layout order."""
    return params.tensors

