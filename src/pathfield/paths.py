"""Pose sequences and their scalar parameterization on [-1, 1].

A path is an ordered sequence of 6D poses: a 3D position in normalized
object space plus a unit 3-vector for the tool orientation. A scalar
s in [-1, 1] addresses a point along the path (-1 is the first waypoint,
0 the middle, +1 the last); points in between are linear in the
fractional waypoint index.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ORIENTATION_TOL = 1e-6
_INDEX_MAX = int(np.iinfo(np.intp).max)  # the largest count numpy can index or allocate
_SAMPLES_MAX = _INDEX_MAX // 8  # the most float64 values numpy can size: the bound of every sample count

SAMPLING_STRATEGIES = ("equispaced", "noisy-equispaced", "uniform")

__all__ = [
    "ORIENTATION_TOL",
    "SAMPLING_STRATEGIES",
    "Path",
    "PredictedPath",
    "ParamSamplingConfig",
    "resample",
    "sample_params",
    "reverse",
    "normalize_scene",
    "max_second_difference",
]


def _check_number(name: str, value, interval: tuple = (-np.inf, np.inf, "()")) -> None:
    """The rule of every real taken in: a ValueError naming it and its value unless it is a real number, not a bool,
    finite as a float, and in interval (low, high, ends), ends one of "()", "[)", "(]", "[]"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    low, high, ends = interval
    if not (abs(value) <= sys.float_info.max and (low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, not {value!r}")


def _check_integer(name: str, value, minimum: int | None = None, maximum: int = _INDEX_MAX) -> None:
    """The rule of every count: a ValueError naming it unless it is an integer, not a bool, at least minimum
    and at most maximum, by default numpy's index range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, not {value!r}")
    if value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, not {value!r}")


def _check_fields(config, integers=(), reals=(), choices=()) -> None:
    """The rule of every config's fields: (name, minimum[, maximum]) rows pass _check_integer, (name, interval) rows
    _check_number, and a (name, options) row's value must be one of options; a field defaulting to None may be None."""
    for check, rows in ((_check_integer, integers), (_check_number, reals)):
        for name, *bounds in rows:
            value = getattr(config, name)
            if value is not None or config.__dataclass_fields__[name].default is not None:
                check(name, value, *bounds)
    for name, options in choices:
        if (value := getattr(config, name)) not in options:
            raise ValueError(f"{name} must be one of {', '.join(options)}, not {value!r}")


def _unit_rows(vectors: np.ndarray, message: str) -> tuple[np.ndarray, np.ndarray]:
    """The rule of every orientation: (vectors / norms, norms) over the last axis, norms kept as (..., 1) with
    the bits of np.linalg.norm; a ValueError(message) if any norm is too small to divide by."""
    norms = np.sqrt((vectors * vectors).sum(axis=-1, keepdims=True))
    if np.any(norms < 1e-12):
        raise ValueError(message)
    return vectors / norms, norms


def _path_params(params) -> np.ndarray:
    """The rule of every sample parameter: params as a nonempty 1-D float array inside [-1, 1]."""
    vals = np.asarray(params, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("params must be a nonempty 1-D sequence")
    if not np.all((vals >= -1.0) & (vals <= 1.0)):
        raise ValueError("params must lie in [-1, 1]")
    return vals


@dataclass(frozen=True)
class Path:
    """Ordered pose sequence stored as a (K, 6) float array, K >= 2.

    Index order is execution order; reversing twice gives back the exact
    same array.
    """

    poses: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.poses, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 6:
            raise ValueError("poses must be a (K, 6) array")
        if arr.shape[0] < 2:
            raise ValueError("a path needs at least two poses")
        if not np.all(np.isfinite(arr)):
            raise ValueError("path entries must be finite")
        norms = np.linalg.norm(arr[:, 3:], axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > ORIENTATION_TOL)[0]
        if bad.size:
            raise ValueError(f"orientation at index {int(bad[0])} is not unit length")
        object.__setattr__(self, "poses", arr)

    def __len__(self) -> int:
        return int(self.poses.shape[0])

    @property
    def positions(self) -> np.ndarray:
        return self.poses[:, :3]

    @property
    def orientations(self) -> np.ndarray:
        return self.poses[:, 3:]


@dataclass(frozen=True)
class PredictedPath:
    """A path plus the confidence that it should be kept."""

    path: Path
    confidence: float

    def __post_init__(self) -> None:
        _check_number("confidence", self.confidence, (0, 1, "[]"))
        object.__setattr__(self, "confidence", float(self.confidence))


@dataclass(frozen=True)
class ParamSamplingConfig:
    """How the scalar path parameters for one pass are drawn.

    strategy "equispaced" uses the grid s_t = -1 + t * 2/T for t = 1..T,
    "noisy-equispaced" adds zero-mean Gaussian noise (clamped back into
    [-1, 1], then sorted), "uniform" sorts independent uniform draws.
    noise_sigma defaults to 0.5 / count when unset.
    """

    strategy: str = "equispaced"
    count: int = 64
    noise_sigma: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:  # a path needs at least two poses
        _check_fields(self, (("count", 2, _SAMPLES_MAX), ("seed", 0)), (("noise_sigma", (0, np.inf, "[)")),),
                      (("strategy", SAMPLING_STRATEGIES),))


def sample_params(config: ParamSamplingConfig) -> np.ndarray:
    """Draw a sorted array of `count` scalars in [-1, 1].

    Deterministic given the config seed. Note the equispaced grid starts
    at -1 + 2/T, not -1, so the very first waypoint is never addressed
    exactly; the asymmetry is kept on purpose.
    """
    t = np.arange(1, config.count + 1, dtype=float)
    grid = np.minimum(t * (2.0 / config.count) - 1.0, 1.0)
    if config.strategy == "equispaced":
        return grid
    rng = np.random.default_rng(config.seed)
    if config.strategy == "noisy-equispaced":
        sigma = config.noise_sigma if config.noise_sigma is not None else 0.5 / config.count
        vals = np.clip(grid + rng.normal(0.0, sigma, config.count), -1.0, 1.0)
    else:
        vals = rng.uniform(-1.0, 1.0, config.count)
    vals.sort()
    return vals


def resample(path, params: Sequence[float]):
    """The path at each scalar params[t] in [-1, 1]: a Path of a Path, (..., T, 6) of a (..., K, 6) stack.

    Each scalar maps linearly to a fractional waypoint index u (-1 is
    waypoint 0, +1 waypoint K-1). The pose at u is linear in u between
    waypoints floor(u) and floor(u) + 1: positions componentwise,
    orientations likewise and then renormalised to unit length. A scalar
    that lands exactly on a waypoint returns that waypoint unchanged, and
    a path in a stack gets the bits it gets alone.
    """
    poses = path.poses if isinstance(path, Path) else np.asarray(path, dtype=float)
    if poses.ndim < 2 or poses.shape[-1] != 6 or poses.shape[-2] < 2:
        raise ValueError("poses must be a (..., K, 6) array with K >= 2")
    vals = _path_params(params)
    k = poses.shape[-2]
    u = 0.5 * (vals + 1.0) * (k - 1)
    i0 = np.minimum(np.floor(u).astype(int), k - 2)
    frac = u - i0
    row0 = poses[..., i0, :]
    row1 = poses[..., i0 + 1, :]
    out = (1.0 - frac)[:, None] * row0 + frac[:, None] * row1
    out[..., 3:] = _unit_rows(out[..., 3:], "interpolated orientation degenerates to zero")[0]
    exact0 = frac == 0.0
    exact1 = frac == 1.0
    out[..., exact0, :] = row0[..., exact0, :]
    out[..., exact1, :] = row1[..., exact1, :]
    return Path(out) if isinstance(path, Path) else out


def reverse(path: Path) -> Path:
    """Same poses in reverse execution order."""
    return Path(path.poses[::-1].copy())


def normalize_scene(
    point_cloud: np.ndarray, paths: Sequence[Path]
) -> tuple[np.ndarray, list[Path]]:
    """Center the cloud on its centroid and scale the maximum radius to one.

    The same shift and scale map every path position; orientations are
    untouched. Returns (cloud, paths).
    """
    cloud = np.asarray(point_cloud, dtype=float)
    if cloud.ndim != 2 or cloud.shape[1] != 3 or cloud.shape[0] == 0:
        raise ValueError("point cloud must be a nonempty (P, 3) array")
    if not np.all(np.isfinite(cloud)):
        raise ValueError("point cloud entries must be finite")
    centroid = cloud.mean(axis=0)
    radii = np.linalg.norm(cloud - centroid, axis=1)
    scale = float(radii.max())
    if scale <= 0.0:
        raise ValueError("degenerate point cloud: all points coincide")
    out = []
    for path in paths:
        poses = path.poses.copy()
        poses[:, :3] = (poses[:, :3] - centroid) / scale
        out.append(Path(poses))
    return (cloud - centroid) / scale, out


def max_second_difference(path: Path) -> float:
    """Largest second-difference magnitude along the path positions.

    A discrete corner-sharpness probe: piecewise-linear paths concentrate
    their curvature at corners and score high, smooth paths score low.
    """
    pos = path.positions
    if len(path) < 3:
        return 0.0
    second = pos[:-2] - 2.0 * pos[1:-1] + pos[2:]
    return float(np.linalg.norm(second, axis=1).max())
