"""Set-to-set training objective over padded path slots.

Ground-truth paths are resampled at the drawn scalar parameters and
zero-padded up to the number of prediction slots. A bipartite matching on
mean 3D position distance assigns each prediction a target slot; matched
real slots contribute a position+orientation points loss and every slot
contributes a focal confidence loss. `objective` is the one definition of
that loss and of its gradient.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .paths import Path, resample

CONF_CLAMP = 1e-7

__all__ = [
    "CONF_CLAMP",
    "MatchResult",
    "PaddedTargets",
    "LossBreakdown",
    "pad_targets",
    "position_cost_matrix",
    "hungarian",
    "focal_conf_loss",
    "focal_prob_gradient",
    "objective",
]


@dataclass(frozen=True)
class MatchResult:
    """permutation[i] is the target slot assigned to prediction i."""

    permutation: np.ndarray
    total_cost: float


@dataclass(frozen=True)
class PaddedTargets:
    """(N, T, 6) target array, real paths first, all-zero padding after."""

    paths: np.ndarray
    conf_targets: np.ndarray  # (N,) 1.0 for real slots, 0.0 for padding


@dataclass(frozen=True)
class LossBreakdown:
    points_loss: float
    conf_loss: float
    total: float


def pad_targets(gt: Sequence[Path], n_slots: int, params: Sequence[float]) -> PaddedTargets:
    """Resample every ground-truth path at params, zero-pad up to n_slots."""
    gt = list(gt)
    if n_slots < len(gt):
        raise ValueError(f"{len(gt)} ground-truth paths exceed the {n_slots} available slots")
    vals = np.asarray(params, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("params must be a nonempty 1-D sequence")
    arrays = np.zeros((n_slots, vals.size, 6))
    for i, path in enumerate(gt):
        arrays[i] = resample(path, vals).poses
    conf = np.zeros(n_slots)
    conf[: len(gt)] = 1.0
    return PaddedTargets(arrays, conf)


def hungarian(cost) -> MatchResult:
    """Minimum-cost assignment on a square matrix, O(N^3).

    Shortest-augmenting-path implementation with dual potentials. The
    scan order makes the result deterministic; when several assignments
    tie on cost the lexicographically smallest permutation is returned
    (resolved on the tight-edge graph of the optimal duals).
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] == 0:
        raise ValueError("cost must be a nonempty square matrix")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost entries must be finite")
    n = c.shape[0]

    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)  # p[j]: row matched to column j, 1-based, 0 = free
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = np.nonzero(~used[1:])[0] + 1
            cur = c[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < minv[free]
            minv[free] = np.where(better, cur, minv[free])
            way[free[better]] = j0
            pick = int(np.argmin(minv[free]))  # first minimum: smallest column wins ties
            j1 = int(free[pick])
            delta = float(minv[j1])
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1

    perm = np.zeros(n, dtype=int)
    perm[p[1:] - 1] = np.arange(n)

    # Complementary slackness: every optimal assignment lives on edges with
    # zero reduced cost. If any row has more than one such edge the optimum
    # may be non-unique; re-pick the lexicographically smallest matching.
    reduced = c - u[1:][:, None] - v[1:][None, :]
    tol = 1e-9 * max(1.0, float(np.abs(c).max()))
    tight = reduced <= tol
    if np.any(tight.sum(axis=1) > 1):
        refined = _lex_smallest_tight_matching(tight)
        if refined is not None:
            perm = refined

    total = 0.0
    for i in range(n):
        total += float(c[i, perm[i]])
    return MatchResult(perm, total)


def _lex_smallest_tight_matching(tight: np.ndarray) -> np.ndarray | None:
    """Lexicographically smallest perfect matching on the tight-edge graph."""
    n = tight.shape[0]
    adjacency = [np.nonzero(tight[r])[0].tolist() for r in range(n)]
    used = np.zeros(n, dtype=bool)
    chosen = np.empty(n, dtype=int)
    for row in range(n):
        placed = False
        for col in adjacency[row]:
            if used[col]:
                continue
            used[col] = True
            if _rows_matchable(adjacency, used, row + 1, n):
                chosen[row] = col
                placed = True
                break
            used[col] = False
        if not placed:
            return None
    return chosen


def _rows_matchable(adjacency, used_cols, start: int, n: int) -> bool:
    row_of: dict[int, int] = {}

    def augment(row: int, seen: set[int]) -> bool:
        for col in adjacency[row]:
            if used_cols[col] or col in seen:
                continue
            seen.add(col)
            if col not in row_of or augment(row_of[col], seen):
                row_of[col] = row
                return True
        return False

    for row in range(start, n):
        if not augment(row, set()):
            return False
    return True


def focal_conf_loss(targets, predicted, gamma: float = 2.0) -> float:
    """Focal confidence loss summed over slots.

    Target 1 contributes -(1-f)^gamma * log f, target 0 contributes
    -f^gamma * log(1-f); predictions are clamped away from {0, 1} before
    the logarithm.
    """
    tgt = np.asarray(targets, dtype=float)
    f = np.asarray(predicted, dtype=float)
    if tgt.shape != f.shape:
        raise ValueError("targets and predictions must have equal shape")
    f = np.clip(f, CONF_CLAMP, 1.0 - CONF_CLAMP)
    positive = tgt > 0.5
    terms = np.where(
        positive,
        -((1.0 - f) ** gamma) * np.log(f),
        -(f ** gamma) * np.log(1.0 - f),
    )
    return float(terms.sum())


def focal_prob_gradient(targets, predicted, gamma: float = 2.0) -> np.ndarray:
    """d(focal_conf_loss)/d(predicted probability), elementwise.

    Uses the clamped probabilities like the loss itself, so the powers
    never see a zero base even for gamma < 1.
    """
    tgt = np.asarray(targets, dtype=float)
    f = np.clip(np.asarray(predicted, dtype=float), CONF_CLAMP, 1.0 - CONF_CLAMP)
    g = float(gamma)
    return np.where(
        tgt > 0.5,
        g * (1.0 - f) ** (g - 1.0) * np.log(f) - (1.0 - f) ** g / f,
        -g * f ** (g - 1.0) * np.log(1.0 - f) + f ** g / (1.0 - f),
    )


def position_cost_matrix(target_paths: np.ndarray, conf_targets: np.ndarray, pred_paths: np.ndarray) -> np.ndarray:
    """(N, N) matching cost: rows are predictions, columns are target slots."""
    diff = pred_paths[:, None, :, :3] - target_paths[None, :, :, :3]
    cost = np.sqrt((diff ** 2).sum(axis=3)).mean(axis=2)
    return cost * (conf_targets > 0.5)[None, :]


def objective(targets: PaddedTargets, permutation, raw, confs, gamma: float = 2.0):
    """Set loss of one object under a fixed assignment, and its gradient.

    `raw` is the (N, T, 6) head output with unnormalised orientations,
    `confs` the (N,) confidences, and prediction i is assigned target slot
    permutation[i]. The points loss is the mean over real slots and samples
    of ||p - p_hat|| + (1 - cos angle(v, v_hat)); the focal confidence loss
    sums over every slot. Returns (LossBreakdown, real, d_raw, d_confs):
    `real` holds the prediction rows assigned a real path, d_raw is
    d(loss)/d(raw[real]) and d_confs is d(loss)/d(confs). A zero predicted
    orientation in a real slot raises ValueError.
    """
    raw = np.asarray(raw, dtype=float)
    confs = np.asarray(confs, dtype=float)
    if raw.shape != targets.paths.shape or confs.shape != targets.conf_targets.shape:
        raise ValueError(
            f"predictions of shape {raw.shape} and {confs.shape} do not match the padded "
            f"targets {targets.paths.shape}"
        )
    perm = np.asarray(permutation)
    conf_targets = targets.conf_targets[perm]
    real = np.nonzero(conf_targets > 0.5)[0]

    tgt = targets.paths[perm[real]]
    delta_p = raw[real, :, :3] - tgt[:, :, :3]
    dist = np.linalg.norm(delta_p, axis=2)
    tgt_unit = tgt[:, :, 3:] / np.linalg.norm(tgt[:, :, 3:], axis=2, keepdims=True)
    pred_ori = raw[real, :, 3:]
    ori_norm = np.linalg.norm(pred_ori, axis=2, keepdims=True)
    if np.any(ori_norm < 1e-12):
        raise ValueError("degenerate predicted orientation")
    cosine = (tgt_unit * pred_ori).sum(axis=2, keepdims=True) / ori_norm
    # 1 - cos computed as half the squared unit-vector gap: same value,
    # but exactly 0 for identical inputs and never negative
    gap = tgt_unit - pred_ori / ori_norm
    weight = 1.0 / (max(real.size, 1) * raw.shape[1])
    points = float((dist + 0.5 * (gap * gap).sum(axis=2)).sum()) * weight
    safe = np.where(dist > 0, dist, 1.0)[:, :, None]
    d_raw = weight * np.concatenate(
        [
            np.where(dist[:, :, None] > 0, delta_p / safe, 0.0),
            cosine * pred_ori / ori_norm ** 2 - tgt_unit / ori_norm,
        ],
        axis=2,
    )

    conf = focal_conf_loss(conf_targets, confs, gamma)
    d_confs = focal_prob_gradient(conf_targets, confs, gamma)
    return LossBreakdown(points, conf, points + conf), real, d_raw, d_confs
