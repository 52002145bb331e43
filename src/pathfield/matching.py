"""Set-to-set training objective of N prediction slots against R <= N real paths.

Ground-truth paths are resampled at the drawn scalar parameters. A
bipartite matching on mean 3D position distance assigns each prediction a
target slot: one of the R real paths, or one of the N - R padded slots,
which exist only as the numbers R..N-1. Predictions matched to a real path
contribute a position+orientation points loss and every slot contributes
a focal confidence loss, with target 1 for a real path and 0 for padding.
`objective` is the one definition of that loss and of its gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .paths import Path, _path_params, _unit_rows, resample

CONF_CLAMP = 1e-7

__all__ = [
    "CONF_CLAMP",
    "MatchResult",
    "LossBreakdown",
    "pad_targets",
    "position_cost_matrix",
    "hungarian",
    "focal_loss",
    "objective",
]


@dataclass(frozen=True)
class MatchResult:
    """permutation[i] is the target slot assigned to prediction i."""

    permutation: np.ndarray
    total_cost: float


@dataclass(frozen=True)
class LossBreakdown:
    points_loss: float
    conf_loss: float
    total: float


def pad_targets(gt: Sequence[Path], n_slots: int, params: Sequence[float]) -> np.ndarray:
    """The R <= n_slots paths resampled at params as one (R, T, 6) array, one stack per waypoint count."""
    gt = list(gt)
    if n_slots < len(gt):
        raise ValueError(f"{len(gt)} ground-truth paths exceed the {n_slots} available slots")
    vals = _path_params(params)
    targets = np.empty((len(gt), vals.size, 6))
    for count in {len(path) for path in gt}:
        rows = [row for row, path in enumerate(gt) if len(path) == count]
        targets[rows] = resample(np.stack([gt[row].poses for row in rows]), vals)
    return targets


def hungarian(cost) -> MatchResult:
    """Minimum-cost assignment of N rows to N columns, R of them given, O(R^2 N).

    `cost` is an (N, R) matrix with R <= N: rows are predictions, columns
    the real targets. The other N - R columns are padding, free for every
    row and numbered R..N-1; a square matrix (R = N) has none, and R = 0
    gives the identity. permutation[i] is the column of row i; total_cost
    sums the chosen costs in row order.

    Shortest augmenting paths with dual potentials, one path per real
    column (Crouse, IEEE TAES 2016); the rows no real column takes get the
    padded columns in row order. When several assignments tie on cost the
    lexicographically smallest permutation is returned: one pass over the
    tight-edge graph of the optimal duals (the padding is one column of
    capacity N - R) moves each row to the smallest column later rows can free.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] > c.shape[0]:
        raise ValueError("cost must be a nonempty (N, R) matrix with R <= N")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost entries must be finite")
    n, r = c.shape
    if r == 0:
        return MatchResult(np.arange(n), 0.0)

    # Plain lists: at the slot counts training uses (8 to 40) numpy's per-call
    # overhead costs more than these loops.
    by_col = c.T.tolist()
    u = [0.0] * r  # column potentials
    v = [0.0] * n  # row potentials; a row without a real column keeps 0
    col_of = [-1] * n  # real column held by each row, -1 = padding
    row_of = [-1] * r
    for j in range(r):
        # Dijkstra over the rows on reduced costs, from column j to a free row
        dist = [math.inf] * n
        prev = [0] * n  # column each row was reached from
        done = [False] * n
        settled = []
        col, base = j, 0.0
        while True:
            costs, u_col = by_col[col], u[col]
            best, row = math.inf, -1
            for i in range(n):
                if done[i]:
                    continue
                reach = base + costs[i] - u_col - v[i]
                if reach < dist[i]:
                    dist[i], prev[i] = reach, col
                if dist[i] < best:
                    best, row = dist[i], i
            base = best
            done[row] = True
            settled.append(row)
            if col_of[row] < 0:
                break
            col = col_of[row]
        u[j] += base
        for i in settled:
            if col_of[i] >= 0:
                u[col_of[i]] += base - dist[i]
            v[i] -= base - dist[i]
        while True:  # hand each row on the path the column it was reached from
            col = prev[row]
            previous = row_of[col]
            row_of[col], col_of[row] = row, col
            if col == j:
                break
            row = previous

    # Complementary slackness: every optimal assignment lives on edges with
    # zero reduced cost, the padding column (dual 0) included; among them
    # take the lexicographically smallest.
    u, v = np.array(u), np.array(v)
    tol = 1e-9 * max(1.0, float(np.abs(c).max()))
    tight = np.column_stack([c - v[:, None] - u[None, :] <= tol, -v <= tol])
    perm = _lex_smallest_tight_matching(tight, np.array([r if k < 0 else k for k in col_of]))
    padded = perm == r
    perm[padded] = r + np.arange(n - r)
    total = 0.0
    for i in np.nonzero(~padded)[0].tolist():
        total += float(c[i, perm[i]])
    return MatchResult(perm, total)


def _lex_smallest_tight_matching(tight: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Lexicographically smallest assignment of every row on the tight-edge graph.

    `labels` is one such assignment: column k < R holds one row, the padding
    column R the rest. Row by row, each takes the smallest tight column below
    its own that a path through later rows can free: every row on the path
    moves along a tight edge into the column the next one leaves, the last
    into the row's old column. Any optimum that keeps the earlier rows
    differs from the current one only by such cycles, so each pick is final.
    """
    held = labels.tolist()
    adjacency = [[col for col, on in enumerate(edges) if on] for edges in tight.tolist()]

    def free(col: int, home: int, first: int, seen: set[int]) -> bool:
        """Move rows after `first` out of `col` along such a path ending in `home`; False if none exists."""
        for row in range(first + 1, len(held)):
            if held[row] != col:
                continue
            for nxt in adjacency[row]:
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt == home or free(nxt, home, first, seen):
                        held[row] = nxt
                        return True
        return False

    for row in range(len(held)):
        for col in adjacency[row]:
            if col >= held[row]:
                break
            if free(col, held[row], row, {col}):
                held[row] = col
                break
    return np.array(held)


def focal_loss(targets, predicted, gamma: float = 2.0) -> tuple[float, np.ndarray]:
    """Focal confidence loss summed over slots, and its gradient in each predicted probability.

    Target 1 contributes -(1-f)^gamma * log f, target 0 contributes
    -f^gamma * log(1-f). Predictions are clamped away from {0, 1} for the
    loss and the gradient alike, so the powers never see a zero base even
    for gamma < 1.
    """
    tgt = np.asarray(targets, dtype=float)
    f = np.asarray(predicted, dtype=float)
    if tgt.shape != f.shape:
        raise ValueError("targets and predictions must have equal shape")
    f = np.clip(f, CONF_CLAMP, 1.0 - CONF_CLAMP)
    positive = tgt > 0.5
    loss = np.where(positive, -((1.0 - f) ** gamma) * np.log(f), -(f ** gamma) * np.log(1.0 - f))
    g = float(gamma)  # the gradient's powers in float, whatever type gamma is
    gradient = np.where(
        positive,
        g * (1.0 - f) ** (g - 1.0) * np.log(f) - (1.0 - f) ** g / f,
        -g * f ** (g - 1.0) * np.log(1.0 - f) + f ** g / (1.0 - f),
    )
    return float(loss.sum()), gradient


def position_cost_matrix(target_paths: np.ndarray, pred_paths: np.ndarray) -> np.ndarray:
    """(N, R) matching cost: mean position distance from each of the N
    predictions (rows) to each of the R real target paths (columns).

    Padded target slots get no column; `hungarian` gives them to the rows
    left over, free of cost.
    """
    diff = pred_paths[:, None, :, :3] - target_paths[None, :, :, :3]
    return np.sqrt((diff ** 2).sum(axis=3)).mean(axis=2)


def objective(targets, permutation, raw, confs, gamma: float = 2.0):
    """Set loss of one object under a fixed assignment, and its gradient.

    `targets` is the (R, T, 6) real ground truth, `raw` the (N, T, 6) head
    output with unnormalised orientations (R <= N), `confs` the (N,)
    confidences, and prediction i is assigned target slot permutation[i];
    slots R..N-1 are padding. The points loss is the mean over real slots
    and samples of ||p - p_hat|| + (1 - cos angle(v, v_hat)); the focal
    confidence loss sums over every slot. Returns (LossBreakdown, real,
    d_raw, d_confs): `real` holds the prediction rows assigned a real path,
    d_raw is d(loss)/d(raw[real]) and d_confs is d(loss)/d(confs). A zero
    orientation, predicted in a real slot or in a target, raises ValueError.
    """
    targets = np.asarray(targets, dtype=float)
    raw = np.asarray(raw, dtype=float)
    confs = np.asarray(confs, dtype=float)
    if raw.shape[1:] != targets.shape[1:] or len(targets) > len(raw) or confs.shape != raw.shape[:1]:
        raise ValueError(
            f"predictions of shape {raw.shape} and {confs.shape} do not match the "
            f"targets {targets.shape}"
        )
    perm = np.asarray(permutation)
    conf_targets = (perm < len(targets)).astype(float)
    real = np.nonzero(conf_targets)[0]

    tgt = targets[perm[real]]
    delta_p = raw[real, :, :3] - tgt[:, :, :3]
    dist = np.linalg.norm(delta_p, axis=2)
    tgt_unit = _unit_rows(tgt[:, :, 3:], "degenerate predicted orientation")[0]
    pred_ori = raw[real, :, 3:]
    pred_unit, ori_norm = _unit_rows(pred_ori, "degenerate predicted orientation")
    cosine = (tgt_unit * pred_ori).sum(axis=2, keepdims=True) / ori_norm
    # 1 - cos computed as half the squared unit-vector gap: same value,
    # but exactly 0 for identical inputs and never negative
    gap = tgt_unit - pred_unit
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

    conf, d_confs = focal_loss(conf_targets, confs, gamma)
    return LossBreakdown(points, conf, points + conf), real, d_raw, d_confs
