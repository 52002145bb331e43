"""Evaluation metrics for sets of predicted paths.

Path pairs are aligned with dynamic time warping on 3D positions, so the
scores respect point order while staying agnostic to the sampling rate.
On top of the alignment sit a thresholded pose F-score (distance delta,
angle theta), a detection-style average-precision family, and a
set-to-set chamfer distance on positions.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .paths import ParamSamplingConfig, Path, Pose6D, PredictedPath, resample, sample_params

DEFAULT_DELTA = 0.025
DEFAULT_THETA_DEG = 10.0
DEFAULT_RESAMPLE_T = 384

# F-score thresholds for the strict and lenient AP sweeps.
HARD_TAUS = tuple((10 + k) / 20 for k in range(10))  # 0.50 .. 0.95
EASY_TAUS = tuple((1 + k) / 20 for k in range(10))  # 0.05 .. 0.50

DatasetMap = Mapping[str, tuple[Sequence[Path], Sequence[PredictedPath]]]

__all__ = [
    "AlignmentResult",
    "FScoreResult",
    "EvalReport",
    "dtw_align",
    "pose_fscore",
    "fscore_bidirectional",
    "average_precision",
    "ap_suite",
    "pcd",
    "evaluate_dataset",
    "DEFAULT_DELTA",
    "DEFAULT_THETA_DEG",
    "DEFAULT_RESAMPLE_T",
    "HARD_TAUS",
    "EASY_TAUS",
]


@dataclass(frozen=True)
class AlignmentResult:
    """Warp cost plus the monotone index pairing that realizes it."""

    cost: float
    warp: np.ndarray  # (W, 2) int array of (first-sequence, second-sequence) indices


@dataclass(frozen=True)
class FScoreResult:
    precision: float
    recall: float
    fscore: float
    reversed: bool


def _pose_array(obj) -> np.ndarray:
    if isinstance(obj, Path):
        return obj.poses
    if isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], Pose6D):
        return np.stack([p.as_vector() for p in obj])
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise ValueError("expected a Path, Pose6D list, or (K, 6) array")
    return arr


def _position_array(obj) -> np.ndarray:
    if isinstance(obj, Path):
        return obj.positions
    if isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], Pose6D):
        return np.stack([p.position for p in obj])
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in (3, 6):
        raise ValueError("expected positions as a (K, 3) or (K, 6) array")
    return arr[:, :3]


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("zero orientation vector")
    return vectors / norms[:, None]


def dtw_align(a, b) -> AlignmentResult:
    """Minimum-cost monotone alignment between two point sequences.

    Steps advance the first sequence, the second, or both by one index;
    each visited cell contributes the Euclidean distance of its point
    pair. The dynamic program fills anti-diagonals, O(K*M). Traceback
    ties prefer the diagonal step, then the step advancing the first
    sequence.
    """
    first = np.asarray(a, dtype=float)
    second = np.asarray(b, dtype=float)
    if first.ndim != 2 or second.ndim != 2 or first.shape[0] == 0 or second.shape[0] == 0:
        raise ValueError("dtw_align needs nonempty 2-D point arrays")
    if first.shape[1] != second.shape[1]:
        raise ValueError("point dimensionality differs between inputs")
    k, m = first.shape[0], second.shape[0]
    d = np.linalg.norm(first[:, None, :] - second[None, :, :], axis=2)
    acc = np.empty((k, m))
    acc[0, :] = np.cumsum(d[0, :])
    acc[:, 0] = np.cumsum(d[:, 0])
    for s in range(2, k + m - 1):
        i_lo = max(1, s - (m - 1))
        i_hi = min(k - 1, s - 1)
        if i_lo > i_hi:
            continue
        i = np.arange(i_lo, i_hi + 1)
        j = s - i
        best = np.minimum(acc[i - 1, j - 1], np.minimum(acc[i - 1, j], acc[i, j - 1]))
        acc[i, j] = d[i, j] + best

    i, j = k - 1, m - 1
    pairs = [(i, j)]
    while i > 0 or j > 0:
        moves = []
        if i > 0 and j > 0:
            moves.append((acc[i - 1, j - 1], i - 1, j - 1))
        if i > 0:
            moves.append((acc[i - 1, j], i - 1, j))
        if j > 0:
            moves.append((acc[i, j - 1], i, j - 1))
        _, i, j = min(moves, key=lambda mv: mv[0])
        pairs.append((i, j))
    pairs.reverse()
    return AlignmentResult(float(acc[k - 1, m - 1]), np.array(pairs, dtype=int))


def pose_fscore(gt, pred, delta: float = DEFAULT_DELTA, theta_deg: float = DEFAULT_THETA_DEG) -> FScoreResult:
    """Dual-threshold F-score between two pose sequences.

    Positions are aligned with dtw_align; a ground-truth pose counts as
    recalled when any warp-paired predicted pose lies within Euclidean
    distance delta AND angular distance theta of it, and symmetrically
    for precision. Orientations are normalized defensively before the
    angle test.
    """
    gt_arr = _pose_array(gt)
    pred_arr = _pose_array(pred)
    if gt_arr.shape[0] == 0 or pred_arr.shape[0] == 0:
        raise ValueError("pose lists must be nonempty")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 < theta_deg < 180.0:
        raise ValueError("theta must lie in (0, 180) degrees")
    gt_unit = _unit_rows(gt_arr[:, 3:])
    pred_unit = _unit_rows(pred_arr[:, 3:])
    align = dtw_align(gt_arr[:, :3], pred_arr[:, :3])
    k = align.warp[:, 0]
    m = align.warp[:, 1]
    dist_ok = np.linalg.norm(gt_arr[k, :3] - pred_arr[m, :3], axis=1) < delta
    cosines = np.clip((gt_unit[k] * pred_unit[m]).sum(axis=1), -1.0, 1.0)
    angle_ok = np.degrees(np.arccos(cosines)) < theta_deg
    ok = dist_ok & angle_ok
    recalled = np.zeros(gt_arr.shape[0], dtype=bool)
    recalled[k[ok]] = True
    precise = np.zeros(pred_arr.shape[0], dtype=bool)
    precise[m[ok]] = True
    recall = float(recalled.mean())
    precision = float(precise.mean())
    fscore = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return FScoreResult(precision, recall, fscore, False)


def fscore_bidirectional(
    gt, pred, delta: float = DEFAULT_DELTA, theta_deg: float = DEFAULT_THETA_DEG
) -> FScoreResult:
    """Best F-score over the prediction as given and reversed.

    Path execution has no preferred direction, so the higher of the two
    scores wins; the `reversed` flag records which one did.
    """
    pred_arr = _pose_array(pred)
    forward = pose_fscore(gt, pred_arr, delta, theta_deg)
    backward = pose_fscore(gt, pred_arr[::-1], delta, theta_deg)
    if backward.fscore > forward.fscore:
        return FScoreResult(backward.precision, backward.recall, backward.fscore, True)
    return forward


@dataclass(frozen=True)
class _ScoredPrediction:
    confidence: float
    object_id: str
    index: int
    scores: np.ndarray  # bidirectional F-score against each gt path of its object


def _score_dataset(dataset: DatasetMap, delta: float, theta_deg: float):
    entries: list[_ScoredPrediction] = []
    n_gt = 0
    for object_id in sorted(dataset):
        gt_paths, preds = dataset[object_id]
        gt_paths = list(gt_paths)
        n_gt += len(gt_paths)
        for index, pred in enumerate(preds):
            scores = np.array(
                [fscore_bidirectional(g, pred.path, delta, theta_deg).fscore for g in gt_paths]
            )
            entries.append(_ScoredPrediction(pred.confidence, object_id, index, scores))
    return entries, n_gt


def _every_point_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 1, 0, -1):
        mpre[i - 1] = max(mpre[i - 1], mpre[i])
    idx = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]).sum())


def _ap_from_entries(entries: Sequence[_ScoredPrediction], n_gt: int, tau: float) -> float:
    order = sorted(entries, key=lambda e: (-e.confidence, e.object_id, e.index))
    consumed: dict[str, np.ndarray] = {}
    hits = np.zeros(len(order), dtype=bool)
    for rank, entry in enumerate(order):
        if entry.scores.size == 0:
            continue
        used = consumed.setdefault(entry.object_id, np.zeros(entry.scores.size, dtype=bool))
        masked = np.where(used, -np.inf, entry.scores)
        best = int(np.argmax(masked))
        if masked[best] >= tau:
            used[best] = True
            hits[rank] = True
    cum_tp = np.cumsum(hits)
    cum_fp = np.cumsum(~hits)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    return _every_point_ap(recall, precision)


def _ap_at(entries: Sequence[_ScoredPrediction], n_gt: int, taus: Sequence[float]) -> list[float]:
    """AP at each tau; all 0, with a warning, when there is no prediction to score."""
    if n_gt == 0:
        raise ValueError("dataset holds no ground-truth paths")
    if not entries:
        warnings.warn("no predictions to score; AP is 0", RuntimeWarning, stacklevel=3)
        return [0.0] * len(taus)
    return [_ap_from_entries(entries, n_gt, tau) for tau in taus]


def _ap_family(entries: Sequence[_ScoredPrediction], n_gt: int) -> tuple[float, float, float]:
    """(AP at tau 0.5, mean AP over HARD_TAUS, mean AP over EASY_TAUS)."""
    aps = _ap_at(entries, n_gt, HARD_TAUS + EASY_TAUS)
    hard, easy = aps[: len(HARD_TAUS)], aps[len(HARD_TAUS) :]
    return hard[0], float(np.mean(hard)), float(np.mean(easy))


def average_precision(
    dataset: DatasetMap,
    tau: float,
    delta: float = DEFAULT_DELTA,
    theta_deg: float = DEFAULT_THETA_DEG,
) -> float:
    """Detection-style AP over all predictions pooled across objects.

    Predictions are visited by descending confidence (ties broken by
    object id, then prediction index). Each one greedily claims its
    best-scoring still-unmatched ground-truth path of the same object;
    a claim at F-score >= tau is a true positive. AP is the area under
    the monotone precision envelope over recall.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    return _ap_at(*_score_dataset(dataset, delta, theta_deg), (tau,))[0]


def ap_suite(
    dataset: DatasetMap,
    delta: float = DEFAULT_DELTA,
    theta_deg: float = DEFAULT_THETA_DEG,
) -> tuple[float, float, float]:
    """(AP at tau 0.5, mean AP over 0.50..0.95, mean AP over 0.05..0.50)."""
    return _ap_family(*_score_dataset(dataset, delta, theta_deg))


def pcd(pred_poses, gt_poses) -> float:
    """Symmetric squared nearest-neighbour distance on positions, times 1e4.

    Order-agnostic set-to-set similarity; reported in normalized space
    scaled by 1e4 so desk-scale values are readable.
    """
    pred = _position_array(pred_poses)
    gt = _position_array(gt_poses)
    if pred.shape[0] == 0 or gt.shape[0] == 0:
        raise ValueError("pcd needs nonempty pose sets")
    d2 = ((pred[:, None, :] - gt[None, :, :]) ** 2).sum(axis=2)
    return float((d2.min(axis=1).mean() + d2.min(axis=0).mean()) * 1e4)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate and per-object scores for one prediction set."""

    pcd: float | None
    ap50: float
    ap: float
    ap_easy: float
    delta: float
    theta_deg: float
    resample_t: int | None
    per_object: dict

    def to_document(self) -> dict:
        return {
            "ap": self.ap,
            "ap50": self.ap50,
            "ap_easy": self.ap_easy,
            "delta": self.delta,
            "pcd": self.pcd,
            "per_object": self.per_object,
            "resample_t": self.resample_t,
            "theta_deg": self.theta_deg,
        }


def evaluate_dataset(
    dataset: DatasetMap,
    delta: float = DEFAULT_DELTA,
    theta_deg: float = DEFAULT_THETA_DEG,
    resample_t: int | None = DEFAULT_RESAMPLE_T,
) -> EvalReport:
    """Score a full dataset: AP family plus per-object chamfer and F-scores.

    Ground-truth and predicted paths are first resampled to `resample_t`
    equispaced samples (pass None to score the paths as given). The
    aggregate pcd is the mean over objects that have both ground truth
    and predictions.
    """
    if resample_t is not None:
        grid = sample_params(ParamSamplingConfig("equispaced", resample_t))
        work: dict[str, tuple[list[Path], list[PredictedPath]]] = {}
        for object_id in sorted(dataset):
            gt_paths, preds = dataset[object_id]
            work[object_id] = (
                [resample(g, grid) for g in gt_paths],
                [PredictedPath(resample(p.path, grid), p.confidence) for p in preds],
            )
    else:
        work = {oid: (list(g), list(p)) for oid, (g, p) in dataset.items()}

    entries, n_gt = _score_dataset(work, delta, theta_deg)
    ap50, ap, ap_easy = _ap_family(entries, n_gt)

    by_object: dict[str, list[_ScoredPrediction]] = {}
    for entry in entries:
        by_object.setdefault(entry.object_id, []).append(entry)

    per_object: dict[str, dict] = {}
    object_pcds = []
    for object_id in sorted(work):
        gt_paths, preds = work[object_id]
        obj_pcd = None
        if gt_paths and preds:
            gt_pool = np.concatenate([g.positions for g in gt_paths])
            pred_pool = np.concatenate([p.path.positions for p in preds])
            obj_pcd = pcd(pred_pool, gt_pool)
            object_pcds.append(obj_pcd)
        fscores = [
            float(e.scores.max()) if e.scores.size else 0.0
            for e in sorted(by_object.get(object_id, []), key=lambda e: e.index)
        ]
        per_object[object_id] = {
            "fscores": fscores,
            "n_gt": len(gt_paths),
            "n_predictions": len(preds),
            "pcd": obj_pcd,
        }

    aggregate_pcd = float(np.mean(object_pcds)) if object_pcds else None
    return EvalReport(
        pcd=aggregate_pcd,
        ap50=ap50,
        ap=ap,
        ap_easy=ap_easy,
        delta=delta,
        theta_deg=theta_deg,
        resample_t=resample_t,
        per_object=per_object,
    )
