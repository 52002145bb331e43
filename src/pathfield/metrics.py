"""Evaluation metrics for sets of predicted paths.

Path pairs are aligned with dynamic time warping on 3D positions, so the
scores respect point order while staying agnostic to the sampling rate.
On top of the alignment sit a thresholded pose F-score (distance delta,
angle theta), a detection-style average-precision family, and a
set-to-set chamfer distance on positions.

An evaluation's DTW batches, and its objects' chamfer distances, are
independent calls that run through neural_field._parallel on the usable
CPUs; each is the numpy work a serial run does, so every score has the
same bits wherever it runs.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .neural_field import _parallel
from .paths import ParamSamplingConfig, Path, PredictedPath, _check_number, _unit_rows, resample, sample_params

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
    """Warp cost plus the monotone index pairing that realizes it.

    For one pair, `cost` is a float and `warp` a (W, 2) int array of
    (first-sequence, second-sequence) indices. For a batch of B pairs,
    `cost` is (B,) and `warp` (B, W, 2), each warp padded at its front
    with repeats of (0, 0) to the longest warp of the batch.
    """

    cost: float | np.ndarray
    warp: np.ndarray


@dataclass(frozen=True)
class FScoreResult:
    precision: float
    recall: float
    fscore: float
    reversed: bool


def _pose_array(obj) -> np.ndarray:
    if isinstance(obj, Path):
        return obj.poses
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise ValueError("expected a Path or a (K, 6) array")
    return arr


def _position_array(obj) -> np.ndarray:
    if isinstance(obj, Path):
        return obj.positions
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in (3, 6):
        raise ValueError("expected positions as a (K, 3) or (K, 6) array")
    return arr[:, :3]


# Traceback move codes, 2 bits a DP cell in two bit-planes: 0 is the diagonal step;
# the low bit marks any other step, the high bit with it the step advancing the
# second sequence, and alone the start. The tie rule prefers the diagonal, then
# the step advancing the first sequence, then the other.
_ADVANCE_FIRST, _START, _ADVANCE_SECOND = 1, 2, 3

# Cells of one batched DP, so its move codes take at most 8 MiB.
DTW_BATCH_CELLS = 1 << 25


def _code_bits(code: int) -> list[list[bool]]:
    """A move code's (low, high) plane bits, as a column that fills one cell of every pair."""
    return [[bool(code & 1)], [bool(code & 2)]]


# Cells per block of pcd's distance table, so each float64 temporary (256 KiB) stays in L2.
PCD_BLOCK_CELLS = 1 << 15


def dtw_align(a, b) -> AlignmentResult:
    """Minimum-cost monotone alignment between two point sequences.

    Steps advance the first sequence, the second, or both by one index;
    each visited cell contributes the Euclidean distance of its point
    pair. Traceback ties prefer the diagonal step, then the step
    advancing the first sequence.

    Takes one pair, (K, D) and (M, D), or a batch of equal-shape pairs,
    (B, K, D) and (B, M, D), aligned by one dynamic program in O(B*K*M):
    it fills anti-diagonals for the whole batch at once, keeps three of
    them, and stores a 2-bit move code per cell, in two bit-planes packed
    along the batch, which the traceback follows for every pair in step.
    """
    first = np.asarray(a, dtype=float)
    second = np.asarray(b, dtype=float)
    pair = first.ndim == 2 and second.ndim == 2
    if pair:
        first, second = first[None], second[None]
    if first.ndim != 3 or second.ndim != 3 or len(first) != len(second) or 0 in first.shape[1:] + second.shape[1:]:
        raise ValueError("dtw_align needs nonempty 2-D point arrays, or equal-length stacks of them")
    if first.shape[2] != second.shape[2]:
        raise ValueError("point dimensionality differs between inputs")
    n, k, dim = first.shape
    m = second.shape[1]
    # Coordinates batch-last, the second sequence reversed: cell (i, j) of
    # anti-diagonal i + j = s pairs first[i] with reversed[m - 1 - s + i], so
    # a diagonal reads one contiguous slice of each.
    fx = np.ascontiguousarray(first.transpose(2, 1, 0))
    rx = np.ascontiguousarray(second[:, ::-1].transpose(2, 1, 0))
    # Costs of diagonals s, s - 1 and s - 2, at row i + 1; row 0 and rows
    # never written hold the inf that closes off the grid's edges.
    diagonals = np.full((3, k + 1, n), np.inf)
    # The two code planes, cell (i, j) at row i * m + m - 1 - j, pair q at bit q % 8 of byte q // 8.
    planes = np.empty((2, k * m, -(-n // 8)), dtype=np.uint8)
    # One diagonal's scratch, allocated once: distances, a coordinate step, the better single step, code bits.
    dist_buf, step_buf, other_buf = np.empty((3, min(k, m), n))
    bits_buf = np.empty((2, min(k, m), n), dtype=bool)
    for s in range(k + m - 1):
        lo, hi = max(0, s - m + 1), min(k - 1, s)
        r = lo + m - 1 - s
        width = hi - lo + 1
        dist, step, other, bits = dist_buf[:width], step_buf[:width], other_buf[:width], bits_buf[:, :width]
        # squared coordinate differences summed in index order, as np.linalg.norm does
        np.subtract(fx[0, lo : hi + 1], rx[0, r : r + width], out=dist)
        dist *= dist
        for c in range(1, dim):
            np.subtract(fx[c, lo : hi + 1], rx[c, r : r + width], out=step)
            step *= step
            dist += step
        np.sqrt(dist, out=dist)
        cur, prev, prev2 = diagonals[s % 3], diagonals[(s - 1) % 3], diagonals[(s - 2) % 3]
        if s == 0:
            cur[1] = dist[0]
        else:
            diag, up, left = prev2[lo : hi + 1], prev[lo : hi + 1], prev[lo + 1 : hi + 2]
            np.minimum(up, left, out=other)
            np.less(other, diag, out=bits[0])
            np.less(left, up, out=bits[1])
            bits[1] &= bits[0]
            np.minimum(diag, other, out=other)
            np.add(dist, other, out=cur[lo + 1 : hi + 2])
            # on the grid's edges one move is the only one, also when costs are inf
            if hi == s:
                bits[:, -1] = _code_bits(_ADVANCE_FIRST)
        if lo == 0:
            bits[:, 0] = _code_bits(_ADVANCE_SECOND if s else _START)
        start = lo * m + r
        planes[:, start : start + (width - 1) * (m + 1) + 1 : m + 1] = np.packbits(bits, axis=-1, bitorder="little")

    lanes = planes.shape[2]
    low, high = planes.reshape(2, -1)
    pairs = np.arange(n)
    byte, bit = pairs >> 3, (pairs & 7).astype(np.uint8)
    # flat-index step of each code, by (low bit, high bit): [[diagonal, start], [first, second]];
    # only the start's is 0 (a diagonal's is 0 at m = 1, where every cell lies on an edge)
    shift = np.array([[1 - m, 0], [-m, 1]]) * lanes
    at = (k - 1) * m * lanes + byte  # cell (k - 1, m - 1)
    trail = [at]
    while True:
        move = shift[(low[at] >> bit) & 1, (high[at] >> bit) & 1]
        if not move.any():
            break
        at = at + move  # a finished walk stays on (0, 0)
        trail.append(at)
    cells = np.array(trail[::-1]).T // lanes
    warp = np.stack([cells // m, m - 1 - cells % m], axis=-1)
    cost = diagonals[(k + m - 2) % 3][k].copy()
    if pair:
        return AlignmentResult(float(cost[0]), warp[0])
    return AlignmentResult(cost, warp)


# Ground-truth poses (K, 6) and their unit orientations, then the prediction's
# (M, 6) and theirs, in the direction the prediction is scored.
_PosePair = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _pose_pair(gt, pred) -> _PosePair:
    """The checked arrays of one (ground truth, prediction) pair, the prediction as given."""
    gt_arr = _pose_array(gt)
    pred_arr = _pose_array(pred)
    if gt_arr.shape[0] == 0 or pred_arr.shape[0] == 0:
        raise ValueError("pose lists must be nonempty")
    message = "zero orientation vector"
    return gt_arr, _unit_rows(gt_arr[:, 3:], message)[0], pred_arr, _unit_rows(pred_arr[:, 3:], message)[0]


def _reversed(pair: _PosePair) -> _PosePair:
    gt_arr, gt_unit, pred_arr, pred_unit = pair
    return gt_arr, gt_unit, pred_arr[::-1], pred_unit[::-1]


def _pose_fscores(pairs: Sequence[_PosePair], delta: float, theta_deg: float) -> np.ndarray:
    """(precision, recall, F-score) of each pair, as an (n, 3) array.

    Pairs of equal shape are aligned together by dtw_align, in batches
    of at most DTW_BATCH_CELLS cells, which run through
    neural_field._parallel. The thresholds are checked even when there
    is no pair to score.
    """
    _check_number("delta", delta, (0, np.inf, "()"))
    _check_number("theta", theta_deg, (0, 180, "()"))
    by_shape: dict[tuple[int, int], list[int]] = {}
    for index, (gt_arr, _, pred_arr, _) in enumerate(pairs):
        by_shape.setdefault((len(gt_arr), len(pred_arr)), []).append(index)
    batches = []
    for (k, m), members in by_shape.items():
        count = -(-len(members) // max(1, DTW_BATCH_CELLS // (k * m)))
        batches += np.array_split(np.array(members), count)
    calls = [functools.partial(_batch_fscores, [pairs[t] for t in batch], delta, theta_deg) for batch in batches]
    cells = sum(len(gt_arr) * len(pred_arr) for gt_arr, _, pred_arr, _ in pairs)
    scores = np.empty((len(pairs), 3))
    for batch, batch_scores in zip(batches, _parallel(calls, cells)):
        scores[batch] = batch_scores
    return scores


def _batch_fscores(batch: Sequence[_PosePair], delta: float, theta_deg: float) -> np.ndarray:
    """(precision, recall, F-score) of each of a batch of equal-shape pairs, aligned by one dtw_align call."""
    gt_arr, gt_unit, pred_arr, pred_unit = (np.stack(a) for a in zip(*batch))
    n, k, m = len(batch), gt_arr.shape[1], pred_arr.shape[1]
    warp = dtw_align(gt_arr[:, :, :3], pred_arr[:, :, :3]).warp
    rows = np.broadcast_to(np.arange(n)[:, None], warp.shape[:2])
    g, p = warp[..., 0], warp[..., 1]
    # a warp's (0, 0) padding repeats its first pair, which changes no flag
    dist_ok = np.linalg.norm(gt_arr[rows, g, :3] - pred_arr[rows, p, :3], axis=-1) < delta
    cosines = np.clip((gt_unit[rows, g] * pred_unit[rows, p]).sum(axis=-1), -1.0, 1.0)
    ok = dist_ok & (np.degrees(np.arccos(cosines)) < theta_deg)
    recalled = np.zeros((n, k), dtype=bool)
    recalled[rows[ok], g[ok]] = True
    precise = np.zeros((n, m), dtype=bool)
    precise[rows[ok], p[ok]] = True
    recall = recalled.mean(axis=1)
    precision = precise.mean(axis=1)
    total = precision + recall
    fscore = np.divide(2.0 * precision * recall, total, out=np.zeros(n), where=total > 0)
    return np.stack([precision, recall, fscore], axis=1)


def pose_fscore(gt, pred, delta: float = DEFAULT_DELTA, theta_deg: float = DEFAULT_THETA_DEG) -> FScoreResult:
    """Dual-threshold F-score between two pose sequences.

    Positions are aligned with dtw_align; a ground-truth pose counts as
    recalled when any warp-paired predicted pose lies within Euclidean
    distance delta AND angular distance theta of it, and symmetrically
    for precision. Orientations are normalized defensively before the
    angle test.
    """
    precision, recall, fscore = _pose_fscores([_pose_pair(gt, pred)], delta, theta_deg)[0]
    return FScoreResult(float(precision), float(recall), float(fscore), False)


def fscore_bidirectional(
    gt, pred, delta: float = DEFAULT_DELTA, theta_deg: float = DEFAULT_THETA_DEG
) -> FScoreResult:
    """Best F-score over the prediction as given and reversed.

    Path execution has no preferred direction, so the higher of the two
    scores wins; the `reversed` flag records which one did.
    """
    pair = _pose_pair(gt, pred)
    forward, backward = _pose_fscores([pair, _reversed(pair)], delta, theta_deg).tolist()
    if backward[2] > forward[2]:
        return FScoreResult(*backward, True)
    return FScoreResult(*forward, False)


ScoreTable = dict[str, tuple[np.ndarray, np.ndarray]]


def _score_dataset(dataset: DatasetMap, delta: float, theta_deg: float) -> tuple[ScoreTable, int]:
    """Per object, in sorted id order, (confidences (P,), F-scores (P, G)); and the ground-truth count.

    Cell (p, g) is the bidirectional F-score of prediction p against
    ground-truth path g of the same object. Every pair of the dataset,
    in both directions, is scored in one _pose_fscores call.
    """
    pairs: list[_PosePair] = []
    objects = []
    n_gt = 0
    for object_id in sorted(dataset):
        gt_paths, preds = dataset[object_id]
        gt_paths = list(gt_paths)
        n_gt += len(gt_paths)
        objects.append((object_id, preds, len(gt_paths)))
        for p in preds:
            for g in gt_paths:
                pair = _pose_pair(g, p.path)
                pairs += [pair, _reversed(pair)]
    # the better direction of each pair
    fscores = _pose_fscores(pairs, delta, theta_deg)[:, 2].reshape(-1, 2).max(axis=1)
    scored: ScoreTable = {}
    offset = 0
    for object_id, preds, n_obj_gt in objects:
        size = len(preds) * n_obj_gt
        table = fscores[offset : offset + size].reshape(len(preds), n_obj_gt)
        offset += size
        scored[object_id] = (np.array([p.confidence for p in preds], dtype=float), table)
    return scored, n_gt


def _every_point_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    mrec = np.concatenate(([0.0], recall, [1.0]))
    # the precision envelope: the maximum of every precision at or after each point
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    idx = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]).sum())


def _ap_from_entries(
    scored: ScoreTable, order: Sequence[tuple[float, str, int]], n_gt: int, tau: float
) -> float:
    """AP at one tau, visiting the predictions in `order`: sorted (-confidence, object id, index)."""
    consumed = {oid: np.zeros(table.shape[1], dtype=bool) for oid, (_, table) in scored.items()}
    hits = np.zeros(len(order), dtype=bool)
    for rank, (_, object_id, index) in enumerate(order):
        used = consumed[object_id]
        if used.size == 0:
            continue
        masked = np.where(used, -np.inf, scored[object_id][1][index])
        best = int(np.argmax(masked))
        if masked[best] >= tau:
            used[best] = True
            hits[rank] = True
    cum_tp = np.cumsum(hits)
    cum_fp = np.cumsum(~hits)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    return _every_point_ap(recall, precision)


def _ap_at(scored: ScoreTable, n_gt: int, taus: Sequence[float]) -> list[float]:
    """AP at each tau; all 0, with a warning, when there is no prediction to score."""
    if n_gt == 0:
        raise ValueError("dataset holds no ground-truth paths")
    order = sorted(
        (-confidence, object_id, index)
        for object_id, (confs, _) in scored.items()
        for index, confidence in enumerate(confs.tolist())
    )
    if not order:
        warnings.warn("no predictions to score; AP is 0", RuntimeWarning, stacklevel=3)
        return [0.0] * len(taus)
    return [_ap_from_entries(scored, order, n_gt, tau) for tau in taus]


def _ap_family(scored: ScoreTable, n_gt: int) -> tuple[float, float, float]:
    """(AP at tau 0.5, mean AP over HARD_TAUS, mean AP over EASY_TAUS)."""
    aps = _ap_at(scored, n_gt, HARD_TAUS + EASY_TAUS)
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
    _check_number("tau", tau, (0, 1, "(]"))
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
    # Squared distances of at most PCD_BLOCK_CELLS cells at a time (one
    # prediction row at least), the squares summed in coordinate order; a
    # minimum of minima is exact.
    rows = max(1, PCD_BLOCK_CELLS // gt.shape[0])
    pred_min = np.empty(pred.shape[0])
    gt_min = np.full(gt.shape[0], np.inf)
    for lo in range(0, pred.shape[0], rows):
        block = pred[lo : lo + rows]
        step = block[:, :1] - gt[:, 0]
        d2 = step * step
        for c in (1, 2):
            np.subtract(block[:, c : c + 1], gt[:, c], out=step)
            step *= step
            d2 += step
        pred_min[lo : lo + rows] = d2.min(axis=1)
        np.minimum(gt_min, d2.min(axis=0), out=gt_min)
    return float((pred_min.mean() + gt_min.mean()) * 1e4)


def _resample_object(gt_paths: Sequence[Path], preds: Sequence[PredictedPath], params) -> tuple[list, list]:
    """One object's ground-truth paths and predictions, each resampled at the path parameters `params`."""
    return [resample(g, params) for g in gt_paths], [PredictedPath(resample(p.path, params), p.confidence) for p in preds]


def _object_pcd(gt_paths: Sequence[Path], preds: Sequence[PredictedPath]) -> float:
    """pcd of one object's pooled prediction poses against its pooled ground-truth poses."""
    return pcd(np.concatenate([p.path.positions for p in preds]), np.concatenate([g.positions for g in gt_paths]))


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
        return asdict(self)


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
        work = {object_id: _resample_object(*dataset[object_id], grid) for object_id in sorted(dataset)}
    else:
        work = {oid: (list(g), list(p)) for oid, (g, p) in dataset.items()}

    scored, n_gt = _score_dataset(work, delta, theta_deg)
    ap50, ap, ap_easy = _ap_family(scored, n_gt)

    # pcd of each object with both ground truth and predictions, the objects through neural_field._parallel
    scorable = {oid: work[oid] for oid in scored if all(work[oid])}
    calls = [functools.partial(_object_pcd, *pair) for pair in scorable.values()]
    cells = sum(sum(map(len, gts)) * sum(len(p.path) for p in preds) for gts, preds in scorable.values())
    object_pcds = dict(zip(scorable, _parallel(calls, cells)))
    per_object: dict[str, dict] = {}
    for object_id, (_, fscores) in scored.items():
        gt_paths, preds = work[object_id]
        per_object[object_id] = {
            # F-scores are >= 0, so the initial 0.0 only shows for an object without ground truth
            "fscores": fscores.max(axis=1, initial=0.0).tolist(),
            "n_gt": len(gt_paths),
            "n_predictions": len(preds),
            "pcd": object_pcds.get(object_id),
        }

    aggregate_pcd = float(np.mean(list(object_pcds.values()))) if object_pcds else None
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
