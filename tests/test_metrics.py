import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfield import metrics, neural_field
from pathfield.metrics import (
    DEFAULT_DELTA,
    DEFAULT_THETA_DEG,
    _score_dataset,
    ap_suite,
    average_precision,
    dtw_align,
    evaluate_dataset,
    fscore_bidirectional,
    pcd,
    pose_fscore,
)
from pathfield.paths import ParamSamplingConfig, Path, PredictedPath, resample, reverse, sample_params

Z = np.array([0.0, 0.0, 1.0])


def brute_force_dtw_cost(a, b):
    """Enumerate every monotone warp, accumulating cost front to back."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    k, m = len(a), len(b)
    best = [np.inf]

    def walk(i, j, acc):
        acc = acc + d[i, j]
        if i == k - 1 and j == m - 1:
            if acc < best[0]:
                best[0] = acc
            return
        if i + 1 < k and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < k:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def reference_dtw_align(a, b):
    """Per-pair DTW: a loop over anti-diagonals, then a traceback by `min` over (cost, i, j) tuples.

    Returns (cost, warp as a list of [i, j]); dtw_align must reproduce both exactly.
    """
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    k, m = d.shape
    acc = np.empty((k, m))
    acc[0, :] = np.cumsum(d[0, :])
    acc[:, 0] = np.cumsum(d[:, 0])
    for s in range(2, k + m - 1):
        i = np.arange(max(1, s - (m - 1)), min(k - 1, s - 1) + 1)
        j = s - i
        acc[i, j] = d[i, j] + np.minimum(acc[i - 1, j - 1], np.minimum(acc[i - 1, j], acc[i, j - 1]))
    i, j = k - 1, m - 1
    pairs = [[i, j]]
    while i > 0 or j > 0:
        moves = []
        if i > 0 and j > 0:
            moves.append((acc[i - 1, j - 1], i - 1, j - 1))
        if i > 0:
            moves.append((acc[i - 1, j], i - 1, j))
        if j > 0:
            moves.append((acc[i, j - 1], i, j - 1))
        _, i, j = min(moves, key=lambda mv: mv[0])
        pairs.append([i, j])
    return float(acc[k - 1, m - 1]), pairs[::-1]


def reference_fscore(gt, pred, delta=DEFAULT_DELTA, theta_deg=DEFAULT_THETA_DEG):
    """(precision, recall, F-score) of one direction, over reference_dtw_align's warp."""
    gt_unit = gt[:, 3:] / np.linalg.norm(gt[:, 3:], axis=1)[:, None]
    pred_unit = pred[:, 3:] / np.linalg.norm(pred[:, 3:], axis=1)[:, None]
    warp = np.array(reference_dtw_align(gt[:, :3], pred[:, :3])[1])
    k, m = warp[:, 0], warp[:, 1]
    dist_ok = np.linalg.norm(gt[k, :3] - pred[m, :3], axis=1) < delta
    cosines = np.clip((gt_unit[k] * pred_unit[m]).sum(axis=1), -1.0, 1.0)
    ok = dist_ok & (np.degrees(np.arccos(cosines)) < theta_deg)
    recalled = np.zeros(len(gt), dtype=bool)
    recalled[k[ok]] = True
    precise = np.zeros(len(pred), dtype=bool)
    precise[m[ok]] = True
    recall = float(recalled.mean())
    precision = float(precise.mean())
    fscore = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, fscore


def reference_bidirectional(gt, pred, delta=DEFAULT_DELTA, theta_deg=DEFAULT_THETA_DEG):
    """((precision, recall, F-score), reversed) of the better direction; forward wins ties."""
    forward = reference_fscore(gt, pred, delta, theta_deg)
    backward = reference_fscore(gt, pred[::-1], delta, theta_deg)
    return (backward, True) if backward[2] > forward[2] else (forward, False)


def make_path(positions, orientation=Z):
    pos = np.asarray(positions, dtype=float)
    return Path(np.concatenate([pos, np.tile(orientation, (len(pos), 1))], axis=1))


def rotated(vec, degrees):
    theta = np.radians(degrees)
    x, _, z = vec
    return np.array([x * np.cos(theta) + z * np.sin(theta), 0.0, z * np.cos(theta) - x * np.sin(theta)])


def tilted_path(rng, positions, spread_deg):
    """A path whose orientations tilt away from Z by up to spread_deg, point by point."""
    orientations = [rotated(Z, angle) for angle in rng.uniform(-spread_deg, spread_deg, len(positions))]
    return Path(np.concatenate([positions, orientations], axis=1))


class TestDtwAlign:
    def test_identical_sequences(self):
        a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        res = dtw_align(a, a)
        assert res.cost == 0.0
        assert res.warp.tolist() == [[0, 0], [1, 1]]

    def test_midpoint_insertion(self):
        a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        b = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.0, 0, 0]])
        assert dtw_align(a, b).cost == 0.5

    def test_single_point_matches_all(self):
        res = dtw_align(np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0], [1.0, 0, 0]]))
        assert res.cost == 2.0
        assert res.warp.tolist() == [[0, 0], [0, 1]]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            dtw_align(np.zeros((0, 3)), np.zeros((2, 3)))

    def test_warp_is_monotone_and_complete(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, (7, 3))
        b = rng.normal(0, 1, (5, 3))
        warp = dtw_align(a, b).warp
        assert warp[0].tolist() == [0, 0]
        assert warp[-1].tolist() == [6, 4]
        steps = np.diff(warp, axis=0)
        assert np.all((steps >= 0) & (steps <= 1))
        assert np.all(steps.sum(axis=1) >= 1)

    def test_cost_recomputable_from_warp(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, (9, 3))
        b = rng.normal(0, 1, (11, 3))
        res = dtw_align(a, b)
        total = 0.0
        for k, m in res.warp:
            total += float(np.linalg.norm(a[k] - b[m]))
        assert total == pytest.approx(res.cost, abs=1e-9)

    def test_diagonal_preferred_on_ties(self):
        # all-zero distances: every warp costs 0; diagonal-first traceback
        # must give the pure diagonal warp
        a = np.zeros((3, 3))
        res = dtw_align(a, a)
        assert res.warp.tolist() == [[0, 0], [1, 1], [2, 2]]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (rng.integers(1, 7), 3))
        b = rng.uniform(-1, 1, (rng.integers(1, 7), 3))
        assert dtw_align(a, b).cost == brute_force_dtw_cost(a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_cost(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (rng.integers(1, 9), 3))
        b = rng.uniform(-1, 1, (rng.integers(1, 9), 3))
        assert dtw_align(a, b).cost == dtw_align(b, a).cost


def tie_heavy_points(rng, n):
    """Points at x = 0, 1 or 2 on a line: integer distances, so that many warp costs tie."""
    return np.stack([rng.integers(0, 3, n), np.zeros(n), np.zeros(n)], axis=1).astype(float)


def uniform_points(rng, n):
    return rng.uniform(-1, 1, (n, 3))


class TestBatchedDtw:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_pair_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = uniform_points(rng, rng.integers(1, 12))
        b = uniform_points(rng, rng.integers(1, 12))
        res = dtw_align(a, b)
        assert (res.cost, res.warp.tolist()) == reference_dtw_align(a, b)

    def test_ties_match_reference(self):
        # among 300 draws, several warps pass a cell where the two single steps tie
        # and beat the diagonal, so this also pins their order
        rng = np.random.default_rng(17)
        for _ in range(300):
            a = tie_heavy_points(rng, rng.integers(1, 9))
            b = tie_heavy_points(rng, rng.integers(1, 9))
            res = dtw_align(a, b)
            assert (res.cost, res.warp.tolist()) == reference_dtw_align(a, b)

    @pytest.mark.parametrize("points", ["uniform", "tie-heavy"])
    def test_batch_matches_single_calls(self, points):
        rng = np.random.default_rng(11)
        draw = tie_heavy_points if points == "tie-heavy" else uniform_points
        firsts = np.stack([draw(rng, 7) for _ in range(5)])
        seconds = np.stack([draw(rng, 10) for _ in range(5)])
        batch = dtw_align(firsts, seconds)
        assert batch.cost.shape == (5,)
        for q in range(5):
            single = dtw_align(firsts[q], seconds[q])
            pad = len(batch.warp[q]) - len(single.warp)
            assert batch.cost[q] == single.cost
            assert batch.warp[q][pad:].tolist() == single.warp.tolist()
            assert not batch.warp[q][:pad].any()

    @given(st.sampled_from([1, 7, 8, 9, 16, 17]), st.integers(1, 12), st.integers(1, 12),
           st.sampled_from(["uniform", "tie-heavy"]), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_batches_across_packed_bytes_match_reference(self, size, k, m, points, seed):
        # pair q's move codes are bit q % 8 of byte q // 8, so from 9 pairs a batch spans two bytes
        rng = np.random.default_rng(seed)
        draw = tie_heavy_points if points == "tie-heavy" else uniform_points
        firsts = np.stack([draw(rng, k) for _ in range(size)])
        seconds = np.stack([draw(rng, m) for _ in range(size)])
        batch = dtw_align(firsts, seconds)
        for q in range(size):
            cost, warp = reference_dtw_align(firsts[q], seconds[q])
            pad = len(batch.warp[q]) - len(warp)
            assert batch.cost[q] == cost
            assert batch.warp[q][pad:].tolist() == warp
            assert not batch.warp[q][:pad].any()

    def test_move_codes_take_two_bits_a_cell(self):
        # 128 pairs at T = 384, an evaluation batch's shape: a byte per cell would take K*M*B bytes alone
        rng = np.random.default_rng(0)
        firsts = rng.uniform(-1, 1, (128, 384, 3))
        seconds = rng.uniform(-1, 1, (128, 384, 3))
        tracemalloc.start()
        try:
            dtw_align(firsts, seconds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 128 * 384 * 384

    @pytest.mark.parametrize("k,m", [(1, 1), (1, 6), (6, 1)])
    def test_single_point_sequences(self, k, m):
        rng = np.random.default_rng(k * 10 + m)
        firsts = rng.uniform(-1, 1, (3, k, 3))
        seconds = rng.uniform(-1, 1, (3, m, 3))
        batch = dtw_align(firsts, seconds)
        for q in range(3):
            cost, warp = reference_dtw_align(firsts[q], seconds[q])
            assert batch.cost[q] == cost
            assert batch.warp[q].tolist() == warp
            single = dtw_align(firsts[q], seconds[q])
            assert (single.cost, single.warp.tolist()) == (cost, warp)

    @pytest.mark.parametrize("k,m,expected", [
        (4, 4, [[0, 0], [1, 1], [2, 2], [3, 3]]),
        (6, 3, [[0, 0], [1, 0], [2, 0], [3, 0], [4, 1], [5, 2]]),
        (3, 6, [[0, 0], [0, 1], [0, 2], [0, 3], [1, 4], [2, 5]]),
    ])
    def test_all_ties_take_diagonal_first(self, k, m, expected):
        # constant positions: every cell costs 0, so every move ties
        firsts = np.full((2, k, 3), 0.25)
        seconds = np.full((2, m, 3), 0.25)
        batch = dtw_align(firsts, seconds)
        assert batch.cost.tolist() == [0.0, 0.0]
        assert batch.warp.tolist() == [expected, expected]
        assert dtw_align(firsts[0], seconds[0]).warp.tolist() == expected == reference_dtw_align(firsts[0], seconds[0])[1]

    def test_overflowing_costs_stay_on_the_grid(self):
        # distances of inf tie everywhere; the warp must still be a monotone path on the grid
        a = np.array([[0.0, 0, 0], [1e200, 0, 0], [-1e200, 0, 0]])
        b = np.array([[1e200, 0, 0], [-1e200, 0, 0]])
        for first, second in ((a, b), (b, a)):
            with np.errstate(over="ignore"):
                res = dtw_align(first, second)
                cost, warp = reference_dtw_align(first, second)
            assert res.cost == cost == np.inf
            assert res.warp.tolist() == warp

    def test_mismatched_batches_rejected(self):
        with pytest.raises(ValueError):
            dtw_align(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            dtw_align(np.zeros((2, 3, 3)), np.zeros((2, 0, 3)))


class TestPoseFscore:
    def test_exact_match(self):
        p = make_path([[0, 0, 0], [0.5, 0, 0], [1, 0, 0]])
        res = pose_fscore(p, p)
        assert (res.precision, res.recall, res.fscore) == (1.0, 1.0, 1.0)

    def test_rotated_orientations_fail_angle_gate(self):
        p = make_path([[0, 0, 0], [1, 0, 0]])
        q = make_path([[0, 0, 0], [1, 0, 0]], orientation=rotated(Z, 20.0))
        assert pose_fscore(p, q, theta_deg=10.0).fscore == 0.0

    def test_translation_beyond_delta_fails(self):
        p = make_path([[0, 0, 0], [1, 0, 0]])
        q = make_path([[0.03, 0, 0], [1.03, 0, 0]])
        assert pose_fscore(p, q, delta=0.025).fscore == 0.0

    def test_zero_orientation_raises(self):
        p = make_path([[0, 0, 0], [1, 0, 0]])
        bad = p.poses.copy()
        bad[:, 3:] = 0.0
        with pytest.raises(ValueError):
            pose_fscore(p, bad)

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_scores_in_range(self, seed):
        rng = np.random.default_rng(seed)
        p = make_path(rng.uniform(-1, 1, (5, 3)))
        q = make_path(rng.uniform(-1, 1, (4, 3)))
        res = pose_fscore(p, q)
        for value in (res.precision, res.recall, res.fscore):
            assert 0.0 <= value <= 1.0
        if res.precision == 0.0 or res.recall == 0.0:
            assert res.fscore == 0.0


class TestBidirectional:
    def test_reversed_prediction_scores_one(self):
        gt = make_path([[0, 0, 0], [0.5, 0, 0], [1, 0, 0]])
        res = fscore_bidirectional(gt, reverse(gt))
        assert res.fscore == 1.0
        assert res.reversed is True

    def test_forward_match_not_flagged(self):
        gt = make_path([[0, 0, 0], [0.5, 0, 0], [1, 0, 0]])
        res = fscore_bidirectional(gt, gt)
        assert res.fscore == 1.0
        assert res.reversed is False

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_pred_reversal(self, seed):
        rng = np.random.default_rng(seed)
        gt = make_path(rng.uniform(-0.2, 0.2, (6, 3)))
        pred = make_path(rng.uniform(-0.2, 0.2, (5, 3)))
        a = fscore_bidirectional(gt, pred)
        b = fscore_bidirectional(gt, reverse(pred))
        assert a.fscore == b.fscore


class TestFscoreCallers:
    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        gt = tilted_path(rng, np.cumsum(rng.normal(0, 0.01, (rng.integers(2, 9), 3)), axis=0), 8.0)
        pred = tilted_path(rng, gt.positions + rng.normal(0, 0.01, gt.positions.shape), 8.0)
        if seed % 2:
            pred = reverse(pred)
        one = pose_fscore(gt, pred)
        assert ((one.precision, one.recall, one.fscore), one.reversed) == (reference_fscore(gt.poses, pred.poses), False)
        both = fscore_bidirectional(gt, pred)
        assert ((both.precision, both.recall, both.fscore), both.reversed) == reference_bidirectional(gt.poses, pred.poses)


def one_object_dataset(gt_paths, predictions):
    return {"obj": (gt_paths, predictions)}


class TestAveragePrecision:
    def setup_method(self):
        self.gt = make_path([[0, 0, 0], [0.5, 0, 0], [1, 0, 0]])
        self.miss = make_path([[0, 0, 5.0], [0.5, 0, 5.0], [1, 0, 5.0]])

    def test_single_exact_prediction(self):
        for tau in (0.1, 0.5, 0.95, 1.0):
            ds = one_object_dataset([self.gt], [PredictedPath(self.gt, 0.8)])
            assert average_precision(ds, tau) == 1.0

    @pytest.mark.parametrize("tau,message", [
        (0.0, r"must lie in \(0, 1\], not 0.0"), (1.5, r"must lie in \(0, 1\], not 1.5"),
        (float("nan"), r"must lie in \(0, 1\], not nan"), (True, "must be a number, not True"),
    ], ids=["zero", "above-one", "nan", "true"])
    def test_tau_follows_the_number_rule(self, tau, message):
        ds = one_object_dataset([self.gt], [PredictedPath(self.gt, 0.8)])
        with pytest.raises(ValueError, match=f"^tau {message}$"):
            average_precision(ds, tau)

    def test_late_false_positive_keeps_ap_one(self):
        ds = one_object_dataset(
            [self.gt],
            [PredictedPath(self.gt, 0.9), PredictedPath(self.miss, 0.1)],
        )
        assert average_precision(ds, 0.5) == 1.0

    def test_early_false_positive_halves_ap(self):
        ds = one_object_dataset(
            [self.gt],
            [PredictedPath(self.miss, 0.9), PredictedPath(self.gt, 0.1)],
        )
        assert average_precision(ds, 0.5) == 0.5

    def test_duplicate_match_counts_as_false_positive(self):
        ds = one_object_dataset(
            [self.gt],
            [PredictedPath(self.gt, 0.9), PredictedPath(self.gt, 0.8)],
        )
        # second copy finds its only gt already consumed
        assert average_precision(ds, 0.5) == 1.0
        ds2 = one_object_dataset(
            [self.gt],
            [PredictedPath(self.gt, 0.8), PredictedPath(self.gt, 0.9)],
        )
        assert average_precision(ds2, 0.5) == 1.0

    @pytest.mark.parametrize("first,second,expected", [
        ("miss", "hit", 0.25),
        ("hit", "miss", 0.5),
    ])
    def test_tied_confidences_rank_by_object_id(self, first, second, expected):
        paths = {"hit": self.gt, "miss": self.miss}
        ds = {
            "a": ([self.gt], [PredictedPath(paths[first], 0.5)]),
            "b": ([self.gt], [PredictedPath(paths[second], 0.5)]),
        }
        assert average_precision(ds, 0.5) == expected

    @pytest.mark.parametrize("first,second,expected", [
        ("hit", "miss", 1.0),
        ("miss", "hit", 0.5),
    ])
    def test_tied_confidences_rank_by_prediction_index(self, first, second, expected):
        paths = {"hit": self.gt, "miss": self.miss}
        ds = one_object_dataset(
            [self.gt],
            [PredictedPath(paths[first], 0.5), PredictedPath(paths[second], 0.5)],
        )
        assert average_precision(ds, 0.5) == expected

    def test_empty_predictions_warns_zero(self):
        ds = one_object_dataset([self.gt], [])
        with pytest.warns(RuntimeWarning):
            assert average_precision(ds, 0.5) == 0.0
        with pytest.warns(RuntimeWarning):
            assert ap_suite(ds) == (0.0, 0.0, 0.0)
        with pytest.warns(RuntimeWarning):
            report = evaluate_dataset(ds)
        assert (report.ap50, report.ap, report.ap_easy) == (0.0, 0.0, 0.0)

    def test_no_gt_raises(self):
        ds = one_object_dataset([], [PredictedPath(self.gt, 0.5)])
        with pytest.raises(ValueError):
            average_precision(ds, 0.5)

    def test_bad_tau_rejected(self):
        ds = one_object_dataset([self.gt], [PredictedPath(self.gt, 0.5)])
        with pytest.raises(ValueError):
            average_precision(ds, 0.0)

    @given(st.integers(0, 2000))
    @settings(max_examples=20, deadline=None)
    def test_non_increasing_in_tau(self, seed):
        rng = np.random.default_rng(seed)
        dataset = {}
        for o in range(2):
            gts = [make_path(rng.uniform(-0.3, 0.3, (4, 3))) for _ in range(2)]
            preds = [
                PredictedPath(
                    make_path(g.positions + rng.normal(0, 0.02, g.positions.shape)),
                    float(rng.uniform(0, 1)),
                )
                for g in gts
            ]
            dataset[f"o{o}"] = (gts, preds)
        taus = np.linspace(0.05, 1.0, 8)
        values = [average_precision(dataset, float(t)) for t in taus]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


def partial_match_dataset():
    """One prediction matching exactly 6 of 10 gt poses: F = 0.6."""
    pos = np.linspace([0.0, 0.0, 0.0], [0.9, 0.0, 0.0], 10)
    gt = make_path(pos)
    pred_pos = pos.copy()
    pred_pos[6:, 2] = 5.0  # push the last four far out of the delta gate
    pred = make_path(pred_pos)
    return one_object_dataset([gt], [PredictedPath(pred, 0.9)])


class TestApSuite:
    def test_perfect_predictions(self):
        gt = make_path([[0, 0, 0], [0.5, 0, 0], [1, 0, 0]])
        ds = one_object_dataset([gt], [PredictedPath(gt, 1.0)])
        assert ap_suite(ds) == (1.0, 1.0, 1.0)

    def test_hopeless_predictions(self):
        gt = make_path([[0, 0, 0], [0.5, 0, 0], [1, 0, 0]])
        miss = make_path([[0, 0, 9.0], [0.5, 0, 9.0], [1, 0, 9.0]])
        ds = one_object_dataset([gt], [PredictedPath(miss, 1.0)])
        assert ap_suite(ds) == (0.0, 0.0, 0.0)

    def test_partial_match_sweep(self):
        ds = partial_match_dataset()
        score = fscore_bidirectional(ds["obj"][0][0], ds["obj"][1][0].path)
        assert score.fscore >= 0.6
        assert score.fscore < 0.65
        ap50, ap, ap_easy = ap_suite(ds)
        assert ap50 == 1.0
        assert ap == 0.3
        assert ap_easy == 1.0


class TestPcd:
    def test_identical_sets(self):
        p = make_path([[0, 0, 0], [1, 0, 0]])
        assert pcd(p, p) == 0.0

    def test_hand_value(self):
        pred = np.array([[0.0, 0.0, 0.0]])
        gt = np.array([[0.01, 0.0, 0.0]])
        assert pcd(pred, gt) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (6, 3))
        b = rng.uniform(-1, 1, (9, 3))
        assert pcd(a, b) == pcd(b, a)
        perm = rng.permutation(6)
        assert pcd(a[perm], b) == pcd(a, b)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pcd(np.zeros((0, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("n_pred,n_gt", [(1, 1), (255, 7), (256, 300), (257, 5), (600, 513)])
    def test_matches_whole_table(self, n_pred, n_gt):
        rng = np.random.default_rng(n_pred + n_gt)
        pred = rng.uniform(-1, 1, (n_pred, 3))
        gt = rng.uniform(-1, 1, (n_gt, 3))
        d2 = ((pred[:, None, :] - gt[None, :, :]) ** 2).sum(axis=2)
        assert pcd(pred, gt) == float((d2.min(axis=1).mean() + d2.min(axis=0).mean()) * 1e4)

    # Under a bound of 64 cells: 1 row per block at 40 and at 100 > 64 ground-truth poses,
    # and 64 // 8 - 1, 64 // 8, 64 // 8 + 1 and a few blocks of 8 rows at 8.
    @pytest.mark.parametrize("n_pred,n_gt", [(5, 40), (4, 100), (7, 8), (8, 8), (9, 8), (33, 8)])
    def test_block_edges_match_whole_table(self, monkeypatch, n_pred, n_gt):
        monkeypatch.setattr(metrics, "PCD_BLOCK_CELLS", 64)
        rng = np.random.default_rng(n_pred * n_gt)
        pred = rng.uniform(-1, 1, (n_pred, 3))
        gt = rng.uniform(-1, 1, (n_gt, 3))
        d2 = ((pred[:, None, :] - gt[None, :, :]) ** 2).sum(axis=2)
        assert pcd(pred, gt) == float((d2.min(axis=1).mean() + d2.min(axis=0).mean()) * 1e4)

    def test_paper_scale_blocks_stay_small(self):
        # 40 paths x 384 poses on each side; one whole table would take 1.9 GB
        rng = np.random.default_rng(0)
        pred = rng.uniform(-1, 1, (15360, 3))
        gt = rng.uniform(-1, 1, (15360, 3))
        tracemalloc.start()
        try:
            pcd(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def mixed_dataset(seed):
    """Objects of mixed path lengths: noisy, reversed and unrelated predictions, one object
    without predictions and one without ground truth."""
    rng = np.random.default_rng(seed)

    def random_path(n):
        return tilted_path(rng, np.cumsum(rng.normal(0, 0.01, (n, 3)), axis=0), 12.0)

    dataset = {}
    for o in range(3):
        gts = [random_path(int(rng.integers(2, 14))) for _ in range(2)]
        preds = []
        for q in range(3):
            base = gts[q % 2]
            copy = Path(np.concatenate([base.positions + rng.normal(0, 0.004, base.positions.shape),
                                        base.orientations], axis=1))
            path = [copy, reverse(copy), random_path(int(rng.integers(2, 14)))][q]
            preds.append(PredictedPath(path, float(rng.uniform(0, 1))))
        dataset[f"o{o}"] = (gts, preds)
    dataset["no-preds"] = ([random_path(5)], [])
    dataset["no-gt"] = ([], [PredictedPath(random_path(6), 0.5)])
    return dataset


def resampled(dataset, t):
    grid = sample_params(ParamSamplingConfig("equispaced", t))
    return {
        oid: ([resample(g, grid) for g in gts], [PredictedPath(resample(p.path, grid), p.confidence) for p in preds])
        for oid, (gts, preds) in dataset.items()
    }


class TestScoreDataset:
    @pytest.mark.parametrize("resample_t", [384, None])
    def test_matches_per_pair_scores(self, resample_t):
        dataset = mixed_dataset(5)
        if resample_t is not None:
            dataset = {oid: dataset[oid] for oid in ("o0", "no-preds", "no-gt")}
            dataset = resampled(dataset, resample_t)
        scored, n_gt = _score_dataset(dataset, DEFAULT_DELTA, DEFAULT_THETA_DEG)
        assert list(scored) == sorted(dataset)
        assert n_gt == sum(len(gts) for gts, _ in dataset.values())
        hits = 0
        for oid, (confidences, table) in scored.items():
            gts, preds = dataset[oid]
            assert confidences.tolist() == [p.confidence for p in preds]
            assert table.shape == (len(preds), len(gts))
            for p, pred in enumerate(preds):
                for g, gt in enumerate(gts):
                    expected = reference_bidirectional(gt.poses, pred.path.poses)[0][2]
                    assert table[p, g] == expected == fscore_bidirectional(gt, pred.path).fscore
                    hits += expected > 0.5
        assert hits > 0

    def test_batches_are_cut_at_the_cell_cap(self, monkeypatch):
        dataset = resampled(mixed_dataset(6), 16)
        uncapped, _ = _score_dataset(dataset, DEFAULT_DELTA, DEFAULT_THETA_DEG)
        sizes = []

        def recording(a, b):
            sizes.append(len(a))
            return dtw_align(a, b)

        monkeypatch.setattr(metrics, "DTW_BATCH_CELLS", 5 * 16 * 16)
        monkeypatch.setattr(metrics, "dtw_align", recording)
        capped, _ = _score_dataset(dataset, DEFAULT_DELTA, DEFAULT_THETA_DEG)
        # 3 objects x 3 predictions x 2 paths, both directions: 36 pairs in 8 even batches of 4 or 5
        assert sorted(sizes) == [4] * 4 + [5] * 4
        for oid, (_, table) in uncapped.items():
            assert capped[oid][1].tolist() == table.tolist()


class TestParallelEvaluation:
    """With every call above the cell bound and 2 CPUs per BLAS thread, the DTW batches and the
    per-object pcd calls run through neural_field._parallel's pool; the report stays byte for
    byte that of the serial route."""

    @pytest.mark.parametrize("resample_t", [None, 16])
    def test_equal_to_the_serial_route(self, monkeypatch, pools, resample_t):
        dataset = mixed_dataset(7)
        aligned = []
        original = metrics.dtw_align
        monkeypatch.setattr(metrics, "dtw_align", lambda a, b: aligned.append(len(a)) or original(a, b))
        monkeypatch.setattr(metrics, "DTW_BATCH_CELLS", 5 * 16 * 16)  # several batches per shape at T = 16
        monkeypatch.setattr(neural_field, "PARALLEL_CELLS", 0)
        monkeypatch.setattr(neural_field, "_blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = evaluate_dataset(dataset, resample_t=resample_t).to_document()
        batches = len(aligned)
        assert pools == [] and batches > 1

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert evaluate_dataset(dataset, resample_t=resample_t).to_document() == serial
        # one pool of 2 threads runs the DTW batches, then the pcd calls of the 3 objects
        # with both ground truth and predictions
        assert [(pool.workers, len(pool.ran)) for pool in pools] == [(2, batches + 3)]
        assert set(pools[0].ran) <= pools[0].started


class TestScoringValidation:
    """Argument errors of the per-pair F-score, raised by a batched evaluation."""

    def setup_method(self):
        self.gt = make_path(np.linspace([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 12))

    def test_empty_pose_list_rejected(self):
        ds = one_object_dataset([np.zeros((0, 6))], [PredictedPath(self.gt, 0.5)])
        with pytest.raises(ValueError, match="pose lists must be nonempty"):
            evaluate_dataset(ds, resample_t=None)

    @pytest.mark.parametrize("delta", [0.0, -0.01])
    def test_nonpositive_delta_rejected(self, delta):
        ds = one_object_dataset([self.gt], [PredictedPath(self.gt, 0.5)])
        with pytest.raises(ValueError, match=rf"^delta must lie in \(0, inf\), not {delta}$"):
            evaluate_dataset(ds, delta=delta)

    @pytest.mark.parametrize("theta", [0.0, 180.0, -5.0, 200.0])
    def test_theta_outside_range_rejected(self, theta):
        ds = one_object_dataset([self.gt], [PredictedPath(self.gt, 0.5)])
        with pytest.raises(ValueError, match=rf"^theta must lie in \(0, 180\), not {theta}$"):
            evaluate_dataset(ds, theta_deg=theta)

    @pytest.mark.parametrize("delta,theta,message", [
        (0.0, 10.0, r"delta must lie in \(0, inf\), not 0.0"),
        (float("nan"), 10.0, r"delta must lie in \(0, inf\), not nan"),
        (float("inf"), 10.0, r"delta must lie in \(0, inf\), not inf"),
        (0.05, 999.0, "theta must lie"),
    ], ids=["delta", "delta-nan", "delta-inf", "theta"])
    def test_thresholds_checked_with_no_pair_to_score(self, delta, theta, message):
        ds = one_object_dataset([self.gt], [])
        with pytest.raises(ValueError, match=message):
            evaluate_dataset(ds, delta=delta, theta_deg=theta)

    def test_zero_orientation_in_one_prediction_rejected(self):
        bad = self.gt.poses.copy()
        bad[4, 3:] = 0.0
        preds = [PredictedPath(self.gt, 0.9), PredictedPath(bad, 0.5), PredictedPath(self.gt, 0.3)]
        with pytest.raises(ValueError, match="zero orientation vector"):
            evaluate_dataset(one_object_dataset([self.gt], preds), resample_t=None)


class TestEvaluateDataset:
    def test_report_fields_and_perfect_score(self):
        pos = np.linspace([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 12)
        gt = make_path(pos)
        ds = one_object_dataset([gt], [PredictedPath(gt, 1.0)])
        report = evaluate_dataset(ds, resample_t=64)
        assert report.ap50 == 1.0 and report.ap == 1.0 and report.ap_easy == 1.0
        assert report.pcd == 0.0
        obj = report.per_object["obj"]
        assert obj["n_gt"] == 1 and obj["n_predictions"] == 1
        assert obj["fscores"] == [1.0]

    def test_object_without_predictions_caps_recall(self):
        pos = np.linspace([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 12)
        gt = make_path(pos)
        ds = {
            "a": ([gt], [PredictedPath(gt, 1.0)]),
            "b": ([gt], []),
        }
        report = evaluate_dataset(ds, resample_t=32)
        assert report.ap50 == 0.5
        assert report.per_object["b"]["pcd"] is None

    def test_object_without_ground_truth_scores_false_positives(self):
        gt = make_path(np.linspace([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 12))
        ds = {
            "a": ([gt], [PredictedPath(gt, 0.9)]),
            "b": ([], [PredictedPath(gt, 0.95), PredictedPath(gt, 0.92)]),
        }
        report = evaluate_dataset(ds, resample_t=32)
        assert report.per_object["b"]["fscores"] == [0.0, 0.0]
        assert report.per_object["b"]["pcd"] is None
        assert report.per_object["a"]["fscores"] == [1.0]
        # both of b's predictions rank above a's hit and match nothing
        assert report.ap50 == 1 / 3
