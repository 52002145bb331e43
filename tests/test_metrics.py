import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfield.metrics import (
    ap_suite,
    average_precision,
    dtw_align,
    evaluate_dataset,
    fscore_bidirectional,
    pcd,
    pose_fscore,
)
from pathfield.paths import Path, PredictedPath, reverse

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


def make_path(positions, orientation=Z):
    pos = np.asarray(positions, dtype=float)
    return Path(np.concatenate([pos, np.tile(orientation, (len(pos), 1))], axis=1))


def rotated(vec, degrees):
    theta = np.radians(degrees)
    x, _, z = vec
    return np.array([x * np.cos(theta) + z * np.sin(theta), 0.0, z * np.cos(theta) - x * np.sin(theta)])


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
