import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfield.matching import (
    PaddedTargets,
    focal_conf_loss,
    hungarian,
    objective,
    pad_targets,
    position_cost_matrix,
)
from pathfield.paths import Path, PredictedPath, resample, sample_params, ParamSamplingConfig

Z = np.array([0.0, 0.0, 1.0])


def make_path(positions, orientation=Z):
    pos = np.asarray(positions, dtype=float)
    return Path(np.concatenate([pos, np.tile(orientation, (len(pos), 1))], axis=1))


def brute_force_assignment(cost):
    n = cost.shape[0]
    best_cost = np.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            total += float(cost[i, j])
        if total < best_cost:
            best_cost = total
            best_perm = perm
    return best_perm, best_cost


class TestPadTargets:
    def test_two_real_two_padded(self):
        gts = [make_path([[0, 0, 0], [1, 0, 0]]), make_path([[0, 1, 0], [1, 1, 0]])]
        out = pad_targets(gts, 4, [-1.0, 0.0, 1.0])
        assert out.paths.shape == (4, 3, 6)
        assert out.conf_targets.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert np.array_equal(out.paths[2], np.zeros((3, 6)))

    def test_no_ground_truth(self):
        out = pad_targets([], 3, [-1.0, 1.0])
        assert np.array_equal(out.paths, np.zeros((3, 2, 6)))
        assert out.conf_targets.tolist() == [0.0, 0.0, 0.0]

    def test_full_capacity_no_padding(self):
        gts = [make_path([[0, 0, 0], [1, 0, 0]])]
        out = pad_targets(gts, 1, [-1.0, 1.0])
        assert out.conf_targets.tolist() == [1.0]

    def test_capacity_exceeded(self):
        gts = [make_path([[0, 0, 0], [1, 0, 0]])] * 3
        with pytest.raises(ValueError):
            pad_targets(gts, 2, [-1.0, 1.0])


class TestMatchCost:
    def test_identical_is_zero(self):
        arr = np.random.default_rng(0).normal(0, 1, (5, 6))
        assert position_cost_matrix(arr[None], np.ones(1), arr[None]).tolist() == [[0.0]]

    def test_padded_slot_is_free(self):
        rng = np.random.default_rng(1)
        targets = rng.normal(0, 1, (2, 4, 6))
        cost = position_cost_matrix(targets, np.array([1.0, 0.0]), rng.normal(0, 1, (2, 4, 6)))
        assert np.all(cost[:, 0] > 0.0)
        assert cost[:, 1].tolist() == [0.0, 0.0]

    def test_unit_offset(self):
        target = np.zeros((1, 5, 6))
        pred = np.zeros((1, 5, 6))
        pred[..., 0] = 1.0
        assert position_cost_matrix(target, np.ones(1), pred).tolist() == [[1.0]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            position_cost_matrix(np.zeros((1, 4, 6)), np.ones(1), np.zeros((1, 5, 6)))


class TestHungarian:
    def test_identity_dominant(self):
        cost = np.ones((3, 3)) - np.eye(3)
        res = hungarian(cost)
        assert res.permutation.tolist() == [0, 1, 2]
        assert res.total_cost == 0.0

    def test_two_by_two(self):
        res = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert res.permutation.tolist() == [0, 1]
        assert res.total_cost == 2.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_ties_resolve_to_lexicographic_smallest(self):
        assert hungarian(np.zeros((4, 4))).permutation.tolist() == [0, 1, 2, 3]
        assert hungarian(np.ones((3, 3))).permutation.tolist() == [0, 1, 2]
        # two optimal permutations: (0,1,2) and (1,0,2); smaller one wins
        cost = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        assert hungarian(cost).permutation.tolist() == [0, 1, 2]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        cost = rng.uniform(0, 1, (n, n))
        _, expected = brute_force_assignment(cost)
        res = hungarian(cost)
        assert res.total_cost == expected
        assert sorted(res.permutation.tolist()) == list(range(n))

    def test_beats_random_permutations_at_n40(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(0, 1, (40, 40))
        res = hungarian(cost)
        rows = np.arange(40)
        for _ in range(1000):
            perm = rng.permutation(40)
            assert res.total_cost <= cost[rows, perm].sum() + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        cost = rng.uniform(0, 1, (12, 12))
        first = hungarian(cost)
        second = hungarian(cost)
        assert np.array_equal(first.permutation, second.permutation)
        assert first.total_cost == second.total_cost


def assert_matches_scipy(cost):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    res = hungarian(cost)
    n = cost.shape[0]
    assert sorted(res.permutation.tolist()) == list(range(n))
    assert res.total_cost == pytest.approx(cost[rows, cols].sum(), rel=1e-12, abs=1e-12)
    assert cost[np.arange(n), res.permutation].sum() == pytest.approx(res.total_cost, rel=1e-12, abs=1e-12)


class TestHungarianScipyOracle:
    """Sizes criterion 2's brute force cannot reach, against scipy (test-only dependency)."""

    @pytest.mark.parametrize("n", [1, 3, 8, 17, 40])
    def test_random_square(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            assert_matches_scipy(rng.uniform(0, 10, (n, n)))

    @pytest.mark.parametrize("n,real", [(8, 1), (8, 3), (8, 8), (40, 3), (40, 10), (40, 24), (40, 40)])
    def test_training_shaped(self, n, real):
        # real path columns first, then zero-cost padded columns, as position_cost_matrix builds them
        rng = np.random.default_rng([n, real])
        for _ in range(5):
            cost = np.zeros((n, n))
            cost[:, :real] = rng.uniform(0, 2, (n, real))
            assert_matches_scipy(cost)


def one_slot_points_loss(target, pred) -> float:
    """Points loss of one real slot predicted as `pred` (raw orientations)."""
    targets = PaddedTargets(np.asarray(target)[None], np.ones(1))
    return objective(targets, np.zeros(1, dtype=int), np.asarray(pred)[None], np.full(1, 0.5))[0].points_loss


class TestPointsLoss:
    def test_exact_match_is_zero(self):
        arr = np.random.default_rng(3).normal(0, 1, (6, 6))
        arr[:, 3:] /= np.linalg.norm(arr[:, 3:], axis=1)[:, None]
        assert one_slot_points_loss(arr, arr) == 0.0

    def test_orthogonal_orientations(self):
        target = np.zeros((4, 6))
        target[:, 3] = 1.0
        pred = np.zeros((4, 6))
        pred[:, 4] = 1.0
        assert one_slot_points_loss(target, pred) == 1.0

    def test_position_offset(self):
        target = np.zeros((4, 6))
        target[:, 5] = 1.0
        pred = target.copy()
        pred[:, 0] = 0.2
        assert one_slot_points_loss(target, pred) == pytest.approx(0.2, abs=1e-15)

    def test_zero_orientation_raises(self):
        target = np.zeros((2, 6))
        target[:, 5] = 1.0
        pred = np.zeros((2, 6))
        with pytest.raises(ValueError, match="degenerate predicted orientation"):
            one_slot_points_loss(target, pred)

    @given(st.integers(0, 5000))
    @settings(max_examples=40)
    def test_nonnegative_zero_iff_aligned(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(0, 1, (5, 6))
        target[:, 3:] += np.sign(target[:, 3:]) * 0.1  # keep orientations away from zero
        pred = rng.normal(0, 1, (5, 6))
        pred[:, 3:] += np.sign(pred[:, 3:]) * 0.1
        value = one_slot_points_loss(target, pred)
        assert value >= 0.0
        scale = rng.uniform(0.5, 2.0)
        scaled = target.copy()
        scaled[:, 3:] *= scale  # parallel orientations, same positions
        assert one_slot_points_loss(target, scaled) == pytest.approx(0.0, abs=1e-12)


class TestFocalConfLoss:
    def test_confident_correct_positive(self):
        assert focal_conf_loss([1.0], [1.0 - 1e-9]) == pytest.approx(0.0, abs=1e-12)

    def test_half_confidence_positive(self):
        assert focal_conf_loss([1.0], [0.5]) == pytest.approx(0.25 * np.log(2.0), rel=1e-12)

    def test_half_confidence_negative_symmetric(self):
        assert focal_conf_loss([0.0], [0.5]) == focal_conf_loss([1.0], [0.5])

    def test_sums_over_slots(self):
        single = focal_conf_loss([1.0], [0.5])
        assert focal_conf_loss([1.0, 1.0, 1.0], [0.5] * 3) == pytest.approx(3 * single, rel=1e-12)

    @given(st.floats(0.01, 0.98), st.floats(0.001, 0.01))
    @settings(max_examples=40)
    def test_monotonicity(self, f, step):
        assert focal_conf_loss([1.0], [f + step]) < focal_conf_loss([1.0], [f])
        assert focal_conf_loss([0.0], [f + step]) > focal_conf_loss([0.0], [f])


class TestTotalLoss:
    def setup_method(self):
        self.params = sample_params(ParamSamplingConfig("equispaced", 8))
        self.gts = [
            make_path(np.linspace([0, 0, 0], [1, 0, 0], 6)),
            make_path(np.linspace([0, 1, 0], [1, 1, 0], 6)),
        ]

    def preds_from(self, gts, confidences, n_slots):
        preds = [PredictedPath(resample(g, self.params), c) for g, c in zip(gts, confidences)]
        filler = make_path([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0 + 1e-6]])
        while len(preds) < n_slots:
            preds.append(PredictedPath(resample(filler, self.params), confidences[len(preds)]))
        return preds

    def set_loss(self, gts, preds, n_slots):
        """Pad, match on position, then score: the trainer's path to `objective`."""
        targets = pad_targets(gts, n_slots, self.params)
        raw = np.stack([p.path.poses for p in preds])
        match = hungarian(position_cost_matrix(targets.paths, targets.conf_targets, raw))
        confs = np.array([p.confidence for p in preds])
        return objective(targets, match.permutation, raw, confs)[0]

    def test_exact_predictions_near_zero(self):
        confs = [1.0 - 1e-9, 1.0 - 1e-9, 1e-9, 1e-9]
        out = self.set_loss(self.gts, self.preds_from(self.gts, confs, 4), 4)
        assert out.points_loss == 0.0
        assert out.total == pytest.approx(0.0, abs=1e-6)

    def test_half_confidences(self):
        out = self.set_loss(self.gts, self.preds_from(self.gts, [0.5] * 4, 4), 4)
        assert out.points_loss == 0.0
        assert out.conf_loss == pytest.approx(4 * 0.25 * np.log(2.0), rel=1e-12)
        assert out.total == out.points_loss + out.conf_loss

    def test_gt_order_invariance(self):
        confs = [0.9, 0.8, 0.1, 0.2]
        a = self.set_loss(self.gts, self.preds_from(self.gts, confs, 4), 4)
        b = self.set_loss(self.gts[::-1], self.preds_from(self.gts, confs, 4), 4)
        assert a.total == pytest.approx(b.total, abs=1e-12)

    def test_prediction_order_invariance(self):
        confs = [0.9, 0.8, 0.1, 0.2]
        preds = self.preds_from(self.gts, confs, 4)
        a = self.set_loss(self.gts, preds, 4)
        b = self.set_loss(self.gts, preds[::-1], 4)
        assert a.total == pytest.approx(b.total, abs=1e-12)

    def test_padding_never_contributes(self):
        confs = [0.7, 0.6]
        base = self.set_loss(self.gts, self.preds_from(self.gts, confs, 2), 2)
        # add two padded slots with near-zero predicted confidence: the points
        # loss must not move, the conf loss only by the tiny padded terms
        wide = self.set_loss(self.gts, self.preds_from(self.gts, confs + [1e-9, 1e-9], 4), 4)
        assert wide.points_loss == base.points_loss
        assert wide.conf_loss == pytest.approx(base.conf_loss, abs=1e-6)

    def test_wrong_prediction_count(self):
        raw = np.stack([p.path.poses for p in self.preds_from(self.gts, [0.5, 0.5], 2)])
        with pytest.raises(ValueError):
            objective(pad_targets(self.gts, 3, self.params), np.arange(2), raw, np.full(2, 0.5))


class TestObjective:
    @pytest.mark.parametrize("n_real", [0, 2, 3])
    def test_gradients_match_finite_differences(self, n_real):
        rng = np.random.default_rng(n_real)
        paths = np.zeros((3, 5, 6))
        paths[:n_real] = rng.normal(0, 1, (n_real, 5, 6))
        targets = PaddedTargets(paths, (np.arange(3) < n_real).astype(float))
        perm = np.array([2, 0, 1])
        raw = rng.normal(0, 1, (3, 5, 6))
        confs = rng.uniform(0.1, 0.9, 3)

        def total() -> float:
            return objective(targets, perm, raw, confs, 1.5)[0].total

        _, real, d_raw, d_confs = objective(targets, perm, raw, confs, 1.5)
        assert real.tolist() == [i for i in range(3) if perm[i] < n_real]
        full = np.zeros_like(raw)
        full[real] = d_raw
        step = 1e-6
        for arr, grad in ((raw, full), (confs, d_confs)):
            for idx in np.ndindex(arr.shape):
                saved = arr[idx]
                arr[idx] = saved + step
                plus = total()
                arr[idx] = saved - step
                minus = total()
                arr[idx] = saved
                assert grad[idx] == pytest.approx((plus - minus) / (2 * step), rel=1e-5, abs=1e-8)
