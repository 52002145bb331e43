import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfield.matching import (
    CONF_CLAMP,
    MatchResult,
    _lex_smallest_tight_matching,
    focal_loss,
    hungarian,
    objective,
    pad_targets,
    position_cost_matrix,
)
from pathfield import trainer
from pathfield.dataio import SyntheticConfig, gen_dataset
from pathfield.neural_field import HeadConfig
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


def reference_square_hungarian(cost):
    """The square solver the rectangular `hungarian` replaced, kept as a reference.

    O(N^3) shortest augmenting paths over every (padded) column, then the
    lexicographically smallest perfect matching on the tight-edge graph
    whenever some row has more than one tight edge.
    """
    c = np.asarray(cost, dtype=float)
    n = c.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)
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
            j1 = int(free[int(np.argmin(minv[free]))])
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

    tight = c - u[1:][:, None] - v[1:][None, :] <= 1e-9 * max(1.0, float(np.abs(c).max()))
    if np.any(tight.sum(axis=1) > 1):
        adjacency = [np.nonzero(tight[r])[0].tolist() for r in range(n)]

        def completable(used_cols, start):
            row_of = {}

            def augment(row, seen):
                for col in adjacency[row]:
                    if used_cols[col] or col in seen:
                        continue
                    seen.add(col)
                    if col not in row_of or augment(row_of[col], seen):
                        row_of[col] = row
                        return True
                return False

            return all(augment(row, set()) for row in range(start, n))

        used_cols = np.zeros(n, dtype=bool)
        chosen = []
        for row in range(n):
            for col in adjacency[row]:
                if used_cols[col]:
                    continue
                used_cols[col] = True
                if completable(used_cols, row + 1):
                    chosen.append(col)
                    break
                used_cols[col] = False
        if len(chosen) == n:
            perm = np.array(chosen)
    total = 0.0
    for i in range(n):
        total += float(c[i, perm[i]])
    return MatchResult(perm, total)


class TestPadTargets:
    def test_two_real_two_padded(self):
        # the two padded slots get no rows: only the real paths, in order
        gts = [make_path([[0, 0, 0], [1, 0, 0]]), make_path([[0, 1, 0], [1, 1, 0]])]
        out = pad_targets(gts, 4, [-1.0, 0.0, 1.0])
        assert out.shape == (2, 3, 6)
        for row, gt in zip(out, gts):
            assert np.array_equal(row, resample(gt, [-1.0, 0.0, 1.0]).poses)

    def test_no_ground_truth(self):
        out = pad_targets([], 3, [-1.0, 1.0])
        assert out.shape == (0, 2, 6)

    def test_full_capacity_no_padding(self):
        gts = [make_path([[0, 0, 0], [1, 0, 0]])]
        out = pad_targets(gts, 1, [-1.0, 1.0])
        assert out.shape == (1, 2, 6)
        assert np.array_equal(out[0], gts[0].poses)

    def test_capacity_exceeded(self):
        gts = [make_path([[0, 0, 0], [1, 0, 0]])] * 3
        with pytest.raises(ValueError):
            pad_targets(gts, 2, [-1.0, 1.0])

    def test_mixed_waypoint_counts_keep_path_order(self):
        # a loaded dataset may mix waypoint counts: each count is resampled as one stack
        rng = np.random.default_rng(4)
        gts = []
        for k in (2, 7, 20, 7, 2, 20, 20):
            ori = rng.normal(size=(k, 3))
            ori /= np.linalg.norm(ori, axis=1)[:, None]
            gts.append(Path(np.concatenate([rng.normal(size=(k, 3)), ori], axis=1)))
        params = np.concatenate([[-1.0, 1.0, 0.0, -1.0 + 2.0 / 6], np.sort(rng.uniform(-1, 1, 12))])
        out = pad_targets(gts, 8, params)
        assert out.shape == (7, 16, 6)
        for row, gt in zip(out, gts):
            assert row.tobytes() == resample(gt, params).poses.tobytes()

    def test_degenerate_orientation_keeps_its_message(self):
        flipped = make_path([[0, 0, 0], [1, 0, 0]]).poses.copy()
        flipped[1, 5] = -1.0
        gts = [make_path([[0, 0, 0], [1, 0, 0]]), Path(flipped)]
        with pytest.raises(ValueError, match="^interpolated orientation degenerates to zero$"):
            pad_targets(gts, 2, [0.0, 0.5])


class TestMatchCost:
    def test_identical_is_zero(self):
        arr = np.random.default_rng(0).normal(0, 1, (5, 6))
        assert position_cost_matrix(arr[None], arr[None]).tolist() == [[0.0]]

    def test_padded_slot_is_free(self):
        # one real target of two slots: the cost has one column, and the
        # prediction hungarian leaves over takes the padded slot at no cost
        rng = np.random.default_rng(1)
        targets = pad_targets([make_path([[0, 0, 0], [1, 0, 0]])], 2, [-1.0, 0.0, 1.0])
        cost = position_cost_matrix(targets, rng.normal(0, 1, (2, 3, 6)))
        assert cost.shape == (2, 1) and np.all(cost > 0.0)
        res = hungarian(cost)
        winner = int(np.argmin(cost[:, 0]))
        assert res.permutation[winner] == 0 and res.permutation[1 - winner] == 1
        assert res.total_cost == cost[winner, 0]

    def test_unit_offset(self):
        target = np.zeros((1, 5, 6))
        pred = np.zeros((1, 5, 6))
        pred[..., 0] = 1.0
        assert position_cost_matrix(target, pred).tolist() == [[1.0]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            position_cost_matrix(np.zeros((1, 4, 6)), np.zeros((1, 5, 6)))


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
            hungarian(np.zeros((2, 3)))  # more real columns than rows
        with pytest.raises(ValueError):
            hungarian(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            hungarian(np.zeros(3))
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_ties_resolve_to_lexicographic_smallest(self):
        assert hungarian(np.zeros((4, 4))).permutation.tolist() == [0, 1, 2, 3]
        assert hungarian(np.ones((3, 3))).permutation.tolist() == [0, 1, 2]
        assert hungarian(np.zeros((5, 0))).permutation.tolist() == [0, 1, 2, 3, 4]  # padding only
        # two optimal permutations: (0,1,2) and (1,0,2); smaller one wins
        cost = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        assert hungarian(cost).permutation.tolist() == [0, 1, 2]

    def test_padded_columns_follow_row_order(self):
        # rows 1 and 3 take the real columns; rows 0, 2, 4 get padded 2, 3, 4
        cost = np.array([[9.0, 9.0], [1.0, 5.0], [9.0, 9.0], [5.0, 1.0], [9.0, 9.0]])
        res = hungarian(cost)
        assert res.permutation.tolist() == [2, 0, 3, 1, 4]
        assert res.total_cost == 2.0

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


def padded(cost):
    """The (N, N) matrix an (N, R) cost implies: zero-cost padded columns after the real ones."""
    n, real = cost.shape
    full = np.zeros((n, n))
    full[:, :real] = cost
    return full


def assert_matches_scipy(cost):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    full = padded(cost)
    rows, cols = linear_sum_assignment(full)
    res = hungarian(cost)
    n = cost.shape[0]
    assert sorted(res.permutation.tolist()) == list(range(n))
    assert res.total_cost == pytest.approx(full[rows, cols].sum(), rel=1e-12, abs=1e-12)
    assert full[np.arange(n), res.permutation].sum() == pytest.approx(res.total_cost, rel=1e-12, abs=1e-12)


class TestHungarianScipyOracle:
    """Sizes criterion 2's brute force cannot reach, against scipy (test-only dependency)."""

    @pytest.mark.parametrize("n", [1, 3, 8, 17, 40])
    def test_random_square(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            assert_matches_scipy(rng.uniform(0, 10, (n, n)))

    @pytest.mark.parametrize("n,real", [(8, 1), (8, 3), (8, 8), (40, 3), (40, 10), (40, 24), (40, 40)])
    def test_training_shaped(self, n, real):
        # the (N, R) real block position_cost_matrix builds; scipy solves it zero-padded to (N, N)
        rng = np.random.default_rng([n, real])
        for _ in range(5):
            cost = rng.uniform(0, 2, (n, real))
            assert_matches_scipy(cost)
            perm = hungarian(cost).permutation
            assert perm[perm >= real].tolist() == list(range(real, n))


def lexicographic_brute_force(full):
    """Minimum-cost permutation of a square matrix, lexicographically smallest among ties.

    Row costs are summed in row order, like `total_cost`. itertools yields
    permutations in lexicographic order and argmin keeps the first minimum.
    """
    n = full.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    totals = np.zeros(len(perms))
    for i in range(n):
        totals = totals + full[i, perms[:, i]]
    best = int(np.argmin(totals))
    return perms[best].tolist(), float(totals[best])


class TestRectangularTieRule:
    """Every R from 0 to N on small integer costs, where ties are common."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_lexicographic_brute_force(self, n):
        rng = np.random.default_rng(n)
        for real in range(n + 1):
            for trial in range(6):
                cost = rng.integers(0, 3, (n, real)).astype(float)
                if n > 1 and trial % 2:
                    cost[rng.integers(1, n)] = cost[0]  # duplicated rows
                if real > 1 and trial % 3 == 2:
                    cost[:, rng.integers(1, real)] = cost[:, 0]  # duplicated real columns
                expected, best = lexicographic_brute_force(padded(cost))
                res = hungarian(cost)
                assert res.permutation.tolist() == expected, cost
                assert res.total_cost == best
                assert reference_square_hungarian(padded(cost)).permutation.tolist() == expected


def tight_assignments(tight):
    """Every assignment of rows to tight columns that fills each real column once, the last column
    (the padding) taking the other rows, in lexicographic order."""
    n, real = tight.shape[0], tight.shape[1] - 1
    return [
        list(labels)
        for labels in itertools.product(*[np.flatnonzero(edges).tolist() for edges in tight])
        if sorted(labels) == list(range(real)) + [real] * (n - real)
    ]


class TestLexSmallestTightMatching:
    """The tie pass alone, on hand-made tight-edge graphs, from every valid starting assignment."""

    GRAPHS = {
        # from [2, 0, 1, 3], row 0 takes column 0 only if two later rows move: 1 and 2, or 1 and 3
        "chain": ([[1, 0, 1, 0], [1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]], [2, 0, 1, 3], [0, 1, 2, 3]),
        # from [1, 0, 2, 2], row 1 leaves column 0 for the padding, and padded row 3, not row 2,
        # takes row 0's column 1
        "padding": ([[1, 1, 0], [1, 0, 1], [0, 0, 1], [0, 1, 1]], [1, 0, 2, 2], [0, 2, 2, 1]),
    }

    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    def test_every_start_gives_the_smallest(self, kind):
        edges, start, smallest = self.GRAPHS[kind]
        tight = np.array(edges, dtype=bool)
        starts = tight_assignments(tight)
        assert starts[0] == smallest and start in starts
        for labels in starts:
            assert _lex_smallest_tight_matching(tight, np.array(labels)).tolist() == smallest


class TestTrainingTrace:
    """Every cost matrix of a short desk fit, against the square reference solver."""

    def test_same_permutations_as_square_solver(self, monkeypatch):
        # criterion 7's dataset and config, cut to 60 epochs (180 steps)
        records = gen_dataset(SyntheticConfig(strokes=4, waypoints_per_stroke=20, seed=0), objects=3)
        config = trainer.TrainConfig(
            slots=8, train_samples=16, epochs=60, step_size=5e-3, lr_schedule="cosine",
            lr_min=1e-5, sampling="uniform", seed=0,
            head=HeadConfig(depth=2, width=32, code_dim=16, activation="finer", omega0=10.0, seed=0),
        )
        calls = []

        def recording(cost):
            result = hungarian(cost)
            calls.append((np.array(cost), result))
            return result

        monkeypatch.setattr(trainer, "hungarian", recording)
        trainer.fit({r.object_id: r.gt_paths for r in records}, config)
        assert len(calls) == 180
        for cost, result in calls:
            assert cost.shape == (8, 4)
            expected = reference_square_hungarian(padded(cost))
            assert result.permutation.tolist() == expected.permutation.tolist()
            assert result.total_cost == expected.total_cost


def one_slot_points_loss(target, pred) -> float:
    """Points loss of one real slot predicted as `pred` (raw orientations)."""
    targets = np.asarray(target)[None]
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


def reference_focal_conf_loss(targets, predicted, gamma=2.0):
    """The focal loss as it was written on its own, before it shared one clamp with its gradient."""
    tgt = np.asarray(targets, dtype=float)
    f = np.clip(np.asarray(predicted, dtype=float), CONF_CLAMP, 1.0 - CONF_CLAMP)
    terms = np.where(tgt > 0.5, -((1.0 - f) ** gamma) * np.log(f), -(f ** gamma) * np.log(1.0 - f))
    return float(terms.sum())


def reference_focal_prob_gradient(targets, predicted, gamma=2.0):
    """The focal loss's gradient as it was written on its own."""
    tgt = np.asarray(targets, dtype=float)
    f = np.clip(np.asarray(predicted, dtype=float), CONF_CLAMP, 1.0 - CONF_CLAMP)
    g = float(gamma)
    return np.where(
        tgt > 0.5,
        g * (1.0 - f) ** (g - 1.0) * np.log(f) - (1.0 - f) ** g / f,
        -g * f ** (g - 1.0) * np.log(1.0 - f) + f ** g / (1.0 - f),
    )


class TestFocalConfLoss:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0]),
                st.sampled_from([0.0, CONF_CLAMP, 1.0 - CONF_CLAMP, 1.0]) | st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([0, 0.5, 1, 2, 2.0, 3.7]),
    )
    @settings(max_examples=60, derandomize=True)
    def test_equals_the_separate_loss_and_gradient_bit_for_bit(self, pairs, gamma):
        targets, predicted = zip(*pairs)
        loss, gradient = focal_loss(targets, predicted, gamma)
        assert loss == reference_focal_conf_loss(targets, predicted, gamma)
        assert gradient.tobytes() == reference_focal_prob_gradient(targets, predicted, gamma).tobytes()

    def test_confident_correct_positive(self):
        assert focal_loss([1.0], [1.0 - 1e-9])[0] == pytest.approx(0.0, abs=1e-12)

    def test_half_confidence_positive(self):
        assert focal_loss([1.0], [0.5])[0] == pytest.approx(0.25 * np.log(2.0), rel=1e-12)

    def test_half_confidence_negative_symmetric(self):
        assert focal_loss([0.0], [0.5])[0] == focal_loss([1.0], [0.5])[0]

    def test_sums_over_slots(self):
        single = focal_loss([1.0], [0.5])[0]
        assert focal_loss([1.0, 1.0, 1.0], [0.5] * 3)[0] == pytest.approx(3 * single, rel=1e-12)

    @given(st.floats(0.01, 0.98), st.floats(0.001, 0.01))
    @settings(max_examples=40)
    def test_monotonicity(self, f, step):
        assert focal_loss([1.0], [f + step])[0] < focal_loss([1.0], [f])[0]
        assert focal_loss([0.0], [f + step])[0] > focal_loss([0.0], [f])[0]


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
        match = hungarian(position_cost_matrix(targets, raw))
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
        targets = pad_targets(self.gts, 3, self.params)
        raw = np.stack([p.path.poses for p in self.preds_from(self.gts, [0.5, 0.5], 2)])
        # fewer predictions than real paths
        with pytest.raises(ValueError, match="do not match"):
            objective(targets, np.arange(1), raw[:1], np.full(1, 0.5))
        # one confidence per prediction
        with pytest.raises(ValueError, match="do not match"):
            objective(targets, np.arange(2), raw, np.full(3, 0.5))
        # predictions sampled at other parameters than the targets
        with pytest.raises(ValueError, match="do not match"):
            objective(targets, np.arange(2), raw[:, :-1], np.full(2, 0.5))


class TestObjective:
    @pytest.mark.parametrize("n_real", [0, 2, 3])
    def test_gradients_match_finite_differences(self, n_real):
        rng = np.random.default_rng(n_real)
        targets = rng.normal(0, 1, (n_real, 5, 6))
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

    @pytest.mark.parametrize("n_real", [0, 2, 4])
    def test_confidence_targets_follow_the_permutation(self, n_real):
        # prediction i has confidence target 1 exactly when permutation[i] < R
        rng = np.random.default_rng(10 + n_real)
        targets = rng.normal(0, 1, (n_real, 5, 6))
        perm = np.array([3, 0, 2, 1])
        raw = rng.normal(0, 1, (4, 5, 6))
        confs = rng.uniform(0.1, 0.9, 4)
        breakdown, real, _, d_confs = objective(targets, perm, raw, confs, 2.0)
        expected = (perm < n_real).astype(float)
        assert real.tolist() == np.nonzero(expected)[0].tolist()
        loss, gradient = focal_loss(expected, confs, 2.0)
        assert breakdown.conf_loss == loss
        assert np.array_equal(d_confs, gradient)
