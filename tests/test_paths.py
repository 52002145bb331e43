import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pathfield.paths import (
    ParamSamplingConfig,
    Path,
    Pose6D,
    PredictedPath,
    interp_at,
    max_second_difference,
    normalize_scene,
    resample,
    reverse,
    sample_params,
)

Z = np.array([0.0, 0.0, 1.0])


def straight_path(k=2, end=(1.0, 0.0, 0.0)):
    pos = np.linspace([0.0, 0.0, 0.0], end, k)
    return Path(np.concatenate([pos, np.tile(Z, (k, 1))], axis=1))


@st.composite
def path_arrays(draw, min_len=2, max_len=9):
    k = draw(st.integers(min_len, max_len))
    pos = draw(
        arrays(float, (k, 3), elements=st.floats(-10, 10, allow_nan=False, width=64))
    )
    ori = draw(
        arrays(float, (k, 3), elements=st.floats(-1, 1, allow_nan=False, width=64)).filter(
            lambda a: np.all(np.linalg.norm(a, axis=1) > 1e-2)
        )
    )
    ori = ori / np.linalg.norm(ori, axis=1)[:, None]
    # antipodal neighbours have no interpolated orientation between them
    # (interp_at rightly raises); see test_antipodal_neighbours_raise
    assume(np.all((ori[1:] * ori[:-1]).sum(axis=1) > -1.0 + 1e-6))
    return np.concatenate([pos, ori], axis=1)


class TestPoseAndPathInvariants:
    def test_pose_requires_unit_orientation(self):
        with pytest.raises(ValueError):
            Pose6D(np.zeros(3), np.array([0.0, 0.0, 0.5]))

    def test_pose_rejects_nan(self):
        with pytest.raises(ValueError):
            Pose6D(np.array([np.nan, 0, 0]), Z)

    def test_path_needs_two_poses(self):
        with pytest.raises(ValueError):
            Path(np.array([[0, 0, 0, 0, 0, 1.0]]))

    def test_path_rejects_non_unit_orientation(self):
        rows = np.zeros((2, 6))
        rows[:, 5] = 1.0
        rows[1, 5] = 0.9
        with pytest.raises(ValueError, match="index 1"):
            Path(rows)

    def test_predicted_path_confidence_range(self):
        p = straight_path()
        with pytest.raises(ValueError):
            PredictedPath(p, 1.2)
        with pytest.raises(ValueError):
            PredictedPath(p, -0.1)


class TestInterpAt:
    def test_s_minus_one_is_first_waypoint(self):
        p = straight_path(3, end=(2.0, 0.0, 0.0))
        pose = interp_at(p, -1.0)
        assert np.array_equal(pose.position, p.positions[0])
        assert np.array_equal(pose.orientation, p.orientations[0])

    def test_s_zero_is_middle_of_odd_path(self):
        p = straight_path(3, end=(2.0, 0.0, 0.0))
        pose = interp_at(p, 0.0)
        assert np.array_equal(pose.position, p.positions[1])

    def test_two_waypoint_midright(self):
        p = straight_path(2)
        pose = interp_at(p, 0.5)
        assert np.allclose(pose.position, [0.75, 0.0, 0.0], atol=0, rtol=0)

    def test_out_of_range_raises(self):
        p = straight_path()
        with pytest.raises(ValueError):
            interp_at(p, 1.0 + 1e-9)
        with pytest.raises(ValueError):
            interp_at(p, float("nan"))

    @given(path_arrays())
    @settings(max_examples=40)
    def test_monotone_parameterization(self, rows):
        # larger s must map to a larger fractional index, checked on positions
        # of a strictly increasing 1-D embedding of the same path length
        k = rows.shape[0]
        p = straight_path(k, end=(float(k - 1), 0.0, 0.0))
        ss = np.sort(np.random.default_rng(0).uniform(-1, 1, 7))
        xs = [interp_at(p, s).position[0] for s in ss]
        assert all(a <= b + 1e-12 for a, b in zip(xs, xs[1:]))

    def test_antipodal_neighbours_raise(self):
        rows = np.zeros((2, 6))
        rows[0, 5], rows[1, 5] = 1.0, -1.0
        with pytest.raises(ValueError, match="degenerates"):
            interp_at(Path(rows), 0.0)

    @given(path_arrays(), st.floats(-1, 1, allow_nan=False))
    @settings(max_examples=60)
    def test_unit_orientation_output(self, rows, s):
        pose = interp_at(Path(rows), s)
        assert abs(np.linalg.norm(pose.orientation) - 1.0) <= 1e-6


class TestResample:
    def test_endpoints_exact(self):
        p = straight_path(5, end=(0.3, -2.0, 1.0))
        out = resample(p, [-1.0, 0.25, 1.0])
        assert np.array_equal(out.poses[0], p.poses[0])
        assert np.array_equal(out.poses[-1], p.poses[-1])

    def test_segment_equispaced(self):
        p = straight_path(2)
        out = resample(p, [-1.0, 0.0, 1.0])
        assert np.allclose(out.positions[:, 0], [0.0, 0.5, 1.0], atol=0)

    def test_length_384(self):
        p = straight_path(20)
        grid = sample_params(ParamSamplingConfig("equispaced", 384))
        assert len(resample(p, grid)) == 384

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            resample(straight_path(), [])

    @given(path_arrays(), st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=12))
    @settings(max_examples=40)
    def test_matches_interp_at(self, rows, params):
        p = Path(rows)
        params = sorted(params)
        out = resample(p, params)
        for t, s in enumerate(params):
            pose = interp_at(p, s)
            assert np.array_equal(out.poses[t, :3], pose.position)
            assert np.array_equal(out.poses[t, 3:], pose.orientation)


class TestSampleParams:
    def test_equispaced_t4(self):
        assert sample_params(ParamSamplingConfig("equispaced", 4)).tolist() == [-0.5, 0.0, 0.5, 1.0]

    def test_uniform_sorted_in_range(self):
        vals = sample_params(ParamSamplingConfig("uniform", 8, seed=3))
        assert vals.shape == (8,)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= -1) & (vals <= 1))

    def test_noisy_with_zero_sigma_equals_equispaced(self):
        noisy = sample_params(ParamSamplingConfig("noisy-equispaced", 7, noise_sigma=0.0, seed=5))
        plain = sample_params(ParamSamplingConfig("equispaced", 7))
        assert np.array_equal(noisy, plain)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            ParamSamplingConfig("equispaced", 0)

    @given(
        st.sampled_from(["noisy-equispaced", "uniform"]),
        st.integers(1, 64),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60)
    def test_sorted_in_range_reproducible(self, strategy, count, seed):
        cfg = ParamSamplingConfig(strategy, count, seed=seed)
        a = sample_params(cfg)
        b = sample_params(cfg)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        assert np.all((a >= -1) & (a <= 1))


class TestReverse:
    def test_two_pose_swap(self):
        p = straight_path(2)
        assert np.array_equal(reverse(p).positions[0], p.positions[1])

    def test_three_pose_order(self):
        p = straight_path(3, end=(2.0, 0.0, 0.0))
        assert reverse(p).positions[:, 0].tolist() == [2.0, 1.0, 0.0]

    @given(path_arrays())
    @settings(max_examples=40)
    def test_involution_and_multiset(self, rows):
        p = Path(rows)
        assert np.array_equal(reverse(reverse(p)).poses, p.poses)
        assert np.array_equal(np.sort(reverse(p).poses, axis=0), np.sort(p.poses, axis=0))


class TestNormalizeScene:
    def test_already_normalized_is_identity(self):
        cloud = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        out, _, tf = normalize_scene(cloud, [])
        assert np.array_equal(out, cloud)
        assert np.array_equal(tf.centroid, np.zeros(3))
        assert tf.scale == 1.0

    def test_two_point_cloud(self):
        out, _, tf = normalize_scene(np.array([[0.0, 0, 0], [2.0, 0, 0]]), [])
        assert tf.centroid.tolist() == [1.0, 0.0, 0.0]
        assert tf.scale == 1.0
        assert out.tolist() == [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]

    def test_degenerate_cloud_raises(self):
        with pytest.raises(ValueError):
            normalize_scene(np.ones((4, 3)), [])

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(0.1, 10, allow_nan=False),
        path_arrays(),
    )
    @settings(max_examples=30)
    def test_path_equivariance_and_inversion(self, offset, scale, rows):
        cloud = np.random.default_rng(1).normal(0, 1, (16, 3)) * scale + offset
        p = Path(rows)
        norm_cloud, norm_paths, tf = normalize_scene(cloud, [p])
        assert np.allclose(norm_paths[0].positions, (p.positions - tf.centroid) / tf.scale)
        assert np.array_equal(norm_paths[0].orientations, p.orientations)
        assert np.allclose(tf.invert_path(norm_paths[0]).positions, p.positions, atol=1e-9)
        assert np.allclose(tf.invert_points(norm_cloud), cloud, atol=1e-9)


class TestArclengthMode:
    def unequal_path(self):
        # waypoints bunched at the start: index midpoint != geometric midpoint
        pos = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0], [1.0, 0, 0]])
        return Path(np.concatenate([pos, np.tile(Z, (4, 1))], axis=1))

    def test_geometric_midpoint(self):
        p = self.unequal_path()
        assert interp_at(p, 0.0, mode="index").position[0] == pytest.approx(0.15)
        assert interp_at(p, 0.0, mode="arclength").position[0] == pytest.approx(0.5)

    def test_endpoints_exact(self):
        p = self.unequal_path()
        out = resample(p, [-1.0, 0.0, 1.0], mode="arclength")
        assert np.array_equal(out.poses[0], p.poses[0])
        assert np.array_equal(out.poses[-1], p.poses[-1])

    def test_matches_scalar_variant(self):
        p = self.unequal_path()
        params = [-1.0, -0.3, 0.2, 0.9, 1.0]
        out = resample(p, params, mode="arclength")
        for t, s in enumerate(params):
            pose = interp_at(p, s, mode="arclength")
            assert np.array_equal(out.poses[t, :3], pose.position)

    def test_zero_length_path_rejected(self):
        rows = np.zeros((3, 6))
        rows[:, 5] = 1.0
        with pytest.raises(ValueError, match="nonzero length"):
            interp_at(Path(rows), 0.5, mode="arclength")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            interp_at(straight_path(), 0.0, mode="chordal")


def test_max_second_difference_flags_corners():
    smooth = straight_path(9)
    corner_pos = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 2, 0]], float)
    corner = Path(np.concatenate([corner_pos, np.tile(Z, (4, 1))], axis=1))
    assert max_second_difference(smooth) < 1e-12
    assert max_second_difference(corner) > 0.5
