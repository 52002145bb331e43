import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pathfield.paths import (
    _SAMPLES_MAX,
    SAMPLING_STRATEGIES,
    ParamSamplingConfig,
    Path,
    PredictedPath,
    _unit_rows,
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
    # (resample rightly raises); see test_antipodal_neighbours_raise
    assume(np.all((ori[1:] * ori[:-1]).sum(axis=1) > -1.0 + 1e-6))
    return np.concatenate([pos, ori], axis=1)


def at(path, s):
    """The pose resample returns for the scalar s (passed twice: a Path needs two poses)."""
    return resample(path, [s, s]).poses[0]


def reference_pose(path, s):
    """Per-point statement of the path-parameter rule, one scalar at a time."""
    rows = path.poses
    k = len(rows)
    u = 0.5 * (s + 1.0) * (k - 1)
    i0 = min(int(np.floor(u)), k - 2)
    frac = u - i0
    if frac == 0.0:
        return rows[i0]
    if frac == 1.0:
        return rows[i0 + 1]
    pos = (1.0 - frac) * rows[i0, :3] + frac * rows[i0 + 1, :3]
    ori = (1.0 - frac) * rows[i0, 3:] + frac * rows[i0 + 1, 3:]
    return np.concatenate([pos, ori / np.sqrt((ori * ori).sum())])


class TestPoseAndPathInvariants:
    def test_pose_requires_unit_orientation(self):
        rows = np.zeros((2, 6))
        rows[:, 5] = 0.5
        with pytest.raises(ValueError, match="index 0"):
            Path(rows)

    def test_pose_rejects_nan(self):
        rows = np.zeros((3, 6))
        rows[:, 5] = 1.0
        rows[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Path(rows)

    def test_path_rejects_nan_orientation(self):
        # a NaN norm passes the unit-length test, so only the finiteness check stops it
        rows = np.zeros((3, 6))
        rows[:, 5] = 1.0
        rows[2, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Path(rows)

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
    """Interpolation at one scalar s, read through resample."""

    def test_s_minus_one_is_first_waypoint(self):
        p = straight_path(3, end=(2.0, 0.0, 0.0))
        assert np.array_equal(at(p, -1.0), p.poses[0])

    def test_s_zero_is_middle_of_odd_path(self):
        p = straight_path(3, end=(2.0, 0.0, 0.0))
        assert np.array_equal(at(p, 0.0)[:3], p.positions[1])

    def test_two_waypoint_midright(self):
        p = straight_path(2)
        assert np.allclose(at(p, 0.5)[:3], [0.75, 0.0, 0.0], atol=0, rtol=0)

    def test_out_of_range_raises(self):
        p = straight_path()
        with pytest.raises(ValueError, match="lie in"):
            at(p, 1.0 + 1e-9)
        with pytest.raises(ValueError, match="lie in"):
            at(p, float("nan"))

    @given(path_arrays())
    @settings(max_examples=40)
    def test_monotone_parameterization(self, rows):
        # larger s must map to a larger fractional index, checked on positions
        # of a strictly increasing 1-D embedding of the same path length
        k = rows.shape[0]
        p = straight_path(k, end=(float(k - 1), 0.0, 0.0))
        ss = np.sort(np.random.default_rng(0).uniform(-1, 1, 7))
        xs = [at(p, s)[0] for s in ss]
        assert all(a <= b + 1e-12 for a, b in zip(xs, xs[1:]))

    def test_antipodal_neighbours_raise(self):
        rows = np.zeros((2, 6))
        rows[0, 5], rows[1, 5] = 1.0, -1.0
        with pytest.raises(ValueError, match="degenerates"):
            at(Path(rows), 0.0)

    @given(path_arrays(), st.floats(-1, 1, allow_nan=False))
    @settings(max_examples=60)
    def test_unit_orientation_output(self, rows, s):
        assert abs(np.linalg.norm(at(Path(rows), s)[3:]) - 1.0) <= 1e-6


class TestResample:
    def test_endpoints_exact(self):
        p = straight_path(5, end=(0.3, -2.0, 1.0))
        out = resample(p, [-1.0, 0.25, 1.0])
        assert np.array_equal(out.poses[0], p.poses[0])
        assert np.array_equal(out.poses[-1], p.poses[-1])

    def test_waypoints_returned_unchanged(self):
        # orientation norms within the unit tolerance but not exactly 1:
        # renormalising would change them, an exact waypoint must not
        p = straight_path(5)
        rows = p.poses.copy()
        rows[:, 5] = 1.0 + 5e-7
        p = Path(rows)
        out = resample(p, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.array_equal(out.poses, p.poses)
        assert resample(p, [-0.25, 0.25]).poses[:, 5].tolist() == [1.0, 1.0]

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
    def test_matches_per_point_reference(self, rows, params):
        p = Path(rows)
        params = sorted(params)
        out = resample(p, params)
        for t, s in enumerate(params):
            assert np.array_equal(out.poses[t], reference_pose(p, s))


@st.composite
def stacks_and_params(draw):
    """R paths of one waypoint count K, and scalars mixing ±1, waypoint hits and free draws."""
    k = draw(st.integers(2, 9))
    stack = np.stack(draw(st.lists(path_arrays(min_len=k, max_len=k), min_size=1, max_size=4)))
    on_waypoint = st.integers(0, k - 1).map(lambda i: -1.0 + 2.0 * i / (k - 1))
    scalar = st.one_of(st.sampled_from([-1.0, 1.0]), on_waypoint, st.floats(-1, 1, allow_nan=False))
    return stack, draw(st.lists(scalar, min_size=2, max_size=12))


class TestResampleStack:
    """The array form on (..., K, 6) stacks, against the Path form one path at a time."""

    @given(stacks_and_params())
    @settings(max_examples=60)
    def test_stack_matches_each_path(self, case):
        stack, params = case
        out = resample(stack, params)
        assert out.shape == (len(stack), len(params), 6)
        for rows, got in zip(stack, out):
            assert got.tobytes() == resample(Path(rows), params).poses.tobytes()

    def test_leading_axes_are_kept(self):
        rows = straight_path(5, end=(2.0, 1.0, 0.0)).poses
        stack = np.stack([rows, rows[::-1].copy(), rows + [1.0, 0, 0, 0, 0, 0]]).reshape(3, 1, 5, 6)
        params = [-1.0, -0.3, 0.5, 1.0]
        out = resample(stack, params)
        assert out.shape == (3, 1, 4, 6)
        for i in range(3):
            assert np.array_equal(out[i, 0], resample(Path(stack[i, 0]), params).poses)

    def test_degenerate_orientation_keeps_its_message(self):
        rows = np.zeros((2, 6))
        rows[0, 5], rows[1, 5] = 1.0, -1.0
        stack = np.stack([straight_path(2).poses, rows])
        with pytest.raises(ValueError, match="^interpolated orientation degenerates to zero$"):
            resample(stack, [0.0, 0.5])

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (3, 5), (2, 1, 6)])
    def test_malformed_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="K >= 2"):
            resample(np.zeros(shape), [0.0, 0.5])


class TestUnitRows:
    @given(
        st.lists(st.integers(1, 4), max_size=2).flatmap(
            lambda lead: arrays(float, (*lead, 3), elements=st.floats(-1e3, 1e3, allow_nan=False, width=64))
        )
    )
    @settings(max_examples=60, derandomize=True)
    def test_equals_the_linalg_norm_form_bit_for_bit(self, vectors):
        norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
        assume(np.all(norms >= 1e-12))
        units, got = _unit_rows(vectors, "zero")
        assert got.tobytes() == norms.tobytes()
        assert units.tobytes() == (vectors / norms).tobytes()


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

    def test_equispaced_is_the_written_out_grid(self):
        for count in range(2, 300):
            want = np.minimum(np.arange(1, count + 1, dtype=float) * (2.0 / count) - 1.0, 1.0)
            assert sample_params(ParamSamplingConfig("equispaced", count)).tobytes() == want.tobytes(), count

    @pytest.mark.parametrize("strategy", SAMPLING_STRATEGIES)
    def test_count_at_the_bound_is_a_memory_error(self, strategy):
        # sized in integers, 8 EiB: numpy refuses it at once, so nothing is allocated
        with pytest.raises(MemoryError):
            sample_params(ParamSamplingConfig(strategy, _SAMPLES_MAX))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            ParamSamplingConfig("equispaced", 0)

    def test_single_count_rejected(self):
        # resample would build a one-pose Path, which Path rejects
        with pytest.raises(ValueError, match="^count must be >= 2, not 1$"):
            ParamSamplingConfig("uniform", 1)

    @pytest.mark.parametrize("field,value,message", [
        ("count", 2.5, "count must be an integer"), ("count", True, "count must be an integer"),
        ("count", "4", "count must be an integer"), ("seed", 1.5, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"), ("noise_sigma", True, "noise_sigma must be a number"),
    ])
    def test_non_number_field_is_named(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ParamSamplingConfig(**{"strategy": "noisy-equispaced", "count": 4, field: value})

    @given(
        st.sampled_from(["noisy-equispaced", "uniform"]),
        st.integers(2, 64),
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
        p = straight_path(3, end=(0.5, -0.25, 0.75))
        out, paths = normalize_scene(cloud, [p])
        assert np.array_equal(out, cloud)
        assert np.array_equal(paths[0].poses, p.poses)

    def test_two_point_cloud(self):
        # centroid (1, 0, 0), max radius 1
        p = straight_path(2, end=(3.0, 0.0, 0.0))
        out, paths = normalize_scene(np.array([[0.0, 0, 0], [2.0, 0, 0]]), [p])
        assert out.tolist() == [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        assert paths[0].positions[:, 0].tolist() == [-1.0, 2.0]

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
        centroid = cloud.mean(axis=0)
        radius = np.linalg.norm(cloud - centroid, axis=1).max()
        norm_cloud, norm_paths = normalize_scene(cloud, [p])
        assert np.allclose(norm_cloud.mean(axis=0), 0.0, atol=1e-12)
        assert np.linalg.norm(norm_cloud, axis=1).max() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(norm_cloud, (cloud - centroid) / radius)
        assert np.allclose(norm_paths[0].positions, (p.positions - centroid) / radius)
        assert np.array_equal(norm_paths[0].orientations, p.orientations)
        assert np.allclose(norm_paths[0].positions * radius + centroid, p.positions, atol=1e-9)
        assert np.allclose(norm_cloud * radius + centroid, cloud, atol=1e-9)


def test_max_second_difference_flags_corners():
    smooth = straight_path(9)
    corner_pos = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 2, 0]], float)
    corner = Path(np.concatenate([corner_pos, np.tile(Z, (4, 1))], axis=1))
    assert max_second_difference(smooth) < 1e-12
    assert max_second_difference(corner) > 0.5
