import json
import subprocess
import sys

import numpy as np
import pytest

from pathfield.cli import main
from pathfield.dataio import (
    SyntheticConfig,
    ValidationError,
    dataset_from_document,
    dataset_to_document,
    gen_dataset,
    gen_raster_object,
    load_dataset,
    load_path_document,
    save_dataset,
    save_report,
)
from pathfield.metrics import EvalReport
from pathfield.paths import Path, PredictedPath


def run_cli(*args):
    return main([str(a) for a in args])


class TestGenerator:
    def test_serpentine_alternates_direction(self):
        record = gen_raster_object(SyntheticConfig(strokes=4, waypoints_per_stroke=10, seed=0))
        assert len(record.gt_paths) == 4
        for k, path in enumerate(record.gt_paths):
            xs = path.positions[:, 0]
            if k % 2 == 0:
                assert xs[0] < xs[-1]
            else:
                assert xs[0] > xs[-1]

    def test_orientations_equal_face_normal(self):
        record = gen_raster_object(SyntheticConfig(strokes=3, waypoints_per_stroke=5, seed=1))
        for path in record.gt_paths:
            assert np.array_equal(path.orientations, np.tile([0.0, 0.0, 1.0], (5, 1)))

    def test_same_seed_identical(self):
        cfg = SyntheticConfig(strokes=2, waypoints_per_stroke=6, jitter_sigma=0.01, seed=9)
        a = gen_raster_object(cfg)
        b = gen_raster_object(cfg)
        assert np.array_equal(a.point_cloud, b.point_cloud)
        for pa, pb in zip(a.gt_paths, b.gt_paths):
            assert np.array_equal(pa.poses, pb.poses)

    def test_scene_is_normalized(self):
        record = gen_raster_object(SyntheticConfig(seed=2))
        radii = np.linalg.norm(record.point_cloud, axis=1)
        assert np.allclose(record.point_cloud.mean(axis=0), 0.0, atol=1e-12)
        assert radii.max() == pytest.approx(1.0, abs=1e-12)

    def test_curvature_bends_strokes(self):
        flat = gen_raster_object(SyntheticConfig(seed=0))
        curved = gen_raster_object(SyntheticConfig(curvature=0.3, seed=0))
        assert np.ptp(flat.gt_paths[0].positions[:, 2]) == 0.0
        assert np.ptp(curved.gt_paths[0].positions[:, 2]) > 0.0


class TestDatasetDocuments:
    def test_round_trip_exact(self, tmp_path):
        records = gen_dataset(SyntheticConfig(strokes=2, waypoints_per_stroke=5, seed=4), objects=2)
        records[0].predictions = [PredictedPath(records[0].gt_paths[0], 0.123456789012345678)]
        target = tmp_path / "data.json"
        save_dataset(records, target)
        loaded = load_dataset(target)
        assert [r.object_id for r in loaded] == [r.object_id for r in records]
        for a, b in zip(records, loaded):
            assert np.array_equal(a.point_cloud, b.point_cloud)
            for pa, pb in zip(a.gt_paths, b.gt_paths):
                assert np.array_equal(pa.poses, pb.poses)
            for pa, pb in zip(a.predictions, b.predictions):
                assert pa.confidence == pb.confidence
                assert np.array_equal(pa.path.poses, pb.path.poses)

    def test_seventeen_digit_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.normal(0, 1, (4, 3))
        ori = np.tile([0.0, 0.0, 1.0], (4, 1))
        path = Path(np.concatenate([rows, ori], axis=1))
        doc = dataset_to_document([type("R", (), {
            "object_id": "x", "gt_paths": [path], "point_cloud": None, "predictions": []})()])
        loaded = dataset_from_document(json.loads(json.dumps(doc)))
        assert np.array_equal(loaded[0].gt_paths[0].poses, path.poses)

    def test_five_component_pose_row_names_object(self, tmp_path):
        doc = {"objects": [{"object_id": "bad-object", "gt_paths": [[[0, 0, 0, 0, 1]] * 2]}]}
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="bad-object"):
            load_dataset(target)

    def test_confidence_out_of_range(self, tmp_path):
        pose_rows = [[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1]]
        doc = {
            "objects": [
                {
                    "object_id": "obj",
                    "gt_paths": [pose_rows],
                    "predictions": [{"confidence": 1.2, "poses": pose_rows}],
                }
            ]
        }
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="confidence"):
            load_dataset(target)

    def test_duplicate_ids_rejected(self, tmp_path):
        entry = {"object_id": "dup", "gt_paths": []}
        target = tmp_path / "dup.json"
        target.write_text(json.dumps({"objects": [entry, entry]}))
        with pytest.raises(ValidationError, match="dup"):
            load_dataset(target)

    def test_parse_error_reports_line(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text('{"objects": [\n  {"object_id": }\n]}')
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset(target)

    def test_failed_report_save_keeps_previous_report(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        report = EvalReport(1.5, 1.0, 0.75, 1.0, 0.025, 10.0, 384, {"obj": {"fscores": [1.0]}})
        save_report(report, target)
        before = target.read_bytes()

        def failing_dump(obj, fh, **kwargs):
            fh.write('{"ap": 0.')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_report(report, target)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestCli:
    def test_gen_fit_predict_evaluate_round(self, tmp_path):
        data = tmp_path / "data.json"
        ckpt = tmp_path / "ckpt.json"
        pred = tmp_path / "pred.json"
        report = tmp_path / "report.json"
        config = tmp_path / "train.json"
        config.write_text(json.dumps({
            "slots": 3,
            "train_samples": 12,
            "epochs": 300,
            "step_size": 5e-3,
            "seed": 0,
            "head": {"depth": 2, "width": 16, "code_dim": 8, "activation": "finer", "omega0": 10.0},
        }))
        assert run_cli("gen", "--strokes", 2, "--waypoints", 10, "--seed", 1, "--objects", 1,
                       "--out", data) == 0
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 0
        assert run_cli("predict", "--checkpoint", ckpt, "--object", "all", "--samples", 48,
                       "--out", pred) == 0
        assert run_cli("evaluate", "--gt", data, "--pred", pred, "--delta", 0.025, "--theta", 10,
                       "--resample-t", 96, "--out", report) == 0
        body = json.loads(report.read_text())
        assert set(body) == {"ap", "ap50", "ap_easy", "delta", "pcd", "per_object", "resample_t", "theta_deg"}
        assert body["ap50"] == 1.0

    def test_evaluate_byte_identical(self, tmp_path):
        data = tmp_path / "data.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 8, "--seed", 3, "--out", data)
        records = load_dataset(data)
        for record in records:
            record.predictions = [PredictedPath(p, 0.9) for p in record.gt_paths]
        pred = tmp_path / "pred.json"
        save_dataset(records, pred)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("evaluate", "--gt", data, "--pred", pred, "--resample-t", 64, "--out", out_a) == 0
        assert run_cli("evaluate", "--gt", data, "--pred", pred, "--resample-t", 64, "--out", out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_dtw_and_resample_commands(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"poses": [[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1]]}))
        b.write_text(json.dumps({"poses": [[0, 0, 0, 0, 0, 1], [0.5, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1]]}))
        assert run_cli("dtw", "--a", a, "--b", b) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cost 0.5"
        assert out[1:] == ["0 0", "0 1", "1 2"]

        resampled = tmp_path / "re.json"
        assert run_cli("resample", "--in", a, "--t", 7, "--strategy", "equispaced",
                       "--out", resampled) == 0
        assert len(load_path_document(resampled)) == 7

    def test_resample_whole_dataset(self, tmp_path):
        data = tmp_path / "data.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 9, "--seed", 5, "--out", data)
        out = tmp_path / "re.json"
        assert run_cli("resample", "--in", data, "--t", 21, "--strategy", "equispaced", "--out", out) == 0
        for record in load_dataset(out):
            assert all(len(p) == 21 for p in record.gt_paths)

    def test_exit_code_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "r.json"
        assert run_cli("evaluate", "--gt", bad, "--pred", bad, "--out", out) == 1

    @pytest.mark.parametrize("doc,named", [
        ({"format": "pathfield.checkpoint.v1", "config": {}}, "pathfield.checkpoint.v2"),
        ({"format": "pathfield.checkpoint.v2", "config": {}}, "'parameters'"),
        ({"format": "pathfield.checkpoint.v2", "config": {"head": {"depht": 4}}}, "depht"),
        ({"format": "pathfield.checkpoint.v2", "config": {"slots": "many"}}, "malformed"),
    ], ids=["v1", "missing-key", "unknown-head-key", "wrong-type"])
    def test_malformed_checkpoint_is_validation_error(self, tmp_path, capsys, doc, named):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        assert run_cli("predict", "--checkpoint", ckpt, "--object", "all", "--out", tmp_path / "p.json") == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"slots": "many"},
        {"head": {"depth": "two"}},
        {"head": []},
    ], ids=["slots-str", "head-depth-str", "head-list"])
    def test_wrong_typed_config_is_validation_error(self, tmp_path, capsys, config):
        data = tmp_path / "data.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert run_cli("fit", "--dataset", data, "--config", config_path,
                       "--checkpoint", tmp_path / "ckpt.json") == 1
        assert "malformed train config" in capsys.readouterr().err

    def test_truncated_checkpoint_names_file(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text('{"format": "pathfield.checkpoint.v2", "config": {"slo')
        assert run_cli("predict", "--checkpoint", ckpt, "--object", "all", "--out", tmp_path / "p.json") == 1
        assert str(ckpt) in capsys.readouterr().err

    def test_exit_code_runtime_error(self, tmp_path):
        ckpt = tmp_path / "missing-dir" / "nested" / "ckpt.json"
        data = tmp_path / "data.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "slots": 2, "epochs": 1, "train_samples": 4,
            "head": {"depth": 1, "width": 4, "code_dim": 2},
        }))
        # unwritable checkpoint path surfaces as a runtime error
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 2

    def test_exit_code_success_via_subprocess(self, tmp_path):
        data = tmp_path / "data.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pathfield", "gen", "--strokes", "2", "--waypoints", "6",
             "--seed", "0", "--out", str(data)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert data.exists()

    def test_unknown_object_requested(self, tmp_path):
        data = tmp_path / "data.json"
        ckpt = tmp_path / "ckpt.json"
        config = tmp_path / "cfg.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        config.write_text(json.dumps({
            "slots": 2, "epochs": 1, "train_samples": 4,
            "head": {"depth": 1, "width": 4, "code_dim": 2},
        }))
        run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt)
        out = tmp_path / "pred.json"
        assert run_cli("predict", "--checkpoint", ckpt, "--object", "nope", "--out", out) == 1
