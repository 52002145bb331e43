import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pathfield.cli as cli_module
from pathfield.cli import main
from pathfield.dataio import (
    ObjectRecord,
    SyntheticConfig,
    ValidationError,
    dataset_from_document,
    dataset_to_document,
    gen_dataset,
    gen_raster_object,
    load_dataset,
    load_path_document,
    save_dataset,
    save_json,
    save_report,
)
from pathfield.dataio import _indented, _write_atomic
from pathfield.metrics import EvalReport
from pathfield.neural_field import HeadConfig
from pathfield.paths import Path, PredictedPath
from pathfield.trainer import TrainConfig, checkpoint_to_document, load_checkpoint

from conftest import checkout_env


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

    @pytest.mark.parametrize("field, value", [
        ("jitter_sigma", float("nan")), ("jitter_sigma", float("inf")), ("jitter_sigma", -0.1),
        ("curvature", float("nan")), ("curvature", float("inf")), ("curvature", float("-inf")),
    ])
    def test_non_finite_or_negative_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("strokes", 2.5, "an integer"), ("strokes", True, "an integer"), ("waypoints_per_stroke", "20", "an integer"),
        ("cloud_points", None, "an integer"), ("seed", 1.5, "an integer"), ("seed", -1, ">= 0"),
        ("jitter_sigma", True, "a number"), ("curvature", "0.1", "a number"),
    ])
    def test_non_number_settings_are_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"{field} must be {message}"):
            SyntheticConfig(**{field: value})

    @pytest.mark.parametrize("objects,message", [(0, "must be >= 1, not 0"), (True, "must be an integer, not True")])
    def test_object_count_is_named(self, objects, message):
        with pytest.raises(ValueError, match=f"^objects {message}$"):
            gen_dataset(SyntheticConfig(), objects)

    @pytest.mark.parametrize("flag", ["--jitter", "--curvature"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gen_rejects_non_finite_flags(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data.json"
        assert run_cli("gen", flag, value, "--out", out) == 1
        assert {"--jitter": "jitter_sigma", "--curvature": "curvature"}[flag] in capsys.readouterr().err
        assert not out.exists()

    # sha256 of the documents `pathfield gen` writes, recorded with this
    # project's numpy; a change to the generator's geometry or draws shows here
    @pytest.mark.parametrize("flags,digest", [
        ([], "3c5f8fe011afa676286a5e6ef4c1de029ecd8e3689f8ca48ae4e1cdfb65b6479"),
        (["--curvature", 0.3, "--jitter", 0.01, "--objects", 2],
         "108b58c1d3870b1f9f49e868c976fd5e2f27f6a08efa95a06a1917fd2bee0280"),
    ], ids=["default", "curved-jittered"])
    def test_gen_bytes_match_pinned_digests(self, tmp_path, flags, digest):
        out = tmp_path / "data.json"
        assert run_cli("gen", *flags, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_gen_defaults_are_the_synthetic_config_defaults(self, tmp_path):
        out, library = tmp_path / "cli.json", tmp_path / "library.json"
        assert run_cli("gen", "--out", out) == 0
        save_dataset(gen_dataset(SyntheticConfig()), library)
        assert out.read_bytes() == library.read_bytes()

    @pytest.mark.parametrize("flag,field,value", [
        ("--strokes", "strokes", 3), ("--waypoints", "waypoints_per_stroke", 7), ("--seed", "seed", 5),
        ("--jitter", "jitter_sigma", 0.01), ("--curvature", "curvature", 0.2), ("--cloud-points", "cloud_points", 32),
    ], ids=["strokes", "waypoints", "seed", "jitter", "curvature", "cloud-points"])
    def test_each_gen_flag_sets_its_own_field(self, tmp_path, monkeypatch, flag, field, value):
        configs = []
        monkeypatch.setattr(cli_module, "gen_dataset", lambda config, objects: configs.append(config) or [])
        assert run_cli("gen", flag, value, "--out", tmp_path / "data.json") == 0
        assert configs == [dataclasses.replace(SyntheticConfig(), **{field: value})]


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

    @pytest.mark.parametrize("field,edit", [
        ("gt_paths[0]", lambda entry: entry["gt_paths"][0][0].__setitem__(0, "0")),
        ("gt_paths[0]", lambda entry: entry["gt_paths"][0][1].__setitem__(5, True)),
        ("gt_paths[0]", lambda entry: entry["gt_paths"][0].__setitem__(0, None)),
        ("predictions[0].poses", lambda entry: entry["predictions"][0]["poses"][1].__setitem__(2, None)),
        ("point_cloud", lambda entry: entry["point_cloud"][0].__setitem__(0, True)),
        ("point_cloud", lambda entry: entry["point_cloud"][1].__setitem__(2, "1")),
        ("point_cloud", lambda entry: entry.__setitem__("point_cloud", [])),
        # json reads a 401-digit integer exactly, and no float holds it
        ("gt_paths[0]", lambda entry: entry["gt_paths"][0][1].__setitem__(0, 10**400)),
        ("point_cloud", lambda entry: entry["point_cloud"][1].__setitem__(2, -10**400)),
    ], ids=["pose-string", "pose-bool", "pose-null-row", "prediction-null", "cloud-bool", "cloud-string",
            "cloud-empty", "pose-huge-int", "cloud-huge-int"])
    def test_non_number_row_entry_is_named(self, tmp_path, capsys, field, edit):
        pose_rows = [[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1.0]]
        entry = {"object_id": "obj", "gt_paths": [pose_rows], "point_cloud": [[0, 0, 0], [1, 0.5, 0]],
                 "predictions": [{"confidence": 0.5, "poses": pose_rows}]}
        entry = json.loads(json.dumps(entry))
        assert dataset_from_document({"objects": [entry]})[0].point_cloud.tolist() == [[0, 0, 0], [1, 0.5, 0]]
        edit(entry)
        with pytest.raises(ValidationError, match=re.escape(f"'obj': {field}: every row")):
            dataset_from_document({"objects": [entry]})
        target = tmp_path / "data.json"
        target.write_text(json.dumps({"objects": [entry]}))
        assert run_cli("evaluate", "--gt", target, "--pred", target, "--out", tmp_path / "r.json") == 1
        assert f"'obj': {field}: every row needs exactly" in capsys.readouterr().err

    @pytest.mark.parametrize("confidence", [True, False])
    def test_boolean_confidence_rejected(self, tmp_path, capsys, confidence):
        pose_rows = [[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1]]
        pred = {"object_id": "obj", "gt_paths": [pose_rows],
                "predictions": [{"confidence": confidence, "poses": pose_rows}]}
        message = rf"'obj': predictions\[0\]\.confidence must be a number, not {confidence}$"
        with pytest.raises(ValidationError, match=message):
            dataset_from_document({"objects": [pred]})
        gt, target = tmp_path / "gt.json", tmp_path / "pred.json"
        gt.write_text(json.dumps({"objects": [{"object_id": "obj", "gt_paths": [pose_rows]}]}))
        target.write_text(json.dumps({"objects": [pred]}))
        assert run_cli("evaluate", "--gt", gt, "--pred", target, "--out", tmp_path / "r.json") == 1
        assert "predictions[0].confidence" in capsys.readouterr().err

    def test_utf8_document_loads_in_an_ascii_locale(self, tmp_path):
        pose_rows = [[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1]]
        source = tmp_path / "u.json"
        source.write_bytes(json.dumps({"objects": [{"object_id": "café", "gt_paths": [pose_rows]}]},
                                      ensure_ascii=False).encode("utf-8"))
        out = tmp_path / "o.json"
        env = checkout_env(PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "pathfield", "resample", "--in", str(source), "--t", "4", "--out", str(out)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert [r.object_id for r in load_dataset(out)] == ["café"]

    def test_non_utf8_document_is_validation_error(self, tmp_path, capsys):
        target = tmp_path / "latin1.json"
        target.write_bytes('{"objects": [{"object_id": "café", "gt_paths": []}]}'.encode("latin-1"))
        with pytest.raises(ValidationError, match="latin1.json: not UTF-8"):
            load_dataset(target)
        assert run_cli("resample", "--in", target, "--t", 4, "--out", tmp_path / "o.json") == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_duplicate_ids_rejected(self, tmp_path):
        entry = {"object_id": "dup", "gt_paths": []}
        target = tmp_path / "dup.json"
        target.write_text(json.dumps({"objects": [entry, entry]}))
        with pytest.raises(ValidationError, match="dup"):
            load_dataset(target)

    @pytest.mark.parametrize("field", ["gt_paths", "predictions"])
    def test_non_list_field_is_validation_error(self, tmp_path, capsys, field):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({"objects": [{"object_id": "obj", field: 5}]}))
        with pytest.raises(ValidationError, match=f"'obj': {field} must be a list"):
            load_dataset(target)
        assert run_cli("resample", "--in", target, "--t", 4, "--out", tmp_path / "re.json") == 1
        assert field in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text('{"objects": [\n  {"object_id": }\n]}')
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset(target)

    @staticmethod
    def fail_fsync(monkeypatch):
        # the atomic writer has written every byte to its temp file when fsync fails
        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)

    def test_failed_report_save_keeps_previous_report(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        report = EvalReport(1.5, 1.0, 0.75, 1.0, 0.025, 10.0, 384, {"obj": {"fscores": [1.0]}})
        save_report(report, target)
        before = target.read_bytes()
        self.fail_fsync(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save_report(report, target)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_dataset_save_keeps_previous_dataset(self, tmp_path, monkeypatch):
        target = tmp_path / "data.json"
        save_dataset(gen_dataset(SyntheticConfig(strokes=2, waypoints_per_stroke=5, seed=4)), target)
        before = target.read_bytes()
        self.fail_fsync(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(gen_dataset(SyntheticConfig(strokes=3, waypoints_per_stroke=5, seed=5)), target)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]


_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 10**20, -(10**30), 5e-324]),
    st.floats(), st.integers(-(10**20), 10**20),
)
_NOT_NUMBERS = st.one_of(st.booleans(), st.none(), st.floats(allow_nan=False).map(np.float64))
_TEXT = st.text(st.sampled_from('az"\\/\n\t\x00\x7féü€😀'), max_size=5)
# Equal-length number rows are one str.format each; ragged rows and rows holding a bool, null or an
# np.float64 are walked.
_ROW_LISTS = st.one_of(
    st.integers(0, 4).flatmap(lambda n: st.lists(st.lists(_NUMBERS, min_size=n, max_size=n), max_size=5)),
    st.lists(st.lists(st.one_of(_NUMBERS, _NOT_NUMBERS), max_size=3), max_size=4),
)
_DOCUMENTS = st.recursive(
    st.one_of(_NUMBERS, _NOT_NUMBERS, _TEXT, _ROW_LISTS, st.lists(_NUMBERS, max_size=4), st.tuples(_NUMBERS, _TEXT)),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(_TEXT, children, max_size=3),
        st.dictionaries(st.integers(-3, 3), children, max_size=2),
    ),
    max_leaves=12,
)


class TestIndentedWriter:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_DOCUMENTS, indent=st.sampled_from([1, 2]))
    def test_bytes_equal_json(self, tmp_path, doc, indent):
        target = tmp_path / "doc.json"
        save_json(doc, target, indent=indent)
        assert target.read_bytes() == (json.JSONEncoder(sort_keys=True, indent=indent).encode(doc) + "\n").encode()

    def test_nested_rows_and_non_finite_numbers(self):
        doc = {"b": [[1, 2.5], [-0.0, 1e16]], "a": [[[1.0], [2.0]], [[math.nan], [math.inf]]], "c": [[], []]}
        for indent in (0, 1, 2):
            assert "".join(_indented(doc, " " * indent)) == json.dumps(doc, sort_keys=True, indent=indent)

    def test_failure_in_a_late_row_keeps_previous_file(self, tmp_path):
        target = tmp_path / "doc.json"
        save_json({"rows": [[0.5, 1.0]]}, target)
        before = target.read_bytes()
        doc = {"a": [[float(k), 1.0] for k in range(500)], "b": [[1.0, 2.0], [3.0, object()]]}
        chunks = _indented(doc, " ")
        assert next(chunks).startswith("{")  # the writer yields before it reaches the bad row
        with pytest.raises(TypeError, match="not JSON serializable"):
            list(chunks)
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_json(doc, target)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_non_ascii_text_fails_instead_of_taking_the_locale_encoding(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_bytes(b"{}\n")
        with pytest.raises(UnicodeEncodeError):
            _write_atomic(target, ['{"id": "', "caf\u00e9", '"}'])
        assert target.read_bytes() == b"{}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


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

    def test_dtw_output_is_byte_identical(self, tmp_path, capsys):
        # the warp takes all three steps: first-sequence, diagonal and second-sequence
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"poses": [
            [0.0, 0.0, 0.0, 0, 0, 1], [0.1, 0.02, 0.0, 0, 0, 1], [0.2, 0.07, 0.01, 0, 0, 1],
            [0.3, 0.05, 0.0, 0, 0, 1], [0.45, 0.0, -0.02, 0, 0, 1], [0.6, -0.03, 0.0, 0, 0, 1],
        ]}))
        b.write_text(json.dumps({"poses": [
            [0.01, 0.01, 0.0, 0, 1, 0], [0.22, 0.05, 0.0, 0, 1, 0], [0.27, 0.06, 0.01, 0, 1, 0],
            [0.29, 0.055, 0.01, 0, 1, 0], [0.31, 0.04, 0.0, 0, 1, 0], [0.33, 0.02, 0.0, 0, 1, 0],
            [0.61, -0.02, 0.01, 0, 1, 0],
        ]}))
        assert run_cli("dtw", "--a", a, "--b", b) == 0
        assert capsys.readouterr().out == (
            "cost 0.3376131586674584\n"
            "0 0\n1 0\n2 1\n3 2\n3 3\n3 4\n4 5\n5 6\n"
        )

    def test_resample_whole_dataset(self, tmp_path):
        data = tmp_path / "data.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 9, "--seed", 5, "--out", data)
        out = tmp_path / "re.json"
        assert run_cli("resample", "--in", data, "--t", 21, "--strategy", "equispaced", "--out", out) == 0
        for record in load_dataset(out):
            assert all(len(p) == 21 for p in record.gt_paths)

    @pytest.mark.parametrize("document", ["path", "dataset"])
    def test_resample_parses_its_input_once(self, tmp_path, monkeypatch, document):
        source = tmp_path / "in.json"
        if document == "path":
            source.write_text(json.dumps({"poses": [[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1]]}))
        else:
            run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", source)
        parsed = []
        real_load = json.load
        monkeypatch.setattr(json, "load", lambda fh, **kw: parsed.append(fh.name) or real_load(fh, **kw))
        assert run_cli("resample", "--in", source, "--t", 5, "--out", tmp_path / "out.json") == 0
        assert parsed == [str(source)]

    def test_exit_code_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "r.json"
        assert run_cli("evaluate", "--gt", bad, "--pred", bad, "--out", out) == 1

    @pytest.mark.parametrize("doc,named", [
        ({"format": "pathfield.checkpoint.v1", "config": {}}, "pathfield.checkpoint.v2"),
        ({"format": "pathfield.checkpoint.v2", "config": {}}, "'parameters'"),
        ({"format": "pathfield.checkpoint.v2", "config": {"head": {"depht": 4}}}, "depht"),
        ({"format": "pathfield.checkpoint.v2", "config": {"slots": "many"}}, "slots must be an integer, not 'many'"),
    ], ids=["v1", "missing-key", "unknown-head-key", "wrong-type"])
    def test_malformed_checkpoint_is_validation_error(self, tmp_path, capsys, doc, named):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        assert run_cli("predict", "--checkpoint", ckpt, "--object", "all", "--out", tmp_path / "p.json") == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("config,named", [
        ({"slots": "many"}, "slots must be an integer, not 'many'"),
        ({"head": {"depth": "two"}}, "depth must be an integer, not 'two'"),
        ({"head": []}, "head config must be a JSON object, not list"),
        ({"head": None}, "head config must be a JSON object, not NoneType"),
        ({"head": 5}, "head config must be a JSON object, not int"),
        ({"head": "abc"}, "head config must be a JSON object, not str"),
        ([], "train config must be a JSON object, not list"),
    ], ids=["slots-str", "head-depth-str", "head-list", "head-null", "head-number", "head-string", "config-list"])
    def test_wrong_typed_config_is_validation_error(self, tmp_path, capsys, config, named):
        data = tmp_path / "data.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert run_cli("fit", "--dataset", data, "--config", config_path,
                       "--checkpoint", tmp_path / "ckpt.json") == 1
        assert named in capsys.readouterr().err

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
            env=checkout_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert data.exists()

    def test_predict_defaults_to_checkpoint_test_samples(self, tmp_path):
        data = tmp_path / "data.json"
        ckpt = tmp_path / "ckpt.json"
        config = tmp_path / "cfg.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        config.write_text(json.dumps({
            "slots": 2, "epochs": 1, "train_samples": 4, "test_samples": 16,
            "head": {"depth": 1, "width": 4, "code_dim": 2},
        }))
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 0
        out = tmp_path / "pred.json"
        assert run_cli("predict", "--checkpoint", ckpt, "--object", "all", "--threshold", 0.0,
                       "--out", out) == 0
        (record,) = load_dataset(out)
        assert [len(p.path) for p in record.predictions] == [16, 16]

    @pytest.mark.parametrize("field", ["train_samples", "test_samples"])
    def test_config_sample_count_below_two_is_validation_error(self, tmp_path, capsys, field):
        data = tmp_path / "data.json"
        ckpt = tmp_path / "ckpt.json"
        config = tmp_path / "cfg.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        config.write_text(json.dumps({
            "slots": 2, "epochs": 1, "train_samples": 4, "test_samples": 16, field: 1,
            "head": {"depth": 1, "width": 4, "code_dim": 2},
        }))
        capsys.readouterr()
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 1
        assert "must be >= 2" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_checkpoint_test_samples_below_two_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        ckpt = tmp_path / "ckpt.json"
        config = tmp_path / "cfg.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        config.write_text(json.dumps({
            "slots": 2, "epochs": 1, "train_samples": 4,
            "head": {"depth": 1, "width": 4, "code_dim": 2},
        }))
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 0
        doc = json.loads(ckpt.read_text())
        doc["config"]["test_samples"] = 1
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("predict", "--checkpoint", ckpt, "--object", "all", "--out", tmp_path / "p.json") == 1
        assert "test_samples must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [("predict", "--samples"), ("resample", "--t"),
                                              ("evaluate", "--resample-t")], ids=["predict", "resample", "evaluate"])
    def test_requested_sample_count_below_two_is_validation_error(self, tmp_path, capsys, command, flag):
        data = tmp_path / "data.json"
        ckpt = tmp_path / "ckpt.json"
        config = tmp_path / "cfg.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        config.write_text(json.dumps({
            "slots": 2, "epochs": 1, "train_samples": 4,
            "head": {"depth": 1, "width": 4, "code_dim": 2},
        }))
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 0
        out = tmp_path / "out.json"
        argv = {
            "predict": ["predict", "--checkpoint", ckpt, "--object", "all", "--samples", 1],
            "resample": ["resample", "--in", data, "--t", 1],
            "evaluate": ["evaluate", "--gt", data, "--pred", data, "--resample-t", 1],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 1
        assert f"error: {flag} must be >= 2, not 1\n" == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,count", [("predict", "--samples", 2**60), ("resample", "--t", 2**62),
                                                    ("evaluate", "--resample-t", 2**62)],
                             ids=["predict", "resample", "evaluate"])
    def test_requested_sample_count_past_the_float64_limit_is_validation_error(self, tmp_path, capsys, command,
                                                                                 flag, count):
        # numpy can size at most intp's maximum in bytes, so 2**60 float64 values are already too many
        data, config, _ = self.small_fit_files(tmp_path, epochs=1)
        ckpt, out = tmp_path / "ckpt.json", tmp_path / "out.json"
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 0
        argv = {
            "predict": ["predict", "--checkpoint", ckpt, "--object", "all", "--samples", count],
            "resample": ["resample", "--in", data, "--t", count],
            "evaluate": ["evaluate", "--gt", data, "--pred", data, "--resample-t", count],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {flag} must be <= {np.iinfo(np.intp).max // 8}, not {count}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["sampling", "lr_schedule", "head.activation", "head.conditioning", "strategy"])
    def test_unknown_choice_is_validation_error_naming_the_field(self, tmp_path, capsys, field):
        data, config, doc = self.small_fit_files(tmp_path)
        out = tmp_path / "out.json"
        name = field.removeprefix("head.")
        if field == "strategy":
            argv = ["resample", "--in", data, "--t", 4, "--strategy", "bogus", "--out", out]
        else:
            override = {"head": doc["head"] | {name: "bogus"}} if field.startswith("head.") else {field: "bogus"}
            config.write_text(json.dumps(doc | override))
            argv = ["fit", "--dataset", data, "--config", config, "--checkpoint", out]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert re.fullmatch(f"error: {name} must be one of [a-z, -]+, not 'bogus'\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--delta", -3, "--theta", 999, "--resample-t", -7], "--resample-t must be >= 0, not -7"),
        (["--delta", -3], "delta must lie in (0, inf), not -3.0"),
        (["--delta", "nan"], "delta must lie in (0, inf), not nan"),
        (["--delta", "inf"], "delta must lie in (0, inf), not inf"),
        (["--theta", 999], "theta must lie"),
        (["--resample-t", -7], "--resample-t must be >= 0, not -7"),
    ], ids=["all", "delta", "delta-nan", "delta-inf", "theta", "resample-t"])
    def test_evaluate_rejects_bad_arguments_without_predictions(self, tmp_path, capsys, flags, message):
        # the dataset has no predictions, so no pair is scored
        data = tmp_path / "data.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert run_cli("evaluate", "--gt", data, "--pred", data, *flags, "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def small_fit_files(tmp_path, **overrides):
        """A dataset and a small train config document, written to files."""
        data, config = tmp_path / "data.json", tmp_path / "cfg.json"
        run_cli("gen", "--strokes", 2, "--waypoints", 6, "--seed", 0, "--out", data)
        doc = {"slots": 2, "epochs": 30, "train_samples": 4, "head": {"depth": 1, "width": 4, "code_dim": 2}}
        config.write_text(json.dumps(doc | overrides))
        return data, config, doc

    def test_resume_with_config_extends_epochs(self, tmp_path):
        data, config, doc = self.small_fit_files(tmp_path)
        straight, resumed = tmp_path / "straight.json", tmp_path / "resumed.json"
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", straight) == 0
        short = tmp_path / "short.json"
        short.write_text(json.dumps(doc | {"epochs": 15}))
        assert run_cli("fit", "--dataset", data, "--config", short, "--checkpoint", resumed) == 0
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", resumed, "--resume") == 0
        assert resumed.read_bytes() == straight.read_bytes()

    @pytest.mark.parametrize("change", [{"slots": 3}, {"head": {"depth": 1, "width": 5, "code_dim": 2}}],
                             ids=["slots", "head"])
    def test_resume_with_config_of_other_shapes_keeps_checkpoint(self, tmp_path, capsys, change):
        data, config, doc = self.small_fit_files(tmp_path, epochs=2)
        ckpt = tmp_path / "ckpt.json"
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 0
        before = ckpt.read_bytes()
        config.write_text(json.dumps(doc | change))
        capsys.readouterr()
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt, "--resume") == 1
        assert f"config {next(iter(change))} differs" in capsys.readouterr().err
        assert ckpt.read_bytes() == before

    def test_resume_over_capacity_names_the_object(self, tmp_path, capsys):
        data, config, doc = self.small_fit_files(tmp_path, epochs=2)
        ckpt = tmp_path / "ckpt.json"
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 0
        before = ckpt.read_bytes()
        run_cli("gen", "--strokes", 3, "--waypoints", 6, "--seed", 0, "--out", data)
        config.write_text(json.dumps(doc | {"epochs": 4}))
        capsys.readouterr()
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt, "--resume") == 1
        assert "object 'object-000' has 3 paths, more than the 2 prediction slots" in capsys.readouterr().err
        assert ckpt.read_bytes() == before

    @pytest.mark.parametrize("command", ["evaluate", "fit"])
    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path, capsys, command):
        data, config, doc = self.small_fit_files(tmp_path)
        huge = "9" * 5000  # past Python's 4,300-digit limit on integer parsing
        if command == "evaluate":
            target = tmp_path / "gt.json"
            target.write_text('{"objects": [{"object_id": "obj", "gt_paths": [[[%s, 0, 0, 0, 0, 1]]]}]}' % huge)
            argv = ["evaluate", "--gt", target, "--pred", data, "--out", tmp_path / "report.json"]
        else:
            target = config
            target.write_text(json.dumps(doc)[:-1] + ', "seed": %s}' % huge)
            argv = ["fit", "--dataset", data, "--config", target, "--checkpoint", tmp_path / "ckpt.json"]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {target}: Exceeds the limit (4300 digits)")

    def test_fit_without_config_or_resume_is_validation_error(self, tmp_path, capsys):
        data, _, _ = self.small_fit_files(tmp_path)
        capsys.readouterr()
        assert run_cli("fit", "--dataset", data, "--checkpoint", tmp_path / "ckpt.json") == 1
        assert capsys.readouterr().err == "error: fit needs --config (or --resume)\n"

    def test_resume_without_config_keeps_the_checkpoint_config(self, tmp_path):
        data, config, _ = self.small_fit_files(tmp_path, epochs=2)
        ckpt = tmp_path / "ckpt.json"
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 0
        before = ckpt.read_bytes()
        assert run_cli("fit", "--dataset", data, "--checkpoint", ckpt, "--resume") == 0
        assert ckpt.read_bytes() == before

    @pytest.mark.parametrize("field,value", [
        ("adam_beta1", 1.0), ("adam_beta2", 1.0), ("adam_eps", 0), ("lr_min", -1),
        ("codeword_sigma", -0.01), ("conf_threshold", 2), ("sampling_noise", -0.1),
        ("test_samples", 10**30), ("slots", 10**30), ("train_samples", 10**30),
        ("test_samples", 2**62), ("train_samples", 2**62),
    ])
    def test_out_of_range_config_field_is_validation_error(self, tmp_path, capsys, field, value):
        data, config, _ = self.small_fit_files(tmp_path, **{field: value})
        ckpt = tmp_path / "ckpt.json"
        capsys.readouterr()
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 1
        assert field in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("field,literal", [
        ("adam_eps", "Infinity"), ("lr_min", "Infinity"), ("omega0", "1e400"), ("gamma", "Infinity"),
        ("step_size", "Infinity"), ("codeword_sigma", "-Infinity"), ("adam_beta2", "NaN"), ("lr_min", "1" + "0" * 400),
    ], ids=lambda item: item if len(item) < 20 else "10**400")
    def test_non_finite_config_number_is_validation_error(self, tmp_path, capsys, field, literal):
        # json reads Infinity, NaN and an overflowing 1e400 as floats, which no config real takes, and
        # 10**400 as an int, which no float holds
        head = {"depth": 1, "width": 4, "code_dim": 2}
        override = {"head": head | {field: "?"}} if field == "omega0" else {field: "?"}
        data, config, _ = self.small_fit_files(tmp_path, **override)
        config.write_text(config.read_text().replace('"?"', literal))
        ckpt = tmp_path / "ckpt.json"
        capsys.readouterr()
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 1
        assert f"{field} must lie in" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("override,field", [
        ({"epochs": 1.5}, "epochs"), ({"slots": True}, "slots"), ({"slots": 8.5}, "slots"),
        ({"seed": 1.5}, "seed"), ({"head": {"depth": 1, "width": 4.5, "code_dim": 2}}, "width"),
    ], ids=["epochs-1.5", "slots-true", "slots-8.5", "seed-1.5", "head-width-4.5"])
    def test_non_integer_count_is_validation_error(self, tmp_path, capsys, override, field):
        data, config, _ = self.small_fit_files(tmp_path, **override)
        ckpt = tmp_path / "ckpt.json"
        capsys.readouterr()
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 1
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("override,message", [
        ({"slots": "4"}, "slots must be an integer, not '4'"),
        ({"epochs": None}, "epochs must be an integer, not None"),
        ({"step_size": True}, "step_size must be a number, not True"), ({"gamma": True}, "gamma must be a number"),
        ({"codeword_sigma": False}, "codeword_sigma must be a number"), ({"lr_min": "0"}, "lr_min must be a number"),
        ({"sampling_noise": "0.1"}, "sampling_noise must be a number"),
        ({"head": {"depth": 1, "width": 4, "code_dim": 2, "omega0": "30"}}, "omega0 must be a number, not '30'"),
        # "false" is a truthy string: read for its truth, it would draw biases
        ({"head": {"depth": 1, "width": 4, "code_dim": 2, "use_bias": "false"}}, "use_bias must be true or false"),
    ], ids=["slots-str", "epochs-null", "step-size-true", "gamma-true", "sigma-false", "lr-min-str", "noise-str",
            "head-omega0-str", "head-use-bias-str"])
    def test_non_number_config_field_is_validation_error(self, tmp_path, capsys, override, message):
        data, config, _ = self.small_fit_files(tmp_path, **override)
        ckpt = tmp_path / "ckpt.json"
        capsys.readouterr()
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 1
        assert message in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(epoch=1.7), "epoch must be an integer"),
        (lambda doc: doc.update(epoch="1"), "epoch must be an integer, not '1'"),
        (lambda doc: doc["moments"]["codewords.object-000"].update(step=-3), "codewords.object-000.step must be >= 0"),
        (lambda doc: doc["loss_history"][0].pop(), "loss_history[0] must hold three finite numbers"),
        (lambda doc: doc["loss_history"][1].__setitem__(2, 10**400),
         "loss_history[1][2] must lie in (-inf, inf), not 1000"),
        (lambda doc: doc.update(epoch=10**30), f"epoch must be <= {np.iinfo(np.intp).max}, not {10**30}"),
        (lambda doc: doc["moments"]["head.out_b"].update(step=7), "'head.out_b' are missing or off the head's step 2"),
        (lambda doc: doc["config"]["head"].update(use_bias="false"), "use_bias must be true or false, not 'false'"),
        (lambda doc: doc["moments"].update({"head.out_w": 3}), "moments['head.out_w'] must be a JSON object, not int"),
        (lambda doc: doc.update(moments=[]), "moments must be a JSON object, not list"),
        (lambda doc: doc.update(parameters=[]), "parameters must be a JSON object, not list"),
        (lambda doc: doc.update(loss_history=3), "loss_history must be a list of rows, not int"),
        (lambda doc: doc["moments"]["head.out_w"].pop("step"), "head.out_w.step must be an integer, not None"),
        (lambda doc: doc["moments"]["head.out_w"].pop("m"), "checkpoint is missing array 'head.out_w.m'"),
        (lambda doc: doc["parameters"].update({"codewords.": doc["parameters"]["codewords.object-000"]}),
         "checkpoint array 'codewords.' names an empty object id"),
    ], ids=["epoch-1.7", "epoch-str", "step-negative", "row-of-two", "row-huge-int", "epoch-huge", "head-steps-differ",
            "use-bias-str", "moment-int", "moments-list", "parameters-list", "history-int", "step-missing", "m-missing",
            "empty-object-id"])
    def test_edited_checkpoint_is_validation_error(self, tmp_path, capsys, edit, message):
        data, config, _ = self.small_fit_files(tmp_path, epochs=2)
        ckpt = tmp_path / "ckpt.json"
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 0
        doc = json.loads(ckpt.read_text())
        edit(doc)
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("predict", "--checkpoint", ckpt, "--object", "all", "--out", tmp_path / "p.json") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_bad_finer_bias_scale_is_validation_error(self, tmp_path, capsys, value):
        head = {"depth": 1, "width": 4, "code_dim": 2, "activation": "finer", "finer_bias_scale": value}
        data, config, _ = self.small_fit_files(tmp_path, head=head)
        ckpt = tmp_path / "ckpt.json"
        capsys.readouterr()
        assert run_cli("fit", "--dataset", data, "--config", config, "--checkpoint", ckpt) == 1
        assert "finer_bias_scale" in capsys.readouterr().err
        assert not ckpt.exists()

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


# One leaf's replacement: another JSON type, a number that no float holds, or no value at all.
_DROP = "<dropped>"
_OTHER_TYPES = [0, 3, 0.5, True, "0.5", None, [1.0], {"x": 1}]


def _has_leaf(doc) -> bool:
    return not isinstance(doc, (dict, list)) or any(map(_has_leaf, doc.values() if isinstance(doc, dict) else doc))


def _leaf_paths(doc):
    """The key path to one scalar of a parsed JSON document, drawn key by key from the root, so
    that a short list of fields (a checkpoint's loss_history) is drawn as often as a long one."""
    if not isinstance(doc, (dict, list)):
        return st.just(())
    keys = [key for key in (doc if isinstance(doc, dict) else range(len(doc))) if _has_leaf(doc[key])]
    return st.sampled_from(keys).flatmap(lambda key: _leaf_paths(doc[key]).map(lambda path: (key, *path)))


def _node_path(data, doc) -> tuple:
    """A scalar's key path, or on half the draws that path cut to a proper prefix: an object or
    list that holds the scalar. The scalars keep the depth spread of _leaf_paths."""
    path = data.draw(_leaf_paths(doc), label="leaf")
    if len(path) > 1 and data.draw(st.booleans(), label="container"):
        path = path[:data.draw(st.integers(1, len(path) - 1), label="depth")]
    return path


def _config_with_defaults(doc: dict) -> dict:
    defaults = TrainConfig().to_document()
    return defaults | doc | {"head": defaults["head"] | doc.get("head", {})}


def _dataset_as_loaded(tmp, target) -> dict:
    return dataset_to_document(load_dataset(target))


def _dataset_as_written(doc: dict) -> dict:
    """The writer's form of a loaded document: gt_paths always, predictions only when there are some."""
    return {"objects": [{"gt_paths": []} | {key: value for key, value in entry.items()
                                            if key != "predictions" or value != []}
                        for entry in doc["objects"]]}


class TestOneChangedLeaf:
    """Every document the CLI reads either loads exactly as written or stops the command with exit 1
    and a message that names the changed field; it never exits 2 and never loads a coerced value."""

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        """Per kind: the valid document, the argv that reads it from {doc} (other files under {base}), the
        values it loads to once the command exits 0, and the values the document writes down."""
        base = tmp_path_factory.mktemp("documents")
        records = gen_dataset(SyntheticConfig(strokes=2, waypoints_per_stroke=3, cloud_points=3), objects=2)
        gt = dataset_to_document(records)
        pred = dataset_to_document(
            [ObjectRecord(r.object_id, [], None, [PredictedPath(r.gt_paths[1], 0.75)]) for r in records])
        config = TrainConfig(slots=2, epochs=2, train_samples=4, test_samples=4,
                             head=HeadConfig(depth=1, width=4, code_dim=2)).to_document()
        for name, doc in (("gt", gt), ("pred", pred), ("config", config)):
            (base / f"{name}.json").write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()):
            assert main(["fit", "--dataset", f"{base}/gt.json", "--config", f"{base}/config.json",
                         "--checkpoint", f"{base}/ckpt.json"]) == 0
        checkpoint = json.loads((base / "ckpt.json").read_text())
        # a resumed fit at epoch 200 trains no further for any epochs a changed config gives (200 if dropped)
        (base / "resume.json").write_text(json.dumps(checkpoint | {"epoch": 200}))
        evaluate = ["evaluate", "--resample-t", 0, "--out", "{tmp}/report.json"]
        return {
            "config": (config, ["fit", "--dataset", "{base}/gt.json", "--config", "{doc}", "--checkpoint",
                                "{tmp}/resume.json", "--resume"],
                       lambda tmp, target: load_checkpoint(f"{tmp}/resume.json").config.to_document(),
                       _config_with_defaults),
            "dataset": (gt, evaluate + ["--gt", "{doc}", "--pred", "{base}/pred.json"],
                        _dataset_as_loaded, _dataset_as_written),
            "predictions": (pred, evaluate + ["--gt", "{base}/gt.json", "--pred", "{doc}"],
                            _dataset_as_loaded, _dataset_as_written),
            "checkpoint": (checkpoint, ["predict", "--checkpoint", "{doc}", "--object", "all", "--out",
                                        "{tmp}/p.json"],
                           lambda tmp, target: checkpoint_to_document(load_checkpoint(target)),
                           lambda doc: doc | {"config": _config_with_defaults(doc["config"])}),
        }, base

    @pytest.mark.parametrize("kind", ["config", "dataset", "predictions", "checkpoint"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exits_1_naming_the_field_or_loads_as_written(self, documents, kind, data):
        kinds, base = documents
        valid, argv, loaded, written = kinds[kind]
        path = _node_path(data, valid)
        doc = copy.deepcopy(valid)
        *parents, last = path
        holder = reduce(getitem, parents, doc)
        value = data.draw(st.one_of(
            st.sampled_from([v for v in _OTHER_TYPES if type(v) is not type(holder[last])]),
            st.sampled_from([math.inf, -math.inf, math.nan]), st.just(10**400), st.just(_DROP)), label="value")
        if value is _DROP:
            del holder[last]
        else:
            holder[last] = value
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()) as err:
            target = f"{tmp}/doc.json"
            with open(target, "w") as fh:
                json.dump(doc, fh)
            shutil.copy(base / "resume.json", tmp)  # the resumed fit saves over its copy
            code = main([str(a).format(base=base, tmp=tmp, doc=target) for a in argv])
            if code == 0:
                assert loaded(tmp, target) == written(doc)
        assert code in (0, 1), err.getvalue()
        if code == 1:
            # the message names a key on the node's path; every dataset node below objects[i] shares "objects"
            names = {key for key in path if isinstance(key, str)} - ({"objects"} if len(path) > 2 else set())
            assert any(name in err.getvalue() for name in names), (path, value, err.getvalue())
