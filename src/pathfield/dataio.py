"""Dataset, prediction, and report documents plus a synthetic generator.

A dataset is one JSON document: {"objects": [...]}, each object carrying
"object_id", an optional "point_cloud" (rows of 3 numbers), "gt_paths"
(list of paths, each a list of 6-number pose rows: x y z vx vy vz) and
optional "predictions" ([{"confidence": c, "poses": [...]}]). A bare
path document is {"poses": [...]}. All floats round-trip exactly.

The generator lays serpentine strokes over a planar face: parallel
straight (or gently arched) strokes with alternating direction, constant
face-normal orientation, and a uniformly sampled face point cloud. The
whole scene is normalized to centroid zero and unit max radius.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .metrics import EvalReport
from .paths import Path, PredictedPath, normalize_scene

__all__ = [
    "ValidationError",
    "ObjectRecord",
    "SyntheticConfig",
    "gen_raster_object",
    "gen_dataset",
    "load_dataset",
    "save_dataset",
    "dataset_to_document",
    "dataset_from_document",
    "load_path_document",
    "save_path_document",
    "save_report",
    "load_json",
    "save_json",
]


class ValidationError(ValueError):
    """A document failed parsing or an invariant check."""


@dataclass
class ObjectRecord:
    """One object: its id, ground-truth paths, and optional extras."""

    object_id: str
    gt_paths: list[Path]
    point_cloud: np.ndarray | None = None
    predictions: list[PredictedPath] = field(default_factory=list)


@dataclass(frozen=True)
class SyntheticConfig:
    """Raster-pattern generator settings.

    stroke_spacing None spreads the strokes evenly over the face height.
    curvature arches each stroke out of the face plane (0 keeps them
    straight); jitter_sigma adds Gaussian positional noise.
    """

    strokes: int = 4
    waypoints_per_stroke: int = 20
    face_extent: tuple[float, float] = (2.0, 1.2)
    stroke_spacing: float | None = None
    face_normal: tuple[float, float, float] = (0.0, 0.0, 1.0)
    jitter_sigma: float = 0.0
    curvature: float = 0.0
    cloud_points: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strokes < 1:
            raise ValueError("strokes must be >= 1")
        if self.waypoints_per_stroke < 2:
            raise ValueError("waypoints_per_stroke must be >= 2")
        if min(self.face_extent) <= 0:
            raise ValueError("face extents must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        if self.cloud_points < 1:
            raise ValueError("cloud_points must be >= 1")


def gen_raster_object(config: SyntheticConfig, object_id: str = "object-000") -> ObjectRecord:
    """Deterministic serpentine-coverage object in normalized space."""
    rng = np.random.default_rng(config.seed)
    extent_x, extent_y = config.face_extent
    spacing = config.stroke_spacing
    if spacing is None:
        spacing = extent_y / (config.strokes - 1) if config.strokes > 1 else 0.0
    normal = np.asarray(config.face_normal, dtype=float)
    norm = float(np.linalg.norm(normal))
    if norm < 1e-12:
        raise ValueError("face_normal must be nonzero")
    normal = normal / norm

    span = spacing * (config.strokes - 1)
    along = np.linspace(0.0, 1.0, config.waypoints_per_stroke)
    paths = []
    for stroke in range(config.strokes):
        y = -span / 2.0 + stroke * spacing
        xs = -extent_x / 2.0 + along * extent_x
        if stroke % 2 == 1:
            xs = xs[::-1]
        zs = config.curvature * np.sin(np.pi * along)
        positions = np.column_stack([xs, np.full_like(xs, y), zs])
        if config.jitter_sigma > 0:
            positions = positions + rng.normal(0.0, config.jitter_sigma, positions.shape)
        orientations = np.tile(normal, (config.waypoints_per_stroke, 1))
        paths.append(Path(np.concatenate([positions, orientations], axis=1)))

    face = rng.uniform(-0.5, 0.5, (config.cloud_points, 2)) * np.array([extent_x, extent_y])
    cloud = np.column_stack([face, np.zeros(config.cloud_points)])
    cloud, paths, _ = normalize_scene(cloud, paths)
    return ObjectRecord(object_id, paths, cloud, [])


def gen_dataset(config: SyntheticConfig, objects: int = 1) -> list[ObjectRecord]:
    """Several raster objects; object i draws from sub-seed (seed, i)."""
    if objects < 1:
        raise ValueError("objects must be >= 1")
    records = []
    for index in range(objects):
        sub_seed = int(np.random.SeedSequence([config.seed, index]).generate_state(1)[0])
        records.append(gen_raster_object(replace(config, seed=sub_seed), f"object-{index:03d}"))
    return records


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_json(doc, path, indent: int | None = 1, separators: tuple[str, str] | None = None) -> None:
    """Write `doc` (keys sorted) to a temp file beside `path`, fsync it, then os.replace it over `path`."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=indent, separators=separators)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _path_from_rows(rows, object_id: str, where: str) -> Path:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"object {object_id!r}: {where}: malformed pose rows ({exc})") from exc
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise ValidationError(f"object {object_id!r}: {where}: every pose row needs exactly 6 numbers")
    try:
        return Path(arr)
    except ValueError as exc:
        raise ValidationError(f"object {object_id!r}: {where}: {exc}") from exc


def dataset_from_document(doc) -> list[ObjectRecord]:
    if not isinstance(doc, dict) or not isinstance(doc.get("objects"), list):
        raise ValidationError("dataset document must be an object with an 'objects' list")
    records: list[ObjectRecord] = []
    seen: set[str] = set()
    for index, entry in enumerate(doc["objects"]):
        if not isinstance(entry, dict):
            raise ValidationError(f"objects[{index}] is not an object")
        object_id = entry.get("object_id")
        if not isinstance(object_id, str) or not object_id:
            raise ValidationError(f"objects[{index}]: missing or empty object_id")
        if object_id in seen:
            raise ValidationError(f"duplicate object_id {object_id!r}")
        seen.add(object_id)

        gt_paths = [
            _path_from_rows(rows, object_id, f"gt_paths[{i}]")
            for i, rows in enumerate(entry.get("gt_paths", []))
        ]

        cloud = None
        if entry.get("point_cloud") is not None:
            try:
                cloud = np.asarray(entry["point_cloud"], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"object {object_id!r}: point_cloud: malformed rows ({exc})") from exc
            if cloud.ndim != 2 or cloud.shape[1] != 3 or not np.all(np.isfinite(cloud)):
                raise ValidationError(f"object {object_id!r}: point_cloud rows need 3 finite numbers")

        predictions = []
        for i, pred in enumerate(entry.get("predictions", []) or []):
            if not isinstance(pred, dict):
                raise ValidationError(f"object {object_id!r}: predictions[{i}] is not an object")
            confidence = pred.get("confidence")
            if not isinstance(confidence, (int, float)) or not 0.0 <= float(confidence) <= 1.0:
                raise ValidationError(
                    f"object {object_id!r}: predictions[{i}].confidence must lie in [0, 1]"
                )
            path = _path_from_rows(pred.get("poses"), object_id, f"predictions[{i}].poses")
            predictions.append(PredictedPath(path, float(confidence)))

        records.append(ObjectRecord(object_id, gt_paths, cloud, predictions))
    return records


def dataset_to_document(records: Sequence[ObjectRecord]) -> dict:
    objects = []
    for record in records:
        entry: dict = {
            "object_id": record.object_id,
            "gt_paths": [p.poses.tolist() for p in record.gt_paths],
        }
        if record.point_cloud is not None:
            entry["point_cloud"] = np.asarray(record.point_cloud, dtype=float).tolist()
        if record.predictions:
            entry["predictions"] = [
                {"confidence": p.confidence, "poses": p.path.poses.tolist()}
                for p in record.predictions
            ]
        objects.append(entry)
    return {"objects": objects}


def load_dataset(path) -> list[ObjectRecord]:
    return dataset_from_document(load_json(path))


def save_dataset(records: Sequence[ObjectRecord], path) -> None:
    save_json(dataset_to_document(records), path)


def load_path_document(path) -> Path:
    doc = load_json(path)
    if not isinstance(doc, dict) or "poses" not in doc:
        raise ValidationError(f"{path}: expected a path document with a 'poses' list")
    return _path_from_rows(doc["poses"], "<path document>", "poses")


def save_path_document(path_obj: Path, path) -> None:
    save_json({"poses": path_obj.poses.tolist()}, path)


def save_report(report: EvalReport, path) -> None:
    save_json(report.to_document(), path, indent=2)
