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
Every document, checkpoints too, is written by one atomic writer.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .metrics import EvalReport
from .paths import Path, PredictedPath, _check_fields, _check_integer, normalize_scene

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
    "path_from_document",
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


# The face every synthetic object is drawn on, before normalization: its
# width and height, and the unit normal that is every pose's orientation.
_FACE_EXTENT = (2.0, 1.2)
_FACE_NORMAL = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class SyntheticConfig:
    """Raster-pattern generator settings.

    The strokes are spread evenly over the face height. curvature arches
    each stroke out of the face plane (0 keeps them straight);
    jitter_sigma adds Gaussian positional noise.
    """

    strokes: int = 4
    waypoints_per_stroke: int = 20
    jitter_sigma: float = 0.0
    curvature: float = 0.0
    cloud_points: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self, (("strokes", 1), ("waypoints_per_stroke", 2), ("cloud_points", 1), ("seed", 0)),
                      (("jitter_sigma", (0, np.inf, "[)")), ("curvature", (-np.inf, np.inf, "()"))))


def gen_raster_object(config: SyntheticConfig, object_id: str = "object-000") -> ObjectRecord:
    """Deterministic serpentine-coverage object in normalized space."""
    rng = np.random.default_rng(config.seed)
    extent_x, extent_y = _FACE_EXTENT
    spacing = extent_y / (config.strokes - 1) if config.strokes > 1 else 0.0
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
        orientations = np.tile(_FACE_NORMAL, (config.waypoints_per_stroke, 1))
        paths.append(Path(np.concatenate([positions, orientations], axis=1)))

    face = rng.uniform(-0.5, 0.5, (config.cloud_points, 2)) * np.array([extent_x, extent_y])
    cloud = np.column_stack([face, np.zeros(config.cloud_points)])
    cloud, paths = normalize_scene(cloud, paths)
    return ObjectRecord(object_id, paths, cloud, [])


def gen_dataset(config: SyntheticConfig, objects: int = 1) -> list[ObjectRecord]:
    """Several raster objects; object i draws from sub-seed (seed, i)."""
    _check_integer("objects", objects, 1)
    records = []
    for index in range(objects):
        sub_seed = int(np.random.SeedSequence([config.seed, index]).generate_state(1)[0])
        records.append(gen_raster_object(replace(config, seed=sub_seed), f"object-{index:03d}"))
    return records


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8: {exc}") from exc
    except ValueError as exc:  # after its two subclasses above; e.g. an integer past Python's digit limit
        raise ValidationError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _write_atomic(path, chunks: Iterable[str]) -> None:
    """Write the text chunks and a newline to a temp file beside `path`, fsync it, os.replace it over `path`."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _indented(value, indent: str, level: int = 0) -> Iterator[str]:
    """The chunks of json.JSONEncoder(sort_keys=True, indent=indent).iterencode(value), nested `level` deep.
    Lists and str-keyed dicts are walked here, and a list of exact ints and floats, or of equal-length lists
    of them, is one str.format (`{!r}` is json's int and float text); other values are json's own text."""
    pad, close, numbers, item = "\n" + indent * (level + 1), "\n" + indent * level, value, "{!r}"
    if type(value) is list and value:
        if set(map(type, value)) == {list} and len(set(map(len, value))) == 1 and value[0]:
            numbers = list(itertools.chain.from_iterable(value))
            item = "[" + pad + indent + ("," + pad + indent).join(["{!r}"] * len(value[0])) + pad + "]"
        if set(map(type, numbers)) <= {int, float}:
            text = ("[" + pad + ("," + pad).join([item] * len(value)) + close + "]").format(*numbers)
            if "n" not in text:  # else a nan or inf, which json writes NaN or Infinity
                yield text
                return
        for k, entry in enumerate(value):
            yield ("," if k else "[") + pad
            yield from _indented(entry, indent, level + 1)
        yield close + "]"
    elif type(value) is dict and value and set(map(type, value)) == {str}:
        for k, key in enumerate(sorted(value)):
            yield ("," if k else "{") + pad + json.encoder.encode_basestring_ascii(key) + ": "
            yield from _indented(value[key], indent, level + 1)
        yield close + "}"
    else:  # json escapes every newline inside a string, so each one it writes starts a line
        yield from (c.replace("\n", close) for c in json.JSONEncoder(sort_keys=True, indent=indent).iterencode(value))


def save_json(doc, path, indent: int = 1) -> None:
    """Write `doc` through _indented (keys sorted, ASCII, one closing newline), atomically."""
    _write_atomic(path, _indented(doc, " " * indent))


def _number_rows(rows, width: int, object_id: str, where: str) -> np.ndarray:
    """A non-empty list of rows of `width` JSON numbers as a float array; anything else, a string, a
    boolean or an integer that no float holds among them too, is a ValidationError naming the object and field."""
    if (type(rows) is list and rows and set(map(type, rows)) == {list} and set(map(len, rows)) == {width}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}):
        try:
            return np.array(rows, dtype=float)
        except OverflowError:
            pass
    raise ValidationError(f"object {object_id!r}: {where}: every row needs exactly {width} JSON numbers")


def _path_from_rows(rows, object_id: str, where: str) -> Path:
    arr = _number_rows(rows, 6, object_id, where)
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

        gt_rows = entry.get("gt_paths", [])
        if not isinstance(gt_rows, list):
            raise ValidationError(f"object {object_id!r}: gt_paths must be a list of paths")
        gt_paths = [_path_from_rows(rows, object_id, f"gt_paths[{i}]") for i, rows in enumerate(gt_rows)]

        cloud = None
        if entry.get("point_cloud") is not None:
            cloud = _number_rows(entry["point_cloud"], 3, object_id, "point_cloud")
            if not np.all(np.isfinite(cloud)):
                raise ValidationError(f"object {object_id!r}: point_cloud rows need 3 finite numbers")

        pred_docs = [] if entry.get("predictions") is None else entry["predictions"]
        if not isinstance(pred_docs, list):
            raise ValidationError(f"object {object_id!r}: predictions must be a list of objects")
        predictions = []
        for i, pred in enumerate(pred_docs):
            if not isinstance(pred, dict):
                raise ValidationError(f"object {object_id!r}: predictions[{i}] is not an object")
            path = _path_from_rows(pred.get("poses"), object_id, f"predictions[{i}].poses")
            try:
                predictions.append(PredictedPath(path, pred.get("confidence")))
            except ValueError as exc:
                raise ValidationError(f"object {object_id!r}: predictions[{i}].{exc}") from exc

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


def path_from_document(doc, source) -> Path:
    """The path of a parsed {"poses": [...]} document read from `source`."""
    if not isinstance(doc, dict) or "poses" not in doc:
        raise ValidationError(f"{source}: expected a path document with a 'poses' list")
    return _path_from_rows(doc["poses"], "<path document>", "poses")


def load_path_document(path) -> Path:
    return path_from_document(load_json(path), path)


def save_path_document(path_obj: Path, path) -> None:
    save_json({"poses": path_obj.poses.tolist()}, path)


def save_report(report: EvalReport, path) -> None:
    save_json(report.to_document(), path, indent=2)
