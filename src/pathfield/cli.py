"""Command-line surface tying the library together.

Exit codes: 0 success, 1 validation error (bad documents or invariant
violations), 2 runtime or numeric error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .dataio import (
    ObjectRecord,
    SyntheticConfig,
    ValidationError,
    dataset_from_document,
    gen_dataset,
    load_dataset,
    load_json,
    load_path_document,
    path_from_document,
    save_dataset,
    save_path_document,
    save_report,
)
from .checks import SAMPLES_MAX, check_integer
from .metrics import DEFAULT_DELTA, DEFAULT_RESAMPLE_T, DEFAULT_THETA_DEG, dtw_align, evaluate_dataset, resample_object
from .paths import ParamSamplingConfig, resample, sample_params
from .trainer import TrainConfig, fit, load_checkpoint, predict, save_checkpoint


def _cmd_evaluate(args) -> int:
    check_integer("--resample-t", args.resample_t, 2 if args.resample_t > 0 else 0, SAMPLES_MAX)  # 0 = as given
    gt_records = load_dataset(args.gt)
    pred_records = load_dataset(args.pred)
    gt_map = {r.object_id: r for r in gt_records}
    pred_map = {r.object_id: r.predictions for r in pred_records}
    unknown = sorted(set(pred_map) - set(gt_map))
    if unknown:
        raise ValidationError(f"prediction objects missing from ground truth: {unknown}")
    dataset = {oid: (rec.gt_paths, pred_map.get(oid, [])) for oid, rec in gt_map.items()}
    resample_t = args.resample_t if args.resample_t > 0 else None
    report = evaluate_dataset(dataset, args.delta, args.theta, resample_t)
    save_report(report, args.out)
    pcd_text = "n/a" if report.pcd is None else repr(report.pcd)
    print(f"ap50 {report.ap50!r}")
    print(f"ap {report.ap!r}")
    print(f"ap_easy {report.ap_easy!r}")
    print(f"pcd {pcd_text}")
    return 0


def _cmd_fit(args) -> int:
    if not args.config and not args.resume:
        raise ValidationError("fit needs --config (or --resume)")
    records = load_dataset(args.dataset)
    dataset = {r.object_id: r.gt_paths for r in records}
    state = load_checkpoint(args.checkpoint) if args.resume else None
    # a resumed fit adopts a given config (e.g. more epochs); fit refuses other slots or head
    config = TrainConfig.from_document(load_json(args.config)) if args.config else state.config
    every = max(config.epochs // 10, 1)

    def progress(epoch: int, loss: float) -> None:
        if epoch % every == 0 or epoch == config.epochs:
            print(f"epoch {epoch}/{config.epochs} loss {loss:.6f}")

    state = fit(dataset, config, state=state, progress=progress)
    save_checkpoint(state, args.checkpoint)
    print(f"saved checkpoint to {args.checkpoint}")
    return 0


def _cmd_predict(args) -> int:
    if args.samples is not None:
        check_integer("--samples", args.samples, 2, SAMPLES_MAX)
    state = load_checkpoint(args.checkpoint)
    if args.object == "all":
        object_ids = sorted(state.codewords)
    else:
        object_ids = [args.object]
    records = []
    for object_id in object_ids:
        preds = predict(state, object_id, args.samples, args.threshold)
        records.append(ObjectRecord(object_id, [], None, preds))
    save_dataset(records, args.out)
    total = sum(len(r.predictions) for r in records)
    print(f"wrote {total} predicted paths for {len(records)} objects to {args.out}")
    return 0


def _cmd_gen(args) -> int:
    config = SyntheticConfig(**{f.name: getattr(args, f.name) for f in fields(SyntheticConfig)})
    records = gen_dataset(config, args.objects)
    save_dataset(records, args.out)
    print(f"wrote {len(records)} objects to {args.out}")
    return 0


def _cmd_dtw(args) -> int:
    first = load_path_document(args.a)
    second = load_path_document(args.b)
    result = dtw_align(first.positions, second.positions)
    print(f"cost {result.cost!r}")
    for k, m in result.warp:
        print(f"{int(k)} {int(m)}")
    return 0


def _cmd_resample(args) -> int:
    check_integer("--t", args.t, 2, SAMPLES_MAX)
    doc = load_json(args.infile)
    params = sample_params(ParamSamplingConfig(args.strategy, args.t, args.noise_sigma, args.seed))
    if isinstance(doc, dict) and "poses" in doc:
        save_path_document(resample(path_from_document(doc, args.infile), params), args.out)
        print(f"wrote {args.t} poses to {args.out}")
        return 0
    if isinstance(doc, dict) and "objects" in doc:
        out = []
        for record in dataset_from_document(doc):
            gt_paths, preds = resample_object(record.gt_paths, record.predictions, params)
            out.append(ObjectRecord(record.object_id, gt_paths, record.point_cloud, preds))
        save_dataset(out, args.out)
        print(f"resampled {len(out)} objects to {args.out}")
        return 0
    raise ValidationError(f"{args.infile}: neither a path document nor a dataset")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathfield")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--theta", type=float, default=DEFAULT_THETA_DEG)
    p.add_argument("--resample-t", type=int, default=DEFAULT_RESAMPLE_T, dest="resample_t",
                   help="resample both sides to this many poses before scoring (0 = as given)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("fit", help="train the auto-decoder on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="train config document (with --resume: replaces the checkpoint's)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="decode paths from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--object", required=True, help="object id, or 'all'")
    p.add_argument("--samples", type=int, default=None,
                   help="poses per decoded path (default: the checkpoint's test_samples)")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("gen", help="generate a synthetic raster dataset")
    p.add_argument("--strokes", type=int, default=SyntheticConfig.strokes, dest="strokes")
    p.add_argument("--waypoints", type=int, default=SyntheticConfig.waypoints_per_stroke, dest="waypoints_per_stroke")
    p.add_argument("--seed", type=int, default=SyntheticConfig.seed, dest="seed")
    p.add_argument("--objects", type=int, default=1)
    p.add_argument("--jitter", type=float, default=SyntheticConfig.jitter_sigma, dest="jitter_sigma")
    p.add_argument("--curvature", type=float, default=SyntheticConfig.curvature, dest="curvature")
    p.add_argument("--cloud-points", type=int, default=SyntheticConfig.cloud_points, dest="cloud_points")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dtw", help="align two path documents (debugging)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_dtw)

    p = sub.add_parser("resample", help="resample a path document or dataset")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--strategy", default=ParamSamplingConfig.strategy)
    p.add_argument("--seed", type=int, default=ParamSamplingConfig.seed)
    p.add_argument("--noise-sigma", type=float, default=ParamSamplingConfig.noise_sigma, dest="noise_sigma")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_resample)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ValidationError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
