"""Desk-scale end-to-end run: generate a raster fixture, fit the
auto-decoder, decode every slot, and print the evaluation report.

Usage: python scripts/run_desk_fit.py [--objects 3] [--epochs 500] [--activation finer]
"""
import argparse
import time

from pathfield import (
    HeadConfig,
    SyntheticConfig,
    TrainConfig,
    evaluate_dataset,
    fit,
    gen_dataset,
    predict,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--objects", type=int, default=3)
    parser.add_argument("--strokes", type=int, default=4)
    parser.add_argument("--waypoints", type=int, default=20)
    parser.add_argument("--curvature", type=float, default=0.0)
    parser.add_argument("--epochs", type=int, default=500)
    parser.add_argument("--activation", default="finer", choices=["relu", "siren", "finer"])
    parser.add_argument("--samples", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    records = gen_dataset(
        SyntheticConfig(
            strokes=args.strokes,
            waypoints_per_stroke=args.waypoints,
            curvature=args.curvature,
            seed=args.seed,
        ),
        objects=args.objects,
    )
    dataset = {r.object_id: r.gt_paths for r in records}

    config = TrainConfig(
        slots=8,
        train_samples=16,
        epochs=args.epochs,
        step_size=5e-3,
        lr_schedule="cosine",
        lr_min=1e-5,
        seed=args.seed,
        head=HeadConfig(depth=2, width=32, code_dim=16, activation=args.activation,
                        omega0=10.0, seed=args.seed),
    )

    start = time.perf_counter()
    state = fit(dataset, config, progress=lambda e, l: e % 100 == 0 and print(f"epoch {e}: {l:.5f}"))
    print(f"fit took {time.perf_counter() - start:.1f}s "
          f"({config.epochs * len(dataset)} optimizer steps)")

    evalset = {oid: (dataset[oid], predict(state, oid, args.samples)) for oid in dataset}
    report = evaluate_dataset(evalset)
    print(f"ap50    {report.ap50:.4f}")
    print(f"ap      {report.ap:.4f}")
    print(f"ap_easy {report.ap_easy:.4f}")
    # pcd is None when no slot cleared the confidence threshold
    print(f"pcd     {float('nan') if report.pcd is None else report.pcd:.4f}")
    for oid, entry in report.per_object.items():
        print(f"  {oid}: {entry['n_predictions']}/{entry['n_gt']} paths, "
              f"fscores {[round(f, 3) for f in entry['fscores']]}")


if __name__ == "__main__":
    main()
