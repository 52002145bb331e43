"""Fit the same curved-stroke fixture with each activation and compare
path accuracy against corner sharpness (max second difference along the
predicted paths). ReLU heads land corners; the sinusoidal heads stay smooth.

Usage: python scripts/compare_activations.py [--curvature 0.35] [--epochs 500]
"""
import argparse

from pathfield import (
    HeadConfig,
    SyntheticConfig,
    TrainConfig,
    evaluate_dataset,
    fit,
    gen_dataset,
    max_second_difference,
    predict,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--curvature", type=float, default=0.35)
    parser.add_argument("--epochs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    records = gen_dataset(
        SyntheticConfig(strokes=4, waypoints_per_stroke=20, curvature=args.curvature,
                        seed=args.seed),
        objects=3,
    )
    dataset = {r.object_id: r.gt_paths for r in records}
    gt_sharpness = max(max_second_difference(p) for paths in dataset.values() for p in paths)
    print(f"ground-truth max second difference: {gt_sharpness:.6f}")

    print(f"{'activation':<12} {'ap50':>6} {'ap':>6} {'pcd':>8} {'sharpness':>10}")
    for activation in ("relu", "siren", "finer"):
        config = TrainConfig(
            slots=8,
            train_samples=16,
            epochs=args.epochs,
            step_size=5e-3,
            lr_schedule="cosine",
            lr_min=1e-5,
            seed=args.seed,
            head=HeadConfig(depth=2, width=32, code_dim=16, activation=activation,
                            omega0=10.0, seed=args.seed),
        )
        state = fit(dataset, config)
        evalset = {oid: (dataset[oid], predict(state, oid, 128)) for oid in dataset}
        report = evaluate_dataset(evalset)
        sharp = max(
            (max_second_difference(p.path) for preds in evalset.values() for p in preds[1]),
            default=float("nan"),
        )
        print(f"{activation:<12} {report.ap50:>6.3f} {report.ap:>6.3f} "
              f"{float('nan') if report.pcd is None else report.pcd:>8.3f} {sharp:>10.6f}")


if __name__ == "__main__":
    main()
