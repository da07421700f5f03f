"""Command-line surface: train, eval, reconstruct, sample, verify.

Exit codes: 0 on success, 1 on runtime or verification failure, 2 on usage
errors (bad flags or unreadable paths). Every command that takes --seed is
bit-reproducible. Images are written as binary PGM (P5, maxval 255);
reconstruction gray levels are round-half-to-even of 255 * mean, so an
all-0.5 reconstruction renders as 128.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from dvae import data, oracle, trainer
from dvae.distributions import MAX_SEED, Rng
from dvae.model import CHUNK_ROWS, uniform_params


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary P5 image from a 2-D uint8 array."""
    with open(path, "wb") as f:
        f.write(f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def _to_gray(values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.rint(255.0 * values).astype(np.uint8).reshape(rows, cols)


def cmd_train(args) -> int:
    config = trainer.TrainConfig(
        d_latents=args.d, k_categories=args.k, hidden_width=args.hidden,
        learning_rate=args.lr, batch_size=args.batch, max_epochs=args.epochs,
        patience=args.patience, seed=args.seed, binarize_threshold=args.threshold,
        mc_samples=args.mc_samples,
    )
    train_set = data.load_binarized(args.train_images, threshold=args.threshold)
    val_set = data.load_binarized(args.val_images, threshold=args.threshold)
    out = Path(args.out)
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        model, history = trainer.train(config, train_set, val_set,
                                       checkpoint_path=out / "model.ckpt")
        trainer.write_metrics_csv(history, out / "metrics.csv")
    except BaseException:
        if created and not any(out.iterdir()):
            out.rmdir()
        raise
    best = max(row.val_elbo for row in history)
    print(f"final validation ELBO: {best:.6f}")
    return 0


def _load_images_for(ckpt: trainer.Checkpoint, args) -> data.Dataset:
    """args.images binarized at --threshold, else at the checkpoint's
    training threshold; its pixel count must match the model's."""
    threshold = args.threshold
    if threshold is None:
        threshold = int(ckpt.config.get("binarize_threshold", 128))
    dataset = data.load_binarized(args.images, threshold=threshold)
    if dataset.p != ckpt.model.p:
        raise ValueError(f"model expects {ckpt.model.p} pixels, images have {dataset.p}")
    return dataset


def cmd_eval(args) -> int:
    ckpt = trainer.load_checkpoint(args.model)
    dataset = _load_images_for(ckpt, args)
    bd = trainer.evaluate(ckpt.model, dataset, Rng(args.seed))
    print(f"elbo={bd.total:.6f} entropy={bd.entropy_term:.6f} "
          f"prior={bd.prior_term:.6f} recon={bd.recon_term:.6f}")
    return 0


def _check_count(n: int, available: int | None = None) -> None:
    """--n must be non-negative and, given a dataset, no larger than it."""
    if n < 0 or (available is not None and n > available):
        limit = "" if available is None else f" and at most {available}"
        raise ValueError(f"--n must be non-negative{limit}, got {n}")


def cmd_reconstruct(args) -> int:
    ckpt = trainer.load_checkpoint(args.model)
    model = ckpt.model
    dataset = _load_images_for(ckpt, args)
    _check_count(args.n, dataset.n)
    u = Rng(args.seed).uniforms(args.n * model.d).reshape(args.n, model.d)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for start in range(0, args.n, CHUNK_ROWS):
        x = dataset.images[start:min(start + CHUNK_ROWS, args.n)]
        xhat = model.decode(model.sample_latent(model.encode(x), u[start:start + CHUNK_ROWS]))
        for i in range(len(x)):
            write_pgm(out / f"input_{start + i:03d}.pgm",
                      _to_gray(x[i], dataset.rows, dataset.cols))
            write_pgm(out / f"recon_{start + i:03d}.pgm",
                      _to_gray(xhat[i], dataset.rows, dataset.cols))
    return 0


def cmd_sample(args) -> int:
    ckpt = trainer.load_checkpoint(args.model)
    model = ckpt.model
    rows, cols = _raster_shape(model.p)
    _check_count(args.n)
    u = Rng(args.seed).uniforms(args.n * model.d).reshape(args.n, model.d)
    prior = uniform_params(model.d, model.k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for start in range(0, args.n, CHUNK_ROWS):
        z = model.sample_latent(prior, u[start:start + CHUNK_ROWS])
        xhat = model.decode(z)
        for i in range(len(xhat)):
            if args.dump_indices:
                print(f"sample {start + i}: {' '.join(str(j) for j in z[i])}")
            write_pgm(out / f"sample_{start + i:03d}.pgm", _to_gray(xhat[i], rows, cols))
    return 0


def _raster_shape(p: int) -> tuple[int, int]:
    """Square raster if p is a perfect square, else a single row."""
    side = int(round(p ** 0.5))
    return (side, side) if side * side == p else (1, p)


def cmd_verify(args) -> int:
    names = list(oracle.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for check in oracle.SUITES[name](args.seed):
            status = "PASS" if check.passed else "FAIL"
            all_ok &= check.passed
            print(f"{status} {check.name} measured={check.measured:.3e} "
                  f"tolerance={check.tolerance:.3e} ({check.note})")
    print("all checks passed" if all_ok else "VERIFICATION FAILED")
    return 0 if all_ok else 1


def seed(text: str) -> int:
    """--seed: an integer in [0, 2^64 - 1]. Rng reduces seeds modulo 2^64,
    so any other value would silently alias one in that range."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    if value > MAX_SEED:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SEED}, got {value}")
    return value


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dvae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on IDX images")
    p_train.add_argument("--train-images", required=True)
    p_train.add_argument("--val-images", required=True)
    p_train.add_argument("--d", type=int, default=20)
    p_train.add_argument("--k", type=int, default=10)
    p_train.add_argument("--hidden", type=int, default=512)
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--batch", type=int, default=100)
    p_train.add_argument("--epochs", type=int, default=50)
    p_train.add_argument("--patience", type=int, default=5)
    p_train.add_argument("--seed", type=seed, default=42)
    p_train.add_argument("--threshold", type=int, default=128)
    p_train.add_argument("--mc-samples", type=int, default=1)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="mean ELBO of a checkpoint on IDX images")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--images", required=True)
    p_eval.add_argument("--seed", type=seed, default=42)
    p_eval.add_argument("--threshold", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_rec = sub.add_parser("reconstruct", help="encode/sample/decode image pairs")
    p_rec.add_argument("--model", required=True)
    p_rec.add_argument("--images", required=True)
    p_rec.add_argument("--n", type=int, default=8)
    p_rec.add_argument("--seed", type=seed, default=42)
    p_rec.add_argument("--threshold", type=int, default=None)
    p_rec.add_argument("--out", required=True)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_sample = sub.add_parser("sample", help="decode latents drawn from the prior")
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--n", type=int, default=8)
    p_sample.add_argument("--seed", type=seed, default=42)
    p_sample.add_argument("--dump-indices", action="store_true")
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run the enumeration-oracle checks")
    p_verify.add_argument("--suite", choices=["all", *oracle.SUITES], default="all")
    p_verify.add_argument("--seed", type=seed, default=42)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:  # missing, unreadable or unwritable paths
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. an absurd --n, --hidden or --mc-samples
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
