"""The three benchmark workloads. Each one generates its inputs from the
workload seed (untimed), loads them in-process (untimed; probe.py times the
same set-up in fresh interpreters), makes one kind of call into dvae in a
closed loop with one caller, and checks every output against the frozen
reference in reference.py.

Calls go through module attributes (`trainer.train`, `cli.main`), so the
traced run sees them once tracing.Tracer has patched those names.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import statistics
from pathlib import Path

import numpy as np

import reference
from dvae import cli, data, trainer
from dvae.distributions import Rng

# Paper shape (D=20, K=10, hidden=512, batch=100, lr=1e-3) on synthetic 28x28
# bars; "tiny" is the self-test's shape, small enough to run in seconds.
SIZES = {
    "full": {
        "train": dict(side=28, n_train=500, n_val=200, d=20, k=10, hidden=512,
                      lr=1e-3, batch=100, epochs=2, patience=5),
        "eval": dict(side=28, n_eval=2000, d=20, k=10, hidden=512, batch=100,
                     min_calls=100),
        "verify": dict(suite="all"),
    },
    "tiny": {
        "train": dict(side=4, n_train=20, n_val=10, d=2, k=3, hidden=8,
                      lr=1e-2, batch=5, epochs=2, patience=5),
        "eval": dict(side=4, n_eval=20, d=2, k=3, hidden=8, batch=5, min_calls=4),
        "verify": dict(suite="bound"),
    },
}


VERDICT_LINE = re.compile(r"^(PASS|FAIL) (\S+) ", re.MULTILINE)


class Checks:
    """Correctness checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def write_bars(path: Path, n: int, side: int, seed: int) -> np.ndarray:
    """n synthetic bars images written as an IDX image file; returns the
    binary (n, side*side) images the file must load back to."""
    bars = data.synthetic_bars(n, side, Rng(seed))
    data.write_idx(path, (bars.images * 255).astype(np.uint8).reshape(n, side, side))
    return bars.images


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


class Train:
    """trainer.train on bars IDX files at the paper's shape, with a
    checkpoint path; one call is a whole training run."""

    kind = "train"

    def __init__(self, seed: int, size: dict, work: Path):
        self.seed, self.size, self.work = seed, size, work
        self.config = dict(d_latents=size["d"], k_categories=size["k"],
                           hidden_width=size["hidden"], learning_rate=size["lr"],
                           batch_size=size["batch"], max_epochs=size["epochs"],
                           patience=size["patience"], seed=seed)
        self.min_calls = 1
        self.pass_calls = 1
        self.ckpt = work / "model.ckpt"

    def describe(self) -> str:
        s = self.size
        return (f"{s['n_train']} train + {s['n_val']} validation bars {s['side']}x{s['side']}, "
                f"D={s['d']} K={s['k']} hidden={s['hidden']} batch={s['batch']} "
                f"lr={s['lr']} epochs={s['epochs']}")

    def prepare(self) -> None:
        s = self.size
        self.x_train = write_bars(self.work / "train-images-idx3-ubyte", s["n_train"],
                                  s["side"], 4 * self.seed)
        self.x_val = write_bars(self.work / "val-images-idx3-ubyte", s["n_val"],
                                s["side"], 4 * self.seed + 1)

    def load(self, checks: Checks) -> None:
        self.train_set = data.load_binarized(self.work / "train-images-idx3-ubyte")
        self.val_set = data.load_binarized(self.work / "val-images-idx3-ubyte")
        self.train_config = trainer.TrainConfig(**self.config)
        checks.add("train images load as written",
                   np.array_equal(self.train_set.images, self.x_train))
        checks.add("validation images load as written",
                   np.array_equal(self.val_set.images, self.x_val))

    def call(self, i: int):
        _, history = trainer.train(self.train_config, self.train_set, self.val_set,
                                   checkpoint_path=self.ckpt)
        return [(r.epoch, r.train_elbo, r.train_entropy, r.train_prior, r.train_recon,
                 r.val_elbo, r.seconds) for r in history]

    def check(self, outputs: list, checks: Checks) -> None:
        s = self.size
        rows_ref, best_epoch = reference.train(
            self.x_train, self.x_val, d=s["d"], k=s["k"], hidden=s["hidden"], lr=s["lr"],
            batch_size=s["batch"], max_epochs=s["epochs"], patience=s["patience"],
            seed=self.seed)
        for rows in outputs:
            checks.add("metrics rows are finite",
                       all(math.isfinite(v) for row in rows for v in row))
            checks.add("metrics rows match the reference to 1e-9", len(rows) == len(rows_ref)
                       and all(row[0] == ref[0] and all(map(reference.close, row[1:6], ref[1:]))
                               for row, ref in zip(rows, rows_ref)))
        ckpt = trainer.load_checkpoint(self.ckpt)
        final = trainer.evaluate(ckpt.model, self.val_set,
                                 Rng(self.seed + reference.VALIDATION_OFFSET)).total
        checks.add("checkpoint holds the reference's final validation ELBO to 1e-9",
                   ckpt.epoch == best_epoch and reference.close(final, rows_ref[best_epoch][5]))

    def report(self, call_s: list[float]) -> list[tuple[str, float, str, str]]:
        examples = self.size["n_train"] * self.size["epochs"]
        return [("train.examples_per_s", examples / statistics.median(call_s), "1/s",
                 f"median of {len(call_s)} trainer.train calls, {examples} examples each")]


class Eval:
    """trainer.evaluate once per 100-example batch of a bars IDX file, each
    batch with its own seeded Rng, on a checkpoint written beforehand."""

    kind = "eval"

    def __init__(self, seed: int, size: dict, work: Path):
        self.seed, self.size, self.work = seed, size, work
        self.config = dict(d_latents=size["d"], k_categories=size["k"],
                           hidden_width=size["hidden"], seed=seed)
        self.min_calls = size["min_calls"]
        self.pass_calls = size["n_eval"] // size["batch"]

    def describe(self) -> str:
        s = self.size
        return (f"{s['n_eval']} bars {s['side']}x{s['side']} in batches of {s['batch']}, "
                f"D={s['d']} K={s['k']} hidden={s['hidden']}, checkpoint at init")

    def batch_seed(self, b: int) -> int:
        return 1000 * self.seed + b

    def prepare(self) -> None:
        s = self.size
        self.x = write_bars(self.work / "eval-images-idx3-ubyte", s["n_eval"], s["side"],
                            4 * self.seed + 2)
        config = trainer.TrainConfig(**self.config)
        trainer.save_checkpoint(trainer.build_model(config, s["side"] ** 2),
                                self.work / "eval.ckpt", config=config)

    def load(self, checks: Checks) -> None:
        dataset = data.load_binarized(self.work / "eval-images-idx3-ubyte")
        self.model = trainer.load_checkpoint(self.work / "eval.ckpt").model
        checks.add("eval images load as written", np.array_equal(dataset.images, self.x))
        b = self.size["batch"]
        self.batches = [data.Dataset(dataset.images[i:i + b], dataset.rows, dataset.cols)
                        for i in range(0, dataset.n, b)]

    def call(self, i: int):
        b = i % len(self.batches)
        bd = trainer.evaluate(self.model, self.batches[b], Rng(self.batch_seed(b)))
        return b, (bd.entropy_term, bd.prior_term, bd.recon_term, bd.total)

    def check(self, outputs: list, checks: Checks) -> None:
        s = self.size
        encoder, decoder = reference.init_model(s["side"] ** 2, s["d"], s["k"], s["hidden"],
                                                self.seed)
        expected = {}
        for b, terms in outputs:
            if b not in expected:
                x = self.x[b * s["batch"]:(b + 1) * s["batch"]]
                expected[b] = reference.evaluate(encoder, decoder, x, self.batch_seed(b),
                                                 s["d"], s["k"])
            checks.add("batch ElboBreakdown matches the reference to 1e-9",
                       all(map(reference.close, terms, expected[b])))

    def report(self, call_s: list[float]) -> list[tuple[str, float, str, str]]:
        ms = [t * 1e3 for t in call_s]
        p90 = _percentile(ms, 90)
        return [
            ("eval.examples_per_s", self.size["batch"] * len(ms) / (sum(ms) / 1e3), "1/s",
             f"{len(ms)} batches of {self.size['batch']}"),
            ("eval.batch_ms.p50", statistics.median(ms), "ms", f"{len(ms)} batches"),
            ("eval.batch_ms.p90", p90, "ms",
             f"{sum(t > p90 for t in ms)} of {len(ms)} batches beyond it"),
        ]


class Verify:
    """dvae verify --suite all --seed S through cli.main: the enumeration
    oracle's gradient, lower-bound and unbiasedness suites."""

    kind = "verify"

    def __init__(self, seed: int, size: dict, work: Path):
        self.seed, self.size, self.work = seed, size, work
        self.config = {}
        self.min_calls = 1
        self.pass_calls = 1

    def describe(self) -> str:
        return f"dvae verify --suite {self.size['suite']} --seed {self.seed}"

    def prepare(self) -> None:
        pass

    def load(self, checks: Checks) -> None:
        pass

    def call(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--suite", self.size["suite"], "--seed", str(self.seed)])
        return code, out.getvalue()

    def check(self, outputs: list, checks: Checks) -> None:
        # The unbiasedness suite is a statistical test that fails on some
        # seeds (about 1 in 27, seed 7 the first), so the check is that every
        # verdict and the exit code match the reference, not that all pass.
        suite = self.size["suite"]
        self.expected = {}
        for name in (reference.VERIFY_SUITES if suite == "all" else [suite]):
            self.expected.update(reference.VERIFY_SUITES[name](self.seed))
        verdicts = {name: ok for name, (ok, _) in self.expected.items()}
        passed = all(verdicts.values())
        for code, text in outputs:
            printed = {m[2]: m[1] == "PASS" for m in VERDICT_LINE.finditer(text)}
            checks.add("verify verdicts and exit code match the reference",
                       printed == verdicts and code == (0 if passed else 1)
                       and ("all checks passed" if passed else "VERIFICATION FAILED") in text)

    def report(self, call_s: list[float]) -> list[tuple[str, float, str, str]]:
        failing = [f"{name} measured={value:.3e}"
                   for name, (ok, value) in self.expected.items() if not ok]
        verdict = ("all checks passed" if not failing else
                   "VERIFICATION FAILED as the reference predicts: " + ", ".join(failing))
        return [("verify_s", statistics.median(call_s), "s",
                 f"median of {len(call_s)} verify calls; {verdict}")]


WORKLOADS = {
    "train-mnist784": Train,
    "eval-mnist784": Eval,
    "verify-oracle": Verify,
}
