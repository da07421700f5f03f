import dataclasses
import io
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from dvae import oracle, trainer
from dvae.data import Dataset, batches, load_binarized, synthetic_bars
from dvae.distributions import Rng
from dvae.model import DiscreteVae, ElboBreakdown, d_elbo_d_probs, d_recon_d_xhat, elbo_estimate
from dvae.network import HEAD_SIGMOID, HEAD_SOFTMAX, Mlp
from dvae.oracle import enumerate_table, exact_elbo, tiny_model_and_input
from dvae.trainer import (
    CHECKPOINT_MAGIC,
    VALIDATION_OFFSET,
    Checkpoint,
    CheckpointCorruptError,
    CheckpointFormatError,
    MetricsRow,
    TrainConfig,
    TrainingDiverged,
    build_model,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics_csv,
)
from helpers import (open_overlap, read_tensors, traced_peak, write_bars_idx, write_tensors,
                     write_third_layer_checkpoint, zero_init_model)

# A 6x6 bars run (D=2, K=3, hidden 8, 3 epochs) at mc_samples 1 and 3: every
# metrics row but seconds, and the final params of both nets, as recorded
# when each step zeroed, accumulated and scaled the gradient buffers before
# stepping.
TRAJECTORY = Path(__file__).parent / "data" / "train_trajectory.json"

# A 28x28 bars run (D=20, K=10, hidden 96: 94,760 encoder parameters, over
# overlapped's size gate; 301 training and 350 validation images, batch 70,
# 2 epochs) at mc_samples 1 and 3: every metrics row but seconds as
# float.hex, and a SHA-256 of both nets' final params, as recorded at one
# BLAS thread before forward-only passes ran whole blocks one per thread.
# Both forward-only passes then hold a pair of whole blocks, an unpaired
# whole block and a short block (at three samples, four pairs of 33-example
# blocks). The one-sample entry was recorded again when every training batch
# came to be encoded in its own row halves: the last batch's 21 rows split
# 10|11, and at hidden 96 those halves give the encoder other last bits than
# one 21-row product.
FORWARD_PIN = Path(__file__).parent / "data" / "forward_pass_pin.json"
FORWARD_PIN_RUN = """import hashlib, json, os, sys
from dvae.data import synthetic_bars
from dvae.distributions import Rng
from dvae.trainer import TrainConfig, train
runs = {}
for cpus in ({0, 1}, {0}):  # the helper, then the halves in turn
    os.sched_getaffinity = lambda pid: cpus
    rng = Rng(707)
    train_set, val_set = synthetic_bars(301, 28, rng), synthetic_bars(350, 28, rng)
    config = TrainConfig(d_latents=20, k_categories=10, hidden_width=96, learning_rate=1e-2,
                         batch_size=70, max_epochs=2, patience=10, seed=19,
                         mc_samples=int(sys.argv[1]))
    model, history = train(config, train_set, val_set)
    runs[len(cpus)] = {
        "rows": [[r.epoch] + [float(v).hex() for v in (r.train_elbo, r.train_entropy,
                                                      r.train_prior, r.train_recon, r.val_elbo)]
                 for r in history],
        "params_sha256": hashlib.sha256(model.encoder.params.tobytes()
                                        + model.decoder.params.tobytes()).hexdigest()}
print(json.dumps(runs))
"""


def lone(indices):
    """A training pass's jobs: each batch of indices, one block each."""
    return [(rows, 1) for rows in indices]


def forward_jobs(n, samples=1):
    """The jobs a forward-only pass over n examples of samples Monte Carlo
    samples each hands the helper: one per job of trainer.schedule."""
    return len(trainer.schedule(n, samples))


def training_jobs(batches):
    """The jobs a training pass over this many batches hands the helper: per
    batch, its encode and estimate halves, then its two nets' steps."""
    return 2 * batches


def train_jobs(n_train, n_val, mc, batches, epochs):
    """The jobs a train call hands the helper: the model's init, the epoch-0
    row's forward-only passes over the training and the validation set, and
    each epoch's training pass and validation pass (the best-parameter
    copies run on the caller)."""
    return (1 + forward_jobs(n_train, mc) + (epochs + 1) * forward_jobs(n_val)
            + epochs * training_jobs(batches))


def bars_config(**overrides):
    base = dict(d_latents=2, k_categories=4, hidden_width=16, learning_rate=1e-2,
                batch_size=20, max_epochs=3, patience=10, seed=42)
    base.update(overrides)
    return TrainConfig(**base)


def bars_sets(n_train=120, n_val=40, side=4, seed=1234):
    rng = Rng(seed)
    return synthetic_bars(n_train, side, rng), synthetic_bars(n_val, side, rng)


class TestTrainConfig:
    def test_valid(self):
        TrainConfig(d_latents=2, k_categories=4)

    @pytest.mark.parametrize("overrides", [
        {"d_latents": 0}, {"k_categories": -1}, {"hidden_width": 0},
        {"batch_size": 0}, {"max_epochs": 0}, {"patience": 0},
        {"learning_rate": -0.1}, {"seed": -1}, {"binarize_threshold": 0},
        {"mc_samples": 0}, {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ])
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            bars_config(**overrides)

    def test_seed_above_2_to_the_64_minus_1_rejected(self):
        # Rng would reduce 2^64 + 5 modulo 2^64 and run as seed 5
        bars_config(seed=2**64 - 1)
        with pytest.raises(ValueError, match=f"seed must lie in \\[0, {2**64 - 1}\\]"):
            bars_config(seed=2**64 + 5)


class TestEvaluate:
    def test_zero_init_model_exact_values(self):
        model = zero_init_model(p=4, d=2, k=3)
        images = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
        ds = Dataset(images, 2, 2)
        bd = evaluate(model, ds, Rng(9))
        assert bd.entropy_term == pytest.approx(2 * math.log(3), abs=1e-12)
        assert bd.prior_term == pytest.approx(-2 * math.log(3), abs=1e-12)
        assert bd.recon_term == pytest.approx(-4 * math.log(2), abs=1e-9)

    def test_repeat_with_same_seed_identical(self):
        train_set, _ = bars_sets()
        model = build_model(bars_config(), train_set.p)
        a = evaluate(model, train_set, Rng(55))
        b = evaluate(model, train_set, Rng(55))
        assert a == b

    def test_mean_matches_oracle_exact_elbo(self):
        # one tiny input repeated many times; 5-standard-error agreement
        model, x = tiny_model_and_input(640, p=4)
        exact = exact_elbo(enumerate_table(model, x))
        n = 20_000
        ds = Dataset(np.tile(x, (n, 1)), 1, 4)
        params = model.encode(ds.images)
        z = model.sample_latent(params, Rng(641).uniforms(n * model.d).reshape(n, model.d))
        totals = elbo_estimate(ds.images, params, model.decode(z)).total
        mean_bd = evaluate(model, ds, Rng(641))
        assert mean_bd.total == pytest.approx(totals.mean(), abs=1e-9)
        se = totals.std(ddof=1) / math.sqrt(n)
        assert abs(mean_bd.total - exact) <= 5 * se

    def test_empty_dataset_is_rejected(self):
        model = build_model(bars_config(), 16)
        with pytest.raises(ValueError, match="cannot evaluate on an empty dataset"):
            evaluate(model, Dataset(np.zeros((0, 16)), 4, 4), Rng(3))


class TestTrainLoop:
    def test_zero_lr_freezes_parameters_and_metrics(self):
        train_set, val_set = bars_sets()
        config = bars_config(learning_rate=0.0, max_epochs=3)
        model, history = train(config, train_set, val_set)
        fresh = build_model(config, train_set.p)
        assert np.array_equal(model.encoder.params, fresh.encoder.params)
        assert np.array_equal(model.decoder.params, fresh.decoder.params)
        first = history[0]
        for row in history[1:]:
            assert row.val_elbo == first.val_elbo
            for field in ("train_elbo", "train_entropy", "train_prior", "train_recon"):
                assert getattr(row, field) == pytest.approx(getattr(first, field),
                                                            abs=1e-9)

    def test_determinism_across_runs(self):
        train_set, val_set = bars_sets()
        config = bars_config(max_epochs=2)
        _, h1 = train(config, train_set, val_set)
        _, h2 = train(config, train_set, val_set)
        for a, b in zip(h1, h2):
            assert (a.epoch, a.train_elbo, a.train_entropy, a.train_prior,
                    a.train_recon, a.val_elbo) == \
                   (b.epoch, b.train_elbo, b.train_entropy, b.train_prior,
                    b.train_recon, b.val_elbo)

    def test_learning_signal_on_bars(self):
        train_set, val_set = bars_sets(n_train=400, n_val=100)
        config = bars_config(max_epochs=5)
        _, history = train(config, train_set, val_set)
        assert history[5].val_elbo > history[0].val_elbo

    def test_returned_model_is_best_on_validation(self):
        train_set, val_set = bars_sets()
        config = bars_config(max_epochs=3)
        model, history = train(config, train_set, val_set)
        best = max(row.val_elbo for row in history)
        replay = evaluate(model, val_set, Rng(config.seed + VALIDATION_OFFSET))
        assert replay.total == best

    def test_a_rise_within_rounding_is_no_improvement(self, monkeypatch):
        # a frozen model whose validation ELBO creeps up by 1e-12 an epoch,
        # as a collapsed run's did, stops on patience at the first epoch
        train_set, val_set = bars_sets(n_train=40, n_val=10)
        real_evaluate = trainer.evaluate
        creep = iter(range(100))

        def creeping(model, dataset, rng):
            bd = real_evaluate(model, dataset, rng)
            return dataclasses.replace(bd, total=bd.total + 1e-12 * next(creep))

        monkeypatch.setattr(trainer, "evaluate", creeping)
        config = bars_config(learning_rate=0.0, max_epochs=5, patience=1)
        _, history = train(config, train_set, val_set)
        assert [row.epoch for row in history] == [0, 1]
        assert history[1].val_elbo > history[0].val_elbo

    def test_a_rise_above_rounding_is_an_improvement(self, monkeypatch):
        train_set, val_set = bars_sets(n_train=40, n_val=10)
        real_evaluate = trainer.evaluate
        creep = iter(range(100))

        def rising(model, dataset, rng):
            bd = real_evaluate(model, dataset, rng)
            return dataclasses.replace(bd, total=bd.total + 1e-8 * abs(bd.total) * next(creep))

        monkeypatch.setattr(trainer, "evaluate", rising)
        config = bars_config(learning_rate=0.0, max_epochs=3, patience=1)
        _, history = train(config, train_set, val_set)
        assert [row.epoch for row in history] == [0, 1, 2, 3]

    def test_pixel_count_mismatch(self):
        train_set, _ = bars_sets()
        other = synthetic_bars(10, 3, Rng(2))
        with pytest.raises(ValueError):
            train(bars_config(), train_set, other)

    def test_oversized_batch_rejected_before_building_the_model(self, monkeypatch):
        train_set, val_set = bars_sets(n_train=40, n_val=10)
        built = []
        monkeypatch.setattr(trainer, "build_model", lambda *a: built.append(a))
        with pytest.raises(ValueError, match="batch size 41 exceeds dataset size 40"):
            train(bars_config(batch_size=41), train_set, val_set)
        assert built == []

    def test_empty_validation_set_rejected_before_building_the_model(self, monkeypatch):
        train_set, _ = bars_sets(n_train=40, n_val=10)
        built = []
        monkeypatch.setattr(trainer, "build_model", lambda *a: built.append(a))
        with pytest.raises(ValueError, match="the validation set is empty"):
            train(bars_config(), train_set, Dataset(np.zeros((0, 16)), 4, 4))
        assert built == []

    def test_divergence_aborts_with_location(self):
        train_set, val_set = bars_sets(n_train=40, n_val=10)
        broken = Dataset(train_set.images.copy(), train_set.rows, train_set.cols)
        broken.images[7, 0] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            train(bars_config(max_epochs=1, batch_size=10), broken, val_set)
        assert "epoch 1" in str(err.value)
        assert "batch" in str(err.value)

    def test_non_finite_validation_elbo_diverges(self, monkeypatch):
        train_set, val_set = bars_sets(n_train=40, n_val=10)
        real_mean = trainer._mean_breakdown
        calls = []

        def nan_after_epoch_0(model, entropy_sum, recon_sum, n):
            bd = real_mean(model, entropy_sum, recon_sum, n)
            if n != val_set.n:  # a training row's mean
                return bd
            calls.append(bd)
            if len(calls) == 1:
                return bd
            return ElboBreakdown.from_terms(bd.entropy_term, bd.prior_term, math.nan)

        monkeypatch.setattr(trainer, "_mean_breakdown", nan_after_epoch_0)
        with pytest.raises(TrainingDiverged, match="validation ELBO at epoch 1"):
            train(bars_config(max_epochs=3, batch_size=10), train_set, val_set)
        assert len(calls) == 2

    def test_example_streams_wrap_past_2_to_the_64(self, monkeypatch):
        # seed + EXAMPLE_STREAM_BASE + i passes 2^64 and wraps as Rng wraps it
        train_set, val_set = bars_sets(n_train=30, n_val=10)
        config = bars_config(seed=2**64 - 1, max_epochs=1)
        seen = []
        real = trainer._pass

        def spy(model, images, u, *args):
            seen.append(u)
            return real(model, images, u, *args)

        monkeypatch.setattr(trainer, "_pass", spy)
        train(config, train_set, val_set)
        from dvae.trainer import EXAMPLE_STREAM_BASE
        expected = np.stack([Rng(config.seed + EXAMPLE_STREAM_BASE + i).uniforms(config.d_latents)
                             for i in range(train_set.n)])
        assert seen and seen[0].tobytes() == expected.tobytes()

    def test_batch_mean_equals_mean_of_per_example_gradients(self):
        # the trainer steps by one batch pass's grads times 1/B (sga_step's
        # scale); that equals averaging separate per-example passes
        train_set, _ = bars_sets(n_train=3, n_val=3)
        config = bars_config(batch_size=3)
        model = build_model(config, train_set.p)

        from dvae.trainer import EXAMPLE_STREAM_BASE
        u = np.stack([Rng(config.seed + EXAMPLE_STREAM_BASE + idx).uniforms(config.d_latents)
                      for idx in range(3)])
        model.compute_gradients(train_set.images, u)  # one pass over the 3-row batch
        batched = np.concatenate([model.encoder.grads, model.decoder.grads]) * (1.0 / 3.0)

        separate = np.zeros_like(batched)
        for idx in range(3):
            model.compute_gradients(train_set.images[idx], u[idx])
            separate += np.concatenate([model.encoder.grads, model.decoder.grads])
        separate /= 3.0
        assert np.allclose(batched, separate, rtol=0, atol=1e-12)


class TestTrainingStep:
    """The step train takes is the step dvae verify checks: both take the
    estimator from DiscreteVae.estimate, so after each batch of _pass both
    nets' params hold the bytes that compute_gradients on the same rows and
    each net's sga_step at the batch mean give, and a fault in the estimator
    reaches the trainer and the referee alike."""

    @pytest.mark.parametrize("overlap", [False, True], ids=["in-turn", "helper"])
    @pytest.mark.parametrize("mc", [1, 3])
    def test_pass_steps_as_compute_gradients(self, monkeypatch, mc, overlap):
        train_set, _ = bars_sets(n_train=50, n_val=1)
        config = bars_config()
        model, reference = build_model(config, train_set.p), build_model(config, train_set.p)
        u = Rng(59).uniforms(50 * mc * model.d).reshape(50, mc * model.d)
        indices = batches(train_set, 20, Rng(60))
        assert [len(rows) for rows in indices] == [20, 20, 10]
        for rows in indices:
            x = np.repeat(train_set.images[rows], mc, axis=0)  # one row per sample
            reference.compute_gradients(x, u[rows].reshape(-1, model.d))
            reference.encoder.sga_step(0.05, 1.0 / len(x))
            reference.decoder.sga_step(0.05, 1.0 / len(x))
        if overlap:
            open_overlap(monkeypatch)
        else:
            monkeypatch.setattr(threading, "Thread", None)  # any thread start fails
        jobs = TestOverlappedHelper.handed_jobs(monkeypatch)
        trainer._pass(model, train_set.images, u, lone(indices), 0.05, 1)
        assert len(jobs) == (training_jobs(3) if overlap else 0)  # all to one helper
        assert len(set(map(id, jobs))) == (1 if overlap else 0)
        assert model.encoder.params.tobytes() == reference.encoder.params.tobytes()
        assert model.decoder.params.tobytes() == reference.decoder.params.tobytes()
        fresh = build_model(config, train_set.p)
        assert not np.array_equal(model.encoder.params, fresh.encoder.params)


    def test_one_estimator_reaches_the_trainer_and_the_referee(self, monkeypatch):
        train_set, _ = bars_sets(n_train=20, n_val=1)
        config = bars_config()
        u = Rng(61).uniforms(20 * config.d_latents).reshape(20, config.d_latents)

        def stepped_encoder():
            model = build_model(config, train_set.p)
            trainer._pass(model, train_set.images, u, [(np.arange(20), 1)], 0.05, 1)
            return model.encoder.params

        assert all(check.passed for check in oracle.suite_unbiasedness(42))
        sound = stepped_encoder()
        monkeypatch.setattr("dvae.model.d_elbo_d_probs",  # the score term's sign flipped
                            lambda probs, z, c: d_elbo_d_probs(probs, z, -np.asarray(c)))
        assert not np.array_equal(stepped_encoder(), sound)
        assert not all(check.passed for check in oracle.suite_unbiasedness(42))


class TestSplitStep:
    """_pass decodes and estimates each batch in two row halves (and encodes
    each epoch's first batch so): each half writes its rows of batch-sized
    arrays, read whole by the backward passes."""

    @staticmethod
    def whole_batch_steps(model, images, u, indices, lr):
        """compute_gradients (DiscreteVae.estimate on the whole batch, both
        passes) and both nets' steps at the batch mean, batch by batch."""
        sums = [0.0, 0.0]
        for rows in indices:
            x = np.repeat(images[rows].astype(np.float64), u.shape[1] // model.d, axis=0)
            bd = model.compute_gradients(x, u[rows].reshape(-1, model.d))
            model.encoder.sga_step(lr, 1.0 / len(x))
            model.decoder.sga_step(lr, 1.0 / len(x))
            sums[0] += bd.entropy_term.sum()
            sums[1] += bd.recon_term.sum()
        return sums

    @pytest.mark.parametrize("cpus", [(0, 1), (0,)], ids=["helper", "in-turn"])
    def test_a_split_batch_is_byte_equal_at_the_benchmark_widths(self, monkeypatch, cpus):
        images = np.random.default_rng(11).integers(0, 2, (100, 784), dtype=np.uint8)
        config = TrainConfig(d_latents=20, k_categories=10, hidden_width=512)
        model, reference = build_model(config, 784), build_model(config, 784)
        u = Rng(12).uniforms(100 * 20).reshape(100, 20)
        want = self.whole_batch_steps(reference, images, u, [np.arange(100)], 1e-3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        jobs = TestOverlappedHelper.handed_jobs(monkeypatch)
        got = trainer._pass(model, images, u, [(np.arange(100), 1)], 1e-3, 1)
        assert len(jobs) == (training_jobs(1) if len(cpus) == 2 else 0)
        assert got == want
        assert model.encoder.params.tobytes() == reference.encoder.params.tobytes()
        assert model.decoder.params.tobytes() == reference.decoder.params.tobytes()

    @pytest.mark.parametrize("overlap", [False, True], ids=["in-turn", "helper"])
    def test_uneven_halves_match_whole_batches_at_three_samples(self, monkeypatch, overlap):
        # batches of 37, 37 and 26 examples: 111, 111 and 78 sample rows
        train_set, _ = bars_sets(n_train=100, n_val=1)
        config = bars_config()
        model, reference = build_model(config, train_set.p), build_model(config, train_set.p)
        u = Rng(13).uniforms(100 * 3 * model.d).reshape(100, 3 * model.d)
        indices = batches(train_set, 37, Rng(14))
        want = self.whole_batch_steps(reference, train_set.images, u, indices, 0.05)
        if overlap:
            open_overlap(monkeypatch)
        jobs = TestOverlappedHelper.handed_jobs(monkeypatch)
        got = trainer._pass(model, train_set.images, u, lone(indices), 0.05, 1)
        assert len(jobs) == (training_jobs(3) if overlap else 0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        for net, ref in ((model.encoder, reference.encoder), (model.decoder, reference.decoder)):
            np.testing.assert_allclose(net.params, ref.params, rtol=0, atol=1e-12)
        fresh = build_model(config, train_set.p)
        assert not np.array_equal(model.encoder.params, fresh.encoder.params)

    @pytest.mark.parametrize("overlap", [False, True], ids=["in-turn", "helper"])
    def test_only_a_training_pass_takes_the_decoders_upstream(self, monkeypatch, overlap):
        # a forward-only pass runs neither net's pass, so it takes no upstream
        train_set, _ = bars_sets(n_train=250, n_val=1)
        model = build_model(bars_config(), train_set.p)
        taken = []

        def counted(x, xhat):
            taken.append(len(x))
            return d_recon_d_xhat(x, xhat)

        monkeypatch.setattr("dvae.model.d_recon_d_xhat", counted)
        if overlap:
            open_overlap(monkeypatch)
        jobs = TestOverlappedHelper.handed_jobs(monkeypatch)
        evaluate(model, train_set, Rng(15))
        assert taken == []
        u = Rng(16).uniforms(250 * model.d).reshape(250, model.d)
        indices = batches(train_set, 20, Rng(17))  # 12 batches of 20 and one of 10
        trainer._pass(model, train_set.images, u, lone(indices), 0.05, 1)
        assert taken == [len(rows) for rows in indices]
        assert bool(jobs) == overlap

    def test_build_model_over_the_helper_is_byte_equal_to_in_turn(self, monkeypatch):
        config = bars_config()
        serial, both, jobs = TestOverlappedHelper.in_turn_and_overlapped(
            monkeypatch, lambda: build_model(config, 16))
        assert jobs == 1  # the decoder's init
        for net in ("encoder", "decoder"):
            assert getattr(both, net).params.tobytes() == getattr(serial, net).params.tobytes()
        assert both.encoder.grads is None and both.decoder.grads is None


class TestRecordedTrajectory:
    @pytest.mark.parametrize("mc", [1, 3])
    def test_metrics_and_final_params_match_the_recording(self, mc):
        recorded = json.loads(TRAJECTORY.read_text())[str(mc)]
        rng = Rng(606)
        train_set, val_set = synthetic_bars(48, 6, rng), synthetic_bars(16, 6, rng)
        config = TrainConfig(d_latents=2, k_categories=3, hidden_width=8, learning_rate=0.05,
                             batch_size=10, max_epochs=3, patience=10, seed=17, mc_samples=mc)
        model, history = train(config, train_set, val_set)
        rows = [[r.epoch, r.train_elbo, r.train_entropy, r.train_prior, r.train_recon,
                 r.val_elbo] for r in history]
        assert len(rows) == len(recorded["rows"]) == 4
        for got, want in zip(rows, recorded["rows"]):
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        for net, name in ((model.encoder, "encoder"), (model.decoder, "decoder")):
            assert net.params.size == len(recorded[name])
            np.testing.assert_allclose(net.params, recorded[name], rtol=1e-12, atol=0)


    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("mc", [1, 3])
    def test_forward_only_sums_keep_the_recorded_bits(self, mc):
        # in a child process, so that BLAS runs one thread whatever this one runs
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(trainer.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run([sys.executable, "-c", FORWARD_PIN_RUN, str(mc)], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        runs = json.loads(child.stdout)
        recorded = json.loads(FORWARD_PIN.read_text())[str(mc)]
        assert runs["2"] == recorded
        assert runs["1"] == recorded


def helper_ident():
    """The ident of the thread on which overlapped runs there(), with the
    gate open."""
    return trainer.overlapped(lambda: None, threading.get_ident, 1)[1]


def thread_by_ident(ident):
    return next(thread for thread in threading.enumerate() if thread.ident == ident)


class TestOverlapped:
    def test_runs_there_on_a_helper_thread_and_returns_both(self, monkeypatch):
        open_overlap(monkeypatch)
        here, there = trainer.overlapped(threading.get_ident, threading.get_ident, 1)
        assert here == threading.get_ident() != there
        count = threading.active_count()
        for _ in range(3):  # later calls go to the same helper and start no thread
            assert trainer.overlapped(threading.get_ident, threading.get_ident, 1) == \
                   (here, there)
        assert threading.active_count() == count
        assert thread_by_ident(there).daemon

    def test_helper_sees_the_callers_numpy_error_state(self, monkeypatch):
        open_overlap(monkeypatch)
        with np.errstate(over="ignore"):
            here, there = trainer.overlapped(np.geterr, np.geterr, 1)
        assert here["over"] == there["over"] == "ignore"

    def test_each_job_runs_in_a_copy_of_its_callers_numpy_error_state(self, monkeypatch):
        open_overlap(monkeypatch)
        for mode in ("raise", "warn", "ignore"):
            with np.errstate(over=mode):  # the last job's seterr left nothing behind
                _, (seen, _) = trainer.overlapped(
                    lambda: None, lambda: (np.geterr()["over"], np.seterr(over="call")), 1)
            assert seen == mode
        assert np.geterr()["over"] != "call"

    def test_calling_threads_get_one_helper_each(self, monkeypatch):
        # more calling threads than cores, trading the interpreter lock often:
        # every call gets its own job's value back, from its own thread's helper
        open_overlap(monkeypatch)
        barrier = threading.Barrier(4, timeout=10)
        answers = {}

        def caller(name):
            barrier.wait()  # all call at once
            answers[name] = [trainer.overlapped(lambda: i, lambda: (i, threading.get_ident()), 1)
                             for i in range(50)]
            barrier.wait()  # no helper ends, and frees its ident, before all have run

        callers = [threading.Thread(target=caller, args=(name,)) for name in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        helpers = set()
        for name in range(4):
            assert [(i, j) for i, (j, _) in answers[name]] == [(i, i) for i in range(50)]
            (helper,) = {ident for _, (_, ident) in answers[name]}
            helpers.add(helper)
        assert len(helpers) == 4 and threading.get_ident() not in helpers

    def test_a_calling_threads_exit_ends_its_helper(self, monkeypatch):
        open_overlap(monkeypatch)
        helpers = []
        caller = threading.Thread(target=lambda: helpers.append(thread_by_ident(helper_ident())))
        caller.start()
        caller.join(10)
        assert not caller.is_alive()
        (helper,) = helpers
        helper.join(10)
        assert not helper.is_alive()

    def test_helper_serves_the_next_call_after_an_exception(self, monkeypatch):
        open_overlap(monkeypatch)
        first = helper_ident()

        def fail():
            raise ValueError(threading.get_ident())

        with pytest.raises(ValueError) as err:
            trainer.overlapped(lambda: None, fail, 1)
        assert err.value.args == (first,)
        assert helper_ident() == first

    def test_interrupted_wait_raises_once_the_helpers_job_has_ended(self, monkeypatch):
        # SIGINT reaches the caller while it waits for there(), which then
        # runs on: KeyboardInterrupt is raised after there() has returned
        open_overlap(monkeypatch)
        first = helper_ident()
        sent, done = threading.Event(), []

        def there():
            sent.wait(10)
            time.sleep(0.2)
            done.append(True)

        def interrupt(caller):
            time.sleep(0.05)
            signal.pthread_kill(caller, signal.SIGINT)
            sent.set()

        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        kill = threading.Thread(target=interrupt, args=(threading.get_ident(),))
        try:
            kill.start()
            with pytest.raises(KeyboardInterrupt):
                trainer.overlapped(lambda: None, there, 1)
            assert done == [True]
        finally:
            kill.join(10)
            signal.signal(signal.SIGINT, previous)
        assert helper_ident() == first  # which then serves the next call

    def test_work_below_the_size_gate_runs_in_turn(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(threading, "Thread", None)  # any thread start fails
        me = threading.get_ident()
        assert trainer.overlapped(threading.get_ident, threading.get_ident,
                                  trainer.OVERLAP_MIN_SIZE - 1) == (me, me)

    def test_one_cpu_runs_in_turn(self, monkeypatch):
        open_overlap(monkeypatch, cpus=(3,))
        monkeypatch.setattr(threading, "Thread", None)
        me = threading.get_ident()
        assert trainer.overlapped(threading.get_ident, threading.get_ident, 1 << 40) == (me, me)

    @pytest.mark.parametrize("count", [1, None])
    def test_without_affinity_one_or_unknown_cpu_count_runs_in_turn(self, monkeypatch, count):
        # where os has no sched_getaffinity (macOS, Windows), os.cpu_count decides
        monkeypatch.setattr(trainer, "OVERLAP_MIN_SIZE", 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        monkeypatch.setattr(threading, "Thread", None)  # any thread start fails
        me = threading.get_ident()
        assert trainer.overlapped(threading.get_ident, threading.get_ident, 1) == (me, me)

    def test_without_affinity_two_cpus_start_one_helper(self, monkeypatch):
        monkeypatch.setattr(trainer, "OVERLAP_MIN_SIZE", 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        jobs = TestOverlappedHelper.handed_jobs(monkeypatch)
        here, there = trainer.overlapped(threading.get_ident, threading.get_ident, 1)
        assert len(jobs) == 1 and here == threading.get_ident() != there

    def test_helper_exception_is_raised_on_the_caller_after_the_join(self, monkeypatch):
        open_overlap(monkeypatch)
        helper_ident()  # this thread's helper is running
        before = threading.active_count()
        done = []

        def fail():
            raise MemoryError("helper")

        with pytest.raises(MemoryError, match="helper"):
            trainer.overlapped(lambda: done.append(True), fail, 1)
        assert done == [True] and threading.active_count() == before


class TestOverlappedHelper:
    """The helper thread of overlapped, opened at the suite's small shapes,
    changes no output bit, and every pass hands its jobs to the calling
    thread's one helper."""

    @staticmethod
    def handed_jobs(monkeypatch):
        """The list to which, for each job handed over from now on, the
        helper it is handed to is appended."""
        jobs = []
        hand = trainer._Helper.hand

        def counted(helper, there):
            jobs.append(helper)
            return hand(helper, there)

        monkeypatch.setattr(trainer._Helper, "hand", counted)
        return jobs

    @staticmethod
    def in_turn_and_overlapped(monkeypatch, run):
        """(run() in turn, run() again with the helper opened and the two
        threads trading the interpreter lock often, the number of jobs the
        second run handed over). The first run starts no thread; the second
        hands every job to this thread's helper and starts no thread."""
        with monkeypatch.context() as in_turn:
            in_turn.setattr(threading, "Thread", None)  # any thread start fails
            in_turn.setattr(trainer._Helper, "hand", None)  # any handover fails
            serial = run()
        open_overlap(monkeypatch)
        helper_ident()  # this thread's helper is running
        before = threading.active_count()
        jobs = TestOverlappedHelper.handed_jobs(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            both = run()
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert jobs and all(helper is trainer._callers.helper for helper in jobs)
        return serial, both, len(jobs)

    def test_schedule_pairs_whole_blocks_and_runs_the_rest_alone(self):
        # blocks of 100 examples at one sample, of 33 (99 samples) at three
        assert trainer.schedule(301, 1) == [(slice(0, 200), 2), (slice(200, 300), 1),
                                            (slice(300, 400), 1)]
        assert trainer.schedule(200, 1) == [(slice(0, 200), 2)]
        assert trainer.schedule(150, 1) == [(slice(0, 100), 1), (slice(100, 200), 1)]
        assert trainer.schedule(230, 3) == [(slice(0, 66), 2), (slice(66, 132), 2),
                                            (slice(132, 198), 2), (slice(198, 231), 1)]
        assert trainer.schedule(3, 200) == [(slice(0, 2), 2), (slice(2, 3), 1)]
        assert trainer.schedule(0, 1) == []

    @pytest.mark.parametrize("n", [100, 200, 250])  # 1, 2 and 3 chunks, the last one short
    def test_evaluate_is_bit_identical_to_chunks_in_turn(self, monkeypatch, n):
        train_set, _ = bars_sets(n_train=n)
        model = build_model(bars_config(), train_set.p)
        # The chunk loop written out: encode, sample, decode, add, in turn.
        u = Rng(56).uniforms(n * model.d).reshape(n, model.d)
        entropy = recon = 0.0
        for start in range(0, n, 100):
            x, ux = train_set.images[start:start + 100], u[start:start + 100]
            probs = model.encode(x)
            bd = elbo_estimate(x, probs, model.decode(model.sample_latent(probs, ux)))
            entropy += bd.entropy_term.sum()
            recon += bd.recon_term.sum()
        want = ElboBreakdown.from_terms(entropy / n, -model.d * math.log(model.k), recon / n)
        assert evaluate(model, train_set, Rng(56)) == want
        with monkeypatch.context() as one_cpu:  # the halves in turn, no helper
            open_overlap(one_cpu, cpus=(0,))
            one_cpu.setattr(threading, "Thread", None)  # any thread start fails
            assert evaluate(model, train_set, Rng(56)) == want
        open_overlap(monkeypatch)  # per pair of chunks one, one per other chunk
        jobs = self.handed_jobs(monkeypatch)
        assert evaluate(model, train_set, Rng(56)) == want
        assert len(jobs) == forward_jobs(n)

    # halves of 0|1, 1|1 and 1|2, and a pair of whole chunks and a chunk halved 25|25
    @pytest.mark.parametrize("n", [1, 2, 3, 250])
    def test_evaluate_halves_are_bit_identical_to_halves_in_turn(self, monkeypatch, n):
        train_set, _ = bars_sets(n_train=n)
        model = build_model(bars_config(), train_set.p)
        serial, both, jobs = self.in_turn_and_overlapped(
            monkeypatch, lambda: evaluate(model, train_set, Rng(57)))
        assert both == serial
        assert jobs == forward_jobs(n)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")  # fork with threads
    def test_forked_child_evaluates_byte_identically(self, monkeypatch):
        train_set, _ = bars_sets(n_train=250)
        model = build_model(bars_config(), train_set.p)
        open_overlap(monkeypatch)
        want = np.array(dataclasses.astuple(evaluate(model, train_set, Rng(57)))).tobytes()
        jobs = self.handed_jobs(monkeypatch)  # the parent's helper is running
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: the parent's helper did not survive the fork
            code = 1
            try:
                got = evaluate(model, train_set, Rng(57))
                os.write(write, np.array(dataclasses.astuple(got)).tobytes())
                helper = trainer._callers.helper
                handed = jobs == [helper] * forward_jobs(250)
                code = 0 if handed and helper.pid == os.getpid() else 2
            finally:
                os._exit(code)
        os.close(write)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not end within 30 s")
            time.sleep(0.01)
        with os.fdopen(read, "rb") as child:
            got = child.read()
        assert os.waitstatus_to_exitcode(status[1]) == 0
        assert got == want
        got = evaluate(model, train_set, Rng(57))  # the parent's helper serves on
        assert np.array(dataclasses.astuple(got)).tobytes() == want
        assert jobs == [trainer._callers.helper] * forward_jobs(250)

    def test_epoch_0_row_at_three_samples_is_bit_identical_to_chunks_in_turn(self, monkeypatch):
        # 230 examples in 7 chunks of at most 33 examples (99 samples): three
        # pairs of whole chunks and a short chunk halved
        train_set, val_set = bars_sets(n_train=230)
        config = bars_config(max_epochs=1, mc_samples=3)
        model = build_model(config, train_set.p)
        from dvae.trainer import EXAMPLE_STREAM_BASE
        u = np.stack([Rng(config.seed + EXAMPLE_STREAM_BASE + i).uniforms(3 * config.d_latents)
                      for i in range(train_set.n)])
        # The training set's chunk loop written out: 99 samples a chunk, in turn.
        entropy = recon = 0.0
        for start in range(0, train_set.n, 33):
            x = np.repeat(train_set.images[start:start + 33], 3, axis=0)
            probs = model.encode(x)
            z = model.sample_latent(probs, u[start:start + 33].reshape(-1, config.d_latents))
            bd = elbo_estimate(x, probs, model.decode(z))
            entropy += bd.entropy_term.sum()
            recon += bd.recon_term.sum()
        serial, both, jobs = self.in_turn_and_overlapped(
            monkeypatch, lambda: train(config, train_set, val_set)[1][0])
        assert dataclasses.replace(both, seconds=0.0) == dataclasses.replace(serial, seconds=0.0)
        assert jobs == train_jobs(230, 40, 3, 12, epochs=1)
        assert (both.train_entropy, both.train_recon) == (entropy / 690, recon / 690)

    @pytest.mark.parametrize("mc", [1, 3])
    def test_train_is_bit_identical_to_steps_in_turn(self, monkeypatch, mc):
        # 3 (7 at three samples) chunks in the epoch-0 row, 11 batches of 20
        # and a short one of 10
        train_set, val_set = bars_sets(n_train=230)
        config = bars_config(max_epochs=2, mc_samples=mc)
        (serial_model, serial_history), (model, history), jobs = self.in_turn_and_overlapped(
            monkeypatch, lambda: train(config, train_set, val_set))
        assert jobs == train_jobs(230, 40, mc, 12, epochs=2)
        assert [dataclasses.replace(r, seconds=0.0) for r in history] == \
               [dataclasses.replace(r, seconds=0.0) for r in serial_history]
        assert np.array_equal(model.encoder.params, serial_model.encoder.params)
        assert np.array_equal(model.decoder.params, serial_model.decoder.params)

    def test_zero_lr_rows_repeat_over_the_helper(self, monkeypatch):
        train_set, val_set = bars_sets(n_train=230)
        config = bars_config(learning_rate=0.0, max_epochs=3)
        (_, serial_history), (model, history), jobs = self.in_turn_and_overlapped(
            monkeypatch, lambda: train(config, train_set, val_set))
        assert jobs == train_jobs(230, 40, 1, 12, epochs=3)
        rows = [dataclasses.replace(r, seconds=0.0) for r in history]
        assert rows == [dataclasses.replace(r, seconds=0.0) for r in serial_history]
        for row in rows[1:]:  # train rows differ from epoch 0's only in summation order
            assert row.val_elbo == rows[0].val_elbo
            assert dataclasses.astuple(row)[1:5] == pytest.approx(
                dataclasses.astuple(rows[0])[1:5], rel=0, abs=1e-9)
        fresh = build_model(config, train_set.p)
        assert np.array_equal(model.encoder.params, fresh.encoder.params)
        assert np.array_equal(model.decoder.params, fresh.decoder.params)

    def test_patience_stop_saves_the_same_checkpoint(self, monkeypatch, tmp_path):
        train_set, val_set = bars_sets()
        config = bars_config(learning_rate=0.1, max_epochs=8, patience=2)  # best 2, stop 4
        paths = iter([tmp_path / "serial.ckpt", tmp_path / "both.ckpt"])

        def run():
            path = next(paths)
            _, history = train(config, train_set, val_set, checkpoint_path=path)
            return history, load_checkpoint(path), path.read_bytes()

        (serial_history, serial, serial_bytes), (history, both, both_bytes), jobs = \
            self.in_turn_and_overlapped(monkeypatch, run)
        assert len(history) == len(serial_history) < config.max_epochs + 1  # stopped early
        assert jobs == train_jobs(120, 40, 1, 6, epochs=len(history) - 1)
        assert 0 < both.epoch == serial.epoch
        assert both.rng_state == serial.rng_state != Rng(config.seed + 3).state
        assert both_bytes == serial_bytes

    def test_non_finite_estimate_stops_at_the_same_batch(self, monkeypatch):
        train_set, val_set = bars_sets(n_train=40, n_val=10)
        broken = Dataset(train_set.images.copy(), train_set.rows, train_set.cols)
        broken.images[7, 0] = np.nan
        steps = []
        sga_step = Mlp.sga_step

        def counted(net, lr, scale=1.0):
            steps.append(net.head)
            sga_step(net, lr, scale)

        monkeypatch.setattr(Mlp, "sga_step", counted)

        def run():
            steps.clear()
            with pytest.raises(TrainingDiverged) as err:
                train(bars_config(max_epochs=1, batch_size=10), broken, val_set)
            return str(err.value), len(steps)

        serial, both, jobs = self.in_turn_and_overlapped(monkeypatch, run)
        assert both == serial
        message, n_steps = both
        batch_i = int(message.rpartition("batch ")[2])
        assert message.startswith("non-finite ELBO estimate at epoch 1,")
        assert n_steps == 2 * batch_i  # no step after the non-finite estimate
        # the init, the epoch-0 row's passes, then epoch 1's training pass up
        # to batch i's estimate
        assert jobs == 1 + forward_jobs(40) + forward_jobs(10) + training_jobs(batch_i) + 1

    @staticmethod
    def raises_from(monkeypatch, method, head=HEAD_SOFTMAX, helper=True, run=None):
        """A MemoryError from Mlp.<method> of the net whose head is head, on the
        helper thread (else on the calling thread), reaches the caller of run
        (a one-epoch train by default), no thread is started, and the same
        helper serves the next call."""
        train_set, val_set = bars_sets(n_train=40, n_val=10)
        open_overlap(monkeypatch)
        real = getattr(Mlp, method)
        caller = threading.get_ident()
        raised = []

        def failing(net, *args):
            if net.head == head and (threading.get_ident() != caller) == helper:
                raised.append(threading.get_ident())
                raise MemoryError(f"{head} {method}")
            return real(net, *args)

        first = helper_ident()
        before = threading.active_count()
        with monkeypatch.context() as patched, pytest.raises(MemoryError,
                                                             match=f"{head} {method}"):
            patched.setattr(Mlp, method, failing)
            if run is None:
                train(bars_config(max_epochs=1, batch_size=10), train_set, val_set)
            else:
                run(train_set)
        assert raised == [first if helper else caller]
        assert threading.active_count() == before and helper_ident() == first

    def test_memory_error_in_the_callers_encode_half_reaches_the_caller(self, monkeypatch):
        # every encoder forward of a pass is a row half's; the caller runs the first
        self.raises_from(monkeypatch, "forward", helper=False)

    def test_every_encode_of_a_train_runs_in_row_halves(self, monkeypatch):
        # every job of every pass, training batches included, encodes its rows
        # in two halves into batch-sized buffers: no softmax-head forward runs
        # a whole batch
        train_set, val_set = bars_sets(n_train=40, n_val=10)
        open_overlap(monkeypatch)
        real, calls = Mlp.forward, []

        def spied(net, x, out=None, rows=slice(None)):
            if net.head == HEAD_SOFTMAX:
                calls.append((out is not None, rows != slice(None)))
            return real(net, x, out, rows)

        monkeypatch.setattr(Mlp, "forward", spied)
        train(bars_config(max_epochs=2, batch_size=10), train_set, val_set)
        # the epoch-0 row's two passes and each epoch's four batches and validation
        assert set(calls) == {(True, True)}
        assert len(calls) == 2 * (2 + 2 * (4 + 1))

    def test_memory_error_in_the_encoder_step_reaches_the_caller(self, monkeypatch):
        # the encoder's side of a step runs on the caller, the decoder's on the helper
        self.raises_from(monkeypatch, "sga_step", helper=False)
        self.raises_from(monkeypatch, "backward", helper=False)

    def test_memory_error_in_the_decoder_step_reaches_the_caller(self, monkeypatch):
        self.raises_from(monkeypatch, "backward", head=HEAD_SIGMOID)
        self.raises_from(monkeypatch, "sga_step", head=HEAD_SIGMOID)

    def test_memory_error_in_the_helpers_half_reaches_the_caller(self, monkeypatch):
        model = build_model(bars_config(), 16)
        self.raises_from(monkeypatch, "forward",
                         run=lambda dataset: evaluate(model, dataset, Rng(58)))


def as_float64(dataset):
    return Dataset(dataset.images.astype(np.float64), dataset.rows, dataset.cols)


class TestByteImages:
    """Images held as one uint8 byte per pixel, as load_binarized holds them,
    train and evaluate to the bytes the same images give in float64."""

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("mc", [1, 3])
    def test_train_and_evaluate_match_float64_images(self, tmp_path, monkeypatch, mc, overlap):
        # 3 chunks in the epoch-0 row, 11 batches of 20 and a short one of 10
        write_bars_idx(tmp_path / "train.idx", 230, 4, 61)
        write_bars_idx(tmp_path / "val.idx", 40, 4, 62)
        train_set, val_set = (load_binarized(tmp_path / name) for name in ("train.idx", "val.idx"))
        assert train_set.images.dtype == np.uint8
        if overlap:
            open_overlap(monkeypatch)
        jobs = TestOverlappedHelper.handed_jobs(monkeypatch)
        config = bars_config(max_epochs=2, mc_samples=mc)
        runs = []
        for sets in ((train_set, val_set), (as_float64(train_set), as_float64(val_set))):
            model, history = train(config, *sets)
            runs.append([np.array(dataclasses.astuple(row)[:-1]).tobytes() for row in history]
                        + [model.encoder.params.tobytes(), model.decoder.params.tobytes(),
                           np.array(dataclasses.astuple(evaluate(model, sets[1], Rng(8))))
                           .tobytes()])
        assert runs[0] == runs[1]
        per_train = train_jobs(230, 40, mc, 12, epochs=2)
        assert len(jobs) == (2 * (per_train + forward_jobs(40)) if overlap else 0)

    def test_evaluate_converts_a_chunk_at_a_time(self):
        # one float64 copy of the dataset would be n * p * 8 bytes
        images = np.random.default_rng(9).integers(0, 2, (2000, 784), dtype=np.uint8)
        dataset = Dataset(images, 28, 28)
        model = build_model(bars_config(d_latents=20, k_categories=10, hidden_width=8), 784)
        evaluate(model, dataset, Rng(10))  # fills the caches a first call makes
        peak = traced_peak(lambda: evaluate(model, dataset, Rng(10)))
        assert peak < images.size * 8, peak


class TestMetricsCsv:
    def test_header_and_formatting(self, tmp_path):
        rows = [MetricsRow(0, -1.5, 2.0, -2.0, -1.5, -1.25, 0.125)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "epoch,train_elbo,train_entropy,train_prior,train_recon,val_elbo,seconds"
        assert text[1] == "0,-1.500000,2.000000,-2.000000,-1.500000,-1.250000,0.125000"

    def test_row_totals_equal_term_sums(self):
        train_set, val_set = bars_sets()
        _, history = train(bars_config(max_epochs=2), train_set, val_set)
        for row in history:
            assert row.train_elbo == pytest.approx(
                row.train_entropy + row.train_prior + row.train_recon, abs=1e-12)


class TestCheckpoint:
    def test_round_trip_forward_is_bit_identical(self, tmp_path):
        model, x = tiny_model_and_input(909)
        before = model.encode(x).copy()
        z = model.sample_latent(model.encode(x), Rng(1).uniforms(model.d))
        decoded_before = model.decode(z).copy()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, config=bars_config(), epoch=4, rng_state=777)
        ckpt = load_checkpoint(path)
        assert isinstance(ckpt, Checkpoint)
        assert ckpt.epoch == 4 and ckpt.rng_state == 777
        assert ckpt.config["seed"] == "42"
        assert np.array_equal(ckpt.model.encode(x), before)
        assert np.array_equal(ckpt.model.decode(z), decoded_before)

    def test_loaded_params_are_writable_and_step(self, tmp_path):
        # the loader reads read-only views of the file's bytes; the nets
        # must hold their own copies
        model, x = tiny_model_and_input(910)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path).model
        for net, saved in ((loaded.encoder, model.encoder), (loaded.decoder, model.decoder)):
            assert net.params.flags.writeable
            assert np.array_equal(net.params, saved.params)
            net.backward(np.zeros_like(net.forward(np.zeros(net.sizes[0]))))  # allocates grads
            net.grads[:] = 1.0
            net.sga_step(0.5)
            assert np.array_equal(net.params, saved.params + 0.5)
            assert all(layer.weights.flags.writeable for layer in net.layers)

    def test_loaded_and_evaluated_model_holds_no_gradient_buffer(self, tmp_path, monkeypatch):
        # forward passes alone write no gradient, so none is allocated
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(bars_config(), 16), path)
        model = load_checkpoint(path).model
        open_overlap(monkeypatch)
        dataset, _ = bars_sets(n_train=250, n_val=1)
        for seed in range(3):
            evaluate(model, dataset, Rng(seed))
        for net in (model.encoder, model.decoder):
            assert net.grads is None
            assert all(layer.grad_weights is None and layer.grad_bias is None
                       for layer in net.layers)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("cut", [0, 20], ids=["whole", "short"])
    def test_a_pipe_loads_as_the_same_bytes_in_a_file(self, tmp_path, cut):
        # a pipe, say <(gunzip -c model.ckpt.gz), has no length until it is read
        model, _ = tiny_model_and_input(923)
        regular, pipe = tmp_path / "file", tmp_path / "pipe"
        save_checkpoint(model, regular, config=bars_config(), epoch=2, rng_state=5)
        blob = regular.read_bytes()[:-cut or None]
        regular.write_bytes(blob)

        def outcome(path):
            try:
                ckpt = load_checkpoint(path)
            except CheckpointCorruptError as err:
                return str(err).replace(str(path), "<path>")
            return (ckpt.config, ckpt.epoch, ckpt.rng_state,
                    ckpt.model.encoder.params.tobytes(), ckpt.model.decoder.params.tobytes())

        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(blob,), daemon=True)
        writer.start()
        got = outcome(pipe)
        writer.join(10)
        assert not writer.is_alive()
        assert got == outcome(regular)
        if cut:
            assert got.startswith("<path>: payload is ")
        else:
            assert got[3:] == (model.encoder.params.tobytes(), model.decoder.params.tobytes())

    def test_reads_each_tensor_into_the_model(self, tmp_path):
        # no copy of the file's bytes and no gradient buffer: the peak is
        # the model's params
        model = DiscreteVae(784, 20, 10, 64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        nbytes = model.encoder.params.nbytes + model.decoder.params.nbytes
        load_checkpoint(path)  # fills the caches a first call makes
        assert traced_peak(lambda: load_checkpoint(path)) <= 1.1 * nbytes

    def test_truncated_file_is_corrupt(self, tmp_path):
        model, _ = tiny_model_and_input(910)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry,renamed", [
        ("d=", "xd="), ("k=", "xk="), ("p=", "xp="), ("epoch=", "xepoch="),
        ("rng_state=", "xrng_state="),
        ("enc.1.b ", "enc.1.x "), ("dec.0.w ", "dec.0.x "),
    ])
    def test_missing_header_entry_is_corrupt(self, tmp_path, entry, renamed):
        model, _ = tiny_model_and_input(912)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[12:16])
        header = blob[16:16 + header_len].decode()
        assert entry in header
        # renaming keeps the manifest's size, so only the missing entry is wrong
        header = header.replace(entry, renamed, 1).encode()
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header
                         + blob[16 + header_len:])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_duplicate_tensor_is_corrupt(self, tmp_path):
        model, _ = tiny_model_and_input(915)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[12:16])
        header = blob[16:16 + header_len] + b"tensor=dec.1.b shape=6\n"
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header
                         + blob[16 + header_len:] + np.full(6, 7.0).tobytes())
        with pytest.raises(CheckpointCorruptError, match="dec.1.b is listed twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra,message", [
        (["epoch=9"], "header key epoch is listed twice"),
        (["cfg.seed=7"], "header key cfg.seed is listed twice"),
        (["noequals"], "header line 'noequals' has no '='"),
        ([""], "header line '' has no '='"),
    ], ids=["epoch", "cfg", "no-equals", "empty"])
    def test_malformed_header_line_is_corrupt(self, tmp_path, extra, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model_and_input(920)[0], path, config=bars_config(), epoch=3)
        meta, tensors = read_tensors(path)
        write_tensors(path, meta + extra, tensors)
        with pytest.raises(CheckpointCorruptError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    def test_unknown_header_keys_are_accepted(self, tmp_path):
        # a later writer may add keys, for example cfg.estimator=
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model_and_input(921)[0], path, config=bars_config(), epoch=3)
        meta, tensors = read_tensors(path)
        write_tensors(path, meta + ["cfg.estimator=score", "note=a=b"], tensors)
        ckpt = load_checkpoint(path)
        assert ckpt.epoch == 3 and ckpt.config["estimator"] == "score"

    def test_any_manifest_order_loads_bit_identically(self, tmp_path):
        model, _ = tiny_model_and_input(916)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        meta, tensors = read_tensors(path)
        # decoder before encoder, and each layer's bias before its weights
        tensors.sort(key=lambda t: (t[0].startswith("enc"), t[0][:-2], t[0].endswith(".w")))
        write_tensors(path, meta, tensors)
        assert [t[0] for t in read_tensors(path)[1][:3]] == ["dec.0.b", "dec.0.w", "dec.1.b"]
        loaded = load_checkpoint(path).model
        assert np.array_equal(loaded.encoder.params, model.encoder.params)
        assert np.array_equal(loaded.decoder.params, model.decoder.params)

    def test_tensor_with_no_place_in_the_model_is_corrupt(self, tmp_path):
        # the payload holds every listed tensor, but the model has no layer 7
        # and no tensor named bias
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model_and_input(919)[0], path)
        meta, tensors = read_tensors(path)
        write_tensors(path, meta, tensors + [("dec.7.b", (3,), np.ones(3)),
                                             ("enc.0.bias", (2,), np.ones(2))])
        with pytest.raises(CheckpointCorruptError,
                           match=r"model\.ckpt: tensor dec\.7\.b has no place in the model$"):
            load_checkpoint(path)

    def test_bias_shaped_as_a_row_is_rejected(self, tmp_path):
        # the byte count is right, but a (1, n) tensor must not broadcast into (n,)
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model_and_input(917)[0], path)
        meta, tensors = read_tensors(path)
        tensors = [(n, (1, *s) if n == "enc.0.b" else s, v) for n, s, v in tensors]
        write_tensors(path, meta, tensors)
        with pytest.raises(CheckpointCorruptError, match=r"enc\.0\.b has shape \(1, 8\)"):
            load_checkpoint(path)

    def test_layers_that_do_not_chain_are_rejected(self, tmp_path):
        # enc.1.w takes one more input than enc.0.w puts out
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model_and_input(918)[0], path)
        meta, tensors = read_tensors(path)
        tensors = [(n, (s[0], s[1] + 1), np.zeros((s[0], s[1] + 1))) if n == "enc.1.w"
                   else (n, s, v) for n, s, v in tensors]
        write_tensors(path, meta, tensors)
        with pytest.raises(CheckpointCorruptError,
                           match=r"enc\.1\.w has shape \(6, 9\), expected \(6, 8\)"):
            load_checkpoint(path)

    def test_a_third_encoder_layer_is_corrupt(self, tmp_path):
        # a [16, 8, 8, 6] encoder before a 4-wide decoder: the header's sizes
        # and enc.0.w's 8 rows describe a model whose encoder has two layers
        path = tmp_path / "model.ckpt"
        write_third_layer_checkpoint(path)
        with pytest.raises(CheckpointCorruptError,
                           match=r"model\.ckpt: tensor enc\.2\.w has no place in the model$"):
            load_checkpoint(path)

    def test_sizes_too_large_to_allocate_are_corrupt(self, tmp_path):
        # K = 10^15 asks for a 71 PiB encoder, refused before any is made
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model_and_input(922)[0], path)
        meta, tensors = read_tensors(path)
        write_tensors(path, ["k=1000000000000000" if line.startswith("k=") else line
                             for line in meta], tensors)
        with pytest.raises(CheckpointCorruptError,
                           match=f"^{re.escape(str(path))}: Unable to allocate"):
            load_checkpoint(path)

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTDVAE!" + bytes(32))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_bumped_version_names_versions(self, tmp_path):
        model, _ = tiny_model_and_input(911)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 2  # version field, little-endian
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(path)
        assert "2" in str(err.value) and "1" in str(err.value)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model_and_input(913)[0], path, epoch=1)
        before = path.read_bytes()

        class FailingFile(io.FileIO):
            def write(self, b):
                if self.tell() >= 100:
                    raise OSError("no space left on device")
                return super().write(b)

        monkeypatch.setattr(trainer, "open", lambda file, mode: FailingFile(file, "w"),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(tiny_model_and_input(914)[0], path, epoch=2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path).epoch == 1
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_magic_constant(self):
        assert CHECKPOINT_MAGIC == b"DVAECKPT"

    def test_train_writes_checkpoint(self, tmp_path):
        train_set, val_set = bars_sets(n_train=40, n_val=20)
        path = tmp_path / "model.ckpt"
        model, history = train(bars_config(max_epochs=1, batch_size=10),
                               train_set, val_set, checkpoint_path=path)
        ckpt = load_checkpoint(path)
        x = train_set.images[0]
        assert np.array_equal(ckpt.model.encode(x), model.encode(x))
