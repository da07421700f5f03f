import math
import threading

import numpy as np
import pytest

from dvae.distributions import EPS, Rng
from dvae.model import (
    DiscreteVae,
    d_entropy_d_probs,
    d_logq_d_probs,
    d_recon_d_xhat,
    elbo_estimate,
    uniform_params,
)
from dvae.network import HEAD_SIGMOID, HEAD_SOFTMAX, Mlp
from dvae.oracle import (
    enumerate_table,
    exact_encoder_gradient,
    finite_difference,
    tiny_model_and_input,
)
from dvae.tensor import ShapeError
from helpers import open_overlap, zero_init_model

# Regression fixture: model from DiscreteVae.create(5, 2, 3, 4, Rng(901), Rng(902))
# applied to x = [0, 1, 1, 0, 1]; outputs generated once and frozen.
FIXTURE_X = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
FIXTURE_ENCODE = np.array([
    [0.33223216937019984, 0.31078780457557542, 0.35698002605422480],
    [0.13436385691790179, 0.28711869340357216, 0.57851744967852603],
])
FIXTURE_Z = np.array([1, 2])
FIXTURE_DECODE = np.array([
    0.6406353001874174, 0.6837962602053882, 0.7028064892841879,
    0.6748057230848052, 0.7187156500900465,
])


def fixture_model():
    return DiscreteVae.create(p=5, d=2, k=3, hidden=4,
                              encoder_rng=Rng(901), decoder_rng=Rng(902))


class TestEncodeDecode:
    def test_zero_init_encoder_is_uniform(self):
        model = zero_init_model()
        probs = model.encode(np.array([1.0, 0.0, 1.0, 1.0]))
        assert np.allclose(probs, 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        model, x = tiny_model_and_input(321)
        probs = model.encode(x)
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_encode_golden_fixture(self):
        probs = fixture_model().encode(FIXTURE_X)
        assert np.allclose(probs, FIXTURE_ENCODE, rtol=0, atol=1e-15)

    def test_zero_init_decoder_outputs_half(self):
        model = zero_init_model()
        assert np.array_equal(model.decode(np.array([0, 1])), np.full(4, 0.5))

    def test_decode_in_open_unit_interval(self):
        model, x = tiny_model_and_input(322)
        z = model.sample_latent(model.encode(x), Rng(3).uniforms(model.d))
        xhat = model.decode(z)
        assert np.all(xhat > 0.0) and np.all(xhat < 1.0)

    def test_decode_golden_fixture(self):
        assert np.allclose(fixture_model().decode(FIXTURE_Z), FIXTURE_DECODE,
                           rtol=0, atol=1e-15)

    def test_with_params_stack_decodes_each_row_as_its_own_model(self):
        model, x = tiny_model_and_input(323)
        thetas = model.decoder.params + 1e-2 * Rng(4).uniforms(
            5 * model.decoder.params.size).reshape(5, -1)
        stacked = model.with_params(theta=thetas)
        assert stacked.encoder is model.encoder and stacked.decoder.params is thetas
        z = np.array([[0, 2], [1, 1]])
        xhat = stacked.decode(z)
        assert xhat.shape == (5, 2, model.p)
        for theta, rows in zip(thetas, xhat):
            assert rows.tobytes() == model.with_params(theta=theta).decode(z).tobytes()

    def test_encoder_input_must_match_decoder_output(self):
        encoder = Mlp([5, 6], HEAD_SOFTMAX, softmax_shape=(2, 3))
        decoder = Mlp([6, 4], HEAD_SIGMOID)
        with pytest.raises(ShapeError, match="encoder input 5 != decoder output 4"):
            DiscreteVae(encoder, decoder, 2, 3)


class TestSampleLatent:
    def test_one_hot_params_give_deterministic_sample(self):
        probs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        model = zero_init_model(d=2, k=3)
        rng = Rng(5)
        for _ in range(10):
            z = model.sample_latent(probs, rng.uniforms(2))
            assert z.tolist() == [1, 0]

    def test_fair_coin_frequency(self):
        model = zero_init_model(d=1, k=2, p=2, hidden=2)
        probs = uniform_params(1, 2)
        rng = Rng(606)
        n = 100_000
        z = model.sample_latent(probs, rng.uniforms(n).reshape(n, 1))
        zeros = int((z[:, 0] == 0).sum())
        assert abs(zeros / n - 0.5) < 0.01

    def test_one_hot_and_indices_agree(self):
        model, x = tiny_model_and_input(323)
        probs = model.encode(x)
        rng = Rng(7)
        rows = []
        for _ in range(1000):
            z = model.sample_latent(probs, rng.uniforms(model.d))
            assert z.shape == (model.d,) and np.all((z >= 0) & (z < model.k))
            rows.append(z)

        # one batched draw from the same stream picks the same categories
        batch = model.sample_latent(probs, Rng(7).uniforms(1000 * model.d).reshape(1000, model.d))
        assert batch.shape == (1000, model.d) and batch.dtype.kind == "i"
        assert np.array_equal(batch, np.array(rows))

        # decode feeds the decoder one one-hot row per latent, 1.0 at its index
        hot = np.zeros((1000, model.d, model.k))
        for i, z in enumerate(rows):
            hot[i, np.arange(model.d), z] = 1.0
        assert np.array_equal(model.decode(batch), model.decoder.forward(hot.reshape(1000, -1)))


class TestLogQ:
    def test_uniform_params(self):
        model = zero_init_model(d=2, k=4, p=3, hidden=2)
        probs = uniform_params(2, 4)
        z = model.sample_latent(probs, Rng(8).uniforms(2))
        assert model.log_q(probs, z) == pytest.approx(2 * math.log(0.25), abs=1e-12)

    def test_one_hot_params_matching_z(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = zero_init_model(d=2, k=2, p=3, hidden=2)
        assert abs(model.log_q(probs, np.array([0, 1]))) < 1e-6

    def test_hand_evaluated(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        model = zero_init_model(d=2, k=2, p=3, hidden=2)
        expected = math.log(0.5) + math.log(0.75)
        assert model.log_q(probs, np.array([0, 1])) == pytest.approx(expected, abs=1e-12)


class TestElboEstimate:
    def test_uniform_params_cancel_prior(self):
        d, k, p = 2, 3, 4
        probs = uniform_params(d, k)
        x = np.array([1.0, 0.0, 1.0, 0.0])
        xhat = np.full(p, 0.5)
        bd = elbo_estimate(x, probs, xhat)
        assert bd.entropy_term == pytest.approx(d * math.log(k), abs=1e-12)
        assert bd.prior_term == -d * math.log(k)
        assert bd.total == pytest.approx(bd.recon_term, abs=1e-12)

    def test_perfect_reconstruction(self):
        probs = uniform_params(2, 3)
        x = np.array([1.0, 0.0, 1.0, 1.0])
        bd = elbo_estimate(x, probs, x)
        assert bd.total == pytest.approx(bd.entropy_term + bd.prior_term,
                                         abs=1e-6 * len(x))

    def test_total_is_exact_term_sum(self):
        model, x = tiny_model_and_input(324)
        probs = model.encode(x)
        xhat = model.decode(model.sample_latent(probs, Rng(1).uniforms(model.d)))
        bd = elbo_estimate(x, probs, xhat)
        assert bd.total == bd.entropy_term + bd.prior_term + bd.recon_term
        assert bd.recon_term <= 0.0
        assert 0.0 <= bd.entropy_term <= model.d * math.log(model.k) + 1e-12


class TestComputeGradients:
    def test_entropy_gradient_vanishes_at_uniform(self):
        # zero-weight encoder puts every row at the entropy maximum, where the
        # entropy upstream has zero pull on the logits
        model = zero_init_model()
        x = np.array([1.0, 0.0, 0.0, 1.0])
        probs = model.encode(x)
        model.encoder.backward(d_entropy_d_probs(probs))
        final = model.encoder.layers[-1]
        assert np.allclose(final.grad_bias, 0.0, rtol=0, atol=1e-14)
        assert np.allclose(final.grad_weights, 0.0, rtol=0, atol=1e-14)

    def test_score_gradient_vanishes_at_unit_probability(self):
        # a (numerically) one-hot row gives grad log q = 0 through the softmax
        logits = np.array([[40.0, 0.0, 0.0], [0.0, 40.0, 0.0]])
        net = Mlp([6, 6], HEAD_SOFTMAX, softmax_shape=(2, 3))
        net.layers[0].weights[:] = np.eye(6)
        probs = net.forward(logits.reshape(-1))
        indices = np.array([0, 1])
        net.backward(d_logq_d_probs(probs, indices))
        assert np.allclose(net.layers[0].grad_bias, 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("z", [np.array([0, 2]), np.array([[0, 2], [1, 0], [2, 2]])],
                             ids=["one-example", "batch-of-3"])
    def test_score_gradient_matches_finite_differences_of_log_q(self, z):
        # each entry of the probability matrix is perturbed on its own; one
        # selected entry sits below EPS, where the clipped log is flat, and
        # the step is small enough that both perturbed values stay clipped
        model = zero_init_model(d=2, k=3)
        probs = Rng(12).uniforms(z.size * 3).reshape(*z.shape, 3) + 0.1
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[..., 1, 2] = 1e-8
        h = 1e-9

        def objective(vecs):  # examples share no entries, so the sum separates
            m = len(vecs)
            log_q = model.log_q(vecs.reshape(m, *probs.shape), np.broadcast_to(z, (m, *z.shape)))
            return log_q.reshape(m, -1).sum(axis=1)

        numeric = finite_difference(objective, probs.ravel(), h).reshape(probs.shape)
        analytic = d_logq_d_probs(probs, z)
        assert probs[..., 1, 2].max() < EPS and np.any(z[..., 1] == 2)
        assert np.all(analytic[..., 1, 2] == 0.0) and np.all(numeric[..., 1, 2] == 0.0)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-6)

    def test_decoder_upstream_bit_identical_to_masked_form(self):
        # the old masked gather/scatter, kept as the oracle: zero where the
        # clip is active, the exact derivative strictly inside it
        levels = [0.0, EPS, 1.0 - EPS, 1.0, 0.5, 0.3, 1e-3, 0.999]
        xhat = np.array(levels * 3)
        x = np.array([0.0] * len(levels) + [1.0] * len(levels) + [0.5] * len(levels))
        expected = np.zeros_like(xhat)
        inside = (xhat > EPS) & (xhat < 1.0 - EPS)
        expected[inside] = x[inside] / xhat[inside] - (1.0 - x[inside]) / (1.0 - xhat[inside])
        got = d_recon_d_xhat(x, xhat)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_decoder_grads_match_finite_differences(self):
        from dvae.distributions import aggregate_bce
        from dvae.oracle import scaled_gradient_error

        model, x = tiny_model_and_input(325)
        u = Rng(17).uniforms(model.d)
        model.compute_gradients(x, u)
        analytic = model.decoder.grads.copy()
        z = model.sample_latent(model.encode(x), u)  # same draws => same z

        def objective(thetas):
            return -aggregate_bce(model.with_params(theta=thetas).decode(z), x)

        fd = finite_difference(objective, model.decoder.params, 1e-5)
        assert scaled_gradient_error(analytic, fd) <= 1e-4

    def test_decoder_params_reach_encoder_grads_only_through_coefficient(self):
        # swapping decoders changes the encoder gradient only by scaling the
        # score direction: (gA - gB) / (cA - cB) is decoder-independent
        model, x = tiny_model_and_input(326)
        encoder = model.encoder

        def encoder_grad_with(decoder_seed):
            other = DiscreteVae.create(model.p, model.d, model.k, 8,
                                       Rng(decoder_seed), Rng(decoder_seed + 1))
            hybrid = DiscreteVae(encoder, other.decoder, model.d, model.k)
            bd = hybrid.compute_gradients(x, Rng(99).uniforms(model.d))  # same z every call
            return hybrid.encoder.grads.copy(), bd.recon_term

        g_a, c_a = encoder_grad_with(1001)
        g_b, c_b = encoder_grad_with(2002)
        g_c, c_c = encoder_grad_with(3003)
        s_ab = (g_a - g_b) / (c_a - c_b)
        s_ac = (g_a - g_c) / (c_a - c_c)
        assert np.allclose(s_ab, s_ac, rtol=0, atol=1e-10)

    def test_runs_in_turn_with_the_helper_gate_open(self, monkeypatch):
        # an encoder over the trainer's size gate, on two CPUs: compute_gradients
        # still starts no thread
        rng = Rng(71)
        x = (rng.uniforms(8 * 64) < 0.5).astype(float).reshape(8, 64)
        u = rng.uniforms(8 * 2).reshape(8, 2)
        reference = DiscreteVae.create(64, 2, 3, 512, Rng(72), Rng(73))
        bd_reference = reference.compute_gradients(x, u)
        open_overlap(monkeypatch)
        monkeypatch.setattr(threading, "Thread", None)  # any thread start fails
        model = DiscreteVae.create(64, 2, 3, 512, Rng(72), Rng(73))
        assert model.encoder.params.size >= 1 << 15
        bd = model.compute_gradients(x, u)
        assert np.array_equal(bd.total, bd_reference.total)
        assert np.array_equal(model.encoder.grads, reference.encoder.grads)
        assert np.array_equal(model.decoder.grads, reference.decoder.grads)

    def test_report_carries_live_accumulators_and_scalars(self):
        # the gradients land in the networks' live buffers; the returned
        # terms hold one value per example of the batch
        model, x = tiny_model_and_input(327)
        xs = np.stack([x, 1.0 - x, x])
        bd = model.compute_gradients(xs, Rng(31).uniforms(3 * model.d).reshape(3, model.d))
        assert bd.entropy_term.shape == bd.recon_term.shape == bd.total.shape == (3,)
        assert np.array_equal(bd.total, bd.entropy_term + bd.prior_term + bd.recon_term)
        assert np.all(np.isfinite(bd.total))
        assert np.all(np.isfinite(model.encoder.grads))
        assert np.all(np.isfinite(model.decoder.grads))
        assert np.any(model.encoder.grads != 0.0)

    def test_mean_single_sample_elbo_stays_below_log_px(self):
        from dvae.oracle import exact_marginal_log_px

        model, x = tiny_model_and_input(329, p=4)
        log_px = exact_marginal_log_px(enumerate_table(model, x))
        rng = Rng(330)
        n = 4000
        probs = model.encode(x)
        z = model.sample_latent(probs, rng.uniforms(n * model.d).reshape(n, model.d))
        totals = elbo_estimate(x, probs, model.decode(z)).total
        se = totals.std(ddof=1) / math.sqrt(n)
        assert totals.mean() <= log_px + 5 * se

    def test_mc_mean_approaches_exact_gradient(self):
        # small-draw smoke test of unbiasedness; the acceptance suite runs
        # the full-scale version
        model, x = tiny_model_and_input(328, p=4)
        exact = exact_encoder_gradient(model, x, enumerate_table(model, x))
        stream = Rng(500)
        n = 10_000
        total = np.zeros_like(exact)
        sq = np.zeros_like(exact)
        for u in stream.uniforms(n * model.d).reshape(n, model.d):
            model.compute_gradients(x, u)
            g = model.encoder.grads.copy()
            total += g
            sq += g * g
        mean = total / n
        se = np.sqrt(np.maximum(sq - n * mean * mean, 0.0) / (n - 1) / n)
        z = np.abs(mean - exact) / np.where(se > 0, se, 1.0)
        assert float(z.max()) < 6.0
