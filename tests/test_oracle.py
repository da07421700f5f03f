import math

import numpy as np
import pytest

from dvae import oracle
from dvae.distributions import Rng
from dvae.model import DiscreteVae
from dvae.network import flat_grads, flat_params, set_flat_params
from dvae.oracle import (
    CapacityError,
    EnumerationTable,
    enumerate_table,
    exact_elbo,
    exact_encoder_gradient,
    exact_marginal_log_px,
    exact_posterior,
    finite_difference,
    lexicographic_indices,
    scaled_gradient_error,
    suite_bound,
    suite_gradient_checks,
    suite_unbiasedness,
    tiny_model_and_input,
)
from helpers import zero_init_model


def small_model(p, d, k, seed=11):
    return DiscreteVae.create(p, d, k, hidden=3, encoder_rng=Rng(seed),
                              decoder_rng=Rng(seed + 1))


def hand_table(log_px):
    n = len(log_px)
    latents = np.zeros((n, 1), dtype=np.int64)
    return EnumerationTable(latents, np.full(n, 1.0 / n), np.asarray(log_px, dtype=float))


class TestEnumerate:
    def test_row_counts(self):
        model = small_model(3, 1, 2)
        assert len(enumerate_table(model, np.array([1.0, 0.0, 1.0])).latents) == 2

        model = small_model(3, 3, 4)
        table = enumerate_table(model, np.array([0.0, 1.0, 1.0]))
        assert len(table.latents) == 64
        assert table.q_probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_encoder_gives_flat_q(self):
        model = zero_init_model(p=3, d=2, k=3)
        table = enumerate_table(model, np.array([1.0, 0.0, 1.0]))
        assert np.allclose(table.q_probs, 1.0 / 9.0, rtol=0, atol=1e-15)

    def test_lexicographic_order_last_latent_fastest(self):
        assert lexicographic_indices(3, 4, 0).tolist() == [0, 0, 0]
        assert lexicographic_indices(3, 4, 1).tolist() == [0, 0, 1]
        assert lexicographic_indices(3, 4, 4).tolist() == [0, 1, 0]
        assert lexicographic_indices(3, 4, 63).tolist() == [3, 3, 3]
        table = enumerate_table(small_model(3, 3, 4), np.array([0.0, 1.0, 1.0]))
        assert table.latents.shape == (64, 3)
        assert np.array_equal(table.latents[4], [0, 1, 0])
        assert np.array_equal(table.latents, lexicographic_indices(3, 4, np.arange(64)))

    def test_capacity_guard(self):
        model = DiscreteVae.create(2, 7, 10, hidden=None,
                                   encoder_rng=Rng(1), decoder_rng=Rng(2))
        with pytest.raises(CapacityError):
            enumerate_table(model, np.array([1.0, 0.0]))


class TestMarginal:
    def test_z_independent_decoder(self):
        # decoder ignores z and outputs 0.5 everywhere, so p(x) = 0.5^P
        model = zero_init_model(p=4, d=2, k=3)
        x = np.array([1.0, 0.0, 1.0, 1.0])
        table = enumerate_table(model, x)
        assert exact_marginal_log_px(table) == pytest.approx(4 * math.log(0.5), abs=1e-9)

    def test_hand_built_two_row_table(self):
        table = hand_table([math.log(0.4), math.log(0.6)])
        assert exact_marginal_log_px(table) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_dominates_elbo(self):
        for seed in range(12):
            model, x = tiny_model_and_input(9000 + 31 * seed)
            table = enumerate_table(model, x)
            slack = exact_marginal_log_px(table) - exact_elbo(table, model.encode(x))
            assert slack >= -1e-10


class TestExactElbo:
    def test_bound_is_tight_when_q_equals_posterior(self):
        # uniform encoder and z-independent decoder: posterior == prior == q
        model = zero_init_model(p=5, d=2, k=4)
        x = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        table = enumerate_table(model, x)
        elbo = exact_elbo(table, model.encode(x))
        assert abs(exact_marginal_log_px(table) - elbo) <= 1e-10

    def test_log_likelihood_identity(self):
        for seed in range(10):
            model, x = tiny_model_and_input(8100 + 17 * seed)
            table = enumerate_table(model, x)
            elbo = exact_elbo(table, model.encode(x))
            log_px = exact_marginal_log_px(table)
            post = exact_posterior(table)
            q = table.q_probs
            nz = q > 0
            kl = float((q[nz] * np.log(q[nz] / post[nz])).sum())
            assert abs(log_px - elbo - kl) <= 1e-8


class TestPosterior:
    def test_z_independent_decoder_gives_prior(self):
        model = zero_init_model(p=3, d=1, k=4)
        table = enumerate_table(model, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(exact_posterior(table), 0.25, rtol=0, atol=1e-12)

    def test_dominant_likelihood_concentrates(self):
        table = hand_table([0.0, -math.log(1e6)])  # likelihood ratio 1e6
        post = exact_posterior(table)
        assert post[0] > 0.999999

    def test_sums_to_one(self):
        for seed in range(10):
            model, x = tiny_model_and_input(8200 + 13 * seed)
            post = exact_posterior(enumerate_table(model, x))
            assert abs(post.sum() - 1.0) <= 1e-12


class TestFiniteDifference:
    def test_quadratic(self):
        grad = finite_difference(lambda v: float(v[0] ** 2), np.array([3.0]), 1e-5)
        assert grad[0] == pytest.approx(6.0, abs=1e-8)

    def test_linear_is_exact(self):
        grad = finite_difference(lambda v: float(2.5 * v[0] - v[1]),
                                 np.array([0.7, -0.3]), 1e-5)
        assert np.allclose(grad, [2.5, -1.0], rtol=0, atol=1e-9)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_difference(lambda v: 0.0, np.zeros(1), 0.0)


class TestExactEncoderGradient:
    def test_matches_finite_differences_of_exact_elbo(self):
        model, x = tiny_model_and_input(777)
        analytic = exact_encoder_gradient(model, x)
        phi0 = flat_params(model.encoder)

        def objective(vec):
            set_flat_params(model.encoder, vec)
            return exact_elbo(enumerate_table(model, x), model.encode(x))

        fd = finite_difference(objective, phi0, 1e-5)
        set_flat_params(model.encoder, phi0)
        assert scaled_gradient_error(analytic, fd) <= 1e-4


class TestSuites:
    def test_gradient_suite_passes(self):
        assert all(c.passed for c in suite_gradient_checks(2024, n_nets=3))

    def test_bound_suite_passes(self):
        assert all(c.passed for c in suite_bound(2024, n_models=20))

    def test_encoder_check_matches_per_evaluation_enumeration(self, monkeypatch):
        # the suite enumerates log p(x|z) once per net; re-enumerating the
        # table on every finite-difference evaluation gives the same bits
        seed, n_nets = 3, 2
        worst = 0.0
        for i in range(n_nets):
            model, x = tiny_model_and_input(seed + 1000 * i)
            analytic = exact_encoder_gradient(model, x)
            phi0 = flat_params(model.encoder)

            def objective(vec):
                set_flat_params(model.encoder, vec)
                return exact_elbo(enumerate_table(model, x), model.encode(x))

            numeric = finite_difference(objective, phi0, 1e-5)
            set_flat_params(model.encoder, phi0)
            worst = max(worst, scaled_gradient_error(analytic, numeric))

        calls = []

        def counted(*args):
            calls.append(args)
            return enumerate_table(*args)

        monkeypatch.setattr(oracle, "enumerate_table", counted)
        checks = {c.name: c for c in suite_gradient_checks(seed, n_nets=n_nets)}
        assert checks["encoder-grad-vs-finite-diff"].measured == worst
        assert len(calls) == 2 * n_nets  # the exact gradient's and the hoisted table


def per_draw_unbiasedness(seed, n_draws):
    """The statistics of suite_unbiasedness from one B=1 compute_gradients
    pass per draw: max z, fraction of z above 3, and the ELBO z."""
    model, x = tiny_model_and_input(seed + 77, p=4)
    exact_grad = exact_encoder_gradient(model, x)
    exact_value = exact_elbo(enumerate_table(model, x), model.encode(x))
    grads, totals = [], []
    for u in Rng(seed + 78).uniforms(n_draws * model.d).reshape(n_draws, model.d):
        model.encoder.zero_grads()
        model.decoder.zero_grads()
        totals.append(float(model.compute_gradients(x, u).total))
        grads.append(flat_grads(model.encoder))
    grads, totals = np.array(grads), np.array(totals)
    se = grads.std(axis=0, ddof=1) / math.sqrt(n_draws)
    diff = np.abs(grads.mean(axis=0) - exact_grad)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / se)
    e_z = abs(totals.mean() - exact_value) / (totals.std(ddof=1) / math.sqrt(n_draws))
    return float(z.max()), float((z > 3.0).mean()), e_z


class TestUnbiasednessSuite:
    def test_counting_matches_per_draw_loop(self, monkeypatch):
        seed, n_draws, block = 6, 2500, 37
        model, x = tiny_model_and_input(seed + 77, p=4)
        u = Rng(seed + 78).uniforms(n_draws * model.d).reshape(n_draws, model.d)
        config = model.sample_latent(model.encode(x), u).indices @ [model.k, 1]
        first_seen = [int(np.argmax(config == c)) for c in np.unique(config)]
        assert max(first_seen) >= 2 * block  # some configuration shows up late

        monkeypatch.setattr(oracle, "DRAW_BLOCK", block)
        checks = suite_unbiasedness(seed, n_draws=n_draws)
        expected = per_draw_unbiasedness(seed, n_draws)
        for check, value in zip(checks, expected):
            assert check.measured == pytest.approx(value, rel=1e-9, abs=1e-12)
            assert check.passed == (value <= check.tolerance)
        assert checks[0].note == f"{n_draws} draws"

    def test_seed_7_fails_frac_above_3z_at_9_of_94(self):
        checks = {c.name: c for c in suite_unbiasedness(7)}
        frac = checks["encoder-grad-mc-mean-frac-above-3z"]
        assert frac.measured == 9 / 94 and not frac.passed
        assert frac.note == "94 parameters"

    def test_same_latent_gives_bit_identical_pass(self):
        # the counting suite rests on this: a draw's pass depends on its
        # uniforms only through the latent configuration they select
        model, x = tiny_model_and_input(6 + 77, p=4)
        u = Rng(84).uniforms(200 * model.d).reshape(200, model.d)
        config = model.sample_latent(model.encode(x), u).indices @ [model.k, 1]
        rows = np.flatnonzero(config == config[0])[:2]
        assert len(rows) == 2 and not np.array_equal(u[rows[0]], u[rows[1]])
        results = []
        for row in rows:
            model.encoder.zero_grads()
            model.decoder.zero_grads()
            bd = model.compute_gradients(x, u[row])
            results.append((bd.total, flat_grads(model.encoder), flat_grads(model.decoder)))
        (t0, enc0, dec0), (t1, enc1, dec1) = results
        assert t0 == t1
        assert np.array_equal(enc0, enc1) and np.array_equal(dec0, dec1)
