import math

import numpy as np
import pytest

from dvae import oracle
from dvae.distributions import Rng
from dvae.model import DiscreteVae
from dvae.oracle import (
    TINY_D,
    TINY_HIDDEN,
    TINY_K,
    TINY_P,
    CapacityError,
    EnumerationTable,
    configuration_gradients,
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
    table_q_probs,
    tiny_model_and_input,
    tiny_models_and_inputs,
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
        model = DiscreteVae.create(2, 7, 10, hidden=1,
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
        grad = finite_difference(lambda v: v[:, 0] ** 2, np.array([3.0]), 1e-5)
        assert grad[0] == pytest.approx(6.0, abs=1e-8)

    def test_linear_is_exact(self):
        grad = finite_difference(lambda v: 2.5 * v[:, 0] - v[:, 1],
                                 np.array([0.7, -0.3]), 1e-5)
        assert np.allclose(grad, [2.5, -1.0], rtol=0, atol=1e-9)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_difference(lambda v: np.zeros(len(v)), np.zeros(1), 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_step_naming_it(self, h):
        # nan and inf pass a plain h <= 0 test and would give an all-NaN gradient
        with pytest.raises(ValueError, match=f"h={h}"):
            finite_difference(lambda v: np.zeros(len(v)), np.zeros(1), h)

    def test_rejects_an_objective_without_one_value_per_row(self):
        with pytest.raises(ValueError, match="expected"):
            finite_difference(lambda v: 0.0, np.zeros(2), 1e-5)

    def test_one_call_on_a_stack_of_plus_and_minus_rows(self):
        p0 = np.array([0.1, -2.7, 1e-3, 3.0e5])
        params = p0.copy()
        h = 1e-5
        seen = []

        def objective(stack):
            seen.append(stack.copy())
            return stack @ [1.0, 2.0, 3.0, 4.0]

        finite_difference(objective, params, h)
        assert len(seen) == 1
        stack = seen[0]
        assert stack.shape == (2 * p0.size, p0.size)
        for j in range(p0.size):
            plus, minus = p0.copy(), p0.copy()
            plus[j] = p0[j] + h
            minus[j] = p0[j] - h
            assert stack[2 * j].tobytes() == plus.tobytes()
            assert stack[2 * j + 1].tobytes() == minus.tobytes()
        assert params.tobytes() == p0.tobytes()


class TestScaledGradientError:
    def test_relative_error_above_the_floor(self):
        # |1 - 1.00005| / 1.00005
        err = scaled_gradient_error(np.array([1.0]), np.array([1.00005]))
        assert err == pytest.approx(5e-5, rel=1e-4)

    def test_near_zero_gradients_are_scaled_by_the_floor(self):
        # 5e-9 / (1e-8 / 1e-4): an absolute 1e-8 reads as the relative 1e-4
        err = scaled_gradient_error(np.array([0.0]), np.array([5e-9]))
        assert err == pytest.approx(5e-5, rel=1e-12)

    def test_worst_parameter_decides(self):
        analytic = np.array([1.0, 0.0, 3.0, -2.0])
        numeric = np.array([1.0, 2e-9, 3.003, -2.00001])
        err = scaled_gradient_error(analytic, numeric)
        assert err == pytest.approx(0.003 / 3.003, rel=1e-9)
        assert scaled_gradient_error(analytic[[0, 1, 3]], numeric[[0, 1, 3]]) < err


class TestExactEncoderGradient:
    def test_matches_finite_differences_of_exact_elbo(self):
        model, x = tiny_model_and_input(777)
        analytic = exact_encoder_gradient(model, x, enumerate_table(model, x))

        def objective(phis):
            return [exact_elbo(enumerate_table(m, x), m.encode(x))
                    for m in (model.with_params(phi=phi) for phi in phis)]

        fd = finite_difference(objective, model.encoder.params, 1e-5)
        assert scaled_gradient_error(analytic, fd) <= 1e-4

    def test_stacked_tables_match_one_table_per_row(self):
        model, x = tiny_model_and_input(778)
        phis = model.encoder.params + 1e-3 * Rng(5).uniforms(
            3 * model.encoder.params.size).reshape(3, -1)
        probs = model.with_params(phi=phis).encode(x)
        table = enumerate_table(model, x)
        q_probs = table_q_probs(probs, table.latents)
        assert q_probs.shape == (3, len(table.latents)) and q_probs.flags.c_contiguous
        stacked = exact_elbo(EnumerationTable(table.latents, q_probs, table.log_px_given_z),
                             probs)
        for phi, q_row, value in zip(phis, q_probs, stacked):
            one = model.with_params(phi=phi)
            one_table = enumerate_table(one, x)
            assert q_row.tobytes() == one_table.q_probs.tobytes()
            assert value == exact_elbo(one_table, one.encode(x))


class TestConfigurationGradients:
    @pytest.mark.parametrize("seed", [3, 7, 42, 92, 206])
    def test_q_weighted_rows_give_exact_gradient_and_elbo(self, seed):
        model, x = tiny_model_and_input(seed + 77, p=4)  # the unbiasedness suite's model
        table = enumerate_table(model, x)
        grads, totals = configuration_gradients(model, x, table)
        assert grads.shape == (len(table.latents), model.encoder.params.size)
        assert totals.shape == (len(table.latents),)
        exact_grad = exact_encoder_gradient(model, x, table)
        assert np.abs(table.q_probs @ grads - exact_grad).max() <= 1e-14
        assert abs(table.q_probs @ totals - exact_elbo(table, model.encode(x))) <= 1e-14


class TestSuites:
    def test_gradient_suite_passes(self):
        assert all(c.passed for c in suite_gradient_checks(2024, n_nets=3))

    def test_bound_suite_passes(self):
        assert all(c.passed for c in suite_bound(2024, n_models=20))

    def test_encoder_check_matches_per_evaluation_enumeration(self, monkeypatch):
        # the suite builds and enumerates its nets as one stack and runs each
        # finite-difference stack in one forward pass; one net and one table
        # per finite-difference evaluation gives the same bits
        seed, n_nets = 3, 2
        worst = 0.0
        for i in range(n_nets):
            model, x = tiny_model_and_input(seed + 1000 * i)
            analytic = exact_encoder_gradient(model, x, enumerate_table(model, x))

            def objective(phis):
                return [exact_elbo(enumerate_table(m, x), m.encode(x))
                        for m in (model.with_params(phi=phi) for phi in phis)]

            numeric = finite_difference(objective, model.encoder.params, 1e-5)
            worst = max(worst, scaled_gradient_error(analytic, numeric))

        calls = []

        def counted(*args):
            calls.append(args)
            return enumerate_table(*args)

        monkeypatch.setattr(oracle, "enumerate_table", counted)
        checks = {c.name: c for c in suite_gradient_checks(seed, n_nets=n_nets)}
        assert checks["encoder-grad-vs-finite-diff"].measured == worst
        assert len(calls) == 1  # one stacked table, its rows shared with the exact gradients

    @pytest.mark.parametrize("suite,size,least", [
        (suite_gradient_checks, "n_nets", 1),
        (suite_bound, "n_models", 1),
        (suite_unbiasedness, "n_draws", 2),
    ])
    def test_too_small_sizes_are_rejected(self, suite, size, least):
        for value in (least - 1, -1):
            with pytest.raises(ValueError, match=f"{size} must be at least {least}"):
                suite(3, **{size: value})


def per_model_bound(seed, n_models):
    """Slack log p(x) - ELBO and identity residual |slack - KL(q || posterior)|
    of each of suite_bound's models, from one model, one table and scalar
    exact_* calls at a time."""
    slacks, residuals = [], []
    for i in range(n_models):
        model, x = tiny_model_and_input(seed + 17 + 1000 * i)
        table = enumerate_table(model, x)
        elbo = exact_elbo(table, model.encode(x))
        log_px = exact_marginal_log_px(table)
        assert isinstance(elbo, float) and isinstance(log_px, float)
        q, posterior = table.q_probs, exact_posterior(table)
        nz = q > 0.0
        kl = float((q[nz] * np.log(q[nz] / posterior[nz])).sum())
        slacks.append(log_px - elbo)
        residuals.append(abs(log_px - elbo - kl))
    return np.array(slacks), np.array(residuals)


class TestStackedBound:
    SEEDS = [0, 5, 2**64 - 20, 2**64 - 1, 2**64 + 3]  # the last three wrap past 2^64

    def test_builder_rows_equal_models_built_one_seed_at_a_time(self):
        models, xs = tiny_models_and_inputs(self.SEEDS)
        assert xs.shape == (len(self.SEEDS), TINY_P)
        for i, s in enumerate(self.SEEDS):
            one = DiscreteVae.create(TINY_P, TINY_D, TINY_K, TINY_HIDDEN, Rng(s), Rng(s + 1))
            bits = Rng(s + 2)
            x = np.array([float(bits.randint(2)) for _ in range(TINY_P)])
            assert models.encoder.params[i].tobytes() == one.encoder.params.tobytes()
            assert models.decoder.params[i].tobytes() == one.decoder.params.tobytes()
            assert xs[i].tobytes() == x.tobytes()

    def test_one_seed_model_has_its_own_gradients(self):
        model, x = tiny_model_and_input(2**64 + 3)
        assert model.encoder.params.ndim == 1 and x.shape == (TINY_P,)
        model.compute_gradients(x, Rng(1).uniforms(model.d))
        assert np.abs(model.encoder.grads).sum() > 0.0

    def test_stacked_table_rows_equal_one_table_per_model(self):
        models, xs = tiny_models_and_inputs(self.SEEDS)
        table = enumerate_table(models, xs)
        for i, s in enumerate(self.SEEDS):
            model, x = tiny_model_and_input(s)
            one = enumerate_table(model, x)
            assert np.array_equal(table.latents, one.latents)
            for name in ("q_probs", "log_px_given_z", "probs"):
                assert getattr(table, name)[i].tobytes() == getattr(one, name).tobytes()
            assert exact_marginal_log_px(table)[i] == exact_marginal_log_px(one)
            assert exact_posterior(table)[i].tobytes() == exact_posterior(one).tobytes()

    def test_stacked_slacks_and_residuals_equal_the_per_model_loop(self):
        for seed in range(20):
            models, xs = tiny_models_and_inputs([seed + 17 + 1000 * i for i in range(100)])
            table = enumerate_table(models, xs)
            slack = exact_marginal_log_px(table) - exact_elbo(table, table.probs)
            q = table.q_probs
            kl = (q * np.log(q / exact_posterior(table))).sum(axis=-1)
            slacks, residuals = per_model_bound(seed, 100)
            assert slack.tobytes() == slacks.tobytes()
            assert np.abs(slack - kl).tobytes() == residuals.tobytes()
            min_slack, max_residual = (c.measured for c in suite_bound(seed))
            assert min_slack == slacks.min() and max_residual == residuals.max()

    def test_bound_holds_on_every_seed_below_1000(self):
        worst_slack, worst_residual = math.inf, 0.0
        for seed in range(1000):
            slack, residual = suite_bound(seed)
            assert slack.passed and residual.passed, seed
            worst_slack = min(worst_slack, slack.measured)
            worst_residual = max(worst_residual, residual.measured)
        assert worst_slack > 0.0 and worst_residual < 1e-14


def per_draw_unbiasedness(seed, n_draws):
    """The statistics of suite_unbiasedness from one B=1 compute_gradients
    pass per draw: max z, fraction of z above 3, and the ELBO z."""
    model, x = tiny_model_and_input(seed + 77, p=4)
    table = enumerate_table(model, x)
    exact_grad = exact_encoder_gradient(model, x, table)
    exact_value = exact_elbo(table, model.encode(x))
    grads, totals = [], []
    for u in Rng(seed + 78).uniforms(n_draws * model.d).reshape(n_draws, model.d):
        totals.append(float(model.compute_gradients(x, u).total))
        grads.append(model.encoder.grads.copy())
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
        monkeypatch.setattr(oracle, "DRAW_BLOCK", block)  # 2500 draws end in a partial block
        checks = suite_unbiasedness(seed, n_draws=n_draws)
        expected = per_draw_unbiasedness(seed, n_draws)
        for check, value in zip(checks, expected):
            assert check.measured == pytest.approx(value, rel=1e-9, abs=1e-12)
            assert check.passed == (value <= check.tolerance)
        assert checks[0].note == f"{n_draws} draws"

    @pytest.mark.parametrize("n_draws", [10, 2500])
    def test_one_pass_per_configuration_with_positive_q(self, monkeypatch, n_draws):
        # 10 draws select only some configurations; every q > 0 row still gets its pass
        seed = 6
        model, x = tiny_model_and_input(seed + 77, p=4)
        n_positive = int((enumerate_table(model, x).q_probs > 0.0).sum())
        calls = []
        real = DiscreteVae.compute_gradients

        def counted(self, x, u):
            calls.append(u)
            return real(self, x, u)

        monkeypatch.setattr(DiscreteVae, "compute_gradients", counted)
        suite_unbiasedness(seed, n_draws=n_draws)
        assert len(calls) == n_positive

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
        config = model.sample_latent(model.encode(x), u) @ [model.k, 1]
        rows = np.flatnonzero(config == config[0])[:2]
        assert len(rows) == 2 and not np.array_equal(u[rows[0]], u[rows[1]])
        results = []
        for row in rows:
            bd = model.compute_gradients(x, u[row])
            results.append((bd.total, model.encoder.grads.copy(), model.decoder.grads.copy()))
        (t0, enc0, dec0), (t1, enc1, dec1) = results
        assert t0 == t1
        assert np.array_equal(enc0, enc1) and np.array_equal(dec0, dec1)
