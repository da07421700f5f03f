"""Exact brute-force ground truth at desk scale, plus finite differences.

Everything the estimators claim in expectation is recomputed here by
enumerating all K^D latent configurations: the marginal likelihood, the
exact ELBO, the exact posterior, and the exact encoder gradient. The
likelihood is the one the decoder actually realizes (Bernoulli with the
EPS-clipped log), so the identities hold exactly for the implemented model.

Enumeration order is lexicographic with latent 0 the slowest-moving digit,
so tables are comparable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dvae.distributions import (
    EPS,
    Rng,
    aggregate_bce,
    aggregate_entropy,
    categorical_sample,
)
from dvae.model import (
    CHUNK_ROWS,
    CategoricalParams,
    DiscreteVae,
    LatentSample,
    d_entropy_d_probs,
    one_hot,
)
from dvae.network import flat_grads, flat_params, set_flat_params

# Full enumeration beyond this many latent configurations is refused.
CAPACITY_LIMIT = 10 ** 6
# Uniforms drawn per block, in latent rows, by the Monte Carlo suite.
DRAW_BLOCK = 10_000


class CapacityError(ValueError):
    """The latent space is too large to enumerate."""


@dataclass
class EnumerationTable:
    """All K^D latent configurations with their q(z|x) and log p(x|z)."""

    latents: np.ndarray          # (K^D, D) category indices, table order
    q_probs: np.ndarray          # (K^D,), products of encoder row probabilities
    log_px_given_z: np.ndarray   # (K^D,), Bernoulli log-likelihood of x per z


def lexicographic_indices(d: int, k: int, flat) -> np.ndarray:
    """Decode flat table positions (any shape) into per-latent category
    indices along a new trailing D axis, latent 0 the slowest-moving digit."""
    return np.asarray(flat)[..., None] // k ** np.arange(d - 1, -1, -1) % k


def table_q_probs(probs: np.ndarray, latents: np.ndarray) -> np.ndarray:
    """q(z|x) of each table row: the product of the encoder's (D, K) row
    probabilities at the row's category indices."""
    return probs[np.arange(probs.shape[0]), latents].prod(axis=1)


def enumerate_table(model: DiscreteVae, x: np.ndarray) -> EnumerationTable:
    """Build the full table for one input. Refuses K^D > CAPACITY_LIMIT."""
    n = model.k ** model.d
    if n > CAPACITY_LIMIT:
        raise CapacityError(
            f"K^D = {model.k}^{model.d} = {n} exceeds the enumeration "
            f"limit {CAPACITY_LIMIT}"
        )
    x = np.asarray(x, dtype=np.float64)
    latents = lexicographic_indices(model.d, model.k, np.arange(n))
    q_probs = table_q_probs(model.encode(x).probs, latents)
    log_px = np.empty(n)
    for start in range(0, n, CHUNK_ROWS):
        idx = latents[start:start + CHUNK_ROWS]
        z = LatentSample(one_hot(idx, model.k), idx)
        log_px[start:start + CHUNK_ROWS] = -aggregate_bce(model.decode(z), x)
    return EnumerationTable(latents, q_probs, log_px)


def exact_marginal_log_px(table: EnumerationTable) -> float:
    """ln p(x) = ln sum_z p(x|z) K^-D, via log-sum-exp with max subtraction."""
    lp = table.log_px_given_z
    m = float(lp.max())
    return m + math.log(np.exp(lp - m).sum()) - math.log(len(lp))


def exact_elbo(table: EnumerationTable, params: CategoricalParams) -> float:
    """Exact ELBO: aggregate entropy - D*ln(K) + E_q[log p(x|z)] over the table."""
    expected_ll = float((table.q_probs * table.log_px_given_z).sum())
    return float(aggregate_entropy(params.probs)) - params.d * math.log(params.k) + expected_ll


def exact_posterior(table: EnumerationTable) -> np.ndarray:
    """p(z|x) over the table; the uniform prior cancels, so this is the
    softmax of the log-likelihood column."""
    lp = table.log_px_given_z
    e = np.exp(lp - lp.max())
    return e / e.sum()


def exact_encoder_gradient(model: DiscreteVae, x: np.ndarray) -> np.ndarray:
    """Exact gradient of the ELBO w.r.t. the flattened encoder parameters.

    The score term is summed over the whole table,
    sum_z q(z|x) log p(x|z) grad log q(z|x), and added to the analytic
    entropy-term gradient; the same EPS convention as the estimator applies
    at the (never exercised in tests) clip boundary. Clobbers and then
    clears the encoder's gradient buffers.
    """
    table = enumerate_table(model, x)
    probs = model.encode(x).probs
    weight = np.zeros_like(probs)
    np.add.at(weight, (np.arange(model.d), table.latents),
              (table.q_probs * table.log_px_given_z)[:, None])
    score_up = np.where(probs >= EPS, weight / np.maximum(probs, EPS), 0.0)
    model.encoder.zero_grads()
    model.encoder.backward(d_entropy_d_probs(probs) + score_up)
    grad = flat_grads(model.encoder)
    model.encoder.zero_grads()
    return grad


def finite_difference(objective, params: np.ndarray, h: float) -> np.ndarray:
    """Central difference (f(p+h) - f(p-h)) / 2h per coordinate of a flat
    parameter vector. The objective must be deterministic."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    params = np.asarray(params, dtype=np.float64)
    grad = np.empty_like(params)
    for j in range(params.size):
        plus = params.copy()
        plus[j] += h
        minus = params.copy()
        minus[j] -= h
        grad[j] = (objective(plus) - objective(minus)) / (2.0 * h)
    return grad


def scaled_gradient_error(analytic: np.ndarray, numeric: np.ndarray,
                          rel_tol: float = 1e-4, abs_floor: float = 1e-8) -> float:
    """Worst-case per-parameter error, scaled so that a return value
    <= rel_tol means every parameter matches within relative rel_tol with
    an absolute floor of abs_floor for near-zero gradients."""
    a = np.abs(np.asarray(analytic) - np.asarray(numeric))
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), abs_floor / rel_tol)
    return float((a / denom).max())


# --- verification suites -----------------------------------------------
#
# Small self-contained checks over random tiny models, driven by the CLI's
# verify command and by the acceptance tests. Each suite returns CheckResult
# rows; a check passes when measured stays on the right side of tolerance.

TINY_P, TINY_D, TINY_K, TINY_HIDDEN = 6, 2, 3, 8


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    note: str = ""


def tiny_model_and_input(seed: int, p: int = TINY_P, d: int = TINY_D,
                         k: int = TINY_K, hidden: int = TINY_HIDDEN
                         ) -> tuple[DiscreteVae, np.ndarray]:
    """Randomly initialized desk-scale model plus a random binary input."""
    model = DiscreteVae.create(p, d, k, hidden, Rng(seed), Rng(seed + 1))
    bits = Rng(seed + 2)
    x = np.array([float(bits.randint(2)) for _ in range(p)])
    return model, x


def suite_gradient_checks(seed: int, n_nets: int = 10) -> list[CheckResult]:
    """Analytic gradients vs central finite differences (h = 1e-5) on random
    tiny models: the decoder's reconstruction gradient at a frozen latent,
    and the exact encoder gradient against the enumerated ELBO."""
    h = 1e-5
    worst_dec = 0.0
    worst_enc = 0.0
    for i in range(n_nets):
        model, x = tiny_model_and_input(seed + 1000 * i)
        draw = seed + 1000 * i + 3

        u = Rng(draw).uniforms(model.d)
        model.encoder.zero_grads()
        model.decoder.zero_grads()
        model.compute_gradients(x, u)
        analytic_dec = flat_grads(model.decoder)
        z = model.sample_latent(model.encode(x), u)  # same draws, same z

        theta0 = flat_params(model.decoder)

        def recon_of(vec):
            set_flat_params(model.decoder, vec)
            return -aggregate_bce(model.decode(z), x)

        fd_dec = finite_difference(recon_of, theta0, h)
        set_flat_params(model.decoder, theta0)
        worst_dec = max(worst_dec, scaled_gradient_error(analytic_dec, fd_dec))

        analytic_enc = exact_encoder_gradient(model, x)
        phi0 = flat_params(model.encoder)
        table = enumerate_table(model, x)  # log p(x|z) does not depend on phi

        def elbo_of(vec):
            set_flat_params(model.encoder, vec)
            params = model.encode(x)
            q_probs = table_q_probs(params.probs, table.latents)
            return exact_elbo(EnumerationTable(table.latents, q_probs, table.log_px_given_z),
                              params)

        fd_enc = finite_difference(elbo_of, phi0, h)
        set_flat_params(model.encoder, phi0)
        worst_enc = max(worst_enc, scaled_gradient_error(analytic_enc, fd_enc))

    return [
        CheckResult("decoder-grad-vs-finite-diff", worst_dec <= 1e-4, worst_dec,
                    1e-4, f"max scaled error over {n_nets} nets"),
        CheckResult("encoder-grad-vs-finite-diff", worst_enc <= 1e-4, worst_enc,
                    1e-4, f"max scaled error over {n_nets} nets"),
    ]


def suite_unbiasedness(seed: int, n_draws: int = 200_000) -> list[CheckResult]:
    """Monte Carlo means vs enumerated ground truth on one tiny model:
    per-parameter encoder gradients within 5 standard errors (at most 1% of
    parameters beyond 3), and the single-sample ELBO total within 5.

    The model is never stepped, so a draw's encoder gradient and ELBO
    estimate depend on its uniforms only through the latent z they select:
    each is one of K^D per-configuration values. The suite therefore counts
    the draws per configuration, makes one real B=1 compute_gradients call
    on the first draw that selects each configuration, and forms the sums
    and sums of squares as count-weighted sums. This equals the per-draw
    loop up to float summation order.
    """
    model, x = tiny_model_and_input(seed + 77, p=4)
    exact_grad = exact_encoder_gradient(model, x)
    table = enumerate_table(model, x)
    params = model.encode(x)
    exact_value = exact_elbo(table, params)

    n_configs = len(table.latents)
    place = model.k ** np.arange(model.d - 1, -1, -1)  # inverts lexicographic_indices
    counts = np.zeros(n_configs)
    grads = np.zeros((n_configs, exact_grad.size))
    totals = np.zeros(n_configs)
    stream = Rng(seed + 78)
    for start in range(0, n_draws, DRAW_BLOCK):
        block = min(DRAW_BLOCK, n_draws - start)
        u = stream.uniforms(block * model.d).reshape(block, model.d)
        # The indices sample_latent would draw, without its one-hot rows.
        config = categorical_sample(params.probs, u) @ place
        block_counts = np.bincount(config, minlength=n_configs)
        for c in np.flatnonzero((block_counts > 0) & (counts == 0)):
            model.encoder.zero_grads()
            model.decoder.zero_grads()
            totals[c] = model.compute_gradients(x, u[np.argmax(config == c)]).total
            grads[c] = flat_grads(model.encoder)
        counts += block_counts

    g_sum = counts @ grads
    g_sumsq = counts @ (grads * grads)
    e_sum = float(counts @ totals)
    e_sumsq = float(counts @ (totals * totals))
    n = float(n_draws)
    g_mean = g_sum / n
    g_var = np.maximum(g_sumsq - n * g_mean * g_mean, 0.0) / (n - 1.0)
    g_se = np.sqrt(g_var / n)
    diff = np.abs(g_mean - exact_grad)
    zscores = np.where(g_se > 0.0, diff / np.where(g_se > 0.0, g_se, 1.0), np.inf)
    zscores = np.where(diff == 0.0, 0.0, zscores)

    e_mean = e_sum / n
    e_se = math.sqrt(max(e_sumsq - n * e_mean * e_mean, 0.0) / (n - 1.0) / n)
    e_z = abs(e_mean - exact_value) / e_se if e_se > 0.0 else 0.0

    frac3 = float((zscores > 3.0).mean())
    return [
        CheckResult("encoder-grad-mc-mean-max-z", float(zscores.max()) <= 5.0,
                    float(zscores.max()), 5.0, f"{n_draws} draws"),
        CheckResult("encoder-grad-mc-mean-frac-above-3z", frac3 <= 0.01,
                    frac3, 0.01, f"{zscores.size} parameters"),
        CheckResult("elbo-estimate-mc-mean-z", e_z <= 5.0, e_z, 5.0,
                    f"exact {exact_value:.6f}, mean {e_mean:.6f}"),
    ]


def suite_bound(seed: int, n_models: int = 100) -> list[CheckResult]:
    """Over random tiny models: the exact ELBO never exceeds the exact
    marginal log-likelihood, and log p(x) decomposes exactly into
    ELBO + KL(q || posterior)."""
    min_slack = math.inf
    max_residual = 0.0
    for i in range(n_models):
        model, x = tiny_model_and_input(seed + 17 + 1000 * i)
        table = enumerate_table(model, x)
        elbo = exact_elbo(table, model.encode(x))
        log_px = exact_marginal_log_px(table)
        posterior = exact_posterior(table)
        q = table.q_probs
        nz = q > 0.0
        kl_q_post = float((q[nz] * np.log(q[nz] / posterior[nz])).sum())
        min_slack = min(min_slack, log_px - elbo)
        max_residual = max(max_residual, abs(log_px - elbo - kl_q_post))
    return [
        CheckResult("elbo-lower-bound-min-slack", min_slack >= -1e-10,
                    min_slack, -1e-10, f"{n_models} models, pass if >= tolerance"),
        CheckResult("log-likelihood-identity-residual", max_residual <= 1e-8,
                    max_residual, 1e-8, f"{n_models} models"),
    ]


SUITES = {
    "grads": suite_gradient_checks,
    "unbiased": suite_unbiasedness,
    "bound": suite_bound,
}
