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

from dvae.distributions import (EPS, MAX_SEED, Rng, aggregate_bce, aggregate_entropy,
                                stream_uniforms)
from dvae.model import CHUNK_ROWS, DiscreteVae, d_entropy_d_probs

# Full enumeration beyond this many latent configurations is refused.
CAPACITY_LIMIT = 10 ** 6
# Uniforms drawn per block, in latent rows, by the Monte Carlo suite.
DRAW_BLOCK = 10_000


class CapacityError(ValueError):
    """The latent space is too large to enumerate."""


@dataclass
class EnumerationTable:
    """All K^D latent configurations with their q(z|x) and log p(x|z); for a
    stack of m models, q_probs, log_px_given_z and probs gain a leading m axis."""

    latents: np.ndarray          # (K^D, D) category indices, table order
    q_probs: np.ndarray          # (K^D,), products of encoder row probabilities
    log_px_given_z: np.ndarray   # (K^D,), Bernoulli log-likelihood of x per z
    probs: np.ndarray | None = None  # (D, K) encoder rows; None for a hand-built table


def lexicographic_indices(d: int, k: int, flat) -> np.ndarray:
    """Decode flat table positions (any shape) into per-latent category
    indices along a new trailing D axis, latent 0 the slowest-moving digit."""
    return np.asarray(flat)[..., None] // k ** np.arange(d - 1, -1, -1) % k


def table_q_probs(probs: np.ndarray, latents: np.ndarray) -> np.ndarray:
    """q(z|x) of each table row: the product of the encoder's (..., D, K) row
    probabilities at the row's category indices, shaped (..., K^D)."""
    # C order, so that sums over the table round as they do for one (D, K).
    return np.ascontiguousarray(probs[..., np.arange(probs.shape[-2]), latents].prod(axis=-1))


def enumerate_table(model: DiscreteVae, x: np.ndarray) -> EnumerationTable:
    """Build the full table for one input (p,), or for an (m, p) stack of
    inputs to a stack of m models, row i to model i. Refuses K^D >
    CAPACITY_LIMIT."""
    n = model.k ** model.d
    if n > CAPACITY_LIMIT:
        raise CapacityError(
            f"K^D = {model.k}^{model.d} = {n} exceeds the enumeration "
            f"limit {CAPACITY_LIMIT}"
        )
    x = np.asarray(x, dtype=np.float64)[..., None, :]  # one input row per model
    latents = lexicographic_indices(model.d, model.k, np.arange(n))
    probs = model.encode(x)[..., 0, :, :]
    log_px = np.empty((*x.shape[:-2], n))
    for start in range(0, n, CHUNK_ROWS):
        z = latents[start:start + CHUNK_ROWS]
        log_px[..., start:start + CHUNK_ROWS] = -aggregate_bce(model.decode(z), x)
    return EnumerationTable(latents, table_q_probs(probs, latents), log_px, probs)


def exact_marginal_log_px(table: EnumerationTable) -> float | np.ndarray:
    """ln p(x) = ln sum_z p(x|z) K^-D, via log-sum-exp with max subtraction;
    a float for one table, else one value per leading index."""
    lp = table.log_px_given_z
    m = lp.max(axis=-1)
    # libm's log, as math.log takes it: numpy's SIMD log can differ in the last bit.
    log_sum = np.vectorize(math.log, otypes=[float])(np.exp(lp - m[..., None]).sum(axis=-1))
    value = m + log_sum - math.log(lp.shape[-1])
    return float(value) if value.ndim == 0 else value


def exact_elbo(table: EnumerationTable, probs: np.ndarray) -> float | np.ndarray:
    """Exact ELBO for the encoder's (..., D, K) probabilities: aggregate
    entropy - D*ln(K) + E_q[log p(x|z)] over the table, whose q_probs are
    (..., K^D). A float for one (D, K), else one value per leading index."""
    d, k = probs.shape[-2:]
    expected_ll = (table.q_probs * table.log_px_given_z).sum(axis=-1)
    value = aggregate_entropy(probs) - d * math.log(k) + expected_ll
    return float(value) if value.ndim == 0 else value


def exact_posterior(table: EnumerationTable) -> np.ndarray:
    """p(z|x) over the table (one row per leading index); the uniform prior
    cancels, so this is the softmax of the log-likelihood column."""
    lp = table.log_px_given_z
    e = np.exp(lp - lp.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def exact_encoder_gradient(model: DiscreteVae, x: np.ndarray,
                           table: EnumerationTable) -> np.ndarray:
    """Exact gradient of the ELBO w.r.t. the flattened encoder parameters,
    given the model's enumeration table for x.

    The score term is summed over the whole table,
    sum_z q(z|x) log p(x|z) grad log q(z|x), and added to the analytic
    entropy-term gradient; the same EPS convention as the estimator applies
    at the (never exercised in tests) clip boundary. x is encoded here, so
    the encoder's cache holds x's activations for the backward pass.
    Overwrites the encoder's gradient buffers.
    """
    probs = model.encode(x)
    weight = np.zeros_like(probs)
    np.add.at(weight, (np.arange(model.d), table.latents),
              (table.q_probs * table.log_px_given_z)[:, None])
    score_up = np.where(probs >= EPS, weight / np.maximum(probs, EPS), 0.0)
    model.encoder.backward(d_entropy_d_probs(probs) + score_up)
    return model.encoder.grads.copy()


def configuration_gradients(model: DiscreteVae, x: np.ndarray, table: EnumerationTable
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The K^D values the score-function estimator takes at this model and x,
    one per row of its enumeration table: grads (K^D, n_phi) holds the
    encoder gradient and totals (K^D,) the single-sample ELBO estimate.

    Each row with q > 0 gets one real B=1 compute_gradients call whose
    uniforms sit at the midpoint of each latent's CDF interval for the row's
    categories, so the pass samples that row; rows with q = 0 stay zero.
    Weighted by q, the rows give exact_encoder_gradient and exact_elbo.
    Overwrites both networks' gradient buffers.
    """
    probs = model.encode(x)
    u = (np.cumsum(probs, axis=-1) - probs / 2)[np.arange(model.d), table.latents]
    grads = np.zeros((len(u), model.encoder.params.size))
    totals = np.zeros(len(u))
    for c in np.flatnonzero(table.q_probs > 0.0):
        totals[c] = model.compute_gradients(x, u[c]).total
        grads[c] = model.encoder.grads
    return grads, totals


def finite_difference(objective, params: np.ndarray, h: float) -> np.ndarray:
    """Central difference (f(p+h) - f(p-h)) / 2h per coordinate of the flat
    float64 vector params, from one objective call on a (2n, n) stack: row
    2j is params with entry j set to p_j + h, row 2j+1 with it set to p_j - h.
    The objective returns the 2n values of its rows; params is not written.
    The stack holds 2n^2 floats, which suits desk-scale nets only."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step must be positive and finite, got h={h}")
    n = params.size
    stack = np.tile(params, (2 * n, 1))
    coord = np.arange(n)
    stack[2 * coord, coord] = params + h
    stack[2 * coord + 1, coord] = params - h
    values = np.asarray(objective(stack), dtype=np.float64)
    if values.shape != (2 * n,):
        raise ValueError(f"objective returned shape {values.shape}, expected {(2 * n,)}")
    return (values[0::2] - values[1::2]) / (2.0 * h)


GRAD_REL_TOL, GRAD_ABS_FLOOR = 1e-4, 1e-8


def scaled_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case per-parameter error, scaled so that a return value
    <= GRAD_REL_TOL means every parameter matches within relative
    GRAD_REL_TOL with an absolute floor of GRAD_ABS_FLOOR for near-zero
    gradients."""
    a = np.abs(np.asarray(analytic) - np.asarray(numeric))
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                       GRAD_ABS_FLOOR / GRAD_REL_TOL)
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


def tiny_models_and_inputs(seeds, p: int = TINY_P) -> tuple[DiscreteVae, np.ndarray]:
    """A stack of randomly initialized desk-scale models (TINY_* sizes), one
    per int seed s, and their random binary inputs (m, p). Model s is
    DiscreteVae.create with Rng(s) and Rng(s + 1), and its input takes
    randint(2) = floor(2u) per pixel from Rng(s + 2). Seeds of any size wrap
    modulo 2^64."""
    seeds = np.array([s & MAX_SEED for s in seeds], dtype=np.uint64)  # uint64 sums wrap
    model = DiscreteVae.create(p, TINY_D, TINY_K, TINY_HIDDEN, seeds, seeds + 1)
    return model, np.floor(stream_uniforms(seeds + 2, p) * 2.0)


def tiny_model_and_input(seed: int, p: int = TINY_P) -> tuple[DiscreteVae, np.ndarray]:
    """The one-seed case of tiny_models_and_inputs, as a model of its own."""
    models, x = tiny_models_and_inputs([seed], p)
    return models.with_params(models.encoder.params[0], models.decoder.params[0]), x[0]


def suite_gradient_checks(seed: int, n_nets: int = 10) -> list[CheckResult]:
    """Analytic gradients vs central finite differences (h = 1e-5) on random
    tiny models: the decoder's reconstruction gradient at a frozen latent,
    and the exact encoder gradient against the enumerated ELBO. The nets are
    built and enumerated as one stack, then checked one at a time."""
    if n_nets < 1:
        raise ValueError(f"n_nets must be at least 1, got {n_nets}")
    h = 1e-5
    models, xs = tiny_models_and_inputs([seed + 1000 * i for i in range(n_nets)])
    tables = enumerate_table(models, xs)  # log p(x|z) does not depend on phi
    worst_dec = 0.0
    worst_enc = 0.0
    for i in range(n_nets):
        model = models.with_params(models.encoder.params[i], models.decoder.params[i])
        x = xs[i]
        draw = seed + 1000 * i + 3

        u = Rng(draw).uniforms(model.d)
        model.compute_gradients(x, u)
        z = model.sample_latent(model.encode(x), u)  # same draws, same z

        # Each objective runs one forward pass over its whole stack.
        def recon_of(thetas):
            return -aggregate_bce(model.with_params(theta=thetas).decode(z), x)

        fd_dec = finite_difference(recon_of, model.decoder.params, h)
        worst_dec = max(worst_dec, scaled_gradient_error(model.decoder.grads, fd_dec))

        table = EnumerationTable(tables.latents, tables.q_probs[i], tables.log_px_given_z[i])
        analytic_enc = exact_encoder_gradient(model, x, table)

        def elbo_of(phis):
            probs = model.with_params(phi=phis).encode(x)
            q_probs = table_q_probs(probs, table.latents)
            return exact_elbo(EnumerationTable(table.latents, q_probs, table.log_px_given_z),
                              probs)

        fd_enc = finite_difference(elbo_of, model.encoder.params, h)
        worst_enc = max(worst_enc, scaled_gradient_error(analytic_enc, fd_enc))

    return [
        CheckResult("decoder-grad-vs-finite-diff", worst_dec <= GRAD_REL_TOL, worst_dec,
                    GRAD_REL_TOL, f"max scaled error over {n_nets} nets"),
        CheckResult("encoder-grad-vs-finite-diff", worst_enc <= GRAD_REL_TOL, worst_enc,
                    GRAD_REL_TOL, f"max scaled error over {n_nets} nets"),
    ]


def suite_unbiasedness(seed: int, n_draws: int = 200_000) -> list[CheckResult]:
    """Monte Carlo means vs enumerated ground truth on one tiny model:
    per-parameter encoder gradients within 5 standard errors (at most 1% of
    parameters beyond 3), and the single-sample ELBO total within 5.

    The model is never stepped, so each draw's encoder gradient and ELBO
    estimate is one of the K^D values of configuration_gradients. The suite
    counts the draws per configuration and forms the sums and sums of
    squares as count-weighted sums of that table. This equals the per-draw
    loop up to float summation order.
    """
    if n_draws < 2:
        raise ValueError(f"n_draws must be at least 2, got {n_draws}")
    model, x = tiny_model_and_input(seed + 77, p=4)
    table = enumerate_table(model, x)
    exact_grad = exact_encoder_gradient(model, x, table)
    probs = table.probs
    exact_value = exact_elbo(table, probs)
    grads, totals = configuration_gradients(model, x, table)

    place = model.k ** np.arange(model.d - 1, -1, -1)  # inverts lexicographic_indices
    counts = np.zeros(len(table.latents))
    stream = Rng(seed + 78)
    for start in range(0, n_draws, DRAW_BLOCK):
        u = stream.uniforms(min(DRAW_BLOCK, n_draws - start) * model.d).reshape(-1, model.d)
        counts += np.bincount(model.sample_latent(probs, u) @ place, minlength=len(counts))

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
    if n_models < 1:
        raise ValueError(f"n_models must be at least 1, got {n_models}")
    models, x = tiny_models_and_inputs([seed + 17 + 1000 * i for i in range(n_models)])
    table = enumerate_table(models, x)
    elbo = exact_elbo(table, table.probs)
    log_px = exact_marginal_log_px(table)
    q = table.q_probs
    ratio = np.divide(q, exact_posterior(table), out=np.ones_like(q), where=q > 0.0)
    kl_q_post = (q * np.log(ratio)).sum(axis=-1)  # 0 ln 0 = 0
    min_slack = float((log_px - elbo).min())
    max_residual = float(np.abs(log_px - elbo - kl_q_post).max())
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
