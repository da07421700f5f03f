"""Frozen reference for the benchmark's correctness checks.

A batched numpy restatement of what the dvae package computed when this
benchmark was defined: SplitMix64 streams, fan-scaled init, the encoder and
decoder forward passes, inverse-CDF categorical sampling, the single-sample
ELBO terms, the score-function gradients, the SGA loop with validation-ELBO
early stopping, `evaluate`, and the three `dvae verify` suites. It imports nothing from dvae, so a change to
the package cannot move the values it is checked against.

Every random draw is bit-identical to the package's per-example streams;
only the float summation order differs (GEMMs instead of per-example
outer products), so results agree to far better than REL_TOL.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS = 1e-7
REL_TOL = 1e-9

GAMMA = np.uint64(0x9E3779B97F4A7C15)
MIX1 = np.uint64(0xBF58476D1CE4E5B9)
MIX2 = np.uint64(0x94D049BB133111EB)
MASK64 = (1 << 64) - 1

# Stream offsets of dvae.trainer, fixed by its documented contract.
ENCODER_INIT_OFFSET = 1
DECODER_INIT_OFFSET = 2
SHUFFLE_OFFSET = 3
VALIDATION_OFFSET = 4
EXAMPLE_STREAM_BASE = 1_000_000


def uniforms(seed: int, start: int, n: int) -> np.ndarray:
    """Draws start+1 .. start+n of the SplitMix64 stream `seed` as doubles
    in [0, 1): draw j is mix(seed + j * gamma) with 53 random bits."""
    j = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + j * GAMMA
    z = (z ^ (z >> np.uint64(30))) * MIX1
    z = (z ^ (z >> np.uint64(27))) * MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def stream_block(seeds: np.ndarray, n: int) -> np.ndarray:
    """(len(seeds), n): the first n uniforms of each stream in seeds."""
    return np.stack([uniforms(int(s), 0, n) for s in seeds])


def init_mlp(sizes: list[int], seed: int) -> list[list[np.ndarray]]:
    """[weights, bias] per layer, weights uniform in +-sqrt(6/(in+out))
    drawn row-major from one stream across the layers, biases zero."""
    layers, used = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        u = uniforms(seed, used, fan_out * fan_in).reshape(fan_out, fan_in)
        used += fan_out * fan_in
        layers.append([(2.0 * u - 1.0) * limit, np.zeros(fan_out)])
    return layers


def init_model(p: int, d: int, k: int, hidden: int, seed: int):
    """Encoder and decoder parameters as trainer.build_model draws them."""
    encoder = init_mlp([p, hidden, d * k], seed + ENCODER_INIT_OFFSET)
    decoder = init_mlp([d * k, hidden, p], seed + DECODER_INIT_OFFSET)
    return encoder, decoder


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _forward(layers, x: np.ndarray):
    """Affine/rectifier chain over a (B, in) batch; returns the final
    pre-head output and every layer's (input, pre-activation)."""
    cache, h = [], x
    for i, (w, b) in enumerate(layers):
        z = h @ w.T + b
        cache.append((h, z))
        h = np.maximum(z, 0.0) if i < len(layers) - 1 else z
    return h, cache


def _encode(encoder, x: np.ndarray, d: int, k: int):
    h, cache = _forward(encoder, x)
    logits = h.reshape(-1, d, k)
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True), cache


def _decode(decoder, one_hot: np.ndarray):
    h, cache = _forward(decoder, one_hot.reshape(one_hot.shape[0], -1))
    return _sigmoid(h), cache


def _sample(probs: np.ndarray, u: np.ndarray):
    """Inverse CDF per (example, latent): first category whose running sum
    exceeds u, the last category absorbing rounding residue."""
    acc = np.cumsum(probs, axis=2)
    idx = np.minimum((acc <= u[:, :, None]).sum(axis=2), probs.shape[2] - 1)
    one_hot = np.zeros_like(probs)
    np.put_along_axis(one_hot, idx[:, :, None], 1.0, axis=2)
    return idx, one_hot


def _log_px(x, xhat):
    """Bernoulli log-likelihood per row, xhat clipped by EPS: -aggregate_bce."""
    y = np.clip(xhat, EPS, 1.0 - EPS)
    return (x * np.log(y) + (1.0 - x) * np.log1p(-y)).sum(axis=-1)


def _terms(x, probs, xhat):
    """Per-example (entropy, recon) of the single-sample ELBO estimate."""
    masked = np.where(probs > 0.0, probs, 1.0)
    return -(probs * np.log(masked)).sum(axis=(1, 2)), _log_px(x, xhat)


def _breakdown(entropy_sum: float, recon_sum: float, n: int, d: int, k: int):
    """(entropy, prior, recon, total) means, total added left to right."""
    e, p, r = entropy_sum / n, float(-d * math.log(k)), recon_sum / n
    return (e, p, r, e + p + r)


def evaluate(encoder, decoder, x: np.ndarray, seed: int, d: int, k: int):
    """trainer.evaluate: one sequential stream over the rows of x."""
    u = uniforms(seed, 0, x.shape[0] * d).reshape(-1, d)
    probs, _ = _encode(encoder, x, d, k)
    _, one_hot = _sample(probs, u)
    xhat, _ = _decode(decoder, one_hot)
    entropy, recon = _terms(x, probs, xhat)
    return _breakdown(entropy.sum(), recon.sum(), x.shape[0], d, k)


def _backward(layers, cache, g: np.ndarray, grads) -> None:
    for i in range(len(layers) - 1, -1, -1):
        if i < len(layers) - 1:
            g = g * (cache[i][1] > 0.0)
        grads[i][0] += g.T @ cache[i][0]
        grads[i][1] += g.sum(axis=0)
        g = g @ layers[i][0]


def _zeros(layers):
    return [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]


def _flat(layers) -> np.ndarray:
    return np.concatenate([a.ravel() for pair in layers for a in pair])


def _unflat(layers, vec: np.ndarray):
    out, i = [], 0
    for w, b in layers:
        out.append([vec[i:i + w.size].reshape(w.shape), vec[i + w.size:i + w.size + b.size]])
        i += w.size + b.size
    return out


def _d_logq(probs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(probs)
    sel = np.take_along_axis(probs, idx[:, :, None], axis=2)
    np.put_along_axis(grad, idx[:, :, None],
                      np.where(sel >= EPS, 1.0 / np.maximum(sel, EPS), 0.0), axis=2)
    return grad


def _encoder_backward(encoder, enc_cache, probs, up, grads) -> None:
    """Backward of an upstream gradient w.r.t. the (B, D, K) softmax output."""
    inner = (up * probs).sum(axis=2, keepdims=True)
    _backward(encoder, enc_cache, (probs * (up - inner)).reshape(probs.shape[0], -1), grads)


def _d_entropy(probs: np.ndarray) -> np.ndarray:
    return -(np.log(np.maximum(probs, EPS)) + 1.0)


def _gradient_pass(encoder, decoder, x, u, d, k, enc_grads, dec_grads):
    """compute_gradients for a batch: accumulates both ascent gradients and
    returns the per-example (entropy, recon) terms."""
    probs, enc_cache = _encode(encoder, x, d, k)
    idx, one_hot = _sample(probs, u)
    xhat, dec_cache = _decode(decoder, one_hot)
    entropy, recon = _terms(x, probs, xhat)

    up = np.zeros_like(xhat)
    inside = (xhat > EPS) & (xhat < 1.0 - EPS)
    up[inside] = x[inside] / xhat[inside] - (1.0 - x[inside]) / (1.0 - xhat[inside])
    _backward(decoder, dec_cache, up * xhat * (1.0 - xhat), dec_grads)

    up = _d_entropy(probs) + recon[:, None, None] * _d_logq(probs, idx)
    _encoder_backward(encoder, enc_cache, probs, up, enc_grads)
    return entropy, recon


def _shuffle(n: int, seed: int, epoch: int) -> np.ndarray:
    """data.batches' Fisher-Yates order for a 1-based epoch of a stream
    that advances n-1 draws per epoch."""
    u = uniforms(seed, (epoch - 1) * (n - 1), n - 1)
    order = np.arange(n)
    for step, i in enumerate(range(n - 1, 0, -1)):
        j = int(u[step] * (i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def train(x_train, x_val, *, d, k, hidden, lr, batch_size, max_epochs,
          patience, seed):
    """trainer.train with mc_samples=1. Returns the metrics rows as
    (epoch, train_elbo, train_entropy, train_prior, train_recon, val_elbo)
    and the best epoch, whose parameters the checkpoint holds."""
    n, p = x_train.shape
    encoder, decoder = init_model(p, d, k, hidden, seed)
    u_train = stream_block(seed + EXAMPLE_STREAM_BASE + np.arange(n), d)

    def val_total():
        return evaluate(encoder, decoder, x_val, seed + VALIDATION_OFFSET, d, k)[3]

    entropy, recon = _gradient_pass(encoder, decoder, x_train, u_train, d, k,
                                    _zeros(encoder), _zeros(decoder))
    rows = [(0, *_row(entropy.sum(), recon.sum(), n, d, k), val_total())]
    best_val, best_epoch, stale = rows[0][-1], 0, 0
    for epoch in range(1, max_epochs + 1):
        order = _shuffle(n, seed + SHUFFLE_OFFSET, epoch)
        e_sum = r_sum = 0.0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            enc_grads, dec_grads = _zeros(encoder), _zeros(decoder)
            entropy, recon = _gradient_pass(encoder, decoder, x_train[batch],
                                            u_train[batch], d, k, enc_grads, dec_grads)
            e_sum += entropy.sum()
            r_sum += recon.sum()
            if lr > 0.0:
                for layers, grads in ((encoder, enc_grads), (decoder, dec_grads)):
                    for param, grad in zip(layers, grads):
                        for arr, g in zip(param, grad):
                            g *= 1.0 / len(batch)
                            arr += lr * g
        val = val_total()
        rows.append((epoch, *_row(e_sum, r_sum, n, d, k), val))
        if val > best_val:
            best_val, best_epoch, stale = val, epoch, 0
        else:
            stale += 1
            if stale >= patience:
                break
    return rows, best_epoch


def _row(entropy_sum, recon_sum, n, d, k):
    """(train_elbo, train_entropy, train_prior, train_recon) of a row."""
    e, p, r, total = _breakdown(entropy_sum, recon_sum, n, d, k)
    return total, e, p, r


# --- dvae verify suites: (verdict, measured value) of every check ---------

TINY_D, TINY_K, TINY_HIDDEN = 2, 3, 8


def _tiny(seed: int, p: int = 6):
    """oracle.tiny_model_and_input: encoder, decoder and a random binary x."""
    encoder = init_mlp([p, TINY_HIDDEN, TINY_D * TINY_K], seed)
    decoder = init_mlp([TINY_D * TINY_K, TINY_HIDDEN, p], seed + 1)
    return encoder, decoder, np.floor(uniforms(seed + 2, 0, p) * 2.0)


def _table(encoder, decoder, x):
    """Encoder probabilities and every latent configuration in lexicographic
    order (latent 0 slowest) with its q(z|x) and log p(x|z)."""
    probs = _encode(encoder, x[None], TINY_D, TINY_K)[0][0]
    idx = np.array(list(itertools.product(range(TINY_K), repeat=TINY_D)))
    one_hot = np.zeros((len(idx), TINY_D, TINY_K))
    np.put_along_axis(one_hot, idx[:, :, None], 1.0, axis=2)
    log_px = _log_px(x, _decode(decoder, one_hot)[0])
    return probs, idx, probs[np.arange(TINY_D), idx].prod(axis=1), log_px


def _entropy(probs) -> float:
    return float(-(probs * np.log(np.where(probs > 0.0, probs, 1.0))).sum())


def _exact_elbo(probs, idx, q, log_px) -> float:
    return _entropy(probs) - TINY_D * math.log(TINY_K) + float((q * log_px).sum())


def _encoder_grad(encoder, x, up) -> np.ndarray:
    """Flat encoder gradient of one example for an upstream gradient w.r.t.
    its (D, K) softmax output."""
    probs, cache = _encode(encoder, x[None], TINY_D, TINY_K)
    grads = _zeros(encoder)
    _encoder_backward(encoder, cache, probs, up[None], grads)
    return _flat(grads)


def _exact_encoder_gradient(encoder, decoder, x) -> np.ndarray:
    probs, idx, q, log_px = _table(encoder, decoder, x)
    rows = np.arange(TINY_D)
    weight = np.zeros_like(probs)
    for c in range(len(idx)):
        weight[rows, idx[c]] += q[c] * log_px[c]
    score = np.where(probs >= EPS, weight / np.maximum(probs, EPS), 0.0)
    return _encoder_grad(encoder, x, _d_entropy(probs) + score)


def _finite_difference(objective, params: np.ndarray, h: float) -> np.ndarray:
    grad = np.empty_like(params)
    for j in range(params.size):
        plus, minus = params.copy(), params.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (objective(plus) - objective(minus)) / (2.0 * h)
    return grad


def _scaled_error(analytic, numeric, rel_tol=1e-4, abs_floor=1e-8) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), abs_floor / rel_tol)
    return float((np.abs(analytic - numeric) / denom).max())


def suite_grads(seed: int, n_nets: int = 10) -> dict[str, tuple[bool, float]]:
    worst_dec = worst_enc = 0.0
    for i in range(n_nets):
        encoder, decoder, x = _tiny(seed + 1000 * i)
        u = uniforms(seed + 1000 * i + 3, 0, TINY_D)[None]
        dec_grads = _zeros(decoder)
        _gradient_pass(encoder, decoder, x[None], u, TINY_D, TINY_K, _zeros(encoder),
                       dec_grads)
        _, one_hot = _sample(_encode(encoder, x[None], TINY_D, TINY_K)[0], u)
        fd_dec = _finite_difference(
            lambda vec: float(_log_px(x, _decode(_unflat(decoder, vec), one_hot)[0])[0]),
            _flat(decoder), 1e-5)
        worst_dec = max(worst_dec, _scaled_error(_flat(dec_grads), fd_dec))
        fd_enc = _finite_difference(
            lambda vec: _exact_elbo(*_table(_unflat(encoder, vec), decoder, x)),
            _flat(encoder), 1e-5)
        worst_enc = max(worst_enc, _scaled_error(
            _exact_encoder_gradient(encoder, decoder, x), fd_enc))
    return {"decoder-grad-vs-finite-diff": (worst_dec <= 1e-4, worst_dec),
            "encoder-grad-vs-finite-diff": (worst_enc <= 1e-4, worst_enc)}


def suite_unbiased(seed: int, n_draws: int = 200_000) -> dict[str, tuple[bool, float]]:
    encoder, decoder, x = _tiny(seed + 77, p=4)
    probs, idx, q, log_px = _table(encoder, decoder, x)
    exact_grad = _exact_encoder_gradient(encoder, decoder, x)
    exact_value = _exact_elbo(probs, idx, q, log_px)
    # The suite never steps the parameters, so each draw's gradient and ELBO
    # estimate is one of the K^D per-configuration values; count the draws.
    g = np.stack([_encoder_grad(encoder, x, _d_entropy(probs)
                                + log_px[c] * _d_logq(probs[None], idx[c][None])[0])
                  for c in range(len(idx))])
    totals = _entropy(probs) + -TINY_D * math.log(TINY_K) + log_px
    u = uniforms(seed + 78, 0, TINY_D * n_draws).reshape(n_draws, TINY_D)
    drawn, _ = _sample(np.broadcast_to(probs, (n_draws, TINY_D, TINY_K)), u)
    config = drawn @ (TINY_K ** np.arange(TINY_D - 1, -1, -1))
    counts = np.bincount(config, minlength=len(idx)).astype(np.float64)

    n = float(n_draws)
    g_mean = counts @ g / n
    g_var = np.maximum(counts @ (g * g) - n * g_mean * g_mean, 0.0) / (n - 1.0)
    g_se = np.sqrt(g_var / n)
    diff = np.abs(g_mean - exact_grad)
    z = np.where(g_se > 0.0, diff / np.where(g_se > 0.0, g_se, 1.0), np.inf)
    z = np.where(diff == 0.0, 0.0, z)
    e_mean = float(counts @ totals) / n
    e_se = math.sqrt(max(float(counts @ (totals * totals)) - n * e_mean * e_mean, 0.0)
                     / (n - 1.0) / n)
    e_z = abs(e_mean - exact_value) / e_se if e_se > 0.0 else 0.0
    frac3 = float((z > 3.0).mean())
    return {"encoder-grad-mc-mean-max-z": (float(z.max()) <= 5.0, float(z.max())),
            "encoder-grad-mc-mean-frac-above-3z": (frac3 <= 0.01, frac3),
            "elbo-estimate-mc-mean-z": (e_z <= 5.0, e_z)}


def suite_bound(seed: int, n_models: int = 100) -> dict[str, tuple[bool, float]]:
    min_slack, max_residual = math.inf, 0.0
    for i in range(n_models):
        encoder, decoder, x = _tiny(seed + 17 + 1000 * i)
        probs, idx, q, log_px = _table(encoder, decoder, x)
        elbo = _exact_elbo(probs, idx, q, log_px)
        m = float(log_px.max())
        log_marginal = m + math.log(np.exp(log_px - m).sum()) - math.log(len(log_px))
        e = np.exp(log_px - m)
        posterior = e / e.sum()
        nz = q > 0.0
        kl = float((q[nz] * np.log(q[nz] / posterior[nz])).sum())
        min_slack = min(min_slack, log_marginal - elbo)
        max_residual = max(max_residual, abs(log_marginal - elbo - kl))
    return {"elbo-lower-bound-min-slack": (min_slack >= -1e-10, min_slack),
            "log-likelihood-identity-residual": (max_residual <= 1e-8, max_residual)}


VERIFY_SUITES = {"grads": suite_grads, "unbiased": suite_unbiased, "bound": suite_bound}



def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """Relative agreement, both values finite."""
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))
