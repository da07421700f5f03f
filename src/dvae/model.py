"""The discrete VAE: encoder to rows of category probabilities, latent
sampling, decoder to Bernoulli means, the single-sample ELBO estimate, and
both gradient estimators.

A latent is an int array of category indices, one per latent row, (..., D);
it becomes one-hot rows only at the decoder's input.

Parameter naming convention, used consistently across this package: phi is
the encoder's parameter vector, theta is the decoder's. The ELBO for one
input x with one sampled latent z is

    entropy_term + prior_term + recon_term
      = aggregate_entropy(encode(x)) - D*ln(K) - aggregate_bce(decode(z), x)

and the ascent directions are
  * theta: gradient of recon_term through the decoder only;
  * phi:   analytic gradient of entropy_term through the softmax head, plus
    the score-function term  c * grad_phi log q(z|x)  with the coefficient
    c = recon_term held constant (no gradient flows through c, and none
    flows from the decoder into the encoder through the discrete sample).

d_recon_d_xhat is the decoder's upstream gradient and d_elbo_d_probs the
encoder's; once c is known, the two backward passes share no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dvae.distributions import EPS, Rng, aggregate_bce, aggregate_entropy, categorical_sample
from dvae.network import HEAD_SIGMOID, HEAD_SOFTMAX, Mlp
from dvae.tensor import ShapeError

# Rows per forward-only pass (evaluation, enumeration), bounding the size of
# the activations a whole dataset or latent table would otherwise allocate.
CHUNK_ROWS = 100


@dataclass(frozen=True)
class ElboBreakdown:
    """The three ELBO terms and their sum (added left to right, in order).
    Each is a float, or one value per example for a batch."""

    entropy_term: float | np.ndarray
    prior_term: float
    recon_term: float | np.ndarray
    total: float | np.ndarray

    @classmethod
    def from_terms(cls, entropy_term, prior_term, recon_term) -> "ElboBreakdown":
        return cls(entropy_term, prior_term, recon_term,
                   entropy_term + prior_term + recon_term)


def uniform_params(d: int, k: int) -> np.ndarray:
    """The uniform prior over each latent: (D, K) rows of 1/K."""
    return np.full((d, k), 1.0 / k)


def elbo_estimate(x: np.ndarray, probs: np.ndarray, xhat: np.ndarray) -> ElboBreakdown:
    """Single-sample ELBO estimate for input x, encoder probabilities probs
    (..., D, K) and reconstruction xhat (already decoded from one latent
    draw); per example for a batch."""
    d, k = probs.shape[-2:]
    entropy_term = aggregate_entropy(probs)
    prior_term = -d * math.log(k)
    recon_term = -aggregate_bce(xhat, x)
    return ElboBreakdown.from_terms(entropy_term, prior_term, recon_term)


def d_entropy_d_probs(probs: np.ndarray) -> np.ndarray:
    """Gradient of aggregate entropy with respect to the probability matrix.

    Exact value is -(ln p + 1); probabilities are clipped away from 0 inside
    the log, which leaves the composed softmax gradient with its correct
    limit of 0 as any p -> 0.
    """
    return -(np.log(np.maximum(probs, EPS)) + 1.0)


def d_recon_d_xhat(x: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Gradient of recon_term = -aggregate_bce(xhat, x) w.r.t. xhat.

    Exact value is x / xhat - (1 - x) / (1 - xhat) where EPS < xhat < 1 - EPS,
    and 0 where the bce clip is active (the clipped objective is flat there).
    The inf/nan computed outside the clip is discarded by the where.
    """
    inside = (xhat > EPS) & (xhat < 1.0 - EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inside, x / xhat - (1.0 - x) / (1.0 - xhat), 0.0)


def d_logq_d_probs(probs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gradient of log q(z|x) = sum_d ln(probs[d, z[d]]) w.r.t. the matrix.

    Matches the clipped objective: 1/p at each selected entry with p >= EPS,
    and 0 where the clip is active (the clipped log is flat there).
    """
    picked = np.arange(probs.shape[-1]) == np.asarray(z)[..., None]
    return np.where(picked & (probs >= EPS), 1.0 / np.maximum(probs, EPS), 0.0)


def d_elbo_d_probs(probs: np.ndarray, z: np.ndarray, recon_term) -> np.ndarray:
    """The encoder's upstream gradient w.r.t. the probability matrix: the
    entropy gradient plus the score-function term c * d log q(z|x), with
    c = recon_term (per example for a batch) held constant. Both terms reach
    the probabilities, so one encoder backward with their sum takes both."""
    coeff = np.asarray(recon_term)[..., None, None]
    return d_entropy_d_probs(probs) + coeff * d_logq_d_probs(probs, z)


class DiscreteVae:
    """Encoder/decoder pair over D categorical latents with K categories.

    Every method takes a batch: leading axes of x, of the uniforms u and of
    the returned arrays are batch axes, and a single example has none.
    """

    def __init__(self, encoder: Mlp, decoder: Mlp, d: int, k: int):
        if encoder.head != HEAD_SOFTMAX or encoder.softmax_shape != (d, k):
            raise ShapeError(f"encoder head must be softmax over ({d}, {k})")
        if decoder.head != HEAD_SIGMOID:
            raise ShapeError("decoder head must be sigmoid")
        if decoder.sizes[0] != d * k:
            raise ShapeError(f"decoder input {decoder.sizes[0]} != D*K = {d * k}")
        if encoder.sizes[0] != decoder.sizes[-1]:
            raise ShapeError(f"encoder input {encoder.sizes[0]} != decoder output "
                             f"{decoder.sizes[-1]}")
        self.encoder = encoder
        self.decoder = decoder
        self.d = d
        self.k = k
        self.p = decoder.sizes[-1]
        self._one_hot_rows = np.eye(k)  # decode gathers its one-hot rows from here

    @classmethod
    def create(cls, p: int, d: int, k: int, hidden: int,
               encoder_rng: Rng | np.ndarray, decoder_rng: Rng | np.ndarray) -> "DiscreteVae":
        """Fresh model: p -> hidden -> D*K softmax rows, D*K -> hidden -> p
        sigmoid, each net initialised by Mlp.create from its Rng. Given two
        arrays of m seeds in place of the Rngs, a stack of m models."""
        encoder = Mlp.create([p, hidden, d * k], HEAD_SOFTMAX, encoder_rng, softmax_shape=(d, k))
        decoder = Mlp.create([d * k, hidden, p], HEAD_SIGMOID, decoder_rng)
        return cls(encoder, decoder, d, k)

    def with_params(self, phi: np.ndarray | None = None,
                    theta: np.ndarray | None = None) -> "DiscreteVae":
        """This model with its encoder running phi and its decoder theta, each
        a flat parameter vector or an (m, n) stack of them, which the new nets
        view without copying; None keeps the model's own net. Over a stack,
        encode and decode return one result per row (see Mlp)."""
        def over(net: Mlp, params: np.ndarray | None) -> Mlp:
            return net if params is None else Mlp(net.sizes, net.head, net.softmax_shape, params)
        return DiscreteVae(over(self.encoder, phi), over(self.decoder, theta), self.d, self.k)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """(..., D, K) category probabilities for input x (entries expected
        in [0, 1]); each row sums to 1."""
        return self.encoder.forward(np.asarray(x, dtype=np.float64))

    def sample_latent(self, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One independent categorical draw per latent row, by inverse CDF of
        the uniforms u, shaped (..., D) like the rows; probs broadcast.
        Returns the (..., D) category indices."""
        return categorical_sample(probs, u)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Pixel-wise Bernoulli means for the (..., D) latent indices z, fed
        to the decoder as flattened one-hot rows."""
        hot = self._one_hot_rows[z]
        return self.decoder.forward(hot.reshape(*hot.shape[:-2], self.d * self.k))

    def log_q(self, probs: np.ndarray, z: np.ndarray) -> np.ndarray:
        """log q(z|x) = sum_d ln(probs[d, z[d]]), clipped away from ln(0)."""
        sel = np.take_along_axis(probs, z[..., None], axis=-1)[..., 0]
        return np.log(np.maximum(sel, EPS)).sum(axis=-1)

    def compute_gradients(self, x: np.ndarray, u: np.ndarray) -> ElboBreakdown:
        """One full pass: encode, sample one latent per example from its
        uniforms u (..., D), decode, and write both ascent gradients, summed
        over the batch, into the networks' buffers.

        Each call overwrites the buffers, so they hold this pass's gradients
        only. Returns the per-example terms; recon_term is the detached score
        coefficient c of each example.
        """
        x = np.asarray(x, dtype=np.float64)
        probs = self.encode(x)
        z = self.sample_latent(probs, u)
        xhat = self.decode(z)
        breakdown = elbo_estimate(x, probs, xhat)
        self.decoder.backward(d_recon_d_xhat(x, xhat))
        self.encoder.backward(d_elbo_d_probs(probs, z, breakdown.recon_term))
        return breakdown
