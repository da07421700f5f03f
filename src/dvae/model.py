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

DiscreteVae.estimate alone applies d_recon_d_xhat, the decoder's upstream
gradient, and d_elbo_d_probs, the encoder's, whose passes share no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dvae.distributions import EPS, Rng, aggregate_bce, aggregate_entropy, categorical_sample
from dvae.network import Mlp

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


def prior_term(d: int, k: int) -> float:
    """The ELBO's prior term, E_q[ln p(z)] = -D*ln(K) under the uniform
    prior, whatever q is."""
    return -d * math.log(k)


def elbo_estimate(x: np.ndarray, probs: np.ndarray, xhat: np.ndarray) -> ElboBreakdown:
    """Single-sample ELBO estimate for input x, encoder probabilities probs
    (..., D, K) and reconstruction xhat (already decoded from one latent
    draw); per example for a batch."""
    return ElboBreakdown.from_terms(aggregate_entropy(probs), prior_term(*probs.shape[-2:]),
                                    -aggregate_bce(xhat, x))


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


def layer_sizes(p: int, d: int, k: int, hidden: int) -> tuple[list[int], list[int]]:
    """The encoder's and the decoder's layer sizes."""
    return [p, hidden, d * k], [d * k, hidden, p]


def in_turn(first, second) -> tuple:
    """(first(), second()), run in that order: DiscreteVae.create's default
    for its both argument, which the trainer replaces with its two-thread
    overlapped."""
    return first(), second()


class DiscreteVae:
    """Encoder/decoder pair over D categorical latents with K categories.

    Every method takes a batch: leading axes of x, of the uniforms u and of
    the returned arrays are batch axes, and a single example has none.
    """

    def __init__(self, p: int, d: int, k: int, hidden: int,
                 phi: np.ndarray | None = None, theta: np.ndarray | None = None):
        """p -> hidden -> D*K softmax rows, D*K -> hidden -> p sigmoid. The
        encoder views phi and the decoder theta, each a flat parameter vector
        or an (m, n) stack of them; None gives all-zero parameters. Over a
        stack, encode and decode return one result per row, and each
        backward pass writes one gradient row per model (see Mlp)."""
        self.p, self.d, self.k = p, d, k
        encoder_sizes, decoder_sizes = layer_sizes(p, d, k, hidden)
        self.encoder = Mlp(encoder_sizes, (d, k), phi)
        self.decoder = Mlp(decoder_sizes, params=theta)
        self._one_hot_rows = np.eye(k)  # decode gathers its one-hot rows from here

    @classmethod
    def create(cls, p: int, d: int, k: int, hidden: int,
               encoder_rng: Rng | np.ndarray, decoder_rng: Rng | np.ndarray,
               both=in_turn) -> "DiscreteVae":
        """Fresh model, each net's parameters drawn by Mlp.create from its
        Rng (which is not advanced), the two draws run by both(first,
        second). Given two arrays of m seeds in place of the Rngs, a stack
        of m models."""
        one = isinstance(encoder_rng, Rng)

        def draw(sizes: list[int], rng, softmax_shape=None) -> np.ndarray:
            # Mlp.create advances the Rng it is given, so it draws from a copy.
            return Mlp.create(sizes, Rng(rng.state) if one else rng, softmax_shape).params

        encoder_sizes, decoder_sizes = layer_sizes(p, d, k, hidden)
        return cls(p, d, k, hidden, *both(lambda: draw(encoder_sizes, encoder_rng, (d, k)),
                                          lambda: draw(decoder_sizes, decoder_rng)))

    def with_params(self, phi: np.ndarray | None = None,
                    theta: np.ndarray | None = None) -> "DiscreteVae":
        """This model's shape over phi and theta, which the new nets view
        without copying; None views this model's own parameters."""
        return DiscreteVae(self.p, self.d, self.k, self.encoder.sizes[1],
                           self.encoder.params if phi is None else phi,
                           self.decoder.params if theta is None else theta)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """(..., D, K) category probabilities for input x (entries expected
        in [0, 1]); each row sums to 1."""
        return self.encoder.forward(x)

    def sample_latent(self, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One independent categorical draw per latent row, by inverse CDF of
        the uniforms u, shaped (..., D) like the rows; probs broadcast.
        Returns the (..., D) category indices."""
        return categorical_sample(probs, u)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Pixel-wise Bernoulli means for the (..., D) latent indices z, fed
        to the decoder as flattened one-hot rows."""
        return self.decoder.forward(self._one_hot(z))

    def _one_hot(self, z: np.ndarray) -> np.ndarray:
        hot = self._one_hot_rows[z]
        return hot.reshape(*hot.shape[:-2], self.d * self.k)

    def log_q(self, probs: np.ndarray, z: np.ndarray) -> np.ndarray:
        """log q(z|x) = sum_d ln(probs[d, z[d]]), clipped away from ln(0)."""
        sel = np.take_along_axis(probs, z[..., None], axis=-1)[..., 0]
        return np.log(np.maximum(sel, EPS)).sum(axis=-1)

    def estimate(self, x: np.ndarray, u: np.ndarray, both=None, out: tuple | None = None) -> tuple:
        """Encode the float64 inputs x, draw one latent per example from its
        uniforms u (..., D) and decode it: (breakdown, decoder_pass,
        encoder_pass), the per-example ELBO terms (recon_term is the detached
        score coefficient c) and two callables that each overwrite one net's
        buffers with its ascent gradient summed over the batch. They share
        no output: either order.

        Given both and out (each net's Mlp.buffers over at least n rows,
        the encoder's first), a batch (n, ...) is estimated in the row halves
        [0, n // 2) and [n // 2, n), which both(first, second) runs, each
        encoding, sampling, decoding and estimating its rows into batch-sized
        arrays. A row's bytes are those of the whole batch wherever BLAS
        gives its rows the same bits at both row counts. Either way
        decoder_pass takes the decoder's upstream gradient, so a caller that
        runs neither pass computes no gradient."""
        if both is None:
            probs = self.encode(x)
            z = self.sample_latent(probs, u)
            xhat = self.decode(z)
            bd = elbo_estimate(x, probs, xhat)
        else:
            n = len(x)
            encoded, decoded = ([a[:n] for a in net_out] for net_out in out)
            probs, z = encoded[-1].reshape(n, self.d, self.k), np.empty((n, self.d), np.intp)
            hot, entropy, recon = np.empty((n, self.d * self.k)), np.empty(n), np.empty(n)

            def half(rows: slice) -> None:
                z[rows] = self.sample_latent(self.encoder.forward(x, encoded, rows), u[rows])
                hot[rows] = self._one_hot(z[rows])
                part = elbo_estimate(x[rows], probs[rows], self.decoder.forward(hot, decoded, rows))
                entropy[rows], recon[rows] = part.entropy_term, part.recon_term

            both(lambda: half(slice(0, n // 2)), lambda: half(slice(n // 2, n)))
            xhat = decoded[-1]  # the head's output, written in place
            bd = ElboBreakdown.from_terms(entropy, prior_term(self.d, self.k), recon)
        return (bd, lambda: self.decoder.backward(d_recon_d_xhat(x, xhat)),
                lambda: self.encoder.backward(d_elbo_d_probs(probs, z, bd.recon_term)))

    def compute_gradients(self, x: np.ndarray, u: np.ndarray) -> ElboBreakdown:
        """Estimate x under its uniforms u (..., D) and run both passes in
        turn; returns the breakdown."""
        bd, decoder_pass, encoder_pass = self.estimate(np.asarray(x, dtype=np.float64), u)
        decoder_pass()
        encoder_pass()
        return bd
