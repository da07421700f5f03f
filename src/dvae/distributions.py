"""Probability kernels: the SplitMix64 generator, categorical sampling, and
the aggregate (summed) entropy and binary cross-entropy of the ELBO. The
ELBO's KL term against the uniform prior is D ln K minus the aggregate
entropy, which model.elbo_estimate splits into its entropy and prior terms.

Conventions used throughout:
  * natural logarithms everywhere (entropies and divergences are in nats);
  * 0 * ln 0 = 0 in entropy sums (the limit value);
  * any probability entering a logarithm is clipped away from 0 (and, for
    binary cross-entropy, from 1) by EPS = 1e-7. Stored parameters are never
    clipped, only the value fed to the log.
"""

from __future__ import annotations

import numpy as np

from dvae.tensor import ShapeError

# Clipping constant for probabilities inside logarithms.
EPS = 1e-7

_MASK64 = (1 << 64) - 1
# The largest seed that does not alias a smaller one modulo 2^64.
MAX_SEED = _MASK64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def stream_uniforms(seeds, n: int, start: int = 0) -> np.ndarray:
    """(len(seeds), n): uniform() draws start+1 ... start+n of Rng(s) for
    each s in the 1-D integer array seeds, computed without stepping any
    generator. The cast to uint64 reduces each seed modulo 2^64, as Rng
    reduces it.

    SplitMix64 draw j (1-based) of a stream is mix(seed + j * gamma) in
    64-bit wrap-around arithmetic, so any run of draws is one numpy
    expression, with (len(seeds), n) uint64 temporaries.
    """
    seeds = np.asarray(seeds)
    if seeds.dtype.kind not in "iu":  # e.g. [-1, 2**63] becomes float64, [2**64] object
        raise TypeError(f"seeds must be 64-bit integers, got dtype {seeds.dtype}")
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z = seeds.astype(np.uint64)[:, None] + z
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z * 2.0 ** -53


class Rng:
    """SplitMix64 counter-based generator.

    The state advances by a fixed odd constant per draw and the output is a
    bijective mix of the state, so the stream is a pure function of
    (seed, draw index) and identical on every platform. Reference outputs for
    seed 42 (first three raw draws) are pinned in the test suite and README:

        0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52
    """

    __slots__ = ("seed", "state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.state = self.seed

    def next_uint64(self) -> int:
        """Next raw 64-bit output."""
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def uniforms(self, n: int) -> np.ndarray:
        """The next n uniform() draws as one array, bit-identical to n calls
        and advancing the state by n draws."""
        out = stream_uniforms([self.state], n)[0]
        self.state = (self.state + n * _GAMMA) & _MASK64
        return out

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Uses floor(u * n); the bias is
        below 2^-53 * n and irrelevant for the sizes used here."""
        return int(self.uniform() * n)

    def shuffle(self, indices: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle. Swap i = n-1, ..., 1 takes
        j = randint(i + 1); the n-1 draws are taken as one block, and only
        the swaps run in sequence."""
        n = len(indices)
        if n < 2:
            return
        js = (self.uniforms(n - 1) * np.arange(n, 1, -1)).astype(np.int64)
        perm = indices.tolist()
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        indices[:] = perm


def categorical_sample(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the rows of probs (..., K), one per uniform in
    u; probs broadcasts against u[..., None]. Returns int indices in [0, K).

    The cumulative sum runs left to right, and the index is the first
    category whose running sum exceeds u; the last category absorbs any
    rounding residue. The index counts the running sums <= u, one comparison
    pass per category into one int array (numpy reduces a short K axis
    slowly).
    """
    acc = np.cumsum(probs, axis=-1)
    u = np.asarray(u)
    k = acc.shape[-1]
    idx = np.zeros(np.broadcast_shapes(acc.shape[:-1], u.shape), dtype=np.intp)
    for j in range(k):
        idx += acc[..., j] <= u
    return np.minimum(idx, k - 1, out=idx)


def aggregate_entropy(probs: np.ndarray) -> np.ndarray:
    """Sum of the row entropies of each (D, K) array of probability rows;
    one value per leading (batch) index."""
    probs = np.asarray(probs, dtype=np.float64)
    masked = np.where(probs > 0.0, probs, 1.0)  # ln(1) = 0 stands in for 0*ln(0)
    return -(probs * np.log(masked)).sum(axis=(-2, -1))


def aggregate_bce(predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Sum over the last axis of binary cross-entropies, targets against
    predictions; the two broadcast over leading (batch) axes."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape[-1:] != targets.shape[-1:]:
        raise ShapeError(f"length mismatch: {predictions.shape} vs {targets.shape}")
    shape = np.broadcast_shapes(predictions.shape, targets.shape)
    y = np.clip(predictions, EPS, 1.0 - EPS)
    # targets * ln(y) + (1 - targets) * ln(1 - y), its temporaries reused.
    terms = np.log(y, out=np.empty(shape))
    terms *= targets
    np.negative(y, out=y)
    np.log1p(y, out=y)
    rest = np.subtract(1.0, targets, out=np.empty(shape))
    rest *= y
    terms += rest
    return -terms.sum(axis=-1)
