"""Discrete VAE with categorical latents, trained by stochastic gradient ascent
on the evidence lower bound, plus an exact enumeration oracle for verification.

All numerics are 64-bit floats on row-major numpy arrays. Randomness flows
through the in-repo SplitMix64 generator (`dvae.distributions.Rng`), so a
seed determines every draw across platforms and, at one BLAS thread
(OPENBLAS_NUM_THREADS=1), every result.
"""

from dvae.model import DiscreteVae, ElboBreakdown
from dvae.trainer import TrainConfig, train, evaluate

__all__ = ["DiscreteVae", "ElboBreakdown", "TrainConfig", "train", "evaluate"]
