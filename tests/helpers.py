"""Shared helpers for the test suite."""

import os

import numpy as np

from dvae import trainer
from dvae.model import DiscreteVae, elbo_estimate
from dvae.network import HEAD_SIGMOID, HEAD_SOFTMAX, Mlp


def zero_init_model(p=4, d=2, k=3, hidden=4):
    """Model with every weight and bias zero: uniform encoder rows, all-0.5
    decoder outputs."""
    encoder = Mlp([p, hidden, d * k], HEAD_SOFTMAX, softmax_shape=(d, k))
    decoder = Mlp([d * k, hidden, p], HEAD_SIGMOID)
    return DiscreteVae(encoder, decoder, d, k)


def elbo_kl(p):
    """The ELBO's KL term for one latent row p against the uniform prior,
    ln K - H(p): elbo_estimate's -(entropy_term + prior_term)."""
    bd = elbo_estimate(np.zeros(1), np.asarray(p)[None, :], np.full(1, 0.5))
    return float(-(bd.entropy_term + bd.prior_term))


def open_overlap(monkeypatch, cpus=(0, 1)):
    """Let trainer.overlapped use its helper thread at any positive size
    (the suite's nets are all below its size gate), as if this process may
    run on cpus."""
    monkeypatch.setattr(trainer, "OVERLAP_MIN_SIZE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
