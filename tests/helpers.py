"""Shared construction helpers for the test suite."""

from dvae.model import DiscreteVae
from dvae.network import HEAD_SIGMOID, HEAD_SOFTMAX, Mlp


def zero_init_model(p=4, d=2, k=3, hidden=4):
    """Model with every weight and bias zero: uniform encoder rows, all-0.5
    decoder outputs."""
    encoder = Mlp([p, hidden, d * k], HEAD_SOFTMAX, softmax_shape=(d, k))
    decoder = Mlp([d * k, hidden, p], HEAD_SIGMOID)
    return DiscreteVae(encoder, decoder, d, k)
