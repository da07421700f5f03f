"""Minimal dense-array operations used by the networks.

Tensors are plain numpy float64 arrays in C (row-major) order. Leading axes
are batch axes. There is no autodiff here; the networks own their own
backward passes.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not chain."""


def rowwise_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, each row normalized independently.

    The per-row maximum is subtracted before exponentiation so arbitrarily
    large logits stay finite.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(t: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, 1 / (1 + exp(-t)).

    Uses the two-branch form (exp of a non-positive argument only) so neither
    branch can overflow and sigmoid(-t) == 1 - sigmoid(t) to within rounding.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out
