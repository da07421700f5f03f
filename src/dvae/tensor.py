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


def sigmoid(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function, 1 / (1 + exp(-t)), into out if given
    (out may be t itself; the result is the same bits either way).

    Takes exp of a non-positive argument only, no branches: with
    e = exp(-|t|), the result is 1 / (1 + e) where t >= 0 and e / (1 + e)
    elsewhere (there -|t| == t exactly). Nothing can overflow, and
    sigmoid(-t) == 1 - sigmoid(t) to within rounding.
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.abs(t, out=np.empty_like(t))
    np.negative(e, out=e)
    np.exp(e, out=e)
    # The numerator, 1 where t >= 0 and e elsewhere, is max([t >= 0], e)
    # since 0 <= e <= 1; unlike np.where on a mask of mixed signs, the
    # maximum runs without a data-dependent branch per element.
    out = np.greater_equal(t, 0.0, out=np.empty_like(t) if out is None else out,
                           casting="unsafe")
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return out
