"""Multi-layer perceptrons with hand-written reverse-mode backprop.

An Mlp is a chain of linear layers with rectifier activations between them
and a head on top: either an elementwise sigmoid or a row-wise softmax over a
(rows, cols) reshape of the final layer output. Gradients accumulate (+=)
into per-layer buffers until zero_grads(); sga_step() applies gradient
ASCENT, p <- p + lr * grad.
"""

from __future__ import annotations

import numpy as np

from dvae.distributions import Rng
from dvae.tensor import ShapeError, rowwise_softmax, sigmoid

HEAD_SIGMOID = "sigmoid"
HEAD_SOFTMAX = "softmax"


class LinearLayer:
    """Affine map y = x W^T + b over the last axis of x, with gradient
    accumulators and an input cache. Leading axes of x are batch axes."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"weights {self.weights.shape} and bias {self.bias.shape} do not chain"
            )
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self.cached_input: np.ndarray | None = None

    @classmethod
    def init(cls, fan_out: int, fan_in: int, rng: Rng) -> "LinearLayer":
        """Symmetric fan-scaled init: weights uniform in +-sqrt(6/(fan_in+fan_out)),
        biases zero. Draws are consumed in row-major order."""
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniforms(fan_out * fan_in).reshape(fan_out, fan_in)
        w *= 2.0
        w -= 1.0
        w *= limit
        return cls(w, np.zeros(fan_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1:] != (self.weights.shape[1],):
            raise ShapeError(
                f"input {x.shape} does not match weights {self.weights.shape}"
            )
        self.cached_input = x
        out = x @ self.weights.T
        out += self.bias
        return out

    def backward(self, grad_out: np.ndarray) -> None:
        """Accumulate the parameter gradients, summed over the batch."""
        if self.cached_input is None:
            raise RuntimeError("backward before forward")
        x2 = self.cached_input.reshape(-1, self.weights.shape[1])
        g2 = grad_out.reshape(-1, self.weights.shape[0])
        self.grad_weights += g2.T @ x2
        self.grad_bias += g2.sum(axis=0)


class Mlp:
    """Linear layers joined by rectifiers, finished by a sigmoid or softmax head.

    For the softmax head, the final layer's output is reshaped to
    (..., rows, cols) with softmax_shape = (rows, cols), and each row is
    normalized independently; the sigmoid head keeps the final layer's shape.
    Leading input axes are batch axes, and an unbatched vector is a batch
    with no leading axis.
    """

    def __init__(self, layers: list[LinearLayer], head: str,
                 softmax_shape: tuple[int, int] | None = None):
        if head not in (HEAD_SIGMOID, HEAD_SOFTMAX):
            raise ValueError(f"unknown head {head!r}")
        if head == HEAD_SOFTMAX:
            if softmax_shape is None:
                raise ValueError("softmax head needs softmax_shape")
            rows, cols = softmax_shape
            if layers[-1].weights.shape[0] != rows * cols:
                raise ShapeError(
                    f"final layer {layers[-1].weights.shape} does not fill "
                    f"softmax shape {softmax_shape}"
                )
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ShapeError(
                    f"layer shapes {prev.weights.shape} -> {nxt.weights.shape} do not chain"
                )
        self.layers = layers
        self.head = head
        self.softmax_shape = softmax_shape
        self._output: np.ndarray | None = None

    @classmethod
    def create(cls, sizes: list[int], head: str, rng: Rng,
               softmax_shape: tuple[int, int] | None = None) -> "Mlp":
        """Build from a chain of extents [in, hidden..., out]."""
        layers = [LinearLayer.init(o, i, rng) for i, o in zip(sizes, sizes[1:])]
        return cls(layers, head, softmax_shape)

    @property
    def in_size(self) -> int:
        return self.layers[0].weights.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Affine / rectifier chain then head; each layer caches its input
        and the net caches its output."""
        h = np.asarray(x, dtype=np.float64)
        for i, layer in enumerate(self.layers):
            h = layer.forward(h)
            if i < len(self.layers) - 1:
                np.maximum(h, 0.0, out=h)
        if self.head == HEAD_SIGMOID:
            out = sigmoid(h)
        else:
            out = rowwise_softmax(h.reshape(*h.shape[:-1], *self.softmax_shape))
        self._output = out
        return out

    def backward(self, upstream_grad: np.ndarray) -> None:
        """Accumulate parameter gradients for the last forward pass.

        upstream_grad is the gradient of the objective with respect to the
        head OUTPUT (same shape as forward's return); the parameter gradients
        accumulate its sum over the batch.
        """
        if self._output is None:
            raise RuntimeError("backward before forward")
        y = self._output
        if self.head == HEAD_SIGMOID:
            g = upstream_grad * y * (1.0 - y)
        else:
            # Row-block-diagonal softmax Jacobian: dz = y * (g - <g, y>) per row.
            u = np.asarray(upstream_grad, dtype=np.float64)
            inner = (u * y).sum(axis=-1, keepdims=True)
            g = (y * (u - inner)).reshape(*y.shape[:-2], y.shape[-2] * y.shape[-1])
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            layer.backward(g)
            if i > 0:
                # Rectifier subgradient, 0 at the kink: a rectified input is
                # positive exactly where its pre-activation was.
                g = (g @ layer.weights) * (layer.cached_input > 0.0)

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.grad_weights[:] = 0.0
            layer.grad_bias[:] = 0.0

    def scale_grads(self, factor: float) -> None:
        for layer in self.layers:
            layer.grad_weights *= factor
            layer.grad_bias *= factor

    def sga_step(self, lr: float) -> None:
        """Gradient ascent: every parameter moves by +lr * accumulated grad."""
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        for layer in self.layers:
            layer.weights += lr * layer.grad_weights
            layer.bias += lr * layer.grad_bias

    def param_arrays(self) -> list[np.ndarray]:
        """Live parameter arrays, weights then bias per layer."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def grad_arrays(self) -> list[np.ndarray]:
        """Live gradient accumulators, matching param_arrays order."""
        out = []
        for layer in self.layers:
            out.append(layer.grad_weights)
            out.append(layer.grad_bias)
        return out


def flat_params(net: Mlp) -> np.ndarray:
    """Copy of all parameters as one flat vector (param_arrays order)."""
    return np.concatenate([a.ravel() for a in net.param_arrays()])


def set_flat_params(net: Mlp, vec: np.ndarray) -> None:
    """Write a flat vector back into the live parameter arrays."""
    i = 0
    for a in net.param_arrays():
        a[:] = vec[i:i + a.size].reshape(a.shape)
        i += a.size
    if i != len(vec):
        raise ShapeError(f"flat vector length {len(vec)}, expected {i}")


def flat_grads(net: Mlp) -> np.ndarray:
    """Copy of all gradient accumulators as one flat vector."""
    return np.concatenate([a.ravel() for a in net.grad_arrays()])
