"""Multi-layer perceptrons with hand-written reverse-mode backprop.

An Mlp is a chain of linear layers with rectifier activations between them
and a head on top: either an elementwise sigmoid or a row-wise softmax over a
(rows, cols) reshape of the final layer output. An Mlp is one flat parameter
vector, params, and one flat gradient vector, grads, each in checkpoint
manifest order (a layer's weights, then its bias); every layer's weights,
bias, grad_weights and grad_bias are reshaped views into them. Gradients
accumulate (+=) into grads until zero_grads(); sga_step() applies gradient
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
        # np.zeros, unlike zeros_like, need not write every page; an Mlp swaps in views.
        self.grad_weights = np.zeros(self.weights.shape)
        self.grad_bias = np.zeros(self.bias.shape)
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
        # Layer by layer, so the build never holds two copies of the network;
        # np.zeros can leave the gradient pages untouched until the first backward.
        self.params = np.empty(sum(layer.weights.size + layer.bias.size for layer in layers))
        self.grads = np.zeros(self.params.size)
        offset = 0
        for layer in layers:
            w, b = layer.weights, layer.bias
            mid = offset + w.size
            end = mid + b.size
            self.params[offset:mid] = w.ravel()
            self.params[mid:end] = b
            layer.weights = self.params[offset:mid].reshape(w.shape)
            layer.bias = self.params[mid:end]
            layer.grad_weights = self.grads[offset:mid].reshape(w.shape)
            layer.grad_bias = self.grads[mid:end]
            offset = end
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
        self.grads[:] = 0.0

    def scale_grads(self, factor: float) -> None:
        self.grads *= factor

    def sga_step(self, lr: float) -> None:
        """Gradient ascent: every parameter moves by +lr * accumulated grad.
        Layer by layer, so the lr * grad temporary is one layer's size."""
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        for layer in self.layers:
            layer.weights += lr * layer.grad_weights
            layer.bias += lr * layer.grad_bias
