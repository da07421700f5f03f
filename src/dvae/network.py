"""Multi-layer perceptrons with hand-written reverse-mode backprop.

An Mlp is its layer sizes [in, hidden..., out] and two flat float64
vectors, params and grads, in checkpoint manifest order (each layer's
weights, then its bias). Layer i maps x to x W^T + b, with a rectifier after
every layer but the last and a head on top: either an elementwise sigmoid or
a row-wise softmax over a (rows, cols) reshape of the final layer output.
net.layers[i] holds layer i's weights, bias, grad_weights and grad_bias as
reshaped views into params and grads. Gradients accumulate (+=) into grads
until zero_grads(); sga_step() applies gradient ASCENT, p <- p + lr * grad.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from dvae.distributions import Rng
from dvae.tensor import ShapeError, rowwise_softmax, sigmoid

HEAD_SIGMOID = "sigmoid"
HEAD_SOFTMAX = "softmax"


class Layer(NamedTuple):
    """One affine layer's views: weights (out, in) and bias (out,) into an
    Mlp's params, and their gradients into its grads."""

    weights: np.ndarray
    bias: np.ndarray
    grad_weights: np.ndarray
    grad_bias: np.ndarray


class Mlp:
    """Affine layers joined by rectifiers, finished by a sigmoid or softmax head.

    For the softmax head, the final layer's output is reshaped to
    (..., rows, cols) with softmax_shape = (rows, cols), and each row is
    normalized independently; the sigmoid head keeps the final layer's shape.
    Leading input axes are batch axes, and an unbatched vector is a batch
    with no leading axis. A new net's parameters are all zero.
    """

    def __init__(self, sizes: list[int], head: str,
                 softmax_shape: tuple[int, int] | None = None):
        if head not in (HEAD_SIGMOID, HEAD_SOFTMAX):
            raise ValueError(f"unknown head {head!r}")
        if head == HEAD_SOFTMAX:
            if softmax_shape is None:
                raise ValueError("softmax head needs softmax_shape")
            rows, cols = softmax_shape
            if sizes[-1] != rows * cols:
                raise ShapeError(
                    f"output width {sizes[-1]} does not fill softmax shape {softmax_shape}"
                )
        self.sizes = tuple(sizes)
        # np.zeros can leave the pages untouched until they are first written.
        self.params = np.zeros(sum(o * i + o for i, o in zip(sizes, sizes[1:])))
        self.grads = np.zeros(self.params.size)
        self.layers: list[Layer] = []
        offset = 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            mid = offset + fan_out * fan_in
            end = mid + fan_out
            self.layers.append(Layer(
                self.params[offset:mid].reshape(fan_out, fan_in), self.params[mid:end],
                self.grads[offset:mid].reshape(fan_out, fan_in), self.grads[mid:end],
            ))
            offset = end
        self.head = head
        self.softmax_shape = softmax_shape
        self._inputs: list[np.ndarray] = []
        self._output: np.ndarray | None = None

    @classmethod
    def create(cls, sizes: list[int], head: str, rng: Rng,
               softmax_shape: tuple[int, int] | None = None) -> "Mlp":
        """Fresh net with symmetric fan-scaled init: each layer's weights
        uniform in +-sqrt(6/(fan_in+fan_out)), biases zero. Draws are
        consumed layer by layer, each in row-major order."""
        net = cls(sizes, head, softmax_shape)
        for w, *_ in net.layers:
            fan_out, fan_in = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            np.multiply(rng.uniforms(w.size).reshape(w.shape), 2.0, out=w)
            w -= 1.0
            w *= limit
        return net

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Affine / rectifier chain then head; the net caches each layer's
        input and its own output."""
        h = np.asarray(x, dtype=np.float64)
        if h.shape[-1:] != self.sizes[:1]:
            raise ShapeError(
                f"input {h.shape} does not match weights {self.layers[0].weights.shape}"
            )
        inputs = []
        for i, (w, b, _, _) in enumerate(self.layers):
            inputs.append(h)
            h = h @ w.T
            h += b
            if i < len(self.layers) - 1:
                np.maximum(h, 0.0, out=h)
        if self.head == HEAD_SIGMOID:
            out = sigmoid(h)
        else:
            out = rowwise_softmax(h.reshape(*h.shape[:-1], *self.softmax_shape))
        self._inputs = inputs
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
            w, _, grad_w, grad_b = self.layers[i]
            x = self._inputs[i]
            g2 = g.reshape(-1, w.shape[0])
            grad_w += g2.T @ x.reshape(-1, w.shape[1])
            grad_b += g2.sum(axis=0)
            if i > 0:
                # Rectifier subgradient, 0 at the kink: a rectified input is
                # positive exactly where its pre-activation was.
                g = (g @ w) * (x > 0.0)

    def zero_grads(self) -> None:
        self.grads[:] = 0.0

    def scale_grads(self, factor: float) -> None:
        self.grads *= factor

    def sga_step(self, lr: float) -> None:
        """Gradient ascent: every parameter moves by +lr * accumulated grad.
        Layer by layer, so the lr * grad temporary is one layer's size."""
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        for w, b, grad_w, grad_b in self.layers:
            w += lr * grad_w
            b += lr * grad_b
