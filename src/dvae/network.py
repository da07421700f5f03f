"""Multi-layer perceptrons with hand-written reverse-mode backprop.

An Mlp is its layer sizes [in, hidden..., out] and two flat float64
vectors, params and grads, in checkpoint manifest order (each layer's
weights, then its bias). Layer i maps x to x W^T + b, with a rectifier after
every layer but the last and a head on top: a row-wise softmax over a
given (rows, cols) softmax shape of the final output, else a sigmoid.
net.layers[i] holds layer i's weights, bias, grad_weights and grad_bias as
reshaped views into params and grads. Each backward() overwrites grads with
the gradient of that pass alone; sga_step() applies gradient ASCENT,
p <- p + (grad * scale) * lr, and leaves grads as they are.

A net built over an (m, n) stack of parameter vectors is m nets in one:
its weights are (m, out, in) views and its biases (m, 1, out), one forward
pass runs all m, on one shared input or on an (m, rows, in) stack of
batches (one per net), and every output gains a leading m axis. Each row of
that output is bit-identical to the forward pass of a net over that row
alone on its input. A stacked net is forward-only and has no grads.
Mlp.create builds such a stack from m seeds, row i bit-identical to the net
it builds from Rng(seeds[i]).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from dvae.distributions import Rng, stream_uniforms
from dvae.tensor import ShapeError, rowwise_softmax, sigmoid

HEAD_SIGMOID = "sigmoid"
HEAD_SOFTMAX = "softmax"
# Block length of create's draws and of sga_step's reused buffer: a 256 KB
# float64 temporary, however large the net.
BLOCK = 1 << 15


class Layer(NamedTuple):
    """One affine layer's views: weights (out, in) and bias (out,) into an
    Mlp's params, and their gradients into its grads (None when stacked)."""

    weights: np.ndarray
    bias: np.ndarray
    grad_weights: np.ndarray | None
    grad_bias: np.ndarray | None


class Mlp:
    """Affine layers joined by rectifiers, finished by the head softmax_shape picks.

    Given softmax_shape = (rows, cols), head is "softmax": the final layer's
    output is reshaped to (..., rows, cols) and each row normalized
    independently; given none, head is "sigmoid", which keeps its shape.
    Leading input axes are batch axes, and an unbatched vector is a batch
    with no leading axis. A new net's parameters are all zero, unless params
    is given: the net is then a view over that (n,) vector or (m, n) stack.
    """

    def __init__(self, sizes: list[int], softmax_shape: tuple[int, int] | None = None,
                 params: np.ndarray | None = None):
        if len(sizes) < 2:
            raise ShapeError(f"an Mlp needs an input and an output size, got {list(sizes)}")
        if softmax_shape is not None:
            rows, cols = softmax_shape
            if sizes[-1] != rows * cols:
                raise ShapeError(
                    f"output width {sizes[-1]} does not fill softmax shape {softmax_shape}"
                )
        self.sizes = tuple(sizes)
        n = sum(o * i + o for i, o in zip(sizes, sizes[1:]))
        # np.zeros can leave the pages untouched until they are first written.
        self.params = np.zeros(n) if params is None else np.asarray(params, dtype=np.float64)
        if self.params.ndim not in (1, 2) or self.params.shape[-1] != n:
            raise ShapeError(f"params {self.params.shape} do not hold {n} parameters")
        lead = self.params.shape[:-1]  # (m,) for a stack of m nets
        self.grads = None if lead else np.zeros(n)
        self.layers: list[Layer] = []
        offset = 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            mid = offset + fan_out * fan_in
            end = mid + fan_out
            bias = self.params[..., mid:end]
            self.layers.append(Layer(
                self.params[..., offset:mid].reshape(*lead, fan_out, fan_in),
                bias[:, None] if lead else bias,  # a stacked bias broadcasts over input rows
                None if lead else self.grads[offset:mid].reshape(fan_out, fan_in),
                None if lead else self.grads[mid:end],
            ))
            offset = end
        self.head = HEAD_SIGMOID if softmax_shape is None else HEAD_SOFTMAX
        self.softmax_shape = softmax_shape
        self._inputs: list[np.ndarray] = []
        self._output: np.ndarray | None = None

    @classmethod
    def create(cls, sizes: list[int], rng: Rng | np.ndarray,
               softmax_shape: tuple[int, int] | None = None) -> "Mlp":
        """Fresh net with symmetric fan-scaled init: each layer's weights
        uniform in +-sqrt(6/(fan_in+fan_out)), biases zero. Draws are
        consumed layer by layer, each in row-major order, and scaled into
        the weights in blocks of BLOCK, so no temporary is layer-sized. Given
        m seeds in place of an Rng, it builds a stack of m nets whose row i
        is bit-identical to the net built from Rng(seeds[i])."""
        stacked = not isinstance(rng, Rng)
        n = sum(o * i + o for i, o in zip(sizes, sizes[1:]))
        net = cls(sizes, softmax_shape, np.zeros((len(rng), n)) if stacked else None)
        drawn = 0
        for w, *_ in net.layers:
            fan_out, fan_in = w.shape[-2:]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            flat = w.reshape(*w.shape[:-2], -1)  # a view: each net's weights are contiguous
            for start in range(0, flat.shape[-1], BLOCK):
                block = flat[..., start:start + BLOCK]
                count = block.shape[-1]
                u = stream_uniforms(rng, count, drawn) if stacked else rng.uniforms(count)
                np.multiply(u, 2.0, out=block)
                block -= 1.0
                block *= limit
                drawn += count
        return net

    def forward(self, x: np.ndarray, out: list[np.ndarray] | None = None,
                rows: slice = slice(None)) -> np.ndarray:
        """Affine / rectifier chain then head; the net caches each layer's
        input and its own output. A stacked net of m takes one input vector
        or one (rows, in) batch, shared by all m, or an (m, rows, in) stack
        of batches, one per net, and returns (m, ...): matmul broadcasts
        each over the m nets' weights.

        Given out (an unstacked net's buffers(len(x))), only x[rows] runs:
        each layer writes its rows of its out array, the head in place, and
        the net caches x and out whole, so calls over row ranges that cover
        x, in turn or on two threads at once, leave the caches of one pass
        over x. Returns the output of those rows."""
        h = np.asarray(x, dtype=np.float64)
        if h.shape[-1:] != self.sizes[:1]:
            raise ShapeError(
                f"input {h.shape} does not match weights {self.layers[0].weights.shape}"
            )
        stacked = self.params.ndim == 2
        if stacked and (h.ndim > 3 or h.ndim == 3 and len(h) != len(self.params)):
            m = len(self.params)  # matmul would broadcast some of these silently
            raise ShapeError(f"a stack of {m} nets takes a vector, a matrix or "
                             f"({m}, rows, in), not {h.shape}")
        shared_vector = stacked and h.ndim == 1
        if shared_vector:
            h = h[None]  # one input row, over which each net's (1, out) bias broadcasts
        inputs = [h]
        if out is not None:
            h = h[rows]
        for i, (w, b, _, _) in enumerate(self.layers):
            h = np.matmul(h, w.swapaxes(-1, -2), out=None if out is None else out[i][rows])
            h += b
            if i < len(self.layers) - 1:
                np.maximum(h, 0.0, out=h)
                inputs.append(h if out is None else out[i])
        if shared_vector:
            h = h[:, 0]
        # Nothing else holds the final pre-activation: the head overwrites it.
        if self.head == HEAD_SIGMOID:
            y = sigmoid(h, out=h)
        else:
            logits = h.reshape(*h.shape[:-1], *self.softmax_shape)
            y = rowwise_softmax(logits, out=logits)
        self._inputs = inputs
        self._output = y if out is None else out[-1].reshape(len(inputs[0]), *y.shape[1:])
        return y

    def buffers(self, n: int) -> list[np.ndarray]:
        """Uninitialised arrays for each layer's output over n rows, for
        forward's out."""
        return [np.empty((n, width)) for width in self.sizes[1:]]

    def backward(self, upstream_grad: np.ndarray) -> None:
        """Write the parameter gradients of the last forward pass into grads.

        upstream_grad is the gradient of the objective with respect to the
        head OUTPUT (same shape as forward's return); grads become its sum
        over the batch, replacing whatever they held before.
        """
        if self.grads is None:
            raise RuntimeError("a stacked net is forward-only")
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
            np.matmul(g2.T, x.reshape(-1, w.shape[1]), out=grad_w)
            np.sum(g2, axis=0, out=grad_b)
            if i > 0:
                # Rectifier subgradient, 0 at the kink: a rectified input is
                # positive exactly where its pre-activation was.
                g = (g @ w) * (x > 0.0)

    def sga_step(self, lr: float, scale: float = 1.0) -> None:
        """Gradient ascent: params += (grads * scale) * lr, leaving grads
        untouched. One pass over the flat vectors in blocks of BLOCK
        through one reused buffer, so no step temporary is parameter-sized."""
        if self.grads is None:
            raise RuntimeError("a stacked net is forward-only")
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        buf = np.empty(min(BLOCK, self.params.size))
        for start in range(0, self.params.size, BLOCK):
            grad = self.grads[start:start + BLOCK]
            step = np.multiply(grad, scale, out=buf[:grad.size])
            step *= lr
            self.params[start:start + grad.size] += step
