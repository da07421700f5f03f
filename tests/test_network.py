import math

import numpy as np
import pytest

from dvae.distributions import Rng, aggregate_bce, aggregate_entropy
from dvae.network import HEAD_SIGMOID, HEAD_SOFTMAX, Mlp
from dvae.oracle import finite_difference, scaled_gradient_error
from dvae.tensor import ShapeError, sigmoid


def random_input(n, rng):
    return np.array([rng.uniform() for _ in range(n)])


class TestFlatVectors:
    def test_layer_arrays_are_views_in_manifest_order(self):
        ws = [np.arange(12.0).reshape(4, 3), np.arange(8.0).reshape(2, 4) - 3.0]
        bs = [np.array([0.5, -0.5, 1.5, 2.5]), np.array([7.0, -7.0])]
        net = Mlp([3, 4, 2], HEAD_SIGMOID)
        assert not net.params.any() and not net.grads.any()
        for layer, w, b in zip(net.layers, ws, bs):
            layer.weights[:] = w
            layer.bias[:] = b
        expected = np.concatenate([ws[0].ravel(), bs[0], ws[1].ravel(), bs[1]])
        assert np.array_equal(net.params, expected)
        assert net.params.dtype == np.float64 and net.grads.shape == net.params.shape
        offset = 0
        for layer, w, b in zip(net.layers, ws, bs):
            for arr, grad, source in ((layer.weights, layer.grad_weights, w),
                                      (layer.bias, layer.grad_bias, b)):
                assert np.array_equal(arr, source)
                assert arr.shape == grad.shape == source.shape
                assert np.shares_memory(arr, net.params)
                assert np.shares_memory(grad, net.grads)
                assert arr.ctypes.data == net.params[offset:].ctypes.data
                assert grad.ctypes.data == net.grads[offset:].ctypes.data
                offset += source.size
        assert offset == net.params.size

    def test_vector_writes_reach_the_layers(self):
        net = Mlp.create([3, 4, 2], HEAD_SIGMOID, Rng(60))
        net.params[:] = np.linspace(-0.5, 0.5, net.params.size)
        assert net.layers[0].weights[0, 0] == -0.5 and net.layers[1].bias[-1] == 0.5
        net.forward(np.ones(3))
        net.backward(np.ones(2))
        assert np.array_equal(net.grads[-2:], net.layers[1].grad_bias)
        assert np.any(net.grads != 0.0)


class TestForward:
    def test_zero_net_sigmoid_outputs_half(self):
        net = Mlp([3, 4, 5], HEAD_SIGMOID)
        assert np.array_equal(net.forward(np.array([0.3, -1.0, 2.0])), np.full(5, 0.5))

    def test_zero_net_softmax_outputs_uniform(self):
        net = Mlp([3, 6], HEAD_SOFTMAX, softmax_shape=(2, 3))
        out = net.forward(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_identity_layer_sigmoid_composition(self):
        net = Mlp([2, 2], HEAD_SIGMOID)
        net.layers[0].weights[:] = np.eye(2)
        out = net.forward(np.array([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.5, 0.75], rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        net = Mlp([3, 2], HEAD_SIGMOID)
        with pytest.raises(ShapeError):
            net.forward(np.zeros(4))


class TestBackward:
    def test_zero_upstream_leaves_accumulators(self):
        rng = Rng(70)
        net = Mlp.create([4, 3, 2], HEAD_SIGMOID, rng)
        net.forward(random_input(4, rng))
        net.backward(np.zeros(2))
        assert np.all(net.grads == 0.0)

    def test_linear_chain_rule(self):
        # single linear layer; with c the gradient at its output (the head's
        # upstream times the sigmoid slope y (1 - y)), grad_W = outer(c, x)
        w = np.array([[0.5, -0.25], [0.25, 0.75]])
        net = Mlp([2, 2], HEAD_SIGMOID)
        layer = net.layers[0]
        layer.weights[:] = w
        x = np.array([5.0, -1.0])
        y = net.forward(x)
        up = np.array([2.0, -3.0])
        net.backward(up)
        c = up * y * (1.0 - y)
        assert np.array_equal(layer.grad_weights, np.outer(c, x))
        assert np.array_equal(layer.grad_bias, c)

        # a batch accumulates the sum of its rows' gradients
        xs = np.array([[5.0, -1.0], [0.5, 2.0], [-3.0, 1.5]])
        ups = np.array([[2.0, -3.0], [1.0, 0.25], [-0.5, 4.0]])
        net.zero_grads()
        ys = net.forward(xs)
        assert np.array_equal(ys, sigmoid(xs @ w.T))
        net.backward(ups)
        cs = ups * ys * (1.0 - ys)
        assert np.allclose(layer.grad_weights, sum(map(np.outer, cs, xs)), rtol=0, atol=1e-12)
        assert np.allclose(layer.grad_bias, cs.sum(axis=0), rtol=0, atol=1e-12)

    def test_backward_before_forward_raises(self):
        net = Mlp([2, 2], HEAD_SIGMOID)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros(2))

    def test_accumulation_linearity(self):
        rng = Rng(71)
        net = Mlp.create([4, 5, 3], HEAD_SIGMOID, rng)
        x = random_input(4, rng)
        a = np.array([rng.uniform() for _ in range(3)])
        b = np.array([rng.uniform() for _ in range(3)])
        net.forward(x)
        net.backward(a + b)
        combined = net.grads.copy()
        net.zero_grads()
        net.forward(x)
        net.backward(a)
        net.backward(b)  # second backward reuses the cached forward
        assert np.allclose(net.grads, combined, rtol=0, atol=1e-12)

    def test_replay_after_zero_matches_single_backward(self):
        rng = Rng(72)
        net = Mlp.create([3, 4, 2], HEAD_SIGMOID, rng)
        x = random_input(3, rng)
        up = np.array([rng.uniform() for _ in range(2)])
        net.forward(x)
        net.backward(up)
        first = net.grads.copy()
        net.zero_grads()
        net.backward(up)
        assert np.array_equal(net.grads, first)


class TestFiniteDifferenceAgreement:
    """Master property: analytic gradients match central differences at
    h=1e-5 within relative 1e-4 (absolute floor 1e-8) on random nets."""

    @pytest.mark.parametrize("seed", range(10))
    def test_sigmoid_head_bce_objective(self, seed):
        rng = Rng(300 + seed)
        net = Mlp.create([5, 8, 4], HEAD_SIGMOID, rng)
        x = random_input(5, rng)
        targets = np.array([float(rng.randint(2)) for _ in range(4)])

        net.zero_grads()
        y = net.forward(x)
        up = targets / y - (1.0 - targets) / (1.0 - y)  # d(-bce)/dy
        net.backward(up)
        analytic = net.grads.copy()

        def objective(_theta):
            return -aggregate_bce(net.forward(x), targets)

        fd = finite_difference(objective, net.params, 1e-5)
        assert scaled_gradient_error(analytic, fd) <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_head_entropy_plus_pick_objective(self, seed):
        rng = Rng(400 + seed)
        d, k = 2, 3
        net = Mlp.create([4, 6, d * k], HEAD_SOFTMAX, rng, softmax_shape=(d, k))
        x = random_input(4, rng)
        picks = np.array([rng.randint(k) for _ in range(d)])

        net.zero_grads()
        probs = net.forward(x)
        up = -(np.log(probs) + 1.0)
        up[np.arange(d), picks] += 1.0 / probs[np.arange(d), picks]
        net.backward(up)
        analytic = net.grads.copy()

        def objective(_theta):
            p = net.forward(x)
            return aggregate_entropy(p) + float(np.log(p[np.arange(d), picks]).sum())

        fd = finite_difference(objective, net.params, 1e-5)
        assert scaled_gradient_error(analytic, fd) <= 1e-4


class TestSgaStep:
    def test_zero_grads_means_no_movement(self):
        rng = Rng(80)
        net = Mlp.create([3, 4, 2], HEAD_SIGMOID, rng)
        before = net.params.copy()
        net.sga_step(0.5)
        assert np.array_equal(net.params, before)

    def test_unit_lr_adds_gradient(self):
        net = Mlp([1, 1], HEAD_SIGMOID)
        layer = net.layers[0]
        layer.weights[0, 0] = 2.0
        layer.grad_weights[0, 0] = 0.25
        net.sga_step(1.0)
        assert layer.weights[0, 0] == 2.25

    def test_two_half_steps_equal_one_full_step(self):
        rng = Rng(81)
        a = Mlp.create([3, 4, 2], HEAD_SIGMOID, rng)
        b = Mlp.create([3, 4, 2], HEAD_SIGMOID, Rng(81))
        x = random_input(3, rng)
        up = np.array([0.3, -0.8])
        for net in (a, b):
            net.forward(x)
            net.backward(up)
        a.sga_step(0.05)
        a.sga_step(0.05)  # accumulators untouched by stepping
        b.sga_step(0.1)
        assert np.allclose(a.params, b.params, rtol=0, atol=1e-15)

    def test_nonpositive_lr_rejected(self):
        net = Mlp([2, 2], HEAD_SIGMOID)
        with pytest.raises(ValueError):
            net.sga_step(0.0)
        with pytest.raises(ValueError):
            net.sga_step(-1e-3)


class TestDeterminism:
    def test_same_seed_bit_identical_after_steps(self):
        def run():
            rng = Rng(90)
            net = Mlp.create([4, 6, 3], HEAD_SIGMOID, rng)
            data_rng = Rng(91)
            for _ in range(5):
                x = random_input(4, data_rng)
                t = np.array([float(data_rng.randint(2)) for _ in range(3)])
                net.zero_grads()
                y = net.forward(x)
                net.backward(t / y - (1.0 - t) / (1.0 - y))
                net.sga_step(0.01)
            return net.params

        assert np.array_equal(run(), run())


def test_zero_grads_idempotent():
    rng = Rng(95)
    net = Mlp.create([3, 3], HEAD_SIGMOID, rng)
    net.forward(random_input(3, rng))
    net.backward(np.ones(3))
    net.zero_grads()
    once = net.grads.copy()
    net.zero_grads()
    assert np.array_equal(once, net.grads)
    assert np.all(once == 0.0)


def test_init_bounds_follow_fan_scaling():
    net = Mlp.create([5, 8, 3], HEAD_SIGMOID, Rng(96))
    for layer, fan_sum in zip(net.layers, (13, 11)):
        limit = math.sqrt(6.0 / fan_sum)
        assert 0.5 * limit < np.abs(layer.weights).max() <= limit
        assert np.all(layer.bias == 0.0)
