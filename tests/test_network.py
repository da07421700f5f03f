import math
import re

import numpy as np
import pytest

from dvae.distributions import Rng, aggregate_bce, aggregate_entropy
from dvae import network
from dvae.network import BLOCK, Mlp
from dvae.oracle import finite_difference, scaled_gradient_error
from dvae.tensor import ShapeError, sigmoid


def random_input(n, rng):
    return np.array([rng.uniform() for _ in range(n)])


class TestFlatVectors:
    def test_layer_arrays_are_views_in_manifest_order(self):
        ws = [np.arange(12.0).reshape(4, 3), np.arange(8.0).reshape(2, 4) - 3.0]
        bs = [np.array([0.5, -0.5, 1.5, 2.5]), np.array([7.0, -7.0])]
        net = Mlp([3, 4, 2])
        net.forward(np.ones(3))
        net.backward(np.zeros(2))  # allocates grads and the gradient views
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
        net = Mlp.create([3, 4, 2], Rng(60))
        net.params[:] = np.linspace(-0.5, 0.5, net.params.size)
        assert net.layers[0].weights[0, 0] == -0.5 and net.layers[1].bias[-1] == 0.5
        net.forward(np.ones(3))
        net.backward(np.ones(2))
        assert np.array_equal(net.grads[-2:], net.layers[1].grad_bias)
        assert np.any(net.grads != 0.0)


class TestForward:
    def test_zero_net_sigmoid_outputs_half(self):
        net = Mlp([3, 4, 5])
        assert np.array_equal(net.forward(np.array([0.3, -1.0, 2.0])), np.full(5, 0.5))

    def test_zero_net_softmax_outputs_uniform(self):
        net = Mlp([3, 6], softmax_shape=(2, 3))
        out = net.forward(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_softmax_shape_decides_the_head(self):
        assert Mlp([3, 6], softmax_shape=(2, 3)).head == "softmax"
        assert Mlp([3, 6]).head == "sigmoid"

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3)], ids=["short", "over"])
    def test_softmax_shape_must_fit_the_output(self, shape):
        with pytest.raises(ShapeError, match=r"output width 6 does not fill softmax shape"):
            Mlp([3, 6], softmax_shape=shape)

    def test_identity_layer_sigmoid_composition(self):
        net = Mlp([2, 2])
        net.layers[0].weights[:] = np.eye(2)
        out = net.forward(np.array([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.5, 0.75], rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        net = Mlp([3, 2])
        with pytest.raises(ShapeError):
            net.forward(np.zeros(4))

    @pytest.mark.parametrize("sizes", [[], [3]])
    def test_fewer_than_two_sizes_rejected(self, sizes):
        # with no layer to make a fresh array, the in-place head would
        # overwrite the caller's input
        with pytest.raises(ShapeError, match="input and an output size"):
            Mlp(sizes)


class TestBackward:
    def test_zero_upstream_leaves_accumulators(self):
        rng = Rng(70)
        net = Mlp.create([4, 3, 2], rng)
        net.forward(random_input(4, rng))
        net.backward(np.zeros(2))
        assert np.all(net.grads == 0.0)

    def test_linear_chain_rule(self):
        # single linear layer; with c the gradient at its output (the head's
        # upstream times the sigmoid slope y (1 - y)), grad_W = outer(c, x)
        w = np.array([[0.5, -0.25], [0.25, 0.75]])
        net = Mlp([2, 2])
        net.layers[0].weights[:] = w
        x = np.array([5.0, -1.0])
        y = net.forward(x)
        up = np.array([2.0, -3.0])
        net.backward(up)
        layer = net.layers[0]  # the first backward gave it gradient views
        c = up * y * (1.0 - y)
        assert np.array_equal(layer.grad_weights, np.outer(c, x))
        assert np.array_equal(layer.grad_bias, c)

        # a batch's gradients are the sum of its rows' gradients
        xs = np.array([[5.0, -1.0], [0.5, 2.0], [-3.0, 1.5]])
        ups = np.array([[2.0, -3.0], [1.0, 0.25], [-0.5, 4.0]])
        ys = net.forward(xs)
        assert np.array_equal(ys, sigmoid(xs @ w.T))
        net.backward(ups)
        cs = ups * ys * (1.0 - ys)
        assert np.allclose(layer.grad_weights, sum(map(np.outer, cs, xs)), rtol=0, atol=1e-12)
        assert np.allclose(layer.grad_bias, cs.sum(axis=0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [None, (2, 3)], ids=["sigmoid", "softmax"])
    def test_first_backward_allocates_grads_and_the_gradient_views(self, shape):
        # as for a stack: a net that only runs forward or steps holds no buffer
        net = Mlp.create([5, 8, 6], Rng(505), softmax_shape=shape)
        params = net.params.copy()
        out = net.forward(Rng(506).uniforms(5))
        net.sga_step(0.5)
        assert net.grads is None and net.params.tobytes() == params.tobytes()
        assert all(layer.grad_weights is None and layer.grad_bias is None
                   for layer in net.layers)
        net.backward(Rng(507).uniforms(out.size).reshape(out.shape) - 0.5)
        grads = net.grads
        assert grads.shape == net.params.shape and grads.any()
        for layer in net.layers:
            assert layer.grad_weights.shape == layer.weights.shape
            assert layer.grad_bias.shape == layer.bias.shape
            assert np.shares_memory(layer.grad_weights, grads)
            assert np.shares_memory(layer.grad_bias, grads)
        net.backward(np.zeros(out.shape))  # later passes overwrite the same buffer
        assert net.grads is grads and not grads.any()

    def test_backward_before_forward_raises(self):
        net = Mlp([2, 2])
        with pytest.raises(RuntimeError):
            net.backward(np.zeros(2))

    def test_accumulation_linearity(self):
        # gradients are linear in the upstream: separate passes for a and b
        # sum to the pass for a + b
        rng = Rng(71)
        net = Mlp.create([4, 5, 3], rng)
        x = random_input(4, rng)
        a = np.array([rng.uniform() for _ in range(3)])
        b = np.array([rng.uniform() for _ in range(3)])
        net.forward(x)
        net.backward(a + b)
        combined = net.grads.copy()
        net.backward(a)  # each later backward reuses the cached forward
        from_a = net.grads.copy()
        net.backward(b)
        assert np.allclose(from_a + net.grads, combined, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("refresh", [False, True], ids=["replay", "new-forward"])
    @pytest.mark.parametrize("shape", [None, (2, 3)], ids=["sigmoid", "softmax"])
    def test_backward_keeps_only_the_last_pass(self, shape, refresh):
        # grads hold the last pass only, bit for bit, whatever came before
        net, fresh = (Mlp.create([3, 4, 6], Rng(72), shape) for _ in range(2))
        rng = Rng(73)
        x_a, x = rng.uniforms(5 * 3).reshape(5, 3), rng.uniforms(5 * 3).reshape(5, 3)
        out_shape = net.forward(x_a).shape
        net.backward(rng.uniforms(30).reshape(out_shape) - 0.5)
        before = net.grads.copy()
        b = rng.uniforms(30).reshape(out_shape) - 0.5
        net.forward(x if refresh else x_a)
        net.backward(b)
        fresh.forward(x if refresh else x_a)
        fresh.backward(b)
        assert np.any(net.grads != before)
        assert net.grads.tobytes() == fresh.grads.tobytes()

    def test_zero_upstream_after_a_pass_leaves_zero_grads(self):
        rng = Rng(95)
        net = Mlp.create([3, 3], rng)
        net.forward(random_input(3, rng))
        net.backward(np.ones(3))
        assert np.all(net.grads != 0.0)
        net.backward(np.zeros(3))
        assert np.all(net.grads == 0.0)

    def test_in_place_head_leaves_outputs_and_grads_unchanged(self, monkeypatch):
        # the sigmoid head overwrites the final pre-activation; a head that
        # writes a fresh array must give the same bits
        rng = Rng(74)
        x = rng.uniforms(4 * 5).reshape(4, 5)
        up = rng.uniforms(4 * 7).reshape(4, 7) - 0.5

        def run():
            net = Mlp.create([5, 8, 7], Rng(75))
            y = net.forward(x).copy()
            net.backward(up)
            return y.tobytes(), net.grads.tobytes()

        in_place = run()
        monkeypatch.setattr(network, "sigmoid", lambda t, out=None: sigmoid(t))
        assert run() == in_place


class TestFiniteDifferenceAgreement:
    """Master property: analytic gradients match central differences at
    h=1e-5 within relative 1e-4 (absolute floor 1e-8) on random nets."""

    @pytest.mark.parametrize("seed", range(10))
    def test_sigmoid_head_bce_objective(self, seed):
        rng = Rng(300 + seed)
        net = Mlp.create([5, 8, 4], rng)
        x = random_input(5, rng)
        targets = np.array([float(rng.randint(2)) for _ in range(4)])

        y = net.forward(x)
        up = targets / y - (1.0 - targets) / (1.0 - y)  # d(-bce)/dy
        net.backward(up)
        analytic = net.grads.copy()

        def objective(thetas):
            return -aggregate_bce(Mlp(net.sizes, params=thetas).forward(x),
                                  targets)

        fd = finite_difference(objective, net.params)
        assert scaled_gradient_error(analytic, fd) <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_head_entropy_plus_pick_objective(self, seed):
        rng = Rng(400 + seed)
        d, k = 2, 3
        net = Mlp.create([4, 6, d * k], rng, (d, k))
        x = random_input(4, rng)
        picks = np.array([rng.randint(k) for _ in range(d)])

        probs = net.forward(x)
        up = -(np.log(probs) + 1.0)
        up[np.arange(d), picks] += 1.0 / probs[np.arange(d), picks]
        net.backward(up)
        analytic = net.grads.copy()

        def objective(thetas):
            p = Mlp(net.sizes, (d, k), thetas).forward(x)
            return aggregate_entropy(p) + np.log(p[:, np.arange(d), picks]).sum(axis=-1)

        fd = finite_difference(objective, net.params)
        assert scaled_gradient_error(analytic, fd) <= 1e-4


class TestStackedParams:
    """A net over an (m, n) stack runs m nets in one forward pass."""

    @pytest.mark.parametrize("rows", [None, 1, 4], ids=["vector", "1-row", "4-rows"])
    @pytest.mark.parametrize("shape", [None, (2, 3)], ids=["sigmoid", "softmax"])
    def test_each_row_bit_identical_to_its_own_net(self, shape, rows):
        rng = Rng(500)
        net = Mlp.create([5, 8, 6], rng, softmax_shape=shape)
        stack = net.params + 0.1 * (Rng(501).uniforms(7 * net.params.size).reshape(7, -1) - 0.5)
        x = rng.uniforms(5) if rows is None else rng.uniforms(rows * 5).reshape(rows, 5)
        stacked = Mlp(net.sizes, shape, stack)
        out = stacked.forward(x)
        for i in range(len(stack)):
            one = Mlp(net.sizes, shape, stack[i].copy()).forward(x)
            assert out[i].shape == one.shape
            assert out[i].tobytes() == one.tobytes()
        assert out.shape == (7, *one.shape) and out.flags.c_contiguous

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("shape", [None, (2, 3)], ids=["sigmoid", "softmax"])
    def test_one_batch_per_net_bit_identical_to_each_net(self, shape, rows):
        stacked = Mlp.create([5, 8, 6], np.arange(600, 607), softmax_shape=shape)
        x = Rng(502).uniforms(7 * rows * 5).reshape(7, rows, 5)
        out = stacked.forward(x)
        for i in range(7):
            one = Mlp(stacked.sizes, shape, stacked.params[i].copy()).forward(x[i])
            assert out[i].tobytes() == one.tobytes()
        assert out.shape == (7, *one.shape) and out.flags.c_contiguous

    @pytest.mark.parametrize("shape", [None, (2, 3)], ids=["sigmoid", "softmax"])
    def test_stacked_create_rows_equal_nets_from_each_rng(self, shape):
        seeds = np.uint64(2**64 - 2) + np.arange(4, dtype=np.uint64)  # wraps past 2^64
        stacked = Mlp.create([5, 8, 6], seeds, softmax_shape=shape)
        for i, row in enumerate(stacked.params):
            one = Mlp.create([5, 8, 6], Rng(2**64 - 2 + i), shape)
            assert row.tobytes() == one.params.tobytes()

    def test_rejects_a_batch_stack_of_the_wrong_length(self):
        stacked = Mlp([3, 2], params=np.zeros((4, 8)))
        with pytest.raises(ShapeError, match="stack of 4"):
            stacked.forward(np.ones((3, 1, 3)))

    def test_layers_are_views_into_the_stack(self):
        stack = np.arange(2 * 26, dtype=np.float64).reshape(2, 26)
        stacked = Mlp([3, 4, 2], params=stack)
        assert stacked.grads is None and stacked.params is stack
        for layer, (w, b, *_) in zip(stacked.layers, Mlp([3, 4, 2], params=stack[1]).layers):
            assert layer.grad_weights is None and layer.grad_bias is None
            assert np.shares_memory(layer.weights, stack)
            assert np.array_equal(layer.weights[1], w)
            assert np.array_equal(layer.bias[1, 0], b) and layer.bias.shape == (2, 1, len(b))

    @pytest.mark.parametrize("x_shape", [(5,), (4, 5), (7, 4, 5)],
                             ids=["shared-vector", "shared-batch", "batch-per-net"])
    @pytest.mark.parametrize("shape", [None, (2, 3)], ids=["sigmoid", "softmax"])
    def test_each_grads_row_bit_identical_to_its_own_nets_backward(self, shape, x_shape):
        stacked = Mlp.create([5, 8, 6], np.arange(610, 617), softmax_shape=shape)
        x = Rng(503).uniforms(math.prod(x_shape)).reshape(x_shape)
        out = stacked.forward(x)
        assert stacked.grads is None  # a stack that only runs forward has no gradient buffer
        up = Rng(504).uniforms(out.size).reshape(out.shape) - 0.5
        stacked.backward(up)
        assert stacked.grads.shape == stacked.params.shape
        for i in range(7):
            one = Mlp(stacked.sizes, shape, stacked.params[i].copy())
            one.forward(x[i] if len(x_shape) == 3 else x)
            one.backward(up[i])
            assert stacked.grads[i].tobytes() == one.grads.tobytes()
        for layer in stacked.layers:  # the gradient views now point into grads
            assert layer.grad_weights.shape == layer.weights.shape
            assert np.shares_memory(layer.grad_weights, stacked.grads)
            assert np.shares_memory(layer.grad_bias, stacked.grads)

    def test_sga_step_rejected_before_anything_is_written(self):
        params = Rng(98).uniforms(4 * 8).reshape(4, 8)
        stacked = Mlp([3, 2], params=params.copy())
        with pytest.raises(RuntimeError, match="stacked net takes no step"):
            stacked.sga_step(0.1)
        assert stacked.params.tobytes() == params.tobytes()

    def test_rejects_inputs_with_more_than_one_batch_axis(self):
        stacked = Mlp([3, 2], params=np.zeros((4, 8)))
        with pytest.raises(ShapeError):
            stacked.forward(np.ones((2, 2, 3)))

    @pytest.mark.parametrize("shape", [(1, 2, 3), (2, 4, 1, 3), (4, 2, 1, 3)])
    def test_rejects_inputs_that_matmul_would_broadcast(self, shape):
        stacked = Mlp([3, 2], params=np.zeros((4, 8)))
        message = f"a stack of 4 nets takes a vector, a matrix or (4, rows, in), not {shape}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            stacked.forward(np.ones(shape))

    @pytest.mark.parametrize("shape", [(7,), (4, 7), (2, 4, 8)])
    def test_rejects_params_of_the_wrong_shape(self, shape):
        with pytest.raises(ShapeError):
            Mlp([3, 2], params=np.zeros(shape))


class TestSgaStep:
    def test_zero_grads_means_no_movement(self):
        rng = Rng(80)
        net = Mlp.create([3, 4, 2], rng)
        before = net.params.copy()
        net.sga_step(0.5)
        assert np.array_equal(net.params, before)

    def test_unit_lr_adds_gradient(self):
        net = Mlp([1, 1])
        net.forward(np.zeros(1))
        net.backward(np.zeros(1))
        layer = net.layers[0]
        layer.weights[0, 0] = 2.0
        layer.grad_weights[0, 0] = 0.25
        net.sga_step(1.0)
        assert layer.weights[0, 0] == 2.25

    def test_two_half_steps_equal_one_full_step(self):
        rng = Rng(81)
        a = Mlp.create([3, 4, 2], rng)
        b = Mlp.create([3, 4, 2], Rng(81))
        x = random_input(3, rng)
        up = np.array([0.3, -0.8])
        for net in (a, b):
            net.forward(x)
            net.backward(up)
        a.sga_step(0.05)
        a.sga_step(0.05)  # grads untouched by stepping
        b.sga_step(0.1)
        assert np.allclose(a.params, b.params, rtol=0, atol=1e-15)

    # Parameter counts below, equal to, one above and several blocks past
    # BLOCK.
    @pytest.mark.parametrize("sizes, n", [
        ([5, 8, 4], 84),
        ([255, 128], BLOCK),
        ([330, 99], BLOCK + 1),
        ([400, 250, 60], 3 * BLOCK + 17006),
    ])
    def test_scaled_step_bit_identical_to_scale_then_per_layer_step(self, sizes, n):
        # the former step: grads *= scale, then w += lr * grad_w layer by layer
        assert BLOCK == 2 ** 15
        lr, scale = 1e-3, 1.0 / 7.0
        net = Mlp(sizes, params=Rng(82).uniforms(n) - 0.5)
        assert net.params.size == n
        old = Mlp(sizes, params=net.params.copy())
        for each in (net, old):  # the first backward allocates grads
            each.forward(np.zeros(sizes[0]))
            each.backward(np.zeros(sizes[-1]))
        net.grads[:] = 100.0 * (Rng(83).uniforms(n) - 0.5)
        grads = net.grads.copy()
        old.grads[:] = grads
        old.grads *= scale
        for w, b, grad_w, grad_b in old.layers:
            w += lr * grad_w
            b += lr * grad_b
        net.sga_step(lr, scale)
        assert net.params.tobytes() == old.params.tobytes()
        assert net.grads.tobytes() == grads.tobytes()

    def test_nonpositive_lr_rejected(self):
        net = Mlp([2, 2])
        with pytest.raises(ValueError):
            net.sga_step(0.0)
        with pytest.raises(ValueError):
            net.sga_step(-1e-3)


class TestDeterminism:
    def test_same_seed_bit_identical_after_steps(self):
        def run():
            rng = Rng(90)
            net = Mlp.create([4, 6, 3], rng)
            data_rng = Rng(91)
            for _ in range(5):
                x = random_input(4, data_rng)
                t = np.array([float(data_rng.randint(2)) for _ in range(3)])
                y = net.forward(x)
                net.backward(t / y - (1.0 - t) / (1.0 - y))
                net.sga_step(0.01)
            return net.params

        assert np.array_equal(run(), run())


@pytest.mark.parametrize("stacked", [False, True], ids=["rng", "stack"])
def test_blocked_init_bit_identical_to_whole_layer_draws(stacked):
    # layer 0 holds 75,000 weights, more than two blocks of draws
    sizes, seeds = [300, 250, 60], [2**64 - 1, 97]
    assert sizes[0] * sizes[1] > 2 * BLOCK
    nets = ([Mlp.create(sizes, Rng(s)) for s in seeds] if not stacked else
            [Mlp(sizes, params=row.copy()) for row in
             Mlp.create(sizes, np.array(seeds, dtype=np.uint64)).params])
    for net, seed in zip(nets, seeds):
        rng = Rng(seed)
        for (w, b, *_), fan_in, fan_out in zip(net.layers, sizes, sizes[1:]):
            u = rng.uniforms(w.size).reshape(w.shape)
            assert w.tobytes() == ((u * 2.0 - 1.0) * math.sqrt(6.0 / (fan_in + fan_out))).tobytes()
            assert not b.any()


def test_init_bounds_follow_fan_scaling():
    net = Mlp.create([5, 8, 3], Rng(96))
    for layer, fan_sum in zip(net.layers, (13, 11)):
        limit = math.sqrt(6.0 / fan_sum)
        assert 0.5 * limit < np.abs(layer.weights).max() <= limit
        assert np.all(layer.bias == 0.0)
