import math

import numpy as np

from dvae.distributions import Rng
from dvae.tensor import rowwise_softmax, sigmoid


def test_softmax_symmetric_rows():
    out = rowwise_softmax(np.zeros((1, 3)))
    assert np.allclose(out, 1.0 / 3.0, rtol=0, atol=1e-15)
    out = rowwise_softmax(np.array([[7.25, 7.25]]))
    assert np.allclose(out, 0.5, rtol=0, atol=1e-15)


def test_softmax_direct_evaluation():
    out = rowwise_softmax(np.array([[math.log(1.0), math.log(3.0)]]))
    assert np.allclose(out, [[0.25, 0.75]], rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = Rng(5)
    logits = np.array([[rng.uniform() * 20 - 10 for _ in range(7)] for _ in range(4)])
    out = rowwise_softmax(logits)
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    shifts = np.array([[100.0], [-3.5], [0.0], [37.25]])
    assert np.allclose(rowwise_softmax(logits + shifts), out, rtol=0, atol=1e-12)


def test_softmax_finite_on_extreme_logits():
    out = rowwise_softmax(np.array([[1e8, -1e8, 0.0]]))
    assert np.all(np.isfinite(out))


def test_sigmoid_values():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert abs(sigmoid(np.array([math.log(3.0)]))[0] - 0.75) < 1e-15
    big = sigmoid(np.array([50.0]))[0]
    assert 1.0 - 1e-12 <= big <= 1.0


def test_sigmoid_symmetry():
    rng = Rng(6)
    t = np.array([rng.uniform() * 60 - 30 for _ in range(200)])
    assert np.allclose(sigmoid(-t), 1.0 - sigmoid(t), rtol=0, atol=1e-15)


def test_sigmoid_no_overflow_far_out():
    out = sigmoid(np.array([-1e8, 1e8]))
    assert np.all(np.isfinite(out))
    assert out[0] >= 0.0 and out[1] <= 1.0
