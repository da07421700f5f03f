import math
import warnings

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


def two_branch_sigmoid(t):
    """The masked two-branch form: 1 / (1 + exp(-t)) on t >= 0, exp(t) /
    (1 + exp(t)) elsewhere, each gathered and scattered through a mask."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_bit_identical_to_two_branch_form():
    edges = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 709.0, -709.0,
                      745.2, -745.2, 1e-300, -1e-300])
    got, expected = sigmoid(edges), two_branch_sigmoid(edges)
    assert np.array_equal(got, expected, equal_nan=True)
    not_nan = ~np.isnan(expected)
    assert np.array_equal(np.signbit(got[not_nan]), np.signbit(expected[not_nan]))
    rng = Rng(7)
    for scale in (0.1, 1.0, 10.0, 40.0, 100.0, 800.0):
        t = (rng.uniforms(600).reshape(20, 30) * 2.0 - 1.0) * scale
        assert np.array_equal(sigmoid(t), two_branch_sigmoid(t))
    assert np.array_equal(sigmoid(np.float64(-3.5)), two_branch_sigmoid(np.float64(-3.5)))


def test_sigmoid_of_infinities_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(np.array([math.inf, -math.inf]))
    assert out.tolist() == [1.0, 0.0]
