import math

import numpy as np
import pytest

from dvae.distributions import (
    EPS,
    Rng,
    aggregate_bce,
    aggregate_entropy,
    categorical_sample,
    stream_uniforms,
)
from dvae.tensor import ShapeError
from helpers import elbo_kl

# Cross-platform fixture: first three raw outputs for seed 42.
SEED42_OUTPUTS = [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52]

# chi-square upper critical values at significance 1e-6, df = 1..7
CHI2_CRIT_1E6 = {
    1: 23.928126976934827,
    2: 27.631021115928547,
    3: 30.664849706213598,
    4: 33.37684158171984,
    5: 35.888186879672865,
    6: 38.25833637720969,
    7: 40.521831234179864,
}


def random_prob_vector(k, rng):
    raw = np.array([-math.log(1.0 - rng.uniform()) for _ in range(k)])  # Exp(1) draws
    return raw / raw.sum()


class TestRng:
    def test_seed_42_reference_outputs(self):
        rng = Rng(42)
        assert [rng.next_uint64() for _ in range(3)] == SEED42_OUTPUTS

    def test_uniforms_equal_sequential_draws_bitwise(self):
        for seed in (42, 7, (1 << 64) - 1):
            one_by_one, block = Rng(seed), Rng(seed)
            expected = [one_by_one.uniform() for _ in range(1000)]
            assert block.uniforms(1000).tolist() == expected
            assert block.state == one_by_one.state
            assert block.uniform() == one_by_one.uniform()

    @pytest.mark.parametrize("seeds, as_ints", [
        # uint64 sums wrap past 2^64 as Rng reduces 2^64 - 3 + 1000 i
        (np.uint64(2**64 - 3) + np.uint64(1000) * np.arange(5, dtype=np.uint64),
         [2**64 - 3 + 1000 * i for i in range(5)]),
        (np.array([-7, -1, 0, 5]), [-7, -1, 0, 5]),
        ([2**63, 2**64 - 1], [2**63, 2**64 - 1]),
    ], ids=["uint64-wrapping-past-2^64", "negative-int64", "python-ints-as-uint64"])
    def test_stream_rows_equal_each_seeds_rng(self, seeds, as_ints):
        block = stream_uniforms(seeds, 37)
        assert block.shape == (len(as_ints), 37)
        for row, s in zip(block, as_ints):
            assert row.tobytes() == Rng(s).uniforms(37).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 5])
    def test_blocked_stream_rows_equal_each_seeds_rng(self, n):
        # long rows, past the 2^15-draw blocks Mlp.create takes, on seeds
        # whose sums with j * gamma wrap past 2^64
        as_ints = [2**64 - 2, 2**64 - 1, 12345]
        block = stream_uniforms(np.array(as_ints, dtype=np.uint64), n)
        assert block.shape == (3, n) and block.flags.c_contiguous
        for row, s in zip(block, as_ints):
            assert row.tobytes() == Rng(s).uniforms(n).tobytes()
            for j in {0, 2**15 - 1, 2**15, 2**15 + 1, n - 1}:
                if 0 <= j < n:  # draw j + 1 of Rng(s) is the first of Rng(s + j * gamma)
                    assert row[j] == Rng(s + j * 0x9E3779B97F4A7C15).uniform()

    @pytest.mark.parametrize("start", [0, 1, 2**15 - 1, 2**15, 3 * 2**15 + 5])
    def test_stream_from_start_equals_columns_of_the_whole_stream(self, start):
        seeds = np.array([2**64 - 2, 2**64 - 1, 12345], dtype=np.uint64)
        n = 2**15 + 3
        whole = stream_uniforms(seeds, start + n)
        part = stream_uniforms(seeds, n, start)
        assert part.shape == (3, n) and part.flags.c_contiguous
        assert part.tobytes() == whole[:, start:].tobytes()

    @pytest.mark.parametrize("seeds", [[-1, 2**63], [2**64]], ids=["float64", "object"])
    def test_stream_rejects_seeds_numpy_cannot_hold_as_64_bit_ints(self, seeds):
        with pytest.raises(TypeError, match="64-bit integers"):
            stream_uniforms(seeds, 3)

    def test_same_seed_same_stream(self):
        a, b = Rng(123), Rng(123)
        assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]

    def test_uniform_range(self):
        rng = Rng(7)
        us = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)

    def test_shuffle_is_a_permutation(self):
        rng = Rng(9)
        idx = np.arange(17)
        rng.shuffle(idx)
        assert sorted(idx.tolist()) == list(range(17))
        # the same permutation and state as one randint per swap
        for n in (0, 1, 2, 17, 1000):
            block, one_by_one = Rng(9), Rng(9)
            idx = np.arange(n)
            block.shuffle(idx)
            expected = list(range(n))
            for i in range(n - 1, 0, -1):
                j = one_by_one.randint(i + 1)
                expected[i], expected[j] = expected[j], expected[i]
            assert idx.tolist() == expected
            assert block.state == one_by_one.state


class TestBernoulliLogPmf:
    # log p(x) of one Bernoulli outcome is minus its one-element aggregate_bce
    def test_symmetric_cases(self):
        half = np.array([0.5])
        assert -aggregate_bce(half, np.array([1.0])) == pytest.approx(math.log(0.5), abs=1e-12)
        assert -aggregate_bce(half, np.array([0.0])) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_direct_evaluation(self):
        assert -aggregate_bce(np.array([0.9]), np.array([1.0])) == pytest.approx(
            math.log(0.9), abs=1e-12)


class TestCategoricalSample:
    def test_degenerate_distributions(self):
        rng = Rng(1)
        assert np.all(categorical_sample(np.array([1.0, 0.0, 0.0]), rng.uniforms(20)) == 0)
        assert np.all(categorical_sample(np.array([0.0, 0.0, 1.0]), rng.uniforms(20)) == 2)

    def test_fair_coin_frequency(self):
        # binomial SE at n=1e5 is ~0.0016; 0.01 is a generous 6-sigma bound
        rng = Rng(202)
        n = 100_000
        p = np.array([0.5, 0.5])
        zeros = int((categorical_sample(p, rng.uniforms(n)) == 0).sum())
        assert abs(zeros / n - 0.5) < 0.01

    def test_matches_sequential_inverse_cdf_loop(self):
        def loop_sample(p, u):
            acc = 0.0
            for i, pi in enumerate(p):
                acc += pi
                if u < acc:
                    return i
            return len(p) - 1

        rng = Rng(14)
        for _ in range(300):
            k = 2 + rng.randint(9)
            p = random_prob_vector(k, rng)
            p[rng.randint(k)] = 0.0  # a repeated running sum, and a residue for K-1
            u = rng.uniforms(8)
            assert categorical_sample(p, u).tolist() == [loop_sample(p, ui) for ui in u]

    @staticmethod
    def reduced_sample(probs, u):
        # one comparison array over all K categories, summed along K
        acc = np.cumsum(probs, axis=-1)
        return np.minimum((acc <= np.asarray(u)[..., None]).sum(axis=-1), acc.shape[-1] - 1)

    @pytest.mark.parametrize("probs,u", [
        ([0.25, 0.25, 0.5], [0.0, 0.25, 0.3, 0.5, 0.75, 1.0 - 2.0 ** -53]),  # ties
        ([0.5, 0.25], [0.1, 0.5, 0.75, 0.8, 0.99]),  # last running sum below 1
        ([0.3, 0.0, 0.7], [0.2, 0.3, 0.31]),  # zero-probability category
        ([1.0], [0.0, 0.5, 1.0 - 2.0 ** -53]),  # K = 1
    ])
    def test_edge_values_match_the_reduced_comparison(self, probs, u):
        got = categorical_sample(np.array(probs), np.array(u))
        want = self.reduced_sample(np.array(probs), np.array(u))
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_stacks_match_the_reduced_comparison(self, k):
        rng = Rng(30 + k)
        n, d = 50, 4
        probs = rng.uniforms(n * d * k).reshape(n, d, k)
        probs[probs < 0.2] = 0.0  # zero-probability categories
        probs /= np.maximum(probs.sum(axis=-1, keepdims=True), 1.0)
        u = rng.uniforms(n * d).reshape(n, d)
        u[0] = np.cumsum(probs[0], axis=-1)[:, 0]  # ties with a running sum
        for p in (probs, probs[0]):  # per-row (N, D, K) and shared (D, K) rows
            got = categorical_sample(p, u)
            want = self.reduced_sample(p, u)
            assert got.shape == (n, d) and got.dtype == want.dtype == np.intp
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("k,seed", [(3, 11), (5, 12), (8, 13)])
    def test_chi_square_goodness_of_fit(self, k, seed):
        rng = Rng(seed)
        p = random_prob_vector(k, rng)
        n = 100_000
        counts = np.bincount(categorical_sample(p, rng.uniforms(n)), minlength=k)
        expected = n * p
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < CHI2_CRIT_1E6[k - 1]


class TestEntropy:
    # the entropy of one row is aggregate_entropy over a one-row array
    def test_deterministic_distribution(self):
        assert aggregate_entropy(np.array([[1.0, 0.0]])) == 0.0

    def test_uniform_values(self):
        assert aggregate_entropy(np.array([[0.5, 0.5]])) == pytest.approx(math.log(2), abs=1e-15)
        assert aggregate_entropy(np.full((1, 4), 0.25)) == pytest.approx(math.log(4), abs=1e-15)

    def test_range(self):
        rng = Rng(31)
        for _ in range(200):
            p = random_prob_vector(6, rng)
            h = aggregate_entropy(p[None, :])
            assert -1e-12 <= h <= math.log(6) + 1e-12


class TestBce:
    # binary cross-entropy of one outcome is a one-element aggregate_bce
    def test_symmetric_cases(self):
        half = np.array([0.5])
        assert aggregate_bce(half, np.array([1.0])) == pytest.approx(math.log(2), abs=1e-15)
        assert aggregate_bce(half, np.array([0.0])) == pytest.approx(math.log(2), abs=1e-15)

    def test_direct_evaluation(self):
        assert aggregate_bce(np.array([0.9]), np.array([1.0])) == pytest.approx(
            0.10536051565782628, abs=1e-12)

    def test_clipping_keeps_finite(self):
        assert math.isfinite(aggregate_bce(np.array([0.0]), np.array([1.0])))
        assert math.isfinite(aggregate_bce(np.array([1.0]), np.array([0.0])))


class TestAggregateForms:
    def test_aggregate_entropy_uniform_rows(self):
        assert aggregate_entropy(np.full((3, 4), 0.25)) == pytest.approx(
            3 * math.log(4), abs=1e-12)

    def test_aggregate_entropy_one_hot_rows(self):
        assert aggregate_entropy(np.array([[1.0, 0.0], [0.0, 1.0]])) == 0.0

    def test_aggregate_entropy_hand_summed(self):
        rows = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = math.log(2) + (-0.25 * math.log(0.25) - 0.75 * math.log(0.75))
        assert aggregate_entropy(rows) == pytest.approx(expected, abs=1e-12)

    def test_aggregate_bce_uniform(self):
        half = np.full(4, 0.5)
        assert aggregate_bce(half, half) == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_aggregate_bce_perfect_predictions_clip(self):
        targets = np.array([1.0, 0.0, 1.0, 1.0])
        assert aggregate_bce(targets, targets) <= 1e-6 * len(targets)

    def test_aggregate_bce_hand_summed(self):
        got = aggregate_bce(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        assert got == pytest.approx(-math.log(0.9) - math.log(0.8), abs=1e-12)

    def test_aggregate_bce_length_mismatch(self):
        with pytest.raises(ShapeError):
            aggregate_bce(np.array([0.5]), np.array([0.5, 0.5]))

    def test_aggregate_bce_matches_scalar_sum(self):
        rng = Rng(41)
        preds = np.array([rng.uniform() for _ in range(9)])
        targets = np.array([float(rng.randint(2)) for _ in range(9)])
        # scalar binary cross-entropy, one outcome at a time
        total = sum(-t * math.log(y) - (1.0 - t) * math.log1p(-y)
                    for t, y in zip(targets, preds))
        assert aggregate_bce(preds, targets) == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("pred_shape, target_shape",
                             [((9, 6), (6,)), ((6,), (3, 6)), ((4, 6), (4, 6))])
    def test_aggregate_bce_bit_identical_to_unfused_form(self, pred_shape, target_shape):
        rng = Rng(43)
        preds = rng.uniforms(math.prod(pred_shape)).reshape(pred_shape)
        preds.flat[:4] = [0.0, EPS, 1.0 - EPS, 1.0]
        targets = np.floor(rng.uniforms(math.prod(target_shape)) * 2.0).reshape(target_shape)
        targets.flat[:2] = [0.25, 0.75]  # soft targets too

        def unfused(preds, targets):
            y = np.clip(preds, EPS, 1.0 - EPS)
            return -(targets * np.log(y) + (1.0 - targets) * np.log1p(-y)).sum(axis=-1)

        got, expected = aggregate_bce(preds, targets), unfused(preds, targets)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        # small predictions against 0 targets, where ln(1 - y) and
        # log1p(-y) part in the last bits
        small = np.geomspace(1e-2, 2e-7, pred_shape[-1])
        zeros = np.zeros(pred_shape[-1])
        assert np.array_equal(aggregate_bce(small, zeros), unfused(small, zeros))

    def test_aggregate_forms_reduce_event_axes_only(self):
        rng = Rng(42)
        probs = rng.uniforms(3 * 2 * 4).reshape(3, 2, 4)
        preds = rng.uniforms(3 * 5).reshape(3, 5)
        targets = np.floor(rng.uniforms(5) * 2.0)
        assert aggregate_entropy(probs).shape == (3,)
        assert aggregate_bce(preds, targets).shape == (3,)
        for i in range(3):
            assert aggregate_entropy(probs)[i] == pytest.approx(
                aggregate_entropy(probs[i]), abs=1e-12)
            assert aggregate_bce(preds, targets)[i] == pytest.approx(
                aggregate_bce(preds[i], targets), abs=1e-12)


class TestKlVsUniform:
    # the ELBO's KL term, ln K - H(p), as elbo_estimate computes it
    def test_uniform_is_zero(self):
        for k in (2, 5, 9):
            assert abs(elbo_kl(np.full(k, 1.0 / k))) < 1e-12

    def test_one_hot(self):
        p = np.array([0.0, 0.0, 0.0, 1.0])
        assert elbo_kl(p) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_direct_sum(self):
        # direct summation of the divergence definition, term by term
        rng = Rng(55)
        for _ in range(1000):
            k = 2 + rng.randint(15)
            p = random_prob_vector(k, rng)
            direct = float(sum(pi * math.log(k * pi) for pi in p if pi > 0.0))
            closed = elbo_kl(p)
            assert abs(closed - direct) <= 1e-12
            assert closed >= -1e-12


def test_eps_is_small_enough_to_sit_below_tolerances():
    # the clip perturbs a log by at most ~EPS near saturation
    assert EPS == 1e-7
