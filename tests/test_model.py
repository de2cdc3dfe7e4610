import numpy as np
import pytest

from riskfed.federation import init_weights

from oracles import predict


class TestPredict:
    def test_dot_product_zero_bias(self):
        assert predict(np.array([1.0, -1.0, 0.0]), np.array([2.0, 3.0])) == -1.0

    def test_bias_only(self):
        assert predict(np.array([0.0, 0.0, 0.5]), np.array([9.0, 9.0])) == 0.5

    def test_hand_computed(self):
        # 0.2*1 - 0.1*2 + 0.05
        got = predict(np.array([0.2, -0.1, 0.05]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(got, 0.05, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_linear_in_weights(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 11))
            w1, w2 = rng.standard_normal(d + 1), rng.standard_normal(d + 1)
            x = rng.standard_normal(d)
            a, b = rng.standard_normal(2)
            lhs = predict(a * w1 + b * w2, x)
            rhs = a * predict(w1, x) + b * predict(w2, x)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestInitWeights:
    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(init_weights(3, 7), init_weights(3, 7))

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(init_weights(3, 7), init_weights(3, 8))

    def test_range_and_length(self):
        w = init_weights(3, 7)
        assert w.shape == (4,)
        assert np.all(np.abs(w) <= 0.01)
