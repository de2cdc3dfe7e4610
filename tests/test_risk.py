import numpy as np
import pytest

from oracles import (
    beta_quantile,
    brute_force_quantile,
    distortion_risk,
    empirical_cdf,
    hinge_surrogate,
    sample_risk,
    tail_threshold,
)


class TestSampleRisk:
    def test_misaligned_prediction_positive_risk(self):
        assert sample_risk(np.array([1.0, -1.0, 0.0]), np.array([2.0, 3.0]), 1) == 1.0

    def test_sign_flip(self):
        assert sample_risk(np.array([1.0, -1.0, 0.0]), np.array([2.0, 3.0]), -1) == -1.0

    def test_zero_score_both_labels(self):
        w = np.array([0.0, 0.0, 0.0])
        x = np.array([4.0, 5.0])
        assert sample_risk(w, x, 1) == 0.0
        assert sample_risk(w, x, -1) == 0.0

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            sample_risk(np.array([1.0, 0.0]), np.array([1.0]), 0)


class TestEmpiricalCdf:
    def test_inclusive_count(self):
        assert empirical_cdf([0.1, 0.5, 0.9], 0.5) == pytest.approx(2 / 3)

    def test_below_minimum(self):
        assert empirical_cdf([0.1, 0.5, 0.9], -1.0) == 0.0

    def test_at_maximum_inclusive(self):
        assert empirical_cdf([0.1, 0.5, 0.9], 0.9) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([], 0.5)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(3)
        risks = rng.standard_normal(40)
        grid = np.sort(rng.uniform(-3, 3, 50))
        values = [empirical_cdf(risks, a) for a in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestBetaQuantile:
    def test_order_statistic(self):
        assert beta_quantile([1, 2, 3, 4, 5], 0.8) == 4.0

    def test_order_invariance(self):
        assert beta_quantile([5, 4, 3, 2, 1], 0.8) == 4.0

    def test_ties(self):
        # oracle: F(2) = 0.75 >= 0.5, and 2 is the smallest candidate
        risks = [2, 2, 2, 7]
        assert brute_force_quantile(risks, 0.5) == 2.0
        assert beta_quantile(risks, 0.5) == 2.0

    def test_beta_out_of_range(self):
        for beta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                beta_quantile([1.0, 2.0], beta)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            if rng.random() < 0.5:
                risks = rng.integers(-3, 4, n).astype(float)  # heavy ties
            else:
                risks = rng.standard_normal(n)
            beta = float(rng.uniform(0.01, 0.99))
            assert beta_quantile(risks, beta) == brute_force_quantile(risks, beta)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(11)
        risks = rng.standard_normal(30)
        betas = np.linspace(0.05, 0.95, 19)
        values = [beta_quantile(risks, b) for b in betas]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestTailThreshold:
    def test_single_strict_exceedance(self):
        t = tail_threshold([1, 2, 3, 4, 5], 0.8)
        assert t.q == 4.0
        assert list(t.tail_indices) == [4]

    def test_all_ties_empty_tail(self):
        t = tail_threshold([3, 3, 3, 3], 0.5)
        assert t.q == 3.0
        assert t.tail_indices.size == 0

    def test_enumerated_exceedances(self):
        t = tail_threshold([1, 2, 3, 4, 5], 0.5)
        assert t.q == 3.0
        assert list(t.tail_indices) == [3, 4]

    def test_partition_invariant(self):
        rng = np.random.default_rng(5)
        risks = rng.standard_normal(25)
        t = tail_threshold(risks, 0.6)
        in_tail = np.zeros(25, dtype=bool)
        in_tail[t.tail_indices] = True
        assert np.all(risks[in_tail] > t.q)
        assert np.all(risks[~in_tail] <= t.q)


class TestDistortionRisk:
    def test_single_tail_element(self):
        assert distortion_risk([1, 2, 3, 4, 5], 0.8) == 5.0

    def test_mean_of_tail(self):
        assert distortion_risk([1, 2, 3, 4, 5], 0.5) == 4.5

    def test_empty_tail_returns_threshold(self):
        assert distortion_risk([3, 3, 3, 3], 0.5) == 3.0

    def test_never_below_threshold(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            risks = rng.standard_normal(int(rng.integers(1, 30)))
            beta = float(rng.uniform(0.1, 0.9))
            assert distortion_risk(risks, beta) >= beta_quantile(risks, beta)


class TestHingeSurrogate:
    def test_single_exceedance(self):
        assert hinge_surrogate([1, 2, 3, 4, 5], 4.0) == pytest.approx(0.2)

    def test_no_exceedance(self):
        assert hinge_surrogate([1, 2, 3], 10.0) == 0.0

    def test_tail_identity_hand_case(self):
        # both sides computed independently: hinge vs (|tail|/n)(rho - q)
        risks = [1, 2, 3, 4, 5]
        q = beta_quantile(risks, 0.5)
        assert q == 3.0
        lhs = hinge_surrogate(risks, q)
        t = tail_threshold(risks, 0.5)
        rhs = (t.tail_indices.size / 5) * (distortion_risk(risks, 0.5) - q)
        assert lhs == pytest.approx(0.6)
        assert rhs == pytest.approx(0.6)

    def test_tail_identity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            risks = rng.standard_normal(n) * rng.uniform(0.1, 3)
            beta = float(rng.uniform(0.05, 0.95))
            q = beta_quantile(risks, beta)
            t = tail_threshold(risks, beta)
            rho = distortion_risk(risks, beta)
            lhs = hinge_surrogate(risks, q)
            rhs = (t.tail_indices.size / n) * (rho - q)
            assert abs(lhs - rhs) <= 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            risks = rng.standard_normal(10)
            assert hinge_surrogate(risks, float(rng.standard_normal())) >= 0.0


def test_order_invariance_all_operations():
    rng = np.random.default_rng(23)
    risks = rng.standard_normal(20)
    perm = rng.permutation(20)
    shuffled = risks[perm]
    beta = 0.7
    assert beta_quantile(shuffled, beta) == beta_quantile(risks, beta)
    assert distortion_risk(shuffled, beta) == pytest.approx(
        distortion_risk(risks, beta), abs=1e-12
    )
    q = beta_quantile(risks, beta)
    assert hinge_surrogate(shuffled, q) == pytest.approx(
        hinge_surrogate(risks, q), abs=1e-12
    )
    t_orig = tail_threshold(risks, beta)
    t_perm = tail_threshold(shuffled, beta)
    assert set(perm[t_perm.tail_indices]) == set(t_orig.tail_indices)
