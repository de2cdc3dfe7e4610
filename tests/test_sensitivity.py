from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskfed.errors import NumericalError
from riskfed.sensitivity import (
    ClientReport,
    aggregate_sensitivity,
    central_update,
    client_report,
    tail_system,
)

from conftest import make_dataset, make_store
from oracles import brute_force_sensitivity, exact_solve, risks, tail_objective


def report_with_gram(gram, n_k):
    g = np.asarray(gram, dtype=np.float64)
    return ClientReport(n_k=n_k, gradient=np.zeros(g.shape[0]), gram=g,
                        local_loss=0.0, active_count=0)


def check_gram(rng, cases: int) -> tuple[float, float]:
    """Over cases random shards, client_report's Gram at beta 0.8: the
    largest |G - G^T| entry and the least v^T G v along one random v each,
    which are 0 and nonnegative for a symmetric PSD Gram."""
    asymmetry, curvature = 0.0, np.inf
    for _ in range(cases):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(2, 25))
        data = make_dataset(rng.standard_normal((n, d)),
                            rng.choice([-1.0, 1.0], n))
        w = rng.standard_normal(d + 1)
        gram = client_report(w, data, beta=0.8, c=1.0).gram
        asymmetry = max(asymmetry, float(np.abs(gram - gram.T).max()))
        v = rng.standard_normal(d + 1)
        curvature = min(curvature, float(v @ gram @ v))
    return asymmetry, curvature


def check_sensitivity_sum(rng, cases: int) -> float:
    """The largest entry of |aggregate_sensitivity - brute_force_sensitivity|
    over cases random sets of 1 to 5 client reports, each of 1 to 8 rows,
    and c in [0.2, 3)."""
    worst = 0.0
    for _ in range(cases):
        p = int(rng.integers(2, 7))
        reports = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 9))
            w = rng.standard_normal(p)
            data = make_dataset(rng.standard_normal((n, p - 1)), rng.choice([-1.0, 1.0], n))
            reports.append(client_report(w, data, beta=0.8, c=1.0))
        total = sum(r.n_k for r in reports)
        c = float(rng.uniform(0.2, 3.0))
        got = aggregate_sensitivity(reports, c, total)
        worst = max(worst, float(np.abs(got - brute_force_sensitivity(reports, c, total)).max()))
    return worst


def check_solve_residual(rng, cases: int) -> float:
    """The largest residual ||(S + eps I) step - g|| / max(1, ||g||) of
    central_update's step over cases random SPD systems S = A^T A of
    size 1 to 16, eps in [1e-4, 1) and ||g|| scaled up to 50-fold."""
    worst = 0.0
    for _ in range(cases):
        p = int(rng.integers(1, 17))
        a = rng.standard_normal((p + 2, p))
        s = a.T @ a
        eps = float(rng.uniform(1e-4, 1.0))
        g = rng.standard_normal(p) * float(rng.uniform(0.1, 50))
        w = rng.standard_normal(p)
        step = w - central_update(w, s, g, epsilon=eps)
        resid = np.linalg.norm((s + eps * np.eye(p)) @ step - g)
        worst = max(worst, float(resid) / max(1.0, float(np.linalg.norm(g))))
    return worst


class TestClientGram:
    def test_single_active_outer_product(self, dataset_factory):
        # w = [-1,0,0]: risks 1 and -1, q = -1, only x=[1,0] active
        data = dataset_factory([[1.0, 0.0], [-1.0, 0.0]], [1, 1])
        gram = client_report(np.array([-1.0, 0.0, 0.0]), data, beta=0.5, c=1.0).gram
        expected = np.outer([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(gram, expected)

    def test_no_active_zero_matrix(self, dataset_factory):
        data = dataset_factory([[1.0, 2.0], [1.0, 2.0]], [1, 1])
        gram = client_report(np.array([0.5, -0.5, 0.1]), data, beta=0.5, c=1.0).gram
        np.testing.assert_array_equal(gram, np.zeros((3, 3)))

    def test_two_active_sum_of_outer_products(self, dataset_factory):
        # w = [-1,-1,0]: risks 1, 1, -3; beta=0.3 -> q=-3, both unit rows active
        data = dataset_factory([[1.0, 0.0], [0.0, 1.0], [-3.0, 0.0]], [1, 1, 1])
        gram = client_report(np.array([-1.0, -1.0, 0.0]), data, beta=0.3, c=1.0).gram
        expected = (np.outer([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
                    + np.outer([0.0, 1.0, 1.0], [0.0, 1.0, 1.0]))
        np.testing.assert_array_equal(gram, expected)
        assert gram[2, 2] == 2.0

    def test_symmetric_psd_random(self):
        asymmetry, curvature = check_gram(np.random.default_rng(51), 100)
        assert asymmetry <= 1e-12
        assert curvature >= -1e-10


class TestAggregateSensitivity:
    def test_single_client_zero_gram_identity(self):
        s = aggregate_sensitivity([report_with_gram(np.zeros((3, 3)), 5)], 1.0, 5)
        np.testing.assert_array_equal(s, np.eye(3))

    def test_single_client_direct_sum(self):
        gram = np.outer([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        s = aggregate_sensitivity([report_with_gram(gram, 1)], 1.0, 1)
        np.testing.assert_array_equal(s, np.eye(3) + gram)

    def test_matches_brute_force(self):
        assert check_sensitivity_sum(np.random.default_rng(53), 50) <= 1e-12

    def test_identity_floor_under_full_reporting(self):
        rng = np.random.default_rng(59)
        reports = []
        for _ in range(4):
            a = rng.standard_normal((3, 4))
            reports.append(report_with_gram(a.T @ a, 10))
        s = aggregate_sensitivity(reports, 1.0, 40)
        for _ in range(20):
            v = rng.standard_normal(4)
            assert v @ s @ v >= (1 - 1e-10) * (v @ v)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_sensitivity([report_with_gram(np.zeros((2, 2)), 3)], 1.0, 4)


class TestCentralUpdate:
    def test_identity_curvature_newton_step_to_zero(self):
        w = np.array([0.4, -0.7, 1.1])
        got = central_update(w, np.eye(3), w, epsilon=0.0)
        np.testing.assert_allclose(got, np.zeros(3), atol=1e-14)

    def test_diagonal_solve(self):
        s = np.array([[2.0, 0.0], [0.0, 1.0]])
        got = central_update(np.zeros(2), s, np.array([-1.0, 0.0]), epsilon=0.0)
        np.testing.assert_allclose(got, [0.5, 0.0], atol=1e-15)

    def test_cramer_oracle_2x2(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        g = np.array([1.0, 1.0])
        step = np.array(exact_solve(s, g), dtype=float)
        np.testing.assert_allclose(step, [1 / 3, 1 / 3], atol=1e-15)
        got = central_update(np.zeros(2), s, g, epsilon=0.0)
        np.testing.assert_allclose(got, -step, atol=1e-14)

    def test_equals_gradient_descent_with_identity(self):
        rng = np.random.default_rng(61)
        w, g = rng.standard_normal(5), rng.standard_normal(5)
        got = central_update(w, np.eye(5), g, epsilon=0.0)
        np.testing.assert_allclose(got, w - g, atol=1e-14)

    def test_residual_bound_random_spd(self):
        assert check_solve_residual(np.random.default_rng(67), 100) <= 1e-8
        # systems of the step's own form, S = I + J^T J / n over rows [x; 1]
        # with x of scale 1e8, cond(S + eps I) about 8e15: each step misses
        # the absolute bound above, yet agrees with the exact solution of
        # the same float system
        for seed in (82, 85, 104):
            rng = np.random.default_rng(seed)
            jac = np.hstack([1e8 * rng.standard_normal((11, 2)), np.ones((11, 1))])
            s = np.eye(3) + jac.T @ jac / 11
            g = 100 * rng.standard_normal(3)
            a = s + 1e-3 * np.eye(3)
            step = -central_update(np.zeros(3), s, g, epsilon=1e-3)
            assert np.linalg.norm(g - a @ step) > 1e-8 * max(1.0, np.linalg.norm(g))
            exact = exact_solve(a, g)
            error = [float(Fraction(v) - e) for v, e in zip(step, exact)]
            assert np.linalg.norm(error) <= 1e-14 * np.linalg.norm(np.array(exact, float))

    def test_step_maximizes_quadratic_model(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            p = int(rng.integers(2, 8))
            a = rng.standard_normal((p + 1, p))
            s = a.T @ a
            eps = 0.1
            g = rng.standard_normal(p)
            step = -(central_update(np.zeros(p), s, g, epsilon=eps))
            m = s + eps * np.eye(p)

            def model(d):
                return g @ d - 0.5 * d @ m @ d

            best = model(step)
            for _ in range(20):
                assert model(step + 0.1 * rng.standard_normal(p)) <= best + 1e-12

    def test_indefinite_system_raises_with_pivot(self):
        s = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NumericalError, match="smallest eigenvalue"):
            central_update(np.zeros(2), s, np.array([1.0, 1.0]), epsilon=0.0)
        # a run never reaches this branch, its S being at least I, so only a
        # direct call does; the message names the damped system's eigenvalue
        with pytest.raises(NumericalError) as caught:
            central_update(np.zeros(3), -2 * np.eye(3), np.ones(3), 1e-3)
        assert ("not positive definite (smallest eigenvalue -1.999e+00)"
                in str(caught.value))


class TestGaussNewtonConsistency:
    def test_sensitivity_is_half_hessian_plus_identity(self, dataset_factory):
        # squared-score loss on active samples has Hessian I + (2c/n) J^T J;
        # the aggregated matrix is defined with (c/n) J^T J, exactly as printed
        rng = np.random.default_rng(73)
        d, n = 3, 12
        data = make_dataset(rng.standard_normal((n, d)),
                            rng.choice([-1.0, 1.0], n))
        w = rng.standard_normal(d + 1)
        c = 1.7
        report = client_report(w, data, beta=0.8, c=c)
        s = aggregate_sensitivity([report], c, n)
        np.testing.assert_allclose(s, np.eye(d + 1) + (c / n) * report.gram,
                                   atol=1e-12)
        true_hessian = np.eye(d + 1) + (2 * c / n) * report.gram
        np.testing.assert_allclose(2 * (s - np.eye(d + 1)),
                                   true_hessian - np.eye(d + 1), atol=1e-12)


H = 1e-6  # central-difference step


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 6),
       st.sampled_from([0.5, 1.0, 2.0]), st.data())
def test_step_descends_the_cvar_objective(seed, n, d, c, data):
    """One client's g from the store's tail rows is the gradient of
    F = 0.5 ||w||^2 + c (1 - beta) CVaR_beta, up to the CVaR weight
    (k - beta n) / n on q's own row, which is 0 where beta n is an integer.

    F is differentiable at w when no risk lies within the step's reach
    of q, so its central differences are then its gradient."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    labels = rng.choice([-1.0, 1.0], n)
    w = rng.standard_normal(d + 1)
    if data.draw(st.booleans(), label="beta n an integer"):
        beta = data.draw(st.integers(1, n - 1), label="beta n") / n
    else:
        beta = data.draw(st.floats(0.05, 0.95), label="beta")
    xb = np.hstack([features, np.ones((n, 1))])
    r = risks(w, features, labels)
    k = int(np.argmax(np.arange(1, n + 1) / n >= beta)) + 1  # rank of q
    q_row = int(np.argsort(r)[k - 1])
    others = np.delete(r, q_row)
    assume(np.all(np.abs(others - r[q_row]) > 2 * H * np.abs(xb).max()))

    shard = make_dataset(features, labels)
    store = make_store([(shard, shard)])
    rows = store.evaluate(w, beta, c).tail_rows(np.array([0]))
    _, g = tail_system(w, store.train.features[rows], store.train.labels[rows], n, c)
    fd = np.array([(tail_objective(w + e, features, labels, beta, c)
                    - tail_objective(w - e, features, labels, beta, c)) / (2 * H)
                   for e in H * np.eye(d + 1)])
    atom = c * (k / n - beta) * np.linalg.norm(xb[q_row])
    assert np.linalg.norm(fd - g) <= atom + 1e-8
