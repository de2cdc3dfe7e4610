import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskfed import _kernels

from oracles import (beta_quantile, empirical_cdf, fedprox_local_step, frozen_q_loss,
                     risks, tail_rows, tail_threshold)


def random_shard(rng, n=None, d=None):
    n = n or int(rng.integers(2, 60))
    d = d or int(rng.integers(2, 12))
    features = np.ascontiguousarray(rng.standard_normal((n, d)))
    labels = rng.choice([-1.0, 1.0], n)
    w = rng.standard_normal(d + 1)
    return features, labels, w


class TestQuantileRank:
    def test_matches_smallest_rank_reaching_beta(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 100))
            beta = float(rng.uniform(0.001, 0.999))
            k = _kernels.quantile_rank(n, beta)
            assert k / n >= beta
            if k > 1:
                assert (k - 1) / n < beta

    # no clamp keeps ceil(beta*n) in [1, n]: it lies there for every beta in
    # (0, 1), the range validate allows, down to the smallest subnormal and
    # up to the largest double below 1
    @given(st.integers(1, 2**40),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(1, 5e-324)
    @example(2**40, 5e-324)
    @example(1, 1 - 2**-53)
    @example(2**40, 1 - 2**-53)
    @example(3, float(np.nextafter(1 / 3, 1)))  # 3 * beta is 1.0: repaired up
    @example(25, 0.28)  # 25 * 0.28 is 7.000000000000001: repaired down
    def test_rank_in_range_for_every_beta_in_the_open_interval(self, n, beta):
        k = _kernels.quantile_rank(n, beta)
        assert 1 <= k <= n
        assert k / n >= beta
        assert (k - 1) / n < beta

    def test_consistent_with_empirical_cdf(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            risks = rng.standard_normal(n)
            beta = float(rng.uniform(0.01, 0.99))
            q = beta_quantile(risks, beta)
            assert empirical_cdf(risks, q) >= beta
            assert np.sort(risks)[_kernels.quantile_rank(n, beta) - 1] == q


class TestNumpyBackendAgainstComposition:
    def test_client_eval_matches_independent_recompute(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            features, labels, w = random_shard(rng)
            beta = float(rng.uniform(0.2, 0.9))
            c = float(rng.uniform(0.2, 3.0))
            loss, grad, gram, active, q = _kernels.client_eval(
                features, labels, w, beta, c
            )
            n, d = features.shape
            r = risks(w, features, labels)
            assert q == beta_quantile(r, beta)
            mask = r > q
            assert active == int(np.count_nonzero(mask))
            np.testing.assert_allclose(loss, frozen_q_loss(w, features, labels, q, c),
                                       rtol=1e-12)
            xb = np.hstack([features, np.ones((n, 1))])
            expected_grad = w - (c / n) * (xb[mask].T @ labels[mask]
                                           if mask.any() else np.zeros(d + 1))
            np.testing.assert_allclose(grad, expected_grad, atol=1e-12)
            expected_gram = xb[mask].T @ xb[mask]
            np.testing.assert_allclose(gram, expected_gram, atol=1e-12)

    def test_client_eval_with_an_empty_tail(self):
        # equal rows have equal risks, so none lies above q: the gradient is
        # w minus (c/n) times +0.0, which keeps every bit of w, -0.0 too
        features, labels = np.ones((4, 2)), np.ones(4)
        w = np.array([-0.0, 1.5, -2.0])
        _, grad, gram, active, _ = _kernels.client_eval(features, labels, w, 0.5, 1.0)
        assert active == 0
        assert grad.tobytes() == w.tobytes()
        assert gram.tobytes() == np.zeros((3, 3)).tobytes()

    def test_local_sgd_matches_manual_loop(self):
        rng = np.random.default_rng(11)
        features, labels, w0 = random_shard(rng, n=25, d=4)
        # at lr 0.3 the tail moves between epochs, so reusing it would show
        beta, c, lr, mu, epochs = 0.7, 1.3, 0.3, 0.4, 6
        # handed the tail at w0, the kernel steps from it in the first epoch
        tail = tail_rows(features, labels, w0, beta)
        got = _kernels.local_sgd(features, labels, w0, mu, beta, c, epochs, lr, tail)
        # FedProx's local step after 0..epochs epochs, and the tail of each
        steps = [fedprox_local_step(features, labels, w0, mu, beta, c, e, lr)
                 for e in range(epochs + 1)]
        tails = {tail_rows(features, labels, w, beta).tobytes() for w in steps[:-1]}
        assert len(tails) > 1
        np.testing.assert_allclose(got, steps[-1], atol=1e-12)
        # each later epoch scores the rows at its own weights: one epoch,
        # then the rest handed the tail at the weights it reached; at mu = 0,
        # as there is no pull toward w0, restarting from w1 changes nothing
        plain = _kernels.local_sgd(features, labels, w0, 0.0, beta, c, epochs, lr, tail)
        w1 = _kernels.local_sgd(features, labels, w0, 0.0, beta, c, 1, lr, tail)
        rest = _kernels.local_sgd(features, labels, w1, 0.0, beta, c, epochs - 1,
                                  lr, tail_rows(features, labels, w1, beta))
        assert rest.tobytes() == plain.tobytes()
        # and uses the tail as given: without one of its rows the result moves
        wrong = _kernels.local_sgd(features, labels, w0, mu, beta, c,
                                   epochs, lr, tail[1:])
        assert np.abs(wrong - got).max() > 1e-6


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mu=st.sampled_from([0.0, 0.1, 1.0]),
       epochs=st.integers(0, 5), lr=st.floats(0.05, 0.5),
       beta=st.sampled_from([0.5, 0.8, 0.9]), c=st.sampled_from([0.5, 1.0, 2.0]))
def test_local_sgd_is_fedprox_local_step(seed, mu, epochs, lr, beta, c):
    # the kernel, handed the tail at w0, against FedProx's local step
    # written from its definition, which pulls toward w0 in every epoch
    features, labels, w0 = random_shard(np.random.default_rng(seed))
    got = _kernels.local_sgd(features, labels, w0, mu, beta, c, epochs, lr,
                             tail_rows(features, labels, w0, beta))
    expected = fedprox_local_step(features, labels, w0, mu, beta, c, epochs, lr)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3, unique=True),
       st.data(), st.floats(0.01, 0.99))
def test_client_eval_threshold_under_ties(values, data, beta):
    # risks from one to three distinct values, all equal included; with
    # labels -1, x = risk and w = [1, 0], the kernel sees exactly these risks
    picks = data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=40))
    risks = np.array(picks)
    features = risks[:, None].copy()
    labels = -np.ones(risks.size)
    _, _, _, active, q = _kernels.client_eval(features, labels, np.array([1.0, 0.0]),
                                              beta, 1.0)
    tail = tail_threshold(risks, beta)
    assert q == beta_quantile(risks, beta) == tail.q
    assert active == tail.tail_indices.size
