import numpy as np
import pytest

from riskfed import _kernels
from riskfed.errors import DataError
from riskfed.objective import aggregate_gradient
from riskfed.sensitivity import ClientReport, client_report

from conftest import make_dataset, make_store
from oracles import beta_quantile, frozen_q_loss, risks, tail_threshold


def threshold_q(w, data, beta, c):
    """The tail threshold q of one client's evaluation at w."""
    return _kernels.client_eval(data.features, data.labels, w, beta, c)[4]


def random_instance(rng):
    d = int(rng.integers(2, 11))
    n = int(rng.integers(2, 21))
    data = make_dataset(rng.standard_normal((n, d)),
                        rng.choice([-1.0, 1.0], n))
    w = rng.standard_normal(d + 1)
    return w, data


def check_finite_differences(rng, cases: int) -> float:
    """The worst relative error of client_report's gradient against central
    differences of frozen_q_loss, over cases random shards at beta 0.8.

    q is itself an order statistic, so samples sitting exactly at q are
    unavoidable; the frozen threshold is nudged half the kink margin
    above q, which keeps the strict-exceedance active set identical
    while moving every sample clear of the hinge kink. A shard with a
    risk within the margin of q, but not at it, is drawn again."""
    h = 1e-5
    margin = 1e-3
    worst = 0.0
    checked = 0
    while checked < cases:
        w, data = random_instance(rng)
        c = float(rng.choice([0.5, 1.0, 2.0]))
        x, y = data.features, data.labels
        r = risks(w, x, y)
        q = beta_quantile(r, 0.8)
        gaps = np.abs(r - q)
        if np.any((gaps > 0) & (gaps < margin)):
            continue
        grad = client_report(w, data, beta=0.8, c=c).gradient
        q_frozen = q + margin / 2
        fd = np.array([(frozen_q_loss(w + e, x, y, q_frozen, c)
                        - frozen_q_loss(w - e, x, y, q_frozen, c)) / (2 * h)
                       for e in h * np.eye(w.size)])
        err = np.linalg.norm(fd - grad) / max(1e-12, np.linalg.norm(grad))
        worst = max(worst, err)
        checked += 1
    return worst


class TestLocalLoss:
    def test_zero_weights_zero_loss(self, dataset_factory):
        data = dataset_factory([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]], [1, -1, 1])
        ev = client_report(np.zeros(3), data, beta=0.5, c=1.0)
        assert ev.local_loss == 0.0
        assert threshold_q(np.zeros(3), data, beta=0.5, c=1.0) == 0.0
        assert ev.active_count == 0

    def test_single_sample_regularizer_only(self, dataset_factory):
        # f = -1, risk = 1 = q (single sample), hinge 0, loss = ||w||^2/2
        data = dataset_factory([[1.0, 0.0]], [1])
        w = np.array([-1.0, 0.0, 0.0])
        ev = client_report(w, data, beta=0.5, c=1.0)
        assert ev.local_loss == pytest.approx(0.5)
        assert threshold_q(w, data, beta=0.5, c=1.0) == pytest.approx(1.0)

    def test_two_sample_hand_computed(self, dataset_factory):
        # w = [1,1,0]: risks 1 and 3, q = 1, hinge = (3-1)/2 = 1, loss = 1 + 2*1
        data = dataset_factory([[-1.0, 0.0], [-3.0, 0.0]], [1, 1])
        ev = client_report(np.array([1.0, 1.0, 0.0]), data, beta=0.5, c=2.0)
        assert ev.local_loss == pytest.approx(3.0)

    def test_empty_dataset_rejected(self, dataset_factory):
        data = dataset_factory([[1.0, 0.0]], [1])
        with pytest.raises(DataError):
            client_report(np.zeros(3), data.rows(0, 0), beta=0.5, c=1.0)


class TestLocalGradient:
    def test_active_sample_hand_computed(self, dataset_factory):
        # w = [1,0,0]: risks are -1 and 2, q = -1, only the second is active;
        # gradient = w - (c/2) * y * [x; 1] = [1,0,0] - 0.5*[-2,0,1]
        data = dataset_factory([[1.0, 0.0], [-2.0, 0.0]], [1, 1])
        ev = client_report(np.array([1.0, 0.0, 0.0]), data, beta=0.5, c=1.0)
        np.testing.assert_allclose(ev.gradient, [2.0, 0.0, -0.5], atol=1e-15)
        assert ev.active_count == 1

    def test_no_active_samples_gradient_is_weights(self, dataset_factory):
        data = dataset_factory([[1.0, 2.0], [1.0, 2.0]], [1, 1])
        w = np.array([0.3, -0.2, 0.7])
        ev = client_report(w, data, beta=0.5, c=1.0)
        np.testing.assert_array_equal(ev.gradient, w)

    def test_c_zero_reduces_to_regularizer(self, dataset_factory):
        rng = np.random.default_rng(2)
        data = dataset_factory(rng.standard_normal((6, 3)),
                               rng.choice([-1.0, 1.0], 6))
        w = rng.standard_normal(4)
        ev = client_report(w, data, beta=0.8, c=0.0)
        np.testing.assert_array_equal(ev.gradient, w)

    def test_finite_difference_agreement(self):
        assert check_finite_differences(np.random.default_rng(31), 100) <= 1e-5

    def test_active_count_matches_tail(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            w, data = random_instance(rng)
            tail = tail_threshold(risks(w, data.features, data.labels), 0.8)
            ev = client_report(w, data, beta=0.8, c=1.0)
            assert ev.active_count == tail.tail_indices.size


def report_with(gradient, n_k):
    g = np.asarray(gradient, dtype=np.float64)
    p = g.size
    return ClientReport(n_k=n_k, gradient=g, gram=np.zeros((p, p)),
                        local_loss=0.0, active_count=0)


class TestAggregateGradient:
    def test_single_client_identity(self):
        g = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(aggregate_gradient([report_with(g, 4)], 4), g)

    def test_symmetric_cancellation(self):
        g = np.array([0.5, -1.5])
        out = aggregate_gradient([report_with(g, 3), report_with(-g, 3)], 6)
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)

    def test_weighted_mean(self):
        out = aggregate_gradient(
            [report_with([2.0], 1), report_with([-2.0], 3)], 4
        )
        np.testing.assert_allclose(out, [-1.0])

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_gradient([report_with([1.0], 2)], 3)

    def test_identical_gradients_average_to_same(self):
        rng = np.random.default_rng(41)
        g = rng.standard_normal(5)
        reports = [report_with(g, int(n)) for n in (1, 4, 7)]
        np.testing.assert_allclose(aggregate_gradient(reports, 12), g, rtol=1e-12)


def train_loss(w, shards, beta, c):
    """Size-weighted mean of the local losses, as a run computes it."""
    store = make_store([(data, data) for data in shards])
    return store.evaluate(np.asarray(w, dtype=np.float64), beta, c).train_loss


class TestGlobalLoss:
    def test_identical_clients_equal_single_local(self, dataset_factory):
        rng = np.random.default_rng(43)
        data = dataset_factory(rng.standard_normal((8, 3)),
                               rng.choice([-1.0, 1.0], 8))
        w = rng.standard_normal(4)
        single = client_report(w, data, beta=0.8, c=1.0).local_loss
        combined = train_loss(w, [data, data, data], beta=0.8, c=1.0)
        assert combined == pytest.approx(single, rel=1e-12)

    def test_zero_weights(self, dataset_factory):
        data = dataset_factory([[1.0, 0.0], [0.0, 1.0]], [1, -1])
        assert train_loss(np.zeros(3), [data, data], beta=0.5, c=1.0) == 0.0

    def test_weighted_mean_of_losses(self, dataset_factory):
        # client A: 1 sample, loss = 1; client B: 3 samples, loss = 1 + 2 = 3
        w = np.array([1.0, 1.0, 0.0])
        client_a = dataset_factory([[-5.0, 4.0]], [1])
        client_b = dataset_factory([[0.0, 0.0], [0.0, 0.0], [-6.0, 0.0]], [1, 1, 1])
        loss_a = client_report(w, client_a, beta=0.5, c=1.0).local_loss
        loss_b = client_report(w, client_b, beta=0.5, c=1.0).local_loss
        assert loss_a == pytest.approx(1.0)
        assert loss_b == pytest.approx(3.0)
        got = train_loss(w, [client_a, client_b], beta=0.5, c=1.0)
        assert got == pytest.approx(2.5)
