"""Property tests: the batched store evaluation and central system against
the per-client kernels, and the vectorized dropout draws against numpy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskfed import _kernels
from riskfed._pcg import first_uniforms
from riskfed.objective import aggregate_gradient
from riskfed.sensitivity import aggregate_sensitivity, client_report, tail_system

from conftest import make_dataset, make_store

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def stores(draw):
    """A store of random clients plus weights, beta and c.

    Integer features and weights make tied risks common; a "flat" client
    has zero features and one label, so all its risks are equal and none
    lies strictly above q.
    """
    d = draw(st.integers(1, 24))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    shards = []
    for n in sizes:
        if integer:
            features = rng.integers(-2, 3, (n, d)).astype(float)
        else:
            features = rng.standard_normal((n, d))
        labels = rng.choice([-1.0, 1.0], n)
        if draw(st.booleans()) and draw(st.booleans()):  # flat client
            features[:] = 0.0
            labels[:] = labels[0]
        data = make_dataset(features, labels)
        shards.append((data, data))
    store = make_store(shards)
    if integer:
        w = rng.integers(-2, 3, d + 1).astype(float)
    else:
        w = rng.standard_normal(d + 1)
    beta = draw(st.floats(0.05, 0.95))
    c = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    return store, w, beta, c


@SETTINGS
@given(stores())
def test_evaluate_equals_per_client_kernel(case):
    store, w, beta, c = case
    result = store.evaluate(w, beta, c)
    total = 0.0
    n_all = len(store.train)
    for k, client in enumerate(store):
        loss, _, _, active, q = _kernels.client_eval(
            client.train.features, client.train.labels, w, beta, c)
        assert result.q[k] == q
        assert result.active_counts[k] == active
        assert result.losses[k] == loss
        a, b = store.train_bounds[k], store.train_bounds[k + 1]
        assert np.count_nonzero((result.active_rows >= a)
                                & (result.active_rows < b)) == active
        if active == 0:
            assert result.losses[k] == 0.5 * float(w @ w)  # hinge exactly 0
        total += (len(client.train) / n_all) * loss
    assert result.train_loss == total


@SETTINGS
@given(stores(), st.data())
def test_tail_system_equals_aggregated_reports(case, data):
    store, w, beta, c = case
    survivors = data.draw(st.lists(st.sampled_from(range(len(store))), min_size=1,
                                   unique=True).map(sorted))
    result = store.evaluate(w, beta, c)
    in_round = np.zeros(len(store), dtype=bool)
    in_round[survivors] = True
    rows = result.active_rows[np.repeat(in_round, result.active_counts)]
    n = int(store.train_sizes[survivors].sum())
    s, g = tail_system(w, store.train.features[rows], store.train.labels[rows], n, c)
    reports = [client_report(w, store[k].train, beta, c) for k in survivors]
    np.testing.assert_allclose(g, aggregate_gradient(reports, n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(s, aggregate_sensitivity(reports, c, n),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(s, s.T)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 7])
def test_first_uniforms_equal_default_rng(seed):
    keys = np.concatenate(([0, 1, 2**32 - 1], np.arange(2, 400)))
    for rnd in (0, 1, 17):
        expected = [np.random.default_rng([seed, rnd, 5, int(k)]).random()
                    for k in keys]
        np.testing.assert_array_equal(first_uniforms([seed, rnd, 5], keys), expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 2**40),
       st.lists(st.integers(0, 2**32 - 1), max_size=20))
def test_first_uniforms_random_words(seed, rnd, keys):
    expected = [np.random.default_rng([seed, rnd, 5, k]).random() for k in keys]
    np.testing.assert_array_equal(first_uniforms([seed, rnd, 5], keys), expected)


def test_first_uniforms_rejects_multiword_keys():
    with pytest.raises(ValueError):
        first_uniforms([1], [2**32])
