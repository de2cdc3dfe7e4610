"""Property tests: the batched store evaluation and central system against
the per-client kernels, the store layout built from an owner array, and
the vectorized dropout draws against numpy."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskfed.data
from riskfed import _kernels
from riskfed._pcg import first_uniforms
from riskfed.data import generate_synthetic, synthetic_records
from riskfed.objective import aggregate_gradient
from riskfed.partition import PartitionPlan
from riskfed.sensitivity import aggregate_sensitivity, client_report, tail_system
from riskfed.store import ClientStore

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
    # small clients often share a size and cover every n mod 4; a few large
    # ones reach active counts past numpy's 8-way unrolled and 128-element
    # pairwise sums; the shuffle leaves ids out of size order
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=9))
    sizes += draw(st.lists(st.integers(100, 300), max_size=2))
    sizes = draw(st.permutations(sizes))
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


def random_store(sizes, d, seed):
    rng = np.random.default_rng(seed)
    shards = []
    for n in sizes:
        data = make_dataset(rng.standard_normal((n, d)), rng.choice([-1.0, 1.0], n))
        shards.append((data, data))
    return make_store(shards), rng.standard_normal(d + 1)


def check_evaluate(store, w, beta, c):
    """evaluate equals the per-client kernel exactly, client by client;
    returns the active counts."""
    result = store.evaluate(w, beta, c)
    total = 0.0
    n_all = len(store.train)
    for k, client in enumerate(store):
        loss, _, _, active, q = _kernels.client_eval(
            client.train.features, client.train.labels, w, beta, c)
        assert result.q[k] == q
        assert result.active_counts[k] == active
        assert result.losses[k] == loss
        a = store.train_starts[k]
        b = a + store.train_sizes[k]
        assert np.count_nonzero((result.active_rows >= a)
                                & (result.active_rows < b)) == active
        if active == 0:
            assert result.losses[k] == 0.5 * float(w @ w)  # hinge exactly 0
        total += (len(client.train) / n_all) * loss
    assert result.train_loss == total
    return result.active_counts


def check_layout(store):
    """Clients of one size form one contiguous block in id order, the test
    rows stay client by client in id order, and every shard and block is a
    view of the store's arrays."""
    features = store.train.features
    clients = list(store)
    sizes = [len(client.train) for client in clients]
    np.testing.assert_array_equal(store.train_sizes, sizes)
    assert [n for n, *_ in store.size_groups] == sorted(set(sizes))
    for n, ids, a, b in store.size_groups:
        np.testing.assert_array_equal(ids, [k for k, m in enumerate(sizes) if m == n])
        block = features[a:b].reshape(ids.size, n, features.shape[1])
        assert np.shares_memory(block, features)
        for i, k in enumerate(ids.tolist()):
            view = clients[k].train.features
            assert np.shares_memory(view, features)
            assert view.__array_interface__ == block[i].__array_interface__
    for client in clients:
        assert np.shares_memory(client.test.features, store.test.features)
    np.testing.assert_array_equal(
        np.concatenate([client.test.features for client in store]), store.test.features)


@SETTINGS
@given(stores())
def test_evaluate_equals_per_client_kernel(case):
    store, w, beta, c = case
    check_layout(store)
    check_evaluate(store, w, beta, c)


@st.composite
def owned_records(draw):
    """Records with distinct features, an owner array that interleaves the
    clients with their ids shuffled, and each client's cut in 1..n-1;
    small sizes make clients of equal size and of equal cut common."""
    sizes = draw(st.lists(st.integers(2, 5) | st.integers(2, 40), min_size=1,
                          max_size=10))
    cuts = np.array([draw(st.integers(1, n - 1)) for n in sizes], dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    owner = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    d = draw(st.integers(1, 4))
    data = make_dataset(rng.standard_normal((owner.size, d)),
                        rng.choice([-1.0, 1.0], owner.size), rng.integers(0, 9, owner.size))
    return data, PartitionPlan(owner, len(sizes)), cuts


@SETTINGS
@given(owned_records())
def test_gather_splits_each_clients_records_in_order(case):
    data, plan, cuts = case
    store = ClientStore.build(data, plan, cuts)
    assert len(store) == plan.num_clients
    check_layout(store)
    for k, client in enumerate(store):
        mine = np.flatnonzero(plan.owner == k)  # client k's records, ascending
        for shard, idx in ((client.train, mine[:cuts[k]]), (client.test, mine[cuts[k]:])):
            np.testing.assert_array_equal(shard.features, data.features[idx])
            np.testing.assert_array_equal(shard.labels, data.labels[idx])
            np.testing.assert_array_equal(shard.sectors, data.sectors[idx])


@st.composite
def streamed_records(draw):
    """Generator arguments, a block size of 1, 3 or more than n records
    with n just below, at or just above a multiple of it, and a plan that
    interleaves the clients with their ids shuffled, with each client's
    cut in 1..n-1."""
    rows = draw(st.sampled_from([1, 3, None]))
    if rows is None:
        n = draw(st.integers(2, 60))
        rows = n + draw(st.integers(1, 5))
    else:
        n = max(2, rows * draw(st.integers(1, 60 // rows)) + draw(st.sampled_from([-1, 0, 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, n // 2))
    sizes = 2 + rng.multinomial(n - 2 * k, np.full(k, 1 / k))
    owner = rng.permutation(np.repeat(np.arange(k), sizes))
    cuts = np.array([rng.integers(1, m) for m in sizes.tolist()], dtype=np.int64)
    args = (n, draw(st.integers(1, 6)), draw(st.integers(1, 4)),
            draw(st.integers(0, 2**63)), draw(st.floats(0.01, 100.0)))
    return args, rows, PartitionPlan(owner, k), cuts


@SETTINGS
@given(streamed_records())
def test_streamed_store_equals_store_of_the_record_ordered_data(case):
    args, rows, plan, cuts = case
    want = ClientStore.build(generate_synthetic(*args), plan, cuts)
    records = synthetic_records(*args)
    with mock.patch.object(riskfed.data, "STREAM_ROWS", rows):
        got = ClientStore.build(records, plan, cuts)
        # the stream starts afresh on each call
        again = ClientStore.build(records, plan, cuts)
    np.testing.assert_array_equal(again.train.features, got.train.features)
    for part in ("train", "test"):
        for array in ("features", "labels", "sectors"):
            np.testing.assert_array_equal(getattr(getattr(got, part), array),
                                          getattr(getattr(want, part), array), strict=True)
    for name in ("train_starts", "train_sizes", "test_starts", "test_sizes", "layout"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), strict=True)
    assert len(got.size_groups) == len(want.size_groups)
    for (n, ids, a, b), (wn, wids, wa, wb) in zip(got.size_groups, want.size_groups):
        assert (n, a, b) == (wn, wa, wb)
        np.testing.assert_array_equal(ids, wids, strict=True)
    assert not got.train.features.flags.writeable
    # train and test are views of one buffer
    assert got.train.features.base is got.test.features.base is not None

@pytest.mark.parametrize("beta", [0.05, 0.5, 0.95])
def test_evaluate_layout_cases(beta):
    # shared sizes, every n mod 4, ids out of size order, and clients large
    # enough for active counts of 8 or more and past 128
    sizes = [7, 3, 300, 7, 4, 5, 6, 150, 3, 7, 101, 6]
    store, w = random_store(sizes, 9, seed=11)
    check_layout(store)
    counts = check_evaluate(store, w, beta, 1.0)
    if beta == 0.05:
        assert counts.max() > 128
        assert np.any((counts >= 8) & (counts <= 128))


def test_evaluate_train_loss_adds_clients_in_order():
    # with thousands of terms a pairwise sum (np.sum) rounds differently
    # from check_evaluate's sequential one
    store, w = random_store([1 + k % 12 for k in range(2000)], 5, seed=3)
    check_evaluate(store, w, 0.5, 1.0)


def survivor_tail(store, w, beta, survivors):
    """Store rows and features of the survivors' tail-active rows, from the
    per-client kernel's risks and q, client by client in id order."""
    rows, features, clients = [], [], list(store)
    for k in survivors:
        train = clients[k].train
        risks = -train.labels * _kernels.linear_scores(train.features, w)
        q = _kernels.client_eval(train.features, train.labels, w, beta, 0.0)[4]
        rows.append(store.train_starts[k] + np.flatnonzero(risks > q))
        features.append(train.features[risks > q])
    return np.concatenate(rows), np.concatenate(features)


@SETTINGS
@given(stores(), st.data())
def test_tail_system_equals_aggregated_reports(case, data):
    store, w, beta, c = case
    survivors = data.draw(st.lists(st.sampled_from(range(len(store))), min_size=1,
                                   unique=True).map(sorted))
    result = store.evaluate(w, beta, c)
    rows = result.tail_rows(survivors)
    want_rows, want_features = survivor_tail(store, w, beta, survivors)
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(store.train.features[rows], want_features)
    n = int(store.train_sizes[survivors].sum())
    s, g = tail_system(w, store.train.features[rows], store.train.labels[rows], n, c)
    clients = list(store)
    reports = [client_report(w, clients[k].train, beta, c) for k in survivors]
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
