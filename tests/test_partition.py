import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskfed.data import generate_synthetic
from riskfed.errors import PartitionError
from riskfed.partition import PartitionPlan, exdir_partition, write_partition_csv

from conftest import make_dataset
from oracles import exdir_plan


def sectored_dataset(counts, seed=0):
    """Dataset whose sector tags follow the given per-sector counts, interleaved."""
    rng = np.random.default_rng(seed)
    sectors = np.concatenate([np.full(c, s) for s, c in enumerate(counts)])
    rng.shuffle(sectors)
    n = sectors.size
    return make_dataset(rng.standard_normal((n, 2)),
                        rng.choice([-1.0, 1.0], n), sectors)


class TestExdirPartition:
    def test_single_client_gets_everything_in_order(self):
        data = sectored_dataset([6, 5, 4])
        plan = exdir_partition(data.sectors, num_clients=1, labels_per_client=3,
                               alpha=1.0, seed=0)
        np.testing.assert_array_equal(plan.order(), np.arange(15))
        np.testing.assert_array_equal(plan.sizes(), [15])

    def test_two_groups_two_clients_whole_group_each(self):
        data = sectored_dataset([8, 7])
        plan = exdir_partition(data.sectors, num_clients=2, labels_per_client=1,
                               alpha=1.0, seed=3)
        owned_sectors = [set(data.sectors[idx]) for idx in plan.records()]
        assert sorted(len(s) for s in owned_sectors) == [1, 1]
        assert owned_sectors[0] != owned_sectors[1]
        assert sorted(plan.sizes().tolist()) == [7, 8]

    def test_seeded_redraw_oracle(self):
        # the replay: permutation first, then one Dirichlet per group
        data = sectored_dataset([40, 60], seed=1)
        plan = exdir_partition(data.sectors, num_clients=4, labels_per_client=1,
                               alpha=1.0, seed=42)
        expected = exdir_plan(data.sectors, 4, 1, 1.0, 42)
        assert [idx.tolist() for idx in plan.records()] == expected

    def test_deterministic(self):
        data = sectored_dataset([30, 30, 30])
        a = exdir_partition(data.sectors, 5, 1, 1.0, seed=7)
        b = exdir_partition(data.sectors, 5, 1, 1.0, seed=7)
        np.testing.assert_array_equal(a.owner, b.owner)

    def test_concentrated_alpha_equal_shares(self):
        data = sectored_dataset([100, 100], seed=2)
        plan = exdir_partition(data.sectors, num_clients=4, labels_per_client=1,
                               alpha=1e6, seed=11)
        for sector in (0, 1):
            sizes = [
                int(np.count_nonzero(data.sectors[idx] == sector))
                for idx in plan.records()
                if np.any(data.sectors[idx] == sector)
            ]
            group_total = int(np.count_nonzero(data.sectors == sector))
            for size in sizes:
                assert abs(size - group_total / len(sizes)) <= 1.0

    def test_temporal_order_within_client(self):
        data = sectored_dataset([50, 50, 50], seed=3)
        plan = exdir_partition(data.sectors, 6, 2, 1.0, seed=13)
        for idx in plan.records():
            assert np.all(np.diff(idx) > 0)

    def test_insufficient_coverage_rejected(self):
        data = sectored_dataset([5, 5, 5])
        with pytest.raises(PartitionError):
            exdir_partition(data.sectors, num_clients=2, labels_per_client=1,
                            alpha=1.0, seed=0)

    def test_labels_per_client_above_group_count(self):
        data = sectored_dataset([5, 5])
        with pytest.raises(PartitionError):
            exdir_partition(data.sectors, 2, 3, 1.0, seed=0)

    def test_zero_record_client_rejected(self):
        # one record in a group shared by two clients starves one of them
        data = sectored_dataset([1])
        with pytest.raises(PartitionError, match="holds 1 records for 2 clients"):
            exdir_partition(data.sectors, num_clients=2, labels_per_client=1,
                            alpha=1.0, seed=0)


class TestValidatePartition:
    def test_valid_plan_clean_report(self):
        # a fixed plan meets the definition: every record on one client,
        # no client empty, each client's records ascending, sizes summing
        data = sectored_dataset([40, 40], seed=5)
        plan = exdir_partition(data.sectors, 4, 1, 1.0, seed=17)
        sizes = plan.sizes()
        assert sizes.size == 4 and sizes.min() > 0
        assert sum(sizes) == len(data)
        np.testing.assert_array_equal(np.sort(plan.order()), np.arange(len(data)))
        for client, idx in enumerate(plan.records()):
            assert np.all(plan.owner[idx] == client)
            assert np.all(np.diff(idx) > 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=80), st.integers(1, 12),
       st.integers(1, 4), st.floats(0.01, 1e4), st.integers(0, 2**32 - 1))
def test_partition_invariants(sectors, num_clients, labels_per_client, alpha, seed):
    """Any plan returned puts every record on one client in range, leaves
    no client empty, lists each client's records in temporal order, and
    gives each client at most C sectors."""
    data = make_dataset(np.zeros((len(sectors), 2)), np.ones(len(sectors)), sectors)
    try:
        plan = exdir_partition(data.sectors, num_clients, labels_per_client, alpha, seed)
    except PartitionError:
        return
    assert plan.num_clients == num_clients
    assert plan.owner.shape == (len(data),)
    assert 0 <= plan.owner.min() and plan.owner.max() < num_clients
    sizes = plan.sizes()
    assert sizes.min() > 0 and sizes.sum() == len(data)
    assert sorted(plan.order().tolist()) == list(range(len(data)))
    for client, idx in enumerate(plan.records()):
        assert np.all(plan.owner[idx] == client)
        assert np.all(np.diff(idx) > 0)
        assert np.unique(data.sectors[idx]).size <= labels_per_client


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 5), min_size=1, max_size=120), st.integers(1, 30),
       st.integers(1, 5), st.floats(0.01, 1e4), st.integers(0, 2**32 - 1))
def test_plan_equals_replay_oracle(sectors, num_clients, labels_per_client, alpha, seed):
    """exdir_partition gives the replayed plan client for client, or both
    find that no plan exists."""
    data = make_dataset(np.zeros((len(sectors), 2)), np.ones(len(sectors)), sectors)
    try:
        plan = exdir_partition(data.sectors, num_clients, labels_per_client, alpha, seed)
        got = [idx.tolist() for idx in plan.records()]
    except PartitionError:
        got = None
    assert got == exdir_plan(sectors, num_clients, labels_per_client, alpha, seed)


def test_partition_csv_export(tmp_path):
    data = generate_synthetic(30, 3, 2, seed=21)
    plan = exdir_partition(data.sectors, 3, 1, 1.0, seed=23)
    path = tmp_path / "plan.csv"
    write_partition_csv(plan, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "client_id,record_index"
    assert len(lines) == 1 + len(data)
    seen = [int(line.split(",")[1]) for line in lines[1:]]
    assert sorted(seen) == list(range(len(data)))


def test_partition_csv_bytes(tmp_path):
    """The header, then client by client in id order, each client's
    records ascending, every line ending in CRLF."""
    plan = PartitionPlan(owner=np.array([2, 0, 2, 1, 0, 2]), num_clients=3)
    path = tmp_path / "plan.csv"
    write_partition_csv(plan, path)
    assert path.read_bytes() == (b"client_id,record_index\r\n"
                                 b"0,1\r\n0,4\r\n1,3\r\n2,0\r\n2,2\r\n2,5\r\n")
