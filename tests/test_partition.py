import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskfed.data import generate_synthetic
from riskfed.errors import PartitionError
from riskfed.partition import (
    PartitionPlan,
    exdir_partition,
    validate_partition,
    write_partition_csv,
)

from conftest import make_dataset


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
        plan = exdir_partition(data, num_clients=1, labels_per_client=3,
                               alpha=1.0, seed=0)
        np.testing.assert_array_equal(plan.assignments[0], np.arange(15))

    def test_two_groups_two_clients_whole_group_each(self):
        data = sectored_dataset([8, 7])
        plan = exdir_partition(data, num_clients=2, labels_per_client=1,
                               alpha=1.0, seed=3)
        owned_sectors = [set(data.sectors[idx]) for idx in plan.assignments]
        assert sorted(len(s) for s in owned_sectors) == [1, 1]
        assert owned_sectors[0] != owned_sectors[1]
        sizes = sorted(idx.size for idx in plan.assignments)
        assert sizes == [7, 8]

    def test_seeded_redraw_oracle(self):
        # replay the generator: permutation first, then one Dirichlet per group
        data = sectored_dataset([40, 60], seed=1)
        seed = 42
        plan = exdir_partition(data, num_clients=4, labels_per_client=1,
                               alpha=1.0, seed=seed)

        rng = np.random.default_rng(seed)
        order = rng.permutation(2)
        eligible = {int(s): [] for s in (0, 1)}
        for client in range(4):
            eligible[int(order[client % 2])].append(client)
        for sector in (0, 1):
            records = np.flatnonzero(data.sectors == sector)
            clients = sorted(eligible[sector])
            proportions = rng.dirichlet(np.full(len(clients), 1.0))
            bounds = np.floor(np.cumsum(proportions) * records.size).astype(int)
            bounds[-1] = records.size
            start = 0
            for client, stop in zip(clients, bounds):
                np.testing.assert_array_equal(
                    plan.assignments[client][data.sectors[plan.assignments[client]] == sector],
                    records[start:stop],
                )
                start = stop

        all_indices = np.concatenate(plan.assignments)
        assert np.unique(all_indices).size == all_indices.size
        assert set(all_indices) == set(range(len(data)))

    def test_deterministic(self):
        data = sectored_dataset([30, 30, 30])
        a = exdir_partition(data, 5, 1, 1.0, seed=7)
        b = exdir_partition(data, 5, 1, 1.0, seed=7)
        for ia, ib in zip(a.assignments, b.assignments):
            np.testing.assert_array_equal(ia, ib)

    def test_concentrated_alpha_equal_shares(self):
        data = sectored_dataset([100, 100], seed=2)
        plan = exdir_partition(data, num_clients=4, labels_per_client=1,
                               alpha=1e6, seed=11)
        for sector in (0, 1):
            sizes = [
                int(np.count_nonzero(data.sectors[idx] == sector))
                for idx in plan.assignments
                if np.any(data.sectors[idx] == sector)
            ]
            group_total = int(np.count_nonzero(data.sectors == sector))
            for size in sizes:
                assert abs(size - group_total / len(sizes)) <= 1.0

    def test_temporal_order_within_client(self):
        data = sectored_dataset([50, 50, 50], seed=3)
        plan = exdir_partition(data, 6, 2, 1.0, seed=13)
        for idx in plan.assignments:
            assert np.all(np.diff(idx) > 0)

    def test_insufficient_coverage_rejected(self):
        data = sectored_dataset([5, 5, 5])
        with pytest.raises(PartitionError):
            exdir_partition(data, num_clients=2, labels_per_client=1,
                            alpha=1.0, seed=0)

    def test_labels_per_client_above_group_count(self):
        data = sectored_dataset([5, 5])
        with pytest.raises(PartitionError):
            exdir_partition(data, 2, 3, 1.0, seed=0)

    def test_zero_record_client_rejected(self):
        # one record in a group shared by two clients starves one of them
        data = sectored_dataset([1])
        with pytest.raises(PartitionError, match="holds 1 records for 2 clients"):
            exdir_partition(data, num_clients=2, labels_per_client=1,
                            alpha=1.0, seed=0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=80), st.integers(1, 12),
       st.integers(1, 4), st.floats(0.01, 1e4), st.integers(0, 2**32 - 1))
def test_partition_invariants(sectors, num_clients, labels_per_client, alpha, seed):
    """Any plan returned is valid and gives each client at most C sectors."""
    data = make_dataset(np.zeros((len(sectors), 2)), np.ones(len(sectors)), sectors)
    try:
        plan = exdir_partition(data, num_clients, labels_per_client, alpha, seed)
    except PartitionError:
        return
    assert plan.num_clients == num_clients
    assert validate_partition(plan, data).ok
    for idx in plan.assignments:
        assert np.unique(data.sectors[idx]).size <= labels_per_client


class TestValidatePartition:
    def test_valid_plan_clean_report(self):
        data = sectored_dataset([40, 40], seed=5)
        plan = exdir_partition(data, 4, 1, 1.0, seed=17)
        report = validate_partition(plan, data)
        assert report.ok
        assert sum(report.client_sizes) == len(data)

    def test_duplicate_index_named(self):
        data = sectored_dataset([10])
        plan = PartitionPlan(assignments=(np.array([0, 1, 2]), np.array([2, 3, 4])))
        report = validate_partition(plan, data)
        assert any("index 2" in v for v in report.violations)

    def test_incomplete_coverage_flagged(self):
        data = sectored_dataset([10])
        plan = PartitionPlan(assignments=(np.array([0, 1]), np.array([2, 3])))
        report = validate_partition(plan, data)
        assert any("covers 4 of 10" in v for v in report.violations)

    def test_order_violation_flagged(self):
        data = sectored_dataset([10])
        plan = PartitionPlan(assignments=(np.array([1, 0]), np.arange(2, 10)))
        report = validate_partition(plan, data)
        assert any("temporal order" in v for v in report.violations)

    def test_empty_client_flagged(self):
        data = sectored_dataset([4])
        plan = PartitionPlan(assignments=(np.arange(4), np.empty(0, dtype=np.int64)))
        report = validate_partition(plan, data)
        assert any("no records" in v for v in report.violations)


def test_partition_csv_export(tmp_path):
    data = generate_synthetic(30, 3, 2, seed=21)
    plan = exdir_partition(data, 3, 1, 1.0, seed=23)
    path = tmp_path / "plan.csv"
    write_partition_csv(plan, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "client_id,record_index"
    assert len(lines) == 1 + len(data)
    seen = [int(line.split(",")[1]) for line in lines[1:]]
    assert sorted(seen) == list(range(len(data)))
