import numpy as np
import pytest

from riskfed.data import LabeledDataset
from riskfed.partition import PartitionPlan
from riskfed.store import ClientStore


def make_dataset(features, labels, sectors=None):
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if sectors is None:
        sectors = np.zeros(len(labels), dtype=np.int64)
    return LabeledDataset(features=features, labels=labels,
                          sectors=np.asarray(sectors, dtype=np.int64))


def make_store(shards):
    """ClientStore of (train, test) dataset pairs: client k trains on
    shards[k][0] and tests on shards[k][1]."""
    parts = [part for shard in shards for part in shard]
    data = LabeledDataset(
        features=np.concatenate([p.features for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
        sectors=np.concatenate([p.sectors for p in parts]),
    )
    sizes = [len(train) + len(test) for train, test in shards]
    owner = np.repeat(np.arange(len(shards)), sizes)
    cuts = np.array([len(train) for train, _ in shards], dtype=np.int64)
    return ClientStore.gather(data, PartitionPlan(owner, len(shards)), cuts)


@pytest.fixture
def dataset_factory():
    return make_dataset
