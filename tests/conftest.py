import numpy as np
import pytest

from riskfed.data import LabeledDataset
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
    bounds = np.cumsum([0] + [len(p) for p in parts])
    index = [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    return ClientStore.gather(data, index[0::2], index[1::2])


@pytest.fixture
def dataset_factory():
    return make_dataset
