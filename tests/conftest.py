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
    """ClientStore of (train, test) dataset pairs, copied in order."""
    def stack(parts):
        return LabeledDataset(
            features=np.concatenate([p.features for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            sectors=np.concatenate([p.sectors for p in parts]),
        )

    trains, tests = [s[0] for s in shards], [s[1] for s in shards]
    return ClientStore.from_parts(stack(trains), stack(tests),
                                  [len(t) for t in trains], [len(t) for t in tests])


@pytest.fixture
def dataset_factory():
    return make_dataset
