import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskfed
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
    return ClientStore.build(data, PartitionPlan(owner, len(shards)), cuts)


def run_cli(*args, env_vars=None):
    """The riskfed CLI, run by run_python."""
    return run_python("-m", "riskfed.cli", *args, env_vars=env_vars)


def run_python(*args, env_vars=None):
    """Python with args in a fresh interpreter, importing the riskfed under
    test, with Python's default warning filters; env_vars sets variables,
    or unsets those given as None."""
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    for name, value in (env_vars or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    package_root = str(Path(riskfed.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


@pytest.fixture
def dataset_factory():
    return make_dataset
