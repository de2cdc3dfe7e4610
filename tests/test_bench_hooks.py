"""The benchmark wraps riskfed's functions by name from outside
(``perfbench/child.py``); every name it wraps or reads must exist."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskfed
from riskfed import _kernels, federation

from conftest import make_dataset, make_store

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402


def test_every_traced_layer_resolves():
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in child.LAYERS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_round_table_and_identity_names():
    assert sorted(federation._ROUND_FN) == ["fedavg", "fedprox", "fral_cse"]
    assert callable(federation.build_clients)
    assert callable(federation.apply_dropout)
    assert isinstance(_kernels.BACKEND, str)


def test_local_sgd_parameters_the_benchmark_reads_by_position():
    # child.py counts a local_sgd call's rows as len(a[0]) * a[6]
    params = inspect.signature(_kernels.local_sgd).parameters
    names = list(params)
    assert names[0] == "features"
    assert names[6] == "epochs"
    # the first epoch always takes its tail from the caller: no default
    assert params["tail"].default is inspect.Parameter.empty


def test_store_iterates_train_shards_in_id_order():
    # child.py indexes [len(c.train) for c in store] by survivor id; with
    # the ids out of size order the layout is not id order
    shards = [(make_dataset(np.zeros((n, 2)), np.ones(n)),) * 2 for n in (4, 1, 3, 2)]
    store = make_store(shards)
    assert store.layout.tolist() != list(range(4))
    assert [len(c.train) for c in store] == store.train_sizes.tolist() == [4, 1, 3, 2]


@pytest.mark.parametrize("algorithm", ["fral_cse", "fedprox"])
def test_traced_child_run_passes_its_checks(tmp_path, algorithm):
    config = tmp_path / "exp.conf"
    config.write_text(
        f"algorithm = {algorithm}\nclients = 6\nsamples_per_client = 200\n"
        "rounds = 6\nseed = 3\nd = 8\nnum_sectors = 1\nsignal = 3.0\nalpha = 10\n"
        "epsilon = 2.0\nworkers = 2\n",
        encoding="utf-8")
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(riskfed.__file__).resolve().parent.parent), str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--config", str(config),
         "--out", str(tmp_path / "out"), "--result", str(result), "--trace", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(result.read_text(encoding="utf-8"))
    assert summary["check_failures"] == []
    assert summary["rounds_completed"] == 6
    assert summary["identity"]["backend"] == _kernels.BACKEND
    assert summary["layers"]["federation.round_s"] > 0
