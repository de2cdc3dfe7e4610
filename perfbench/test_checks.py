"""The benchmark's output checks pass on a real run and fail on a perturbed
``weights.csv``, a duplicated ``partition.csv`` row or broken metrics rows.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import child
import run as bench
from riskfed import cli, federation

CLIENTS, ROUNDS = 6, 6
CONFIG = f"""\
algorithm = fral_cse
clients = {CLIENTS}
samples_per_client = 200
rounds = {ROUNDS}
seed = 3
d = 8
signal = 2.5
alpha = 10
epsilon = 2.0
workers = 1
"""


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    config = root / "exp.conf"
    config.write_text(CONFIG, encoding="utf-8")
    assert cli.main(["run", "--config", str(config), "--out", str(root / "out")]) == 0
    run_dir, = (root / "out").iterdir()
    data, _ = federation.build_data_and_plan(cli.parse_config(config))
    return run_dir, data


@pytest.fixture
def run_dir(reference, tmp_path):
    """A copy of the reference run that a test may perturb."""
    return Path(shutil.copytree(reference[0], tmp_path / "run"))


def check(run_dir, data, accuracy_floor=0.6):
    return checks.check_run(
        run_dir, data.features, data.labels, clients=CLIENTS, rounds=ROUNDS,
        participation_rate=1.0, beta=0.8, c=1.0, accuracy_floor=accuracy_floor,
        loss_falls=True,
    )


def rewrite_weights(run_dir, fn):
    path = run_dir / "weights.csv"
    w = fn(checks.read_weights(path))
    path.write_text("index,value\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(w)),
                    encoding="utf-8")


def test_clean_run_passes(reference, run_dir):
    assert check(run_dir, reference[1]) == []


def test_perturbed_weight_fails_the_loss_recomputation(reference, run_dir):
    rewrite_weights(run_dir, lambda w: w + np.eye(w.size)[0] * 1e-6)
    failures = check(run_dir, reference[1])
    assert any(f.startswith("train loss:") for f in failures), failures


def test_negated_weights_fail_the_accuracy_recomputation(reference, run_dir):
    rewrite_weights(run_dir, lambda w: -w)
    failures = check(run_dir, reference[1])
    assert any(f.startswith("accuracy:") for f in failures), failures


def test_duplicated_partition_row_fails_the_partition_check(reference, run_dir):
    path = run_dir / "partition.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:2] + lines[1:]), encoding="utf-8")
    failures = check(run_dir, reference[1])
    assert any("appears 2 times" in f for f in failures), failures
    assert any("do not ascend" in f for f in failures), failures


@pytest.mark.parametrize("column, value, message", [
    (0, 7.0, "rounds are not 1..R"),
    (2, np.nan, "non-finite value"),
    (3, CLIENTS - 1, "participants differ"),
    (4, CLIENTS + 1, "completed exceeds participants"),
])
def test_broken_metrics_row_fails_the_metrics_check(reference, column, value, message):
    rows = checks.read_metrics(reference[0] / "metrics.csv")
    assert checks.check_metrics(rows, ROUNDS, CLIENTS, 1.0) == []
    rows[2, column] = value
    assert any(message in f for f in checks.check_metrics(rows, ROUNDS, CLIENTS, 1.0))


def test_learning_check_needs_accuracy_floor_and_falling_loss(reference):
    rows = checks.read_metrics(reference[0] / "metrics.csv")
    assert checks.check_learning(rows, 0.6, loss_falls=True) == []
    assert checks.check_learning(rows, 0.99, loss_falls=True)
    rows[-1, 1] = rows[0, 1]
    assert checks.check_learning(rows, 0.6, loss_falls=True)
    assert checks.check_learning(rows, 0.6, loss_falls=False) == []


@pytest.mark.parametrize("n, beta, rank", [(5, 0.8, 4), (10, 0.8, 8), (10, 0.81, 9),
                                           (3, 0.5, 2), (1, 0.8, 1)])
def test_quantile_rank_is_the_smallest_k_with_k_over_n_at_least_beta(n, beta, rank):
    assert checks.quantile_rank(n, beta) == rank


def test_tail_loss_counts_only_risks_strictly_above_q():
    risks = np.array([0.0, 1.0, 1.0, 1.0, 3.0])  # k = 4, q = 1
    w = np.array([1.0, 1.0])
    assert checks.tail_loss(risks, w, beta=0.8, c=2.0) == 1.0 + (2.0 / 5) * 2.0


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    layers = list(child.layer_metrics([], 0.0)) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: bench.layer_unit(name) for name in layers}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
