"""Output checks for one benchmark run, computed apart from riskfed.

Nothing here imports riskfed. Each check recomputes a quantity from the
run's artifacts (``partition.csv``, ``weights.csv``, ``metrics.csv``)
and the input records with this file's own numpy code, or tests a
property the artifacts must have. A check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

METRICS_HEADER = "round,train_loss,test_accuracy,participants,completed,step_norm"
ACCURACY_FLOOR = 0.7  # least final test accuracy of a run that learns


def read_partition(path) -> np.ndarray:
    """``partition.csv`` as an (m, 2) int64 array of (client_id, record)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)


def read_weights(path) -> np.ndarray:
    """``weights.csv`` as the weight vector; the index column must be 0..p-1."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(table[:, 0], np.arange(len(table))):
        raise ValueError(f"{path}: index column is not 0..{len(table) - 1}")
    return table[:, 1]


def read_metrics(path) -> np.ndarray:
    """``metrics.csv`` as an (R, 6) float array; the header must match."""
    text = Path(path).read_text(encoding="utf-8")
    header = text.split("\n", 1)[0]
    if header != METRICS_HEADER:
        raise ValueError(f"{path}: header {header!r} is not {METRICS_HEADER!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_partition(part: np.ndarray, num_records: int, num_clients: int) -> list:
    """Every record exactly once, no client empty, indices ascending per client."""
    failures = []
    clients, records = part[:, 0], part[:, 1]
    if np.any((records < 0) | (records >= num_records)):
        return [f"partition: record index outside 0..{num_records - 1}"]
    if np.any((clients < 0) | (clients >= num_clients)):
        return [f"partition: client id outside 0..{num_clients - 1}"]
    seen = np.bincount(records, minlength=num_records)
    if np.any(seen > 1):
        failures.append(f"partition: record {int(np.argmax(seen > 1))} appears "
                        f"{int(seen.max())} times")
    if np.any(seen == 0):
        failures.append(f"partition: {int(np.count_nonzero(seen == 0))} records "
                        f"never assigned")
    sizes = np.bincount(clients, minlength=num_clients)
    if np.any(sizes == 0):
        failures.append(f"partition: client {int(np.argmin(sizes))} is empty")
    order = np.argsort(clients, kind="stable")
    c, r = clients[order], records[order]
    broken = (c[1:] == c[:-1]) & (r[1:] <= r[:-1])
    if np.any(broken):
        failures.append(f"partition: client {int(c[1:][broken][0])} indices "
                        f"do not ascend")
    return failures


def client_splits(part: np.ndarray, num_clients: int) -> list:
    """Each client's (train, test) record indices: the first floor(0.8 n)
    of its records in file order train, the rest test."""
    order = np.argsort(part[:, 0], kind="stable")
    records = part[order, 1]
    bounds = np.cumsum(np.bincount(part[:, 0], minlength=num_clients))[:-1]
    splits = []
    for idx in np.split(records, bounds):
        cut = idx.size * 4 // 5
        splits.append((idx[:cut], idx[cut:]))
    return splits


def quantile_rank(n: int, beta: float) -> int:
    """Smallest 1-based k with k/n >= beta."""
    ks = np.arange(1, n + 1)
    return int(ks[ks / n >= beta][0])


def tail_loss(risks: np.ndarray, w: np.ndarray, beta: float, c: float) -> float:
    """0.5 ||w||^2 + (c/n) * sum of (risk - q) over risks strictly above q,
    with q the k-th smallest risk."""
    n = risks.size
    q = np.sort(risks)[quantile_rank(n, beta) - 1]
    above = risks[risks > q]
    return 0.5 * float(w @ w) + (c / n) * float(np.sum(above - q))


def recompute(features, labels, splits, w, beta, c):
    """(train loss, test accuracy) of weights w over the client splits."""
    d = features.shape[1]
    scores = features @ w[:d] + w[d]
    margin = labels * scores
    total = sum(train.size for train, _ in splits)
    loss = 0.0
    for train, _ in splits:
        loss += (train.size / total) * tail_loss(-margin[train], w, beta, c)
    test = np.concatenate([t for _, t in splits])
    correct = int(np.count_nonzero(margin[test] > 0.0))
    return loss, correct / test.size, test.size


def check_metrics(rows: np.ndarray, rounds: int, clients: int, rate: float) -> list:
    """Rounds 1..R, finite values, participants = max(1, floor(rate K)),
    completed <= participants."""
    failures = []
    if rows.shape != (rounds, 6):
        return [f"metrics: shape {rows.shape}, expected ({rounds}, 6)"]
    if not np.array_equal(rows[:, 0], np.arange(1, rounds + 1)):
        failures.append("metrics: rounds are not 1..R")
    if not np.all(np.isfinite(rows)):
        failures.append("metrics: non-finite value")
    expected = max(1, int(Fraction(str(rate)) * clients))
    if not np.all(rows[:, 3] == expected):
        failures.append(f"metrics: participants differ from {expected}")
    if np.any(rows[:, 4] > rows[:, 3]):
        failures.append("metrics: completed exceeds participants")
    return failures


def check_learning(rows: np.ndarray, accuracy_floor: float, loss_falls: bool) -> list:
    """The run learns: final accuracy clears the floor and, with loss_falls,
    the final loss is below the round-1 loss."""
    failures = []
    if rows[-1, 2] < accuracy_floor:
        failures.append(f"learning: final accuracy {rows[-1, 2]:.4f} below "
                        f"{accuracy_floor}")
    if loss_falls and not rows[-1, 1] < rows[0, 1]:
        failures.append(f"learning: final loss {rows[-1, 1]:.6g} not below "
                        f"round-1 loss {rows[0, 1]:.6g}")
    return failures


def check_run(run_dir, features, labels, *, clients, rounds, participation_rate,
              beta, c, loss_falls, accuracy_floor=ACCURACY_FLOOR) -> list:
    """Every check on one run directory; the records are the run's input."""
    run_dir = Path(run_dir)
    try:
        part = read_partition(run_dir / "partition.csv")
        w = read_weights(run_dir / "weights.csv")
        rows = read_metrics(run_dir / "metrics.csv")
    except (OSError, ValueError) as exc:
        return [f"artifacts: {exc}"]
    failures = check_partition(part, len(labels), clients)
    failures += check_metrics(rows, rounds, clients, participation_rate)
    if failures:
        return failures
    if w.shape != (features.shape[1] + 1,):
        return [f"weights: length {w.size}, expected {features.shape[1] + 1}"]
    loss, acc, n_test = recompute(features, labels, client_splits(part, clients),
                                  w, beta, c)
    if abs(acc - rows[-1, 2]) > 0.5 / n_test:
        failures.append(f"accuracy: recomputed {acc!r}, metrics.csv {rows[-1, 2]!r}")
    if not math.isclose(loss, rows[-1, 1], rel_tol=1e-9, abs_tol=1e-15):
        failures.append(f"train loss: recomputed {loss!r}, metrics.csv {rows[-1, 1]!r}")
    return failures + check_learning(rows, accuracy_floor, loss_falls)
