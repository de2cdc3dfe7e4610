"""Reference oracles for the tests, written from their definitions and
independent of the code they check: nothing here imports riskfed.

The score of a row x at weights w is <w[:d], x> + w[d], and its risk is
-y times the score (``risks`` for a shard, ``sample_risk`` for one row).
The threshold q is the smallest risk whose empirical CDF reaches beta.
The tail is the set of samples whose risk strictly exceeds q; the
distortion measure is the average risk over that tail, and the hinge
surrogate is the mean positive part of (risk - q). The tail objective is
the L2 regularizer plus c (1 - beta) times the CVaR of the risks;
FedProx's local step descends it plus a proximal pull toward the start
weights. The sensitivity matrix is summed client by client, and a linear
system is solved exactly in rational arithmetic. The partition plan and
the synthetic generator are replayed from their seeds.

A whole run is replayed from these definitions by ``reference_run``,
through its named parts: the stream seeds, each client's shards, the
initial weights, the participation and dropout draws, the two steps and
the round metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _check_dims(w: np.ndarray, x: np.ndarray) -> None:
    if w.ndim != 1 or x.ndim != 1:
        raise ValueError("weights and features must be 1-D vectors")
    if w.shape[0] != x.shape[0] + 1:
        raise ValueError(
            f"weight length {w.shape[0]} does not match feature length "
            f"{x.shape[0]} + 1 bias"
        )


def predict(w: np.ndarray, x: np.ndarray) -> float:
    """Affine score <w[:d], x> + w[d]."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_dims(w, x)
    return float(w[:-1] @ x + w[-1])


@dataclass(frozen=True)
class TailThreshold:
    """Threshold value q at level beta plus the strict-exceedance index set."""

    q: float
    beta: float
    tail_indices: np.ndarray


def _as_risks(risks) -> np.ndarray:
    risks = np.asarray(risks, dtype=np.float64)
    if risks.ndim != 1 or risks.size == 0:
        raise ValueError("risk vector must be nonempty and 1-D")
    return risks


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def sample_risk(w: np.ndarray, x: np.ndarray, y: float) -> float:
    """Per-sample risk -y * f(w, x); negative iff the score sign matches y."""
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    return -float(y) * predict(w, x)


def empirical_cdf(risks, alpha: float) -> float:
    """Fraction of risks <= alpha (inclusive)."""
    risks = _as_risks(risks)
    return float(np.count_nonzero(risks <= alpha)) / risks.size


def brute_force_quantile(risks, beta: float) -> float:
    """Smallest observed risk whose CDF reaches beta, by trying each one."""
    return min(a for a in risks if empirical_cdf(risks, a) >= beta)


def beta_quantile(risks, beta: float) -> float:
    """Smallest risk value whose empirical CDF reaches beta."""
    risks = _as_risks(risks)
    _check_beta(beta)
    ordered = np.sort(risks)
    # the CDF at each sorted risk: the count of risks <= it, over n
    cdf = np.searchsorted(ordered, ordered, side="right") / ordered.size
    return float(ordered[np.argmax(cdf >= beta)])


def tail_threshold(risks, beta: float) -> TailThreshold:
    """Threshold q and the indices of samples with risk strictly above it."""
    risks = _as_risks(risks)
    q = beta_quantile(risks, beta)
    indices = np.flatnonzero(risks > q)
    return TailThreshold(q=q, beta=beta, tail_indices=indices)


def risks(w, features, labels) -> np.ndarray:
    """Each row's risk -y (<w[:d], x> + w[d]) at w."""
    d = features.shape[1]
    return -labels * (features @ w[:d] + w[d])


def tail_rows(features, labels, w, beta: float) -> np.ndarray:
    """The ascending rows of a shard whose risk at w strictly exceeds the
    shard's beta-quantile."""
    r = risks(w, features, labels)
    return np.flatnonzero(r > beta_quantile(r, beta))


def distortion_risk(risks, beta: float) -> float:
    """Average risk over the tail; returns q itself when the tail is empty."""
    risks = _as_risks(risks)
    t = tail_threshold(risks, beta)
    if t.tail_indices.size == 0:
        return t.q
    return float(np.mean(risks[t.tail_indices]))


def hinge_surrogate(risks, q: float) -> float:
    """Mean positive part of (risk - q); always nonnegative."""
    risks = _as_risks(risks)
    return float(np.sum(np.maximum(0.0, risks - q))) / risks.size


def frozen_q_loss(w, features, labels, q: float, c: float) -> float:
    """0.5 ||w||^2 + c times the hinge surrogate of the risks at w, with the
    threshold q given rather than taken at w."""
    return 0.5 * float(w @ w) + c * hinge_surrogate(risks(w, features, labels), q)


def fedprox_local_step(features, labels, w0, mu: float, beta: float, c: float,
                       epochs: int, lr: float) -> np.ndarray:
    """FedProx's local descent from w0: epochs full-batch steps of size lr
    on the frozen-threshold loss plus (mu/2) ||w - w0||^2, the threshold
    taken anew at each step's weights w. A step's gradient is w minus
    (c/n) times the sum of y [x; 1] over the tail_rows at w, plus
    mu (w - w0)."""
    n = features.shape[0]
    xb = np.hstack([features, np.ones((n, 1))])
    w = np.array(w0, dtype=np.float64)
    for _ in range(epochs):
        rows = tail_rows(features, labels, w, beta)
        grad = w - (c / n) * (xb[rows].T @ labels[rows]) + mu * (w - w0)
        w = w - lr * grad
    return w


def brute_force_sensitivity(reports, c: float, total_n: int) -> np.ndarray:
    """sum_k (n_k/n)(I + (c/n_k) G_k), one client at a time, from reports
    that carry each client's size n_k and tail Gram G_k."""
    p = reports[0].gram.shape[0]
    s = np.zeros((p, p))
    for r in reports:
        s += (r.n_k / total_n) * (np.eye(p) + (c / r.n_k) * r.gram)
    return s


def tail_objective(w, features, labels, beta: float, c: float) -> float:
    """F(w) = 0.5 ||w||^2 + c (1 - beta) CVaR_beta(R), with CVaR_beta the
    mean of the risks' quantile function over (beta, 1].

    The empirical quantile function is R_(i), the i-th smallest risk, on
    ((i-1)/n, i/n], so c (1 - beta) CVaR_beta = c sum_i m_i R_(i), where
    m_i is the length of ((i-1)/n, i/n] that lies in (beta, 1].
    """
    w = np.asarray(w, dtype=np.float64)
    risks = np.sort([sample_risk(w, x, y) for x, y in zip(features, labels)])
    n = risks.size
    i = np.arange(1, n + 1)
    mass = np.maximum(0.0, i / n - np.maximum((i - 1) / n, beta))
    return 0.5 * float(w @ w) + c * float(mass @ risks)


def exdir_plan(sectors, num_clients: int, labels_per_client: int, alpha: float,
               seed: int):
    """The two-stage sector/Dirichlet partition replayed from its
    definition: each client's ascending record indices, or None when no
    plan exists.

    The g distinct sectors, ascending, are the groups. A generator seeded
    with seed first permutes the groups; client k holds the groups at
    positions (k*C + t) mod g of that permutation, t < C. Then group by
    group, in ascending order, one Dirichlet(alpha) draw over the group's
    holders (ascending) gives each a share; the group's records, in
    temporal order, are cut at the floor of each cumulative share times
    the group's size, and the last holder takes the remainder. No plan
    exists when C exceeds g, when K*C < g, or when a client gets nothing.
    """
    sectors = [int(s) for s in sectors]
    groups = sorted(set(sectors))
    g = len(groups)
    if labels_per_client > g or num_clients * labels_per_client < g:
        return None
    rng = np.random.default_rng(seed)
    order = rng.permutation(g)
    holders = [[] for _ in range(g)]
    for k in range(num_clients):
        for t in range(labels_per_client):
            holders[int(order[(k * labels_per_client + t) % g])].append(k)
    plan = [[] for _ in range(num_clients)]
    for sector, clients in zip(groups, holders):
        records = [i for i, s in enumerate(sectors) if s == sector]
        shares = rng.dirichlet([alpha] * len(clients)).tolist()
        start, cumulative = 0, 0.0
        for k, share in zip(clients, shares):
            cumulative += share
            stop = int(np.floor(cumulative * len(records)))
            if k == clients[-1]:
                stop = len(records)
            plan[k] += records[start:stop]
            start = stop
    if not all(plan):
        return None
    return [sorted(records) for records in plan]


def synthetic_features(n: int, d: int, num_sectors: int, seed: int, signal: float):
    """(features, labels, sectors) of the synthetic generator drawn in one
    shot, from its definition.

    A generator seeded with seed draws, in this order: the (num_sectors,
    d) sector means, each scaled to unit norm; n sectors uniform in
    [0, num_sectors); n uniforms u, a label being -1 where u < 0.5 and +1
    elsewhere; then the noise, one (n, d) standard normal draw. Record r
    is noise[r] + labels[r] * signal * means[sectors[r]].
    """
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_sectors, d))
    means = means / np.linalg.norm(means, axis=1, keepdims=True)
    sectors = rng.integers(0, num_sectors, size=n)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    noise = rng.standard_normal((n, d))
    shift = signal * means[sectors] * labels[:, None]
    return noise + shift, labels, sectors


def exact_solve(a, b) -> list[Fraction]:
    """The exact solution of a x = b for the float entries of a and b, by
    Gauss-Jordan elimination in rational arithmetic."""
    rows = [[Fraction(float(v)) for v in row] + [Fraction(float(rhs))]
            for row, rhs in zip(np.asarray(a), np.asarray(b))]
    p = len(rows)
    for col in range(p):
        pivot = next(r for r in range(col, p) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(p):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [v - factor * u for v, u in zip(rows[r], rows[col])]
    return [rows[i][p] / rows[i][i] for i in range(p)]


# the stream tags of a run's derived generators
DATA_STREAM = 1
PARTITION_STREAM = 2
INIT_STREAM = 3
PARTICIPATION_STREAM = 4
DROPOUT_STREAM = 5


def stream_seed(seed: int, stream: int) -> int:
    """The seed of a run's generator for one stream: the first 64-bit word
    of SeedSequence([seed, stream])."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


def train_cut(n: int, fraction: float) -> int | None:
    """How many of a client's n records train: floor(fraction * n), or None
    where that leaves the train or the test side empty."""
    cut = math.floor(fraction * n)
    return cut if 1 <= cut < n else None


def client_shards(keys):
    """Each client's (train, test) shards in id order, each a (features,
    labels, sectors) triple; None where a run refuses the config: no
    partition plan exists, or a client's cut leaves a side empty.

    The synthetic records are drawn from the data stream and partitioned
    by exdir_plan from the partition stream; client k's first
    train_cut(n_k, train_fraction) records, in temporal order, train.
    """
    seed, k = keys["seed"], keys["clients"]
    data = synthetic_features(k * keys["samples_per_client"], keys["d"],
                              keys["num_sectors"], stream_seed(seed, DATA_STREAM),
                              keys["signal"])
    plan = exdir_plan(data[2], k, keys["C"], keys["alpha"],
                      stream_seed(seed, PARTITION_STREAM))
    if plan is None:
        return None
    shards = []
    for records in plan:
        cut = train_cut(len(records), keys["train_fraction"])
        if cut is None:
            return None
        shards.append(tuple(tuple(a[part] for a in data)
                            for part in (records[:cut], records[cut:])))
    return shards


def initial_weights(keys) -> np.ndarray:
    """w0: d + 1 uniforms in [-0.01, 0.01) from the init stream."""
    rng = np.random.default_rng(stream_seed(keys["seed"], INIT_STREAM))
    return rng.uniform(-0.01, 0.01, keys["d"] + 1)


def round_participants(num_clients: int, rate: float, seed: int, r: int) -> list[int]:
    """Round r's participants, ascending: max(1, floor(rate * K)) distinct
    clients drawn by default_rng([seed, r, 4]).choice."""
    count = max(1, math.floor(rate * num_clients))
    rng = np.random.default_rng([seed, r, PARTICIPATION_STREAM])
    return sorted(rng.choice(num_clients, size=count, replace=False).tolist())


def dropout_uniform(seed: int, r: int, cid: int) -> float:
    """Client cid's dropout draw in round r: the first uniform of
    default_rng([seed, r, 5, cid])."""
    return float(np.random.default_rng([seed, r, DROPOUT_STREAM, int(cid)]).random())


def round_survivors(participants, rate: float, seed: int, r: int) -> list[int]:
    """The participants, in their order, whose dropout draw in round r is
    at least rate."""
    return [int(cid) for cid in participants if dropout_uniform(seed, r, cid) >= rate]


def fral_step(w, trains, beta: float, c: float, epsilon: float) -> np.ndarray:
    """w - (S + epsilon I)^{-1} g over the survivors' train shards: with
    J_k the [x; 1] rows of shard k's tail_rows at w and n the shards' total
    rows, S = I + (c/n) sum_k J_k^T J_k and g = w - (c/n) sum_k J_k^T y_k,
    summed shard by shard."""
    n = sum(len(y) for _, y, _ in trains)
    s, g = (1.0 + epsilon) * np.eye(w.size), np.array(w)
    for x, y, _ in trains:
        rows = tail_rows(x, y, w, beta)
        j = np.hstack([x[rows], np.ones((rows.size, 1))])
        s += (c / n) * (j.T @ j)
        g -= (c / n) * (j.T @ y[rows])
    return w - np.linalg.solve(s, g)


def averaging_step(w, trains, keys) -> np.ndarray:
    """The size-weighted mean of each survivor's fedprox_local_step from w,
    over the survivors' train shards, taken as w plus the mean change, so
    that zero local epochs keep w."""
    n = sum(len(y) for _, y, _ in trains)
    change = np.zeros_like(w)
    for x, y, _ in trains:
        change += (len(y) / n) * (fedprox_local_step(
            x, y, w, keys["mu"], keys["beta"], keys["c"], keys["local_epochs"],
            keys["local_lr"]) - w)
    return w + change


def round_metrics(w, shards, beta: float, c: float) -> tuple[float, float]:
    """(train loss, test accuracy) at w: the size-weighted mean of each
    client's frozen_q_loss at its own beta_quantile, and the fraction of
    all test rows whose risk is negative."""
    n = sum(len(train[1]) for train, _ in shards)
    loss = 0.0
    for (x, y, _), _ in shards:
        q = beta_quantile(risks(w, x, y), beta)
        loss += (len(y) / n) * frozen_q_loss(w, x, y, q, c)
    right = sum(int(np.count_nonzero(risks(w, x, y) < 0)) for _, (x, y, _) in shards)
    return loss, right / sum(len(test[1]) for _, test in shards)


def reference_run(keys):
    """A run of the resolved keys of a synthetic config, as written in
    resolved_config.txt: its rows (round, train_loss, test_accuracy,
    participants, completed, step_norm) and its final weights; None where
    a run refuses the config: client_shards refuses it, or a round's
    weights, train loss or step norm is not finite.

    Each round draws its participants and their survivors. With
    survivors, fral_cse takes fral_step and fedavg and fedprox take
    averaging_step, and the round metrics are taken at the new weights; a
    round without survivors keeps its weights and metrics.
    """
    shards = client_shards(keys)
    if shards is None:
        return None
    seed, beta, c = keys["seed"], keys["beta"], keys["c"]
    w = initial_weights(keys)
    loss, acc = round_metrics(w, shards, beta, c)
    rows = []
    for r in range(1, keys["rounds"] + 1):
        chosen = round_participants(keys["clients"], keys["participation_rate"], seed, r)
        kept = round_survivors(chosen, keys["dropout_rate"], seed, r)
        w_next = w
        if kept:
            trains = [shards[k][0] for k in kept]
            if keys["algorithm"] == "fral_cse":
                w_next = fral_step(w, trains, beta, c, keys["epsilon"])
            else:
                w_next = averaging_step(w, trains, keys)
            loss, acc = round_metrics(w_next, shards, beta, c)
        step = float(np.linalg.norm(w_next - w))
        if not np.isfinite([*w_next, loss, step]).all():
            return None
        rows.append((r, loss, acc, len(chosen), len(kept), step))
        w = w_next
    return rows, w
