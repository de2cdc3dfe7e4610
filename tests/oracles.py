"""Reference oracles for the tests: the linear score, the empirical risk
distribution with its tail threshold and tail measures, the partition
plan and the synthetic generator, written from their definitions and
independent of the code they check: nothing here imports riskfed.

A risk vector holds one risk per sample at fixed weights. The threshold
q is the smallest risk whose empirical CDF reaches beta. The tail is the
set of samples whose risk strictly exceeds q; the distortion measure is
the average risk over that tail, and the hinge surrogate is the mean
positive part of (risk - q). The tail objective is the L2 regularizer
plus c (1 - beta) times the CVaR of the risks; FedProx's local step
descends it plus a proximal pull toward the start weights. The
sensitivity matrix is summed client by client, and a linear system is
solved exactly in rational arithmetic.
"""

from __future__ import annotations

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


def tail_rows(features, labels, w, beta: float) -> np.ndarray:
    """The ascending rows of a shard whose risk -y (<w[:d], x> + w[d]) at w
    strictly exceeds the shard's beta-quantile."""
    d = features.shape[1]
    risks = -labels * (features @ w[:d] + w[d])
    return np.flatnonzero(risks > beta_quantile(risks, beta))


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
    d = features.shape[1]
    risks = -labels * (features @ w[:d] + w[d])
    return 0.5 * float(w @ w) + c * hinge_surrogate(risks, q)


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
