"""Hot numeric kernels: per-client evaluation and local gradient descent.

All kernels take C-contiguous float64 arrays: ``features`` of shape
(n, d), ``labels`` of shape (n,) with values in {-1, +1}, and weight
vectors of length d+1, bias last: the score of x is <w[:d], x> + w[d],
and regularization and curvature treat every coordinate uniformly.
"""

from __future__ import annotations

import numpy as np

#: Name of the kernel implementation, recorded in benchmark results.
BACKEND = "numpy"

def quantile_rank(n: int, beta: float) -> int:
    """Smallest 1-based rank k with k/n >= beta.

    The candidate ceil(beta*n) is repaired with the same floating-point
    divisions the empirical CDF uses, so the rank agrees exactly with
    min{alpha : cdf(alpha) >= beta} on the empirical grid.
    """
    k = int(np.ceil(beta * n))  # in [1, n] for beta in (0, 1) and n >= 1
    while k > 1 and (k - 1) / n >= beta:
        k -= 1
    while k < n and k / n < beta:
        k += 1
    return k


def linear_scores(features: np.ndarray, w: np.ndarray) -> np.ndarray:
    d = features.shape[1]
    return features @ w[:d] + w[d]


def local_loss_eval(features, labels, w, beta, c):
    """Loss-only evaluation: (loss, threshold q, active tail count)."""
    loss, _, _, active, q = client_eval(features, labels, w, beta, c)
    return loss, q, active


def client_eval(features, labels, w, beta, c):
    """Full client report payload: (loss, gradient, gram, active, q)."""
    n, d = features.shape
    risks = -labels * linear_scores(features, w)
    k = quantile_rank(n, beta)
    q = np.partition(risks, k - 1)[k - 1]
    active = risks > q
    m = int(np.count_nonzero(active))
    hinge = float(np.sum(risks[active] - q))
    scale = c / n
    xa = features[active]
    ya = labels[active]
    jac_sum = np.empty(d + 1)
    jac_sum[:d] = xa.T @ ya
    jac_sum[d] = float(ya.sum())
    grad = w - scale * jac_sum
    xb = np.empty((m, d + 1))
    xb[:, :d] = xa
    xb[:, d] = 1.0
    gram = xb.T @ xb
    loss = 0.5 * float(w @ w) + scale * hinge
    return loss, grad, gram, m, float(q)


def local_sgd(features, labels, w0, mu, beta, c, epochs, lr, tail):
    """Full-batch gradient descent on the tail-penalized local objective.

    Each epoch takes one step from the rows whose risk at the current
    weights exceeds their beta-quantile q. ``mu`` adds FedProx's pull
    mu*(w - w0) toward the start weights (mu = 0 is fedavg). ``tail`` holds
    the ascending rows whose risk at ``w0`` exceeds q, as an evaluation at
    ``w0`` found them: the first epoch steps from those rows and scores
    none, and each later epoch scores the rows at its weights.
    """
    n, d = features.shape
    w = w0
    k = quantile_rank(n, beta)
    scale = c / n
    neg = -labels
    risks, part, above = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for epoch in range(epochs):
        if epoch:
            np.matmul(features, w[:d], out=risks)
            risks += w[d]
            risks *= neg
            np.copyto(part, risks)
            part.partition(k - 1)
            tail = np.greater(risks, part[k - 1], out=above).nonzero()[0]
        g = w + mu * (w - w0)
        xa = features.take(tail, axis=0)
        ya = labels.take(tail)
        g[:d] -= scale * (xa.T @ ya)
        g[d] -= scale * float(ya.sum())
        w = w - lr * g
    return w
