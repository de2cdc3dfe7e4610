"""Reference oracles for the tests: the linear score, its Jacobian row,
and the empirical risk distribution with its tail threshold and tail
measures, written from their definitions and independent of the kernels.

A risk vector holds one risk per sample at fixed weights. The threshold
q is the smallest risk whose empirical CDF reaches beta. The tail is the
set of samples whose risk strictly exceeds q; the distortion measure is
the average risk over that tail, and the hinge surrogate is the mean
positive part of (risk - q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from riskfed.errors import ConfigurationError, DataError


def _check_dims(w: np.ndarray, x: np.ndarray) -> None:
    if w.ndim != 1 or x.ndim != 1:
        raise ConfigurationError("weights and features must be 1-D vectors")
    if w.shape[0] != x.shape[0] + 1:
        raise ConfigurationError(
            f"weight length {w.shape[0]} does not match feature length "
            f"{x.shape[0]} + 1 bias"
        )


def predict(w: np.ndarray, x: np.ndarray) -> float:
    """Affine score <w[:d], x> + w[d]."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_dims(w, x)
    return float(w[:-1] @ x + w[-1])


def jacobian_row(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the score w.r.t. the weights: [x; 1] for the linear model."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_dims(w, x)
    row = np.empty(w.shape[0])
    row[:-1] = x
    row[-1] = 1.0
    return row


@dataclass(frozen=True)
class TailThreshold:
    """Threshold value q at level beta plus the strict-exceedance index set."""

    q: float
    beta: float
    tail_indices: np.ndarray


def _as_risks(risks) -> np.ndarray:
    risks = np.asarray(risks, dtype=np.float64)
    if risks.ndim != 1 or risks.size == 0:
        raise DataError("risk vector must be nonempty and 1-D")
    return risks


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ConfigurationError(f"beta must lie in (0, 1), got {beta}")


def sample_risk(w: np.ndarray, x: np.ndarray, y: float) -> float:
    """Per-sample risk -y * f(w, x); negative iff the score sign matches y."""
    if y not in (-1, 1):
        raise DataError(f"label must be -1 or +1, got {y!r}")
    return -float(y) * predict(w, x)


def empirical_cdf(risks, alpha: float) -> float:
    """Fraction of risks <= alpha (inclusive)."""
    risks = _as_risks(risks)
    return float(np.count_nonzero(risks <= alpha)) / risks.size


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
