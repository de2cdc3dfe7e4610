"""The risk-aware local objective, its gradient, and gradient aggregation.

The local objective is 0.5*||w||^2 + (c/n) * sum_i max(0, R_i - q) with
q the level-beta threshold of the current risks. Both the loss and the
gradient treat q as a constant of the evaluation: the gradient carries
no dq/dw term, and samples contribute only while strictly above q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import LabeledDataset
from .errors import AggregationError, DataError
from .sensitivity import ClientReport


@dataclass(frozen=True)
class LocalEvaluation:
    """Loss and gradient of one client's objective at fixed weights."""

    loss: float
    gradient: np.ndarray
    active_count: int
    n_k: int
    threshold_q: float


def local_objective(w, data: LabeledDataset, beta: float, c: float) -> LocalEvaluation:
    """Regularizer plus penalty-weighted hinge tail surrogate at w, and its
    gradient w - (c/n) * sum over tail-active samples of y_i * [x_i; 1]."""
    if len(data) == 0:
        raise DataError("client dataset is empty")
    if c < 0:
        raise DataError(f"penalty weight c must be nonnegative, got {c}")
    loss, grad, _, active, q = _kernels.client_eval(
        data.features, data.labels, np.asarray(w, dtype=np.float64), beta, c
    )
    return LocalEvaluation(
        loss=loss, gradient=grad, active_count=active, n_k=len(data), threshold_q=q
    )


def aggregate_gradient(reports: list[ClientReport], total_n: int) -> np.ndarray:
    """Sample-count-weighted sum of client gradients, weights n_k/total_n."""
    if not reports:
        raise AggregationError("no client reports to aggregate")
    if sum(r.n_k for r in reports) != total_n:
        raise AggregationError(
            f"report sizes sum to {sum(r.n_k for r in reports)}, expected {total_n}"
        )
    g = np.zeros_like(reports[0].gradient)
    for r in reports:
        g += (r.n_k / total_n) * r.gradient
    return g

