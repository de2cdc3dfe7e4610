"""Second-order curvature machinery for the central update.

Each client's tail-active samples contribute the Gram matrix of their
score gradients. The server folds those into the aggregated sensitivity
matrix S = sum_k (n_k/n) (I + (c/n_k) Gram_k) and takes a damped
Newton-style step w - (S + eps*I)^{-1} g. Since the weights n_k/n sum
to one, S and g need only sums over the survivors' active rows
(``tail_system``); the per-client reports remain as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _blas, _kernels
from .data import LabeledDataset
from .errors import DataError, NumericalError


@dataclass(frozen=True)
class ClientReport:
    """One client's per-round message to the server."""

    n_k: int
    gradient: np.ndarray
    gram: np.ndarray
    local_loss: float
    active_count: int


def client_report(
    w: np.ndarray, data: LabeledDataset, beta: float, c: float
) -> ClientReport:
    """Evaluate loss, gradient, and Gram at w in one pass over the shard."""
    if len(data) == 0:
        raise DataError("client dataset is empty")
    loss, grad, gram, active, _ = _kernels.client_eval(
        data.features, data.labels, np.asarray(w, dtype=np.float64), beta, c
    )
    return ClientReport(
        n_k=len(data), gradient=grad, gram=gram, local_loss=loss, active_count=active
    )


def check_reports(reports: list[ClientReport], total_n: int) -> None:
    """ValueError unless there are reports and their sizes sum to total_n."""
    if not reports:
        raise ValueError("no client reports to aggregate")
    size_sum = sum(r.n_k for r in reports)
    if size_sum != total_n:
        raise ValueError(f"report sizes sum to {size_sum}, expected {total_n}")


def aggregate_sensitivity(
    reports: list[ClientReport], c: float, total_n: int
) -> np.ndarray:
    """Participation-weighted sensitivity sum_k (n_k/n)(I + (c/n_k) Gram_k)."""
    check_reports(reports, total_n)
    p = reports[0].gram.shape[0]
    s = np.zeros((p, p))
    identity_mass = 0.0
    for r in reports:
        identity_mass += r.n_k / total_n
        s += (c / total_n) * r.gram
    s[np.diag_indices(p)] += identity_mass
    return s


def tail_system(
    w: np.ndarray, features: np.ndarray, labels: np.ndarray, n: int, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """S and g of the central step from all survivors' tail-active rows.

    ``features``/``labels`` hold those rows and n is the survivors' total
    train rows. With J the stacked rows [x; 1],
    S = I + (c/n) J^T J and g = w - (c/n) sum_i y_i [x_i; 1]. The Gram
    product runs on the caller's thread while ``_blas.both``'s helper
    forms X^T y and the column sums, each the call a serial pass makes.
    """
    m, d = features.shape
    scale = c / n
    xtx, (xty, column_sums) = _blas.both(
        lambda: features.T @ features,
        lambda: (features.T @ labels, features.sum(axis=0)))
    jac_sum = np.empty(d + 1)
    jac_sum[:d] = xty
    jac_sum[d] = float(labels.sum())
    gram = np.empty((d + 1, d + 1))
    gram[:d, :d] = xtx
    gram[:d, d] = gram[d, :d] = column_sums
    gram[d, d] = m
    s = scale * gram
    s[np.diag_indices(d + 1)] += 1.0
    return s, w - scale * jac_sum


def central_update(
    w: np.ndarray, s: np.ndarray, g: np.ndarray, epsilon: float
) -> np.ndarray:
    """One damped second-order step: w - (S + eps*I)^{-1} g.

    Cholesky is normwise backward stable (Higham 2002, ch. 10): the step
    solves (S + eps*I + E) s = g exactly, ||E|| a small multiple of the
    unit roundoff times ||S + eps*I||. A system with a non-finite entry,
    as finite but huge features make, is a NumericalError, and so is one
    the factorization rejects. The message blames the scale when the
    smallest eigenvalue is positive or within the eigensolver's rounding
    (p unit roundoffs of the largest) of zero: a run's S is at least I,
    but entries near 1e300 round the identity away.
    """
    a = np.array(s, dtype=np.float64)
    a[np.diag_indices(a.shape[0])] += epsilon
    if not (np.isfinite(a).all() and np.isfinite(g).all()):
        raise NumericalError("sensitivity system is not finite")
    try:
        step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), g)
    except scipy.linalg.LinAlgError as exc:
        eigenvalues = np.linalg.eigvalsh(a)
        smallest, largest = float(eigenvalues[0]), float(eigenvalues[-1])
        rounding = a.shape[0] * np.finfo(np.float64).eps * float(np.abs(eigenvalues).max())
        if smallest > -rounding:
            raise NumericalError(
                f"sensitivity system is too large in scale to factor "
                f"(eigenvalues {smallest:.3e} to {largest:.3e})"
            ) from exc
        raise NumericalError(
            f"sensitivity system is not positive definite "
            f"(smallest eigenvalue {smallest:.3e}): {exc}"
        ) from exc
    return w - step
