"""All clients' rows in one contiguous store, evaluated in one batched pass.

The train rows of every client sit in one C-contiguous array, client by
client in id order, and the test rows in another; client k's shards are
views of its row range, so no row is held twice. ``ClientStore.evaluate``
scores every train row at one weight vector and returns each client's
tail threshold, tail-active rows and local loss, plus the size-weighted
train loss. Each quantity is computed with the same floating-point
operations, on the same values, as the per-client numpy kernel
``_kernels.client_eval``, so the results equal it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import quantile_rank
from .data import LabeledDataset


@dataclass(frozen=True)
class ClientState:
    """One simulated client: id plus its temporal train/test shards."""

    client_id: int
    train: LabeledDataset
    test: LabeledDataset


@dataclass(frozen=True)
class TrainPass:
    """Every train row of a store evaluated at weights ``w``."""

    w: np.ndarray
    q: np.ndarray  # (K,) each client's beta-quantile of its risks
    active_rows: np.ndarray  # ascending indices of rows with risk > their client's q
    active_counts: np.ndarray  # (K,) tail-active rows per client
    losses: np.ndarray  # (K,) 0.5*||w||^2 + (c/n_k) * hinge_k
    train_loss: float  # sum_k (n_k/n) * losses[k], added in client order


def _bounds(sizes) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


@dataclass(frozen=True)
class ClientStore:
    """Train and test rows of all clients; client k owns rows
    ``train_bounds[k]:train_bounds[k+1]`` of ``train`` (likewise test).

    ``size_groups`` holds, per distinct train size n, the ids of the
    clients of that size and the (clients, n) matrix of their row indices.
    """

    train: LabeledDataset
    test: LabeledDataset
    train_bounds: np.ndarray
    test_bounds: np.ndarray
    clients: tuple
    size_groups: tuple

    @classmethod
    def from_parts(cls, train: LabeledDataset, test: LabeledDataset,
                   train_sizes, test_sizes) -> "ClientStore":
        """Store over row-concatenated shards of the given per-client sizes."""
        tb, sb = _bounds(train_sizes), _bounds(test_sizes)
        clients = tuple(
            ClientState(client_id=cid, train=train.rows(a, b), test=test.rows(c, d))
            for cid, (a, b, c, d) in enumerate(
                zip(tb[:-1].tolist(), tb[1:].tolist(), sb[:-1].tolist(), sb[1:].tolist())
            )
        )
        sizes = np.diff(tb)
        groups = []
        for n in np.unique(sizes).tolist():
            ids = np.flatnonzero(sizes == n)
            groups.append((n, ids, tb[ids][:, None] + np.arange(n)))
        return cls(train=train, test=test, train_bounds=tb, test_bounds=sb,
                   clients=clients, size_groups=tuple(groups))

    @classmethod
    def gather(cls, data: LabeledDataset, train_parts, test_parts) -> "ClientStore":
        """Client k trains on the records train_parts[k] of data and tests on
        test_parts[k]; one gather per store."""
        return cls.from_parts(
            data.subset(np.concatenate(train_parts)),
            data.subset(np.concatenate(test_parts)),
            [len(p) for p in train_parts],
            [len(p) for p in test_parts],
        )

    def __len__(self) -> int:
        return len(self.clients)

    def __iter__(self):
        return iter(self.clients)

    def __getitem__(self, cid) -> ClientState:
        return self.clients[cid]

    @property
    def train_sizes(self) -> np.ndarray:
        return np.diff(self.train_bounds)

    def evaluate(self, w: np.ndarray, beta: float, c: float) -> TrainPass:
        """Risks, tail thresholds, tail-active rows and losses at w."""
        features, labels = self.train.features, self.train.labels
        bounds, sizes = self.train_bounds, self.train_sizes
        d = features.shape[1]
        coef = w[:d]
        # One GEMV per client, as the per-client kernel does. A BLAS may
        # round a row differently depending on where it falls in the
        # product (OpenBLAS takes the last n mod 4 rows through another
        # kernel), so one product over the whole store would not match.
        scores = np.empty(labels.size)
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            np.matmul(features[a:b], coef, out=scores[a:b])
        risks = -labels * (scores + w[d])

        # the k-th smallest risk is one value however it is selected, so
        # clients of equal size share one row-wise partition
        q = np.empty(len(sizes))
        for n, ids, rows in self.size_groups:
            kth = quantile_rank(n, beta) - 1
            q[ids] = np.partition(risks[rows], kth, axis=1)[:, kth]

        q_rows = np.repeat(q, sizes)
        active_rows = np.flatnonzero(risks > q_rows)
        excess = risks[active_rows] - q_rows[active_rows]  # client by client
        cuts = np.searchsorted(active_rows, bounds)
        # one pairwise sum (np.sum's reduction) per client, on the values the
        # per-client kernel sums in the same order, so each hinge equals it;
        # np.add.reduceat would add each segment in sequence instead
        hinge = np.array([np.add.reduce(excess[a:b])
                          for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())])
        losses = 0.5 * float(w @ w) + (c / sizes) * hinge
        train_loss = 0.0
        for term in (sizes / int(bounds[-1]) * losses).tolist():
            train_loss += term
        return TrainPass(w=w, q=q, active_rows=active_rows,
                         active_counts=np.diff(cuts), losses=losses,
                         train_loss=train_loss)
