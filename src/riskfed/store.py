"""All clients' rows in one contiguous store, evaluated in one batched pass.

Every client's features sit in one C-contiguous (N, d) buffer, written
once, straight from the records: synthetic rows are streamed into it,
so no record-ordered copy exists. The train rows come first, ordered by
(train size, client id), so the clients of one size form one contiguous
(clients, n, d) block; the test rows follow, client by client in id
order. The rows are valid as read or made: ``load_csv`` checks every
row of a CSV, and synthetic rows are valid by construction. The arrays
are read-only, so nothing can write a bad value afterwards. Client k's
train shard is a view of its row range, built as the store is iterated,
so no row is held twice. ``ClientStore.evaluate`` scores every train row
at one weight vector and returns each client's tail threshold,
tail-active rows and local loss, plus the size-weighted train loss and
the test accuracy. Each quantity is computed with the same
floating-point operations, on the same values, as the per-client numpy
kernel ``_kernels.client_eval``, so the results equal it bit for bit.
The evaluation scores the train rows, then the test set, on the caller's
thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import quantile_rank
from .data import LabeledDataset
from .metrics import accuracy
from .partition import PartitionPlan


@dataclass(frozen=True)
class ClientState:
    """One simulated client's train shard, a view of the store's rows."""

    train: LabeledDataset


def runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices starts[i]:starts[i] + counts[i], run after run."""
    offsets = np.cumsum(counts) - counts  # where each run goes
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


@dataclass(frozen=True)
class TrainPass:
    """Every train row of a store evaluated at weights ``w``, and the test
    accuracy there; per-client arrays are indexed by client id."""

    w: np.ndarray
    q: np.ndarray  # (K,) each client's beta-quantile of its risks
    active_rows: np.ndarray  # ascending store rows with risk > their client's q
    active_starts: np.ndarray  # (K,) where each client's run of active_rows starts
    active_counts: np.ndarray  # (K,) tail-active rows per client
    losses: np.ndarray  # (K,) 0.5*||w||^2 + (c/n_k) * hinge_k
    train_loss: float  # sum_k (n_k/n) * losses[k], added left to right by id
    test_accuracy: float  # metrics.accuracy(w, store.test)

    def tail_rows(self, clients) -> np.ndarray:
        """Store rows of the given clients' tail-active rows, client by
        client in the given order, each client's rows ascending."""
        return self.active_rows[runs(self.active_starts[clients],
                                     self.active_counts[clients])]


@dataclass(frozen=True)
class ClientStore:
    """Train and test rows of all clients. Client k owns train rows
    ``train_starts[k]:train_starts[k] + train_sizes[k]`` of ``train``;
    ``layout`` lists the client ids in the order of their train rows. The
    test rows follow client by client in id order, each client's last
    ones of its records. Iterating the store builds each client's train
    shard as a view of its rows, in id order.

    ``size_groups`` holds, per distinct train size n in increasing order,
    the ids of the clients of that size (ascending) and the train rows
    ``a:b`` of their contiguous block.
    """

    train: LabeledDataset
    test: LabeledDataset
    train_starts: np.ndarray
    train_sizes: np.ndarray
    layout: np.ndarray
    size_groups: tuple

    @classmethod
    def build(cls, records, plan: PartitionPlan, cuts: np.ndarray) -> "ClientStore":
        """The store of records split by plan: client k trains on the first
        cuts[k] of its records in plan and tests on the rest.

        records gives each record's label and sector, in record order, and
        writes record r's features into out[dest[r]] through
        ``write_features`` (a ``LabeledDataset`` or ``SyntheticRecords``).
        The store holds one (N, d) feature buffer, filled once: the train
        rows by layout, then the test rows; ``train`` and ``test`` are
        read-only row views of it.
        """
        order, sizes = plan.order(), plan.sizes()
        firsts = np.cumsum(sizes) - sizes  # where each client's run of order starts
        test_sizes = sizes - cuts
        layout = np.argsort(cuts, kind="stable")  # client ids by (train size, id)
        source = order[np.concatenate((runs(firsts[layout], cuts[layout]),
                                       runs(firsts + cuts, test_sizes)))]
        dest = np.empty_like(source)  # the store row of each record
        dest[source] = np.arange(source.size)
        features = np.empty((source.size, records.dim))
        records.write_features(features, dest)
        labels, sectors = records.labels[source], records.sectors[source]
        for array in (features, labels, sectors):
            array.setflags(write=False)
        whole = LabeledDataset(features, labels, sectors)
        n_train = int(cuts.sum())
        starts = np.empty_like(cuts)
        starts[layout] = np.cumsum(cuts[layout]) - cuts[layout]
        groups = []
        for n in np.unique(cuts).tolist():
            ids = np.flatnonzero(cuts == n)
            a = int(starts[ids[0]])
            groups.append((n, ids, a, a + ids.size * n))
        return cls(train=whole.rows(0, n_train), test=whole.rows(n_train, source.size),
                   train_starts=starts, train_sizes=cuts, layout=layout,
                   size_groups=tuple(groups))

    def __iter__(self):
        """The clients in id order."""
        return (ClientState(self.train.rows(a, a + n))
                for a, n in zip(self.train_starts.tolist(), self.train_sizes.tolist()))

    def evaluate(self, w: np.ndarray, beta: float, c: float) -> TrainPass:
        """Risks, tail thresholds, tail-active rows, losses and test accuracy
        at w."""
        features, labels = self.train.features, self.train.labels
        sizes = self.train_sizes
        d = features.shape[1]
        coef = w[:d]
        scores = np.empty(labels.size)
        # One GEMV per client, as the per-client kernel does: a stacked
        # matmul calls the BLAS once per matrix of the block. A BLAS may
        # round a row differently depending on where it falls in the
        # product (OpenBLAS takes the last n mod 4 rows through another
        # kernel), so one product over the whole store would not match.
        for n, _, a, b in self.size_groups:
            np.matmul(features[a:b].reshape(-1, n, d), coef,
                      out=scores[a:b].reshape(-1, n))
        test_accuracy = accuracy(w, self.test)
        risks = -labels * (scores + w[d])

        # the k-th smallest risk is one value however it is selected, so
        # clients of equal size share one row-wise partition
        q, q_rows = np.empty(len(sizes)), np.empty(labels.size)
        for n, ids, a, b in self.size_groups:
            kth = quantile_rank(n, beta) - 1
            q[ids] = np.partition(risks[a:b].reshape(ids.size, n), kth, axis=1)[:, kth]
            q_rows[a:b] = np.repeat(q[ids], n)
        active_rows = np.flatnonzero(risks > q_rows)
        excess = risks[active_rows] - q_rows[active_rows]
        # each client's run of active_rows, searched at the client bounds in
        # row order: ascending keys search much faster than unsorted ones
        bounds = np.append(self.train_starts[self.layout], labels.size)
        cuts = np.searchsorted(active_rows, bounds)
        active_starts, active_counts = np.empty_like(sizes), np.empty_like(sizes)
        active_starts[self.layout] = cuts[:-1]
        active_counts[self.layout] = np.diff(cuts)
        # one pairwise sum (np.sum's reduction) per client, on the values the
        # per-client kernel sums in the same order, so each hinge equals it:
        # the clients with m active rows form one (clients, m) matrix, whose
        # row-wise reduce runs the pairwise sum on each row of length m
        hinge = np.zeros(len(sizes))
        for m in np.unique(active_counts).tolist():
            ids = np.flatnonzero(active_counts == m)
            hinge[ids] = np.add.reduce(
                excess[active_starts[ids][:, None] + np.arange(m)], axis=1)
        losses = 0.5 * float(w @ w) + (c / sizes) * hinge
        train_loss = float(np.add.accumulate(sizes / labels.size * losses)[-1])
        return TrainPass(w=w, q=q, active_rows=active_rows, active_starts=active_starts,
                         active_counts=active_counts, losses=losses,
                         train_loss=train_loss, test_accuracy=test_accuracy)
