"""Two-stage non-IID partitioning of a dataset across clients.

Stage 1 assigns each client a fixed number of sector groups, round-robin
over a seeded random ordering of the groups so every group lands on at
least one client. Stage 2 splits each group's records among its eligible
clients as contiguous temporal blocks sized by a single Dirichlet draw;
rounding remainders go to the last eligible client. The plan records
each record's client, so every record has exactly one client, and each
client's records are listed in temporal order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionError


@dataclass(frozen=True)
class PartitionPlan:
    """Record r belongs to client owner[r]."""

    owner: np.ndarray  # (n,) int64 client ids
    num_clients: int

    def sizes(self) -> np.ndarray:
        """Records per client, indexed by client id."""
        return np.bincount(self.owner, minlength=self.num_clients)

    def order(self) -> np.ndarray:
        """Record indices client by client in id order, each client's
        ascending; client k's run has length sizes()[k]."""
        return np.argsort(self.owner, kind="stable")

    def records(self) -> list:
        """Each client's ascending record indices, in id order, as views
        of order()."""
        return np.split(self.order(), np.cumsum(self.sizes())[:-1])


def exdir_partition(
    sectors: np.ndarray,
    num_clients: int,
    labels_per_client: int,
    alpha: float,
    seed: int,
) -> PartitionPlan:
    """Deterministic two-stage sector/Dirichlet partition of the records
    whose sectors, in record order, are given."""
    groups, group_sizes = np.unique(sectors, return_counts=True)
    g = groups.size
    if labels_per_client > g:
        raise PartitionError(f"C must lie in [1, {g}], got {labels_per_client}")
    if num_clients * labels_per_client < g:
        raise PartitionError(f"C = {labels_per_client} with {num_clients} clients cannot "
                             f"cover {g} sector groups; raise C or clients")

    rng = np.random.default_rng(seed)
    slots = np.arange(num_clients * labels_per_client).reshape(num_clients, -1)
    held = rng.permutation(g)[slots % g]  # (K, C) group indices, distinct per row
    held_by = np.bincount(held.ravel(), minlength=g)
    # a stable sort of the held slots lists each group's holders ascending,
    # and of the sectors each group's records in temporal order
    holders = np.split(np.argsort(held, axis=None, kind="stable") // labels_per_client,
                       np.cumsum(held_by)[:-1])
    members = np.split(np.argsort(sectors, kind="stable"), np.cumsum(group_sizes)[:-1])
    owner = np.empty(len(sectors), dtype=np.int64)
    for clients, records in zip(holders, members):
        proportions = rng.dirichlet(np.full(clients.size, alpha))
        bounds = np.floor(np.cumsum(proportions) * records.size).astype(np.int64)
        bounds[-1] = records.size  # remainder to the last eligible client
        owner[records] = np.repeat(clients, np.diff(bounds, prepend=0))

    plan = PartitionPlan(owner, num_clients)
    starved = np.flatnonzero(plan.sizes() == 0)
    if starved.size:
        raise _starved(int(starved[0]), groups, np.sort(held[starved[0]]),
                       group_sizes, held_by, alpha)
    return plan


def _starved(client, groups, mine, group_sizes, held_by, alpha) -> PartitionError:
    """Why client, which holds the group indices mine, received no
    records, and what to change."""
    where = " and ".join(f"sector {s}" for s in groups[mine].tolist())
    for j in mine.tolist():
        if group_sizes[j] < held_by[j]:
            return PartitionError(
                f"client {client} received zero records from {where}: sector "
                f"{groups[j]} holds {group_sizes[j]} records for {held_by[j]} "
                f"clients; use fewer clients or more records")
    return PartitionError(
        f"client {client} received zero records from {where} at alpha = "
        f"{alpha!r}; raise alpha for more even Dirichlet shares, or retry with "
        f"a new seed")


def write_partition_csv(plan: PartitionPlan, path) -> None:
    """Export the plan as client_id,record_index rows, client by client in
    id order and each client's records ascending, ending each line with
    "\r\n" as csv.writer does."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("client_id,record_index\r\n")
        for client, idx in enumerate(plan.records()):
            fh.write("".join([f"{client},{r}\r\n" for r in idx.tolist()]))
