"""Two-stage non-IID partitioning of a dataset across clients.

Stage 1 assigns each client a fixed number of sector groups, round-robin
over a seeded random ordering of the groups so every group lands on at
least one client. Stage 2 splits each group's records among its eligible
clients as contiguous temporal blocks sized by a single Dirichlet draw;
rounding remainders go to the last eligible client. Each client's final
index list is sorted so local data stays in temporal order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .errors import PartitionError


@dataclass(frozen=True)
class PartitionPlan:
    """Per-client record indices: client k holds rows assignments[k]."""

    assignments: tuple

    @property
    def num_clients(self) -> int:
        return len(self.assignments)


@dataclass
class PartitionReport:
    """Invariant violations (empty when valid) and composition statistics."""

    violations: list = field(default_factory=list)
    client_sizes: list = field(default_factory=list)
    sector_counts: list = field(default_factory=list)  # per client: {sector: n}

    @property
    def ok(self) -> bool:
        return not self.violations


def exdir_partition(
    data: LabeledDataset,
    num_clients: int,
    labels_per_client: int,
    alpha: float,
    seed: int,
) -> PartitionPlan:
    """Deterministic two-stage sector/Dirichlet partition."""
    if num_clients < 1:
        raise PartitionError(f"need at least one client, got {num_clients}")
    if alpha <= 0:
        raise PartitionError(f"concentration must be positive, got {alpha}")
    groups = np.unique(data.sectors)
    g = groups.size
    if not 1 <= labels_per_client <= g:
        raise PartitionError(
            f"labels_per_client must lie in [1, {g}], got {labels_per_client}"
        )
    if num_clients * labels_per_client < g:
        raise PartitionError(
            f"{num_clients} clients x {labels_per_client} labels cannot cover "
            f"{g} groups; raise labels_per_client or client count"
        )

    rng = np.random.default_rng(seed)
    order = rng.permutation(g)
    eligible = {int(sector): [] for sector in groups}
    for client in range(num_clients):
        for t in range(labels_per_client):
            sector = int(groups[order[(client * labels_per_client + t) % g]])
            eligible[sector].append(client)

    blocks = [[] for _ in range(num_clients)]
    for sector in groups.tolist():
        records = np.flatnonzero(data.sectors == sector)
        clients = sorted(eligible[int(sector)])
        proportions = rng.dirichlet(np.full(len(clients), alpha))
        bounds = np.floor(np.cumsum(proportions) * records.size).astype(np.int64)
        bounds[-1] = records.size  # remainder to the last eligible client
        start = 0
        for client, stop in zip(clients, bounds):
            blocks[client].append(records[start:stop])
            start = stop

    assignments = []
    for client in range(num_clients):
        idx = np.sort(np.concatenate(blocks[client])) if blocks[client] else \
            np.empty(0, dtype=np.int64)
        if idx.size == 0:
            raise _starved(client, data, eligible, alpha)
        assignments.append(idx)
    return PartitionPlan(assignments=tuple(assignments))


def _starved(client, data, eligible, alpha) -> PartitionError:
    """Why client received no records, and what to change."""
    sectors = [s for s, members in eligible.items() if client in members]
    where = " and ".join(f"sector {s}" for s in sectors)
    for s in sectors:
        held = int(np.count_nonzero(data.sectors == s))
        if held < len(eligible[s]):
            return PartitionError(
                f"client {client} received zero records from {where}: sector {s} "
                f"holds {held} records for {len(eligible[s])} clients; use fewer "
                f"clients or more records")
    return PartitionError(
        f"client {client} received zero records from {where} at alpha = "
        f"{alpha!r}; raise alpha for more even Dirichlet shares, or retry with "
        f"a new seed")


def validate_partition(plan: PartitionPlan, data: LabeledDataset) -> PartitionReport:
    """Check disjointness, coverage, nonemptiness, and order preservation."""
    report = PartitionReport()
    n = len(data)
    seen = np.zeros(n, dtype=bool)
    for client, idx in enumerate(plan.assignments):
        report.client_sizes.append(int(idx.size))
        if idx.size == 0:
            report.violations.append(f"client {client} has no records")
            report.sector_counts.append({})
            continue
        if idx.min() < 0 or idx.max() >= n:
            report.violations.append(f"client {client} references out-of-range index")
            report.sector_counts.append({})
            continue
        if np.any(np.diff(idx) <= 0):
            pos = int(np.flatnonzero(np.diff(idx) <= 0)[0])
            report.violations.append(
                f"client {client} breaks temporal order at position {pos}"
            )
        dupes = idx[seen[idx]]
        if dupes.size:
            report.violations.append(
                f"index {int(dupes[0])} assigned to more than one client"
            )
        seen[idx] = True
        sectors, counts = np.unique(data.sectors[idx], return_counts=True)
        report.sector_counts.append(
            {int(s): int(c) for s, c in zip(sectors, counts)}
        )
    covered = int(np.count_nonzero(seen))
    if covered != n:
        report.violations.append(f"plan covers {covered} of {n} records")
    return report


def write_partition_csv(plan: PartitionPlan, path) -> None:
    """Export the plan as client_id,record_index rows for audits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "record_index"])
        for client, idx in enumerate(plan.assignments):
            for record in idx.tolist():
                writer.writerow([client, record])
