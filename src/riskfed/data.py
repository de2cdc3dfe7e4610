"""Synthetic dataset generation, CSV ingestion, and temporal splitting.

Records are temporally ordered: index position is time. Labels use the
{-1, +1} sign convention throughout; no 0/1 coercion happens anywhere.
Each record carries a small integer sector tag used by the partitioner,
and the synthetic generator ties the feature distribution to that tag so
sector-specialized clients see genuinely different feature dynamics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class LabeledDataset:
    """Ordered feature/label/sector arrays; row order is temporal."""

    features: np.ndarray  # (n, d) float64, C-contiguous
    labels: np.ndarray  # (n,) float64, values in {-1, +1}
    sectors: np.ndarray  # (n,) int64

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D array")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.sectors.shape != (n,):
            raise DataError("labels/sectors length must match feature rows")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        if not np.all(np.abs(self.labels) == 1.0):
            raise DataError("labels must be -1 or +1")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            features=np.ascontiguousarray(self.features[idx]),
            labels=self.labels[idx].copy(),
            sectors=self.sectors[idx].copy(),
        )

    def rows(self, start: int, stop: int) -> "LabeledDataset":
        """Rows start:stop as views of this dataset's arrays, not copies."""
        return LabeledDataset(
            features=self.features[start:stop],
            labels=self.labels[start:stop],
            sectors=self.sectors[start:stop],
        )


def generate_synthetic(
    n: int, d: int, num_sectors: int, seed: int, signal: float = 1.0
) -> LabeledDataset:
    """Seeded financial-style generator.

    Each sector s has a fixed unit-norm mean direction mu_s. A record
    draws sector and label uniformly, then x = y * signal * mu_s + noise
    with standard normal noise, so the label is linearly recoverable and
    the recoverable direction differs per sector.
    """
    if n < 1 or d < 2 or num_sectors < 1:
        raise ConfigurationError(
            f"need n >= 1, d >= 2, num_sectors >= 1; got {n}, {d}, {num_sectors}"
        )
    if signal <= 0:
        raise ConfigurationError(f"signal strength must be positive, got {signal}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_sectors, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    sectors = rng.integers(0, num_sectors, size=n)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    features = labels[:, None] * (signal * means[sectors])
    features += rng.standard_normal((n, d))
    return LabeledDataset(
        features=np.ascontiguousarray(features),
        labels=labels,
        sectors=sectors.astype(np.int64),
    )


def _feature_header(d: int) -> list[str]:
    return [f"feature_{j}" for j in range(d)]


def load_csv(path) -> LabeledDataset:
    """Read a dataset CSV; row order is preserved as temporal order.

    Expected header: feature_0..feature_{d-1},label[,sector]. The label
    field must be exactly -1 or 1; sector defaults to 0 when absent.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        has_sector = header and header[-1] == "sector"
        ncols = len(header) - (2 if has_sector else 1)
        if ncols < 1 or header[: ncols + 1] != _feature_header(ncols) + ["label"]:
            raise DataError(
                f"{path}: header must be feature_0..feature_{{d-1}},label[,sector]"
            )
        feats, labels, sectors = [], [], []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {rownum} has {len(row)} cells, "
                                f"expected {len(header)}")
            try:
                values = [float(cell) for cell in row[:ncols]]
            except ValueError:
                raise DataError(f"{path}: row {rownum} has a non-numeric cell") from None
            if not all(np.isfinite(v) for v in values):
                raise DataError(f"{path}: row {rownum} has a non-finite cell")
            label_field = row[ncols].strip()
            if label_field not in ("-1", "1"):
                raise DataError(
                    f"{path}: row {rownum} label must be -1 or 1, got {label_field!r}"
                )
            try:
                sector = int(row[ncols + 1]) if has_sector else 0
            except ValueError:
                raise DataError(
                    f"{path}: row {rownum} sector must be an integer, "
                    f"got {row[ncols + 1]!r}"
                ) from None
            feats.append(values)
            labels.append(float(label_field))
            sectors.append(sector)
    if not feats:
        raise DataError(f"{path}: no data rows")
    return LabeledDataset(
        features=np.ascontiguousarray(feats, dtype=np.float64),
        labels=np.asarray(labels),
        sectors=np.asarray(sectors, dtype=np.int64),
    )


def write_csv(data: LabeledDataset, path) -> None:
    """Write a dataset CSV with floats at 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_feature_header(data.dim) + ["label", "sector"])
        for i in range(len(data)):
            row = [format(v, ".17g") for v in data.features[i]]
            row.append(str(int(data.labels[i])))
            row.append(str(int(data.sectors[i])))
            writer.writerow(row)


def split_point(n: int, fraction: float) -> int:
    """Leading records that train: floor(fraction*n), leaving both sides non-empty."""
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"train fraction must lie in (0, 1), got {fraction}")
    cut = int(np.floor(fraction * n))
    if cut < 1 or cut >= n:
        raise ConfigurationError(
            f"split of {n} records at fraction {fraction} leaves an empty side"
        )
    return cut


def temporal_split(
    data: LabeledDataset, fraction: float
) -> tuple[LabeledDataset, LabeledDataset]:
    """(train, test): the first floor(fraction*n) records train, the rest
    test; no shuffling."""
    n = len(data)
    cut = split_point(n, fraction)
    return data.subset(np.arange(cut)), data.subset(np.arange(cut, n))
