"""Synthetic dataset generation, CSV ingestion, and temporal splitting.

Records are temporally ordered: index position is time. Labels use the
{-1, +1} sign convention throughout; no 0/1 coercion happens anywhere.
Each record carries a small integer sector tag used by the partitioner,
and the synthetic generator ties the feature distribution to that tag so
sector-specialized clients see genuinely different feature dynamics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class LabeledDataset:
    """Ordered feature/label/sector arrays; row order is temporal. It
    checks nothing: ``load_csv`` checks outside data row by row, and
    ``generate_synthetic`` makes valid rows by construction."""

    features: np.ndarray  # (n, d) float64, C-contiguous
    labels: np.ndarray  # (n,) float64, values in {-1, +1}
    sectors: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.sectors[idx])

    def rows(self, start: int, stop: int) -> "LabeledDataset":
        """Rows start:stop as views of this dataset's arrays, not copies."""
        return LabeledDataset(
            self.features[start:stop], self.labels[start:stop], self.sectors[start:stop])


def generate_synthetic(
    n: int, d: int, num_sectors: int, seed: int, signal: float = 1.0
) -> LabeledDataset:
    """Seeded financial-style generator.

    Each sector s has a fixed unit-norm mean direction mu_s. A record
    draws sector and label uniformly, then x = y * signal * mu_s + noise
    with standard normal noise, so the label is linearly recoverable and
    the recoverable direction differs per sector.
    """
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_sectors, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    sectors = rng.integers(0, num_sectors, size=n)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    shift = signal * means[sectors]
    shift *= labels[:, None]
    # noise + shift equals shift + noise bit for bit, and adding in place
    # into the noise spares one (n, d) temporary
    features = rng.standard_normal((n, d))
    features += shift
    return LabeledDataset(
        features=np.ascontiguousarray(features),
        labels=labels,
        sectors=sectors.astype(np.int64),
    )


def _feature_header(d: int) -> list[str]:
    return [f"feature_{j}" for j in range(d)]


def load_csv(path) -> LabeledDataset:
    """Read a dataset CSV; row order is preserved as temporal order.

    Expected header: feature_0..feature_{d-1},label[,sector]. This is
    the only check of outside data: each row must have the header's cell
    count, finite numeric features, a label of exactly -1 or 1, and an
    int64 sector (0 when absent). A UTF-8 byte-order mark before the
    header is skipped. The first bad row, and a file that cannot be opened
    or decoded, is a DataError naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            feats, labels, sectors = _read_records(path, csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"{path}: cannot read: {reason}") from None
    if not feats:
        raise DataError(f"{path}: no data rows")
    return LabeledDataset(
        features=np.ascontiguousarray(feats, dtype=np.float64),
        labels=np.asarray(labels),
        sectors=np.asarray(sectors, dtype=np.int64),
    )


def _read_records(path, reader):
    """Header check, then each row's features, label and sector as lists."""
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
            values = list(map(float, row[:ncols]))
        except ValueError:
            raise DataError(f"{path}: row {rownum} has a non-numeric cell") from None
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}: row {rownum} has a non-finite cell")
        label_field = row[ncols].strip()
        if label_field not in ("-1", "1"):
            raise DataError(
                f"{path}: row {rownum} label must be -1 or 1, got {label_field!r}"
            )
        try:
            sector = int(row[ncols + 1]) if has_sector else 0
            if not -2**63 <= sector < 2**63:  # fits the int64 sectors array
                raise ValueError
        except ValueError:
            raise DataError(
                f"{path}: row {rownum} sector must be an integer, "
                f"got {row[ncols + 1]!r}"
            ) from None
        feats.append(values)
        labels.append(float(label_field))
        sectors.append(sector)
    return feats, labels, sectors


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


def split_points(sizes, fraction: float) -> np.ndarray:
    """Leading records that train, per client: floor(fraction*n) of its n
    records. A cut that leaves a side empty, as any fraction outside
    (0, 1) does, is a ConfigurationError naming the first such client."""
    sizes = np.asarray(sizes, dtype=np.int64)
    cuts = np.floor(fraction * sizes)
    bad = np.flatnonzero(~((1 <= cuts) & (cuts < sizes)))  # a NaN cut is bad too
    if bad.size:
        k = int(bad[0])
        raise ConfigurationError(f"client {k}: split of {sizes[k]} records at "
                                 f"fraction {fraction} leaves an empty side")
    return cuts.astype(np.int64)


def temporal_split(
    data: LabeledDataset, fraction: float
) -> tuple[LabeledDataset, LabeledDataset]:
    """(train, test): the first floor(fraction*n) records train, the rest
    test; no shuffling."""
    n = len(data)
    cut = int(split_points([n], fraction)[0])
    return data.subset(np.arange(cut)), data.subset(np.arange(cut, n))
