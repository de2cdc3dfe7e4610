"""Synthetic dataset generation, CSV ingestion, and temporal splitting.

Records are temporally ordered: index position is time. Labels use the
{-1, +1} sign convention throughout; no 0/1 coercion happens anywhere.
Each record carries a small integer sector tag used by the partitioner,
and the synthetic generator ties the feature distribution to that tag so
sector-specialized clients see genuinely different feature dynamics.

A run's records are a loaded ``LabeledDataset`` or the generator's
``SyntheticRecords``. Both give every record's label and sector up
front, and both write the features through ``write_features(out,
dest)``, which puts record r's row at ``out[dest[r]]``: a loaded CSV in
one scatter, synthetic records as a stream of fixed-size blocks. So the
client store is filled in its own row order without a record-ordered
copy of the synthetic features ever existing.
"""

from __future__ import annotations

import copy
import csv
import math
import string
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class LabeledDataset:
    """Ordered feature/label/sector arrays; row order is temporal. It
    checks nothing: ``load_csv`` checks every row of outside data, and
    ``generate_synthetic`` makes valid rows by construction."""

    features: np.ndarray  # (n, d) float64, C-contiguous
    labels: np.ndarray  # (n,) float64, values in {-1, +1}
    sectors: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def rows(self, start: int, stop: int) -> "LabeledDataset":
        """Rows start:stop as views of this dataset's arrays, not copies."""
        return LabeledDataset(
            self.features[start:stop], self.labels[start:stop], self.sectors[start:stop])

    def write_features(self, out: np.ndarray, dest: np.ndarray) -> None:
        """Write record r's features into out[dest[r]], in one scatter."""
        out[dest] = self.features


#: Records per block of the synthetic feature stream, whose only
#: temporaries are a few (STREAM_ROWS, d) arrays.
STREAM_ROWS = 1024


@dataclass(frozen=True)
class SyntheticRecords:
    """The synthetic records before their features are drawn: each
    record's label and sector, the sector means, and the generator where
    the feature stream starts. ``write_features`` draws the stream."""

    labels: np.ndarray  # (n,) float64, values in {-1, +1}
    sectors: np.ndarray  # (n,) int64
    means: np.ndarray  # (num_sectors, d) unit-norm sector directions
    signal: float
    rng: np.random.Generator  # positioned at the first feature draw

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def write_features(self, out: np.ndarray, dest: np.ndarray) -> None:
        """Write record r's features into out[dest[r]], drawn STREAM_ROWS
        records at a time from a copy of the generator, so every call
        writes the same rows. standard_normal drawn in blocks gives the
        draws of one whole (n, d) call, bit for bit."""
        rng = copy.deepcopy(self.rng)
        n, d = self.labels.size, self.dim
        for a in range(0, n, STREAM_ROWS):
            b = min(a + STREAM_ROWS, n)
            block = rng.standard_normal((b - a, d))
            shift = self.signal * self.means[self.sectors[a:b]]
            shift *= self.labels[a:b, None]
            # noise + shift equals shift + noise bit for bit
            block += shift
            out[dest[a:b]] = block

    def dataset(self) -> LabeledDataset:
        """These records in record order, features in memory: the stream
        written with record r at row r."""
        n = self.labels.size
        features = np.empty((n, self.dim))
        self.write_features(features, np.arange(n))
        return LabeledDataset(features=features, labels=self.labels,
                              sectors=self.sectors)


def synthetic_records(
    n: int, d: int, num_sectors: int, seed: int, signal: float = 1.0
) -> SyntheticRecords:
    """Seeded financial-style generator, first phase.

    Each sector s has a fixed unit-norm mean direction mu_s. A record
    draws sector and label uniformly, then x = y * signal * mu_s + noise
    with standard normal noise, so the label is linearly recoverable and
    the recoverable direction differs per sector. This phase draws the
    means, sectors and labels; the noise is drawn as the features stream.
    """
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_sectors, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    sectors = rng.integers(0, num_sectors, size=n)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return SyntheticRecords(labels=labels, sectors=sectors.astype(np.int64),
                            means=means, signal=signal, rng=rng)


def generate_synthetic(
    n: int, d: int, num_sectors: int, seed: int, signal: float = 1.0
) -> LabeledDataset:
    """The synthetic records in record order, features in memory: both
    phases of ``synthetic_records``."""
    return synthetic_records(n, d, num_sectors, seed, signal).dataset()


def _feature_header(d: int) -> list[str]:
    return [f"feature_{j}" for j in range(d)]


def load_csv(path) -> LabeledDataset:
    """Read a dataset CSV; row order is preserved as temporal order.

    Expected header: feature_0..feature_{d-1},label[,sector]. This is
    the only check of outside data: each row must have the header's cell
    count, finite numeric features, a label of exactly -1 or 1, and an
    int64 sector (0 when absent). A UTF-8 byte-order mark before the
    header is skipped. The body is parsed in one ``np.loadtxt`` pass; a
    file that pass declines is read row by row, and that loop names the
    first bad row, or a file that cannot be opened or decoded, in a
    DataError naming the file.
    """
    data = _load_whole(path)
    if data is not None:
        return data
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


# The only bytes _load_whole accepts after the header. In them csv and
# loadtxt split lines (at \r, \n or \r\n) and cells alike, and loadtxt
# parses a number as float() and int() do; quotes, spaces, NUL, letters
# other than the exponent and anything outside ASCII are left to the loop.
_WHOLE_BODY_BYTES = b"0123456789+-.eE,\r\n"


def _load_whole(path) -> LabeledDataset | None:
    """The file parsed in one np.loadtxt call, or None where the row loop
    could read it otherwise: a bad or unusual file, which the loop then
    reads, rejects or names the first bad row of."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, \
                warnings.catch_warnings():
            # loadtxt warns on a body with no rows, and older numpy read an
            # int64 cell such as "2.5" as 2 with a DeprecationWarning
            warnings.simplefilter("error")
            # a quoted header cell that runs on past this line ends in a
            # body line, which holds a quote and so is declined
            shape = _header_shape(next(csv.reader([fh.readline()])))
            if shape is None:
                return None
            d, has_sector = shape
            # a label wider than "-1" stays wider than 2 characters in "U3"
            fields = [("features", np.float64, (d,)), ("label", "U3")]
            fields += [("sector", np.int64)] * has_sector
            table = np.loadtxt(_whole_body_lines(fh), dtype=fields, delimiter=",",
                               comments=None, ndmin=1)
    except (OSError, UnicodeDecodeError, csv.Error, ValueError, Warning):
        return None
    features, labels = table["features"], table["label"]
    if not (np.isfinite(features).all() and np.isin(labels, ("-1", "1")).all()):
        return None
    return LabeledDataset(
        features=np.ascontiguousarray(features),
        labels=np.where(labels == "1", 1.0, -1.0),
        sectors=(np.ascontiguousarray(table["sector"]) if has_sector
                 else np.zeros(len(table), dtype=np.int64)),
    )


def _whole_body_lines(lines):
    """The body lines as read, raising ValueError at the first one that
    _load_whole leaves to the row loop."""
    limit = csv.field_size_limit()
    for line in lines:
        # loadtxt skips a blank line, which the loop rejects, and has no cap
        # on a cell, where csv has one
        if line[0] in "\r\n" or len(line) > limit \
                or line.encode().translate(None, _WHOLE_BODY_BYTES):
            raise ValueError("left to the row loop")
        yield line


def _header_shape(header) -> tuple[int, bool] | None:
    """(d, whether a sector column follows the label) for a valid header row."""
    header = [_stripped(h) for h in header]
    has_sector = bool(header) and header[-1] == "sector"
    d = len(header) - (2 if has_sector else 1)
    if d < 1 or header != _feature_header(d) + ["label"] + ["sector"] * has_sector:
        return None
    return d, has_sector


def _stripped(cell: str) -> str:
    """A label or header cell read as float() reads a number cell: only
    ASCII whitespace is stripped, so a non-ASCII space stays and fails."""
    return cell.strip(string.whitespace)


def _bad_number(cell: str) -> bool:
    """A cell float() or int() would read but the CSV grammar does not
    allow: digits are ASCII, with no _ between them."""
    return "_" in cell or not cell.isascii()


def _read_records(path, reader):
    """Header check, then each row's features, label and sector as lists."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, header row required") from None
    shape = _header_shape(header)
    if shape is None:
        raise DataError(
            f"{path}: header must be feature_0..feature_{{d-1}},label[,sector]"
        )
    ncols, has_sector = shape
    feats, labels, sectors = [], [], []
    for rownum, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {rownum} has {len(row)} cells, "
                            f"expected {len(header)}")
        try:
            if _bad_number("".join(row[:ncols])):
                raise ValueError
            values = list(map(float, row[:ncols]))
        except ValueError:
            raise DataError(f"{path}: row {rownum} has a non-numeric cell") from None
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}: row {rownum} has a non-finite cell")
        label_field = _stripped(row[ncols])
        if label_field not in ("-1", "1"):
            raise DataError(
                f"{path}: row {rownum} label must be -1 or 1, got {label_field!r}"
            )
        try:
            if has_sector and _bad_number(row[ncols + 1]):
                raise ValueError
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
    test; no shuffling. Both are row views of data, not copies."""
    n = len(data)
    cut = int(split_points([n], fraction)[0])
    return data.rows(0, cut), data.rows(cut, n)
