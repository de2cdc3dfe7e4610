"""Round metrics: accuracy, per-round records, and CSV persistence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import LabeledDataset


@dataclass(frozen=True)
class RoundRecord:
    """One federation round's observable outcomes."""

    round: int
    global_train_loss: float
    test_accuracy: float
    participants: int
    completed: int
    step_norm: float


def accuracy(w: np.ndarray, data: LabeledDataset) -> float:
    """Fraction of samples with y * score strictly positive; ties count wrong.
    A run's test set is never empty: split_points leaves each client a test row."""
    scores = _kernels.linear_scores(data.features, np.asarray(w, dtype=np.float64))
    return float(np.count_nonzero(data.labels * scores > 0.0)) / len(data)


def write_metrics_csv(records, path) -> None:
    """Deterministic CSV: header plus one row per RoundRecord, in the given
    order, floats at 17 digits."""
    lines = ["round,train_loss,test_accuracy,participants,completed,step_norm"]
    for r in records:
        lines.append(
            f"{r.round},{r.global_train_loss:.17g},{r.test_accuracy:.17g},"
            f"{r.participants},{r.completed},{r.step_norm:.17g}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
