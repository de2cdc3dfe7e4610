"""Gradient aggregation over per-client reports.

The local objective is 0.5*||w||^2 + (c/n) * sum_i max(0, R_i - q) with
q the level-beta threshold of the current risks. ``sensitivity.client_report``
gives its loss and gradient at fixed weights, with q held constant: no
dq/dw term, and samples count only while strictly above q. A run sums the
survivors' rows in ``sensitivity.tail_system`` instead; ``aggregate_gradient``
stays as the per-client reference for that sum, which perfbench/child.py
wraps by name.
"""

from __future__ import annotations

import numpy as np

from .sensitivity import ClientReport, check_reports


def aggregate_gradient(reports: list[ClientReport], total_n: int) -> np.ndarray:
    """Sample-count-weighted sum of client gradients, weights n_k/total_n."""
    check_reports(reports, total_n)
    g = np.zeros_like(reports[0].gradient)
    for r in reports:
        g += (r.n_k / total_n) * r.gradient
    return g
