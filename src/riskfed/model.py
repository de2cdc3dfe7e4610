"""Weights of the linear model: one vector of length d+1, bias last.

Storing the bias as the last coordinate lets regularization and
curvature formulas treat every coordinate uniformly; the score of x is
<w[:d], x> + w[d] (``_kernels.linear_scores``).
"""

from __future__ import annotations

import numpy as np

INIT_SCALE = 0.01


def init_weights(d: int, seed: int) -> np.ndarray:
    """Seeded uniform initialization in [-0.01, 0.01], length d+1."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=d + 1)
