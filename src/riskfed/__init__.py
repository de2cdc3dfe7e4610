"""Deterministic simulator for tail-risk-aware federated learning.

Local objectives penalize per-sample risks above an empirical tail
threshold; the server refines the global model with a damped
second-order step built from aggregated Jacobian Gram matrices.
Reference baselines (fedavg, fedprox) and an experiment harness with
participation and dropout simulation are included.
"""

from .federation import ExperimentConfig, run_experiment

__version__ = "0.1.0"

__all__ = ["ExperimentConfig", "run_experiment", "__version__"]
