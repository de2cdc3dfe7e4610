"""Round orchestration: participation, dropout, client work, aggregation.

One experiment is fully determined by its configuration, including every
random stream: data generation, partitioning, weight initialization, and
the per-round participation and dropout draws all derive from the single
experiment seed through fixed stream tags. Per-client dropout draws are
seeded by (seed, round, client). Clients train in one serial loop on one
pinned OpenBLAS thread, so no thread count of the host changes an outcome.

Clients live in one ``ClientStore``. Set-up draws or loads every record's
label and sector, partitions them, and only then writes the features,
each straight to its row of the store, so a synthetic run never holds
its features in record order. Each round starts from the store's
evaluation at the broadcast weights and ends with the one evaluation at
the new weights, which gives the round's train loss and starts the next
round. All algorithms share that round; only the step from the survivors
to the new weights differs: the curvature step of fral_cse, or the
averaging step of fedprox, of which fedavg is the case mu = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _blas, _kernels, sensitivity
from ._pcg import first_uniforms
from .data import generate_synthetic, load_csv, split_points, synthetic_records
# temporal_split stays a name here: perfbench/child.py wraps it by this name
from .data import temporal_split  # noqa: F401
from .errors import ConfigurationError, ExperimentError, NumericalError
from .metrics import RoundRecord, accuracy
from .model import init_weights
from .partition import PartitionPlan, exdir_partition
from .store import ClientStore, TrainPass

ALGORITHMS = ("fral_cse", "fedavg", "fedprox")

# stream tags keep derived generators disjoint
_DATA_STREAM = 1
_PARTITION_STREAM = 2
_INIT_STREAM = 3
_PARTICIPATION_STREAM = 4
_DROPOUT_STREAM = 5


def _child_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


# config-file key -> (ExperimentConfig attribute, parser, valid, expected):
# the one statement of each key's range, checked by validate in this order
CONFIG_SCHEMA = {
    "algorithm": ("algorithm", str, lambda v: v in ALGORITHMS, f"one of {ALGORITHMS}"),
    "clients": ("clients", int, lambda v: v >= 1, ">= 1"),
    "samples_per_client": ("samples_per_client", int, lambda v: v >= 1, ">= 1"),
    "rounds": ("rounds", int, lambda v: v >= 0, ">= 0"),
    "seed": ("seed", int, lambda v: v >= 0, ">= 0"),
    "d": ("d", int, lambda v: v >= 2, ">= 2"),
    "num_sectors": ("num_sectors", int, lambda v: v >= 1, ">= 1"),
    "signal": ("signal", float, lambda v: v > 0, "> 0"),
    "data_csv": ("data_csv", str, lambda v: True, "a path or empty"),
    "train_fraction": ("train_fraction", float, lambda v: 0 < v < 1, "in (0, 1)"),
    "C": ("labels_per_client", int, lambda v: v >= 1, ">= 1"),
    "alpha": ("dirichlet_alpha", float, lambda v: v > 0, "> 0"),
    "beta": ("beta", float, lambda v: 0 < v < 1, "in (0, 1)"),
    "c": ("c", float, lambda v: v >= 0, ">= 0"),
    "epsilon": ("epsilon", float, lambda v: v >= 0, ">= 0"),
    "participation_rate": ("participation_rate", float, lambda v: 0 < v <= 1,
                           "in (0, 1]"),
    "dropout_rate": ("dropout_rate", float, lambda v: 0 <= v < 1, "in [0, 1)"),
    "local_epochs": ("local_epochs", int, lambda v: v >= 0, ">= 0"),
    "local_lr": ("local_lr", float, lambda v: v > 0, "> 0"),
    "mu": ("mu", float, lambda v: v >= 0, ">= 0"),
}


# keys that only shape synthetic data: with data_csv set they change nothing,
# so their ranges are not checked
_SYNTHETIC_KEYS = ("d", "num_sectors", "signal")


@dataclass
class ExperimentConfig:
    """All knobs of one experiment; defaults resolve in __post_init__."""

    algorithm: str
    clients: int
    samples_per_client: int
    rounds: int
    seed: int
    d: int = 130
    num_sectors: int | None = None
    signal: float = 1.0
    data_csv: str = ""
    train_fraction: float = 0.8
    labels_per_client: int = 1
    dirichlet_alpha: float = 1.0
    beta: float = 0.8
    c: float = 1.0
    epsilon: float = sensitivity.DEFAULT_EPSILON
    participation_rate: float = 1.0
    dropout_rate: float = 0.0
    local_epochs: int | None = None
    local_lr: float = 0.05
    mu: float = 0.0

    def __post_init__(self):
        if self.num_sectors is None:
            self.num_sectors = min(self.clients, 5)
        if self.local_epochs is None:
            self.local_epochs = 0 if self.algorithm == "fral_cse" else 1

    def validate(self) -> None:
        """Check each key against CONFIG_SCHEMA (but not the synthetic
        data's keys when data_csv is set), then the rules that join two
        keys, then that every float is finite. The first failure is
        raised, its message starting with the key's name."""
        for key, (attr, _, valid, expected) in CONFIG_SCHEMA.items():
            value = getattr(self, attr)
            if self.data_csv and key in _SYNTHETIC_KEYS:
                continue
            if not valid(value):
                raise ConfigurationError(
                    f"{key} = {value!r} out of range, expected {expected}")
        if self.algorithm == "fral_cse" and self.local_epochs != 0:
            raise ConfigurationError(
                f"local_epochs = {self.local_epochs!r} must be 0 for fral_cse: "
                f"its central step uses no local training"
            )
        if self.mu != 0.0 and self.algorithm != "fedprox":
            raise ConfigurationError("mu applies to the fedprox algorithm only")
        for key, (attr, cast, _, _) in CONFIG_SCHEMA.items():
            value = getattr(self, attr)
            if cast is float and not math.isfinite(value):
                raise ConfigurationError(f"{key} = {value!r} is not finite")


@dataclass
class ExperimentResult:
    """Everything a run produces beyond the metrics rows."""

    records: list
    initial_weights: np.ndarray
    final_weights: np.ndarray
    plan: PartitionPlan


def sample_participants(
    num_clients: int, rate: float, round_index: int, seed: int
) -> np.ndarray:
    """Uniformly draw max(1, floor(rate * K)) distinct client ids, sorted."""
    count = max(1, int(np.floor(rate * num_clients)))
    rng = np.random.default_rng([seed, round_index, _PARTICIPATION_STREAM])
    return np.sort(rng.choice(num_clients, size=count, replace=False))


def apply_dropout(
    participants: np.ndarray, rate: float, round_index: int, seed: int
) -> np.ndarray:
    """Drop each participant independently with probability rate.

    Participant cid survives when the first uniform of
    ``np.random.default_rng([seed, round_index, 5, cid])`` is at least
    rate; all participants are drawn in one vectorized pass. Every
    uniform is at least 0, so at rate 0 nothing is drawn.
    """
    participants = np.asarray(participants, dtype=np.int64)
    if rate == 0:
        return np.sort(participants)
    draws = first_uniforms([seed, round_index, _DROPOUT_STREAM], participants)
    return np.sort(participants[draws >= rate])


def _fral_step(state: TrainPass, store: ClientStore, config, survivors):
    """S and g from the survivors' tail-active rows, then the damped
    second-order central update."""
    rows = state.tail_rows(survivors)
    s, g = sensitivity.tail_system(
        state.w, store.train.features[rows], store.train.labels[rows],
        int(store.train_sizes[survivors].sum()), config.c,
    )
    return sensitivity.central_update(state.w, s, g, config.epsilon)


def _averaging_step(state: TrainPass, store: ClientStore, config, survivors):
    """Local full-batch descent with the proximal pull mu*(w - w_t), then
    the size-weighted mean; fedavg is this step at mu = 0. Each survivor
    trains on a slice of the store's train rows."""
    w = state.w
    features, labels = store.train.features, store.train.labels
    total_n = int(store.train_sizes[survivors].sum())
    w_next = np.zeros_like(w)
    for cid in survivors.tolist():
        a, n = int(store.train_starts[cid]), int(store.train_sizes[cid])
        local_w = _kernels.local_sgd(
            features[a:a + n], labels[a:a + n], w, w, config.beta, config.c,
            config.local_epochs, config.local_lr, config.mu,
        )
        w_next += (n / total_n) * local_w
    return w_next


def _round(state: TrainPass, store: ClientStore, config, round_index, step):
    """One round from the evaluation at the broadcast weights.

    The survivors' step gives w_next, whose one evaluation yields this
    round's train loss and starts the next round; a round without
    survivors keeps its weights. Raises NumericalError when the weights,
    the train loss or the step norm is not finite.
    """
    participants = sample_participants(config.clients, config.participation_rate,
                                       round_index, config.seed)
    survivors = apply_dropout(participants, config.dropout_rate, round_index,
                              config.seed)
    after = state
    if survivors.size:
        w_next = step(state, store, config, survivors)
        if not np.all(np.isfinite(w_next)):
            raise NumericalError("weights are not finite after the update")
        after = store.evaluate(w_next, config.beta, config.c)
    record = RoundRecord(
        round=round_index,
        global_train_loss=after.train_loss,
        test_accuracy=accuracy(after.w, store.test),
        participants=int(participants.size),
        completed=int(survivors.size),
        step_norm=float(np.linalg.norm(after.w - state.w)),
    )
    for name, value in (("train loss", record.global_train_loss),
                        ("step norm", record.step_norm)):
        if not np.isfinite(value):
            raise NumericalError(f"{name} is not finite ({value})")
    return after, record


# perfbench/child.py wraps each entry as a round span, so the table stays
_ROUND_FN = {
    "fral_cse": partial(_round, step=_fral_step),
    "fedavg": partial(_round, step=_averaging_step),
    "fedprox": partial(_round, step=_averaging_step),
}


def _records(config: ExperimentConfig, synthetic):
    """The run's records: the dataset CSV as loaded, or synthetic(...) on
    the config's generator arguments."""
    if config.data_csv:
        return load_csv(config.data_csv)
    return synthetic(
        n=config.clients * config.samples_per_client,
        d=config.d,
        num_sectors=config.num_sectors,
        seed=_child_seed(config.seed, _DATA_STREAM),
        signal=config.signal,
    )


def _plan(config: ExperimentConfig, sectors) -> PartitionPlan:
    return exdir_partition(
        sectors,
        num_clients=config.clients,
        labels_per_client=config.labels_per_client,
        alpha=config.dirichlet_alpha,
        seed=_child_seed(config.seed, _PARTITION_STREAM),
    )


def build_data_and_plan(config: ExperimentConfig):
    """The record-ordered dataset, features in memory, and its partition
    plan; a run builds its store without this copy (``build_clients``)."""
    data = _records(config, generate_synthetic)
    return data, _plan(config, data.sectors)


def build_clients(config: ExperimentConfig):
    """(None, plan, store): draw or load every record's label and sector,
    partition them, then write the features once, straight into the
    store of per-client temporal splits; synthetic features are streamed
    and never held in record order. The store iterates over the clients
    in id order. The first slot holds nothing; perfbench/child.py unpacks
    three."""
    records = _records(config, synthetic_records)
    plan = _plan(config, records.sectors)
    cuts = split_points(plan.sizes(), config.train_fraction)
    return None, plan, ClientStore.build(records, plan, cuts)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all rounds on one pinned BLAS thread; deterministic per configuration."""
    config.validate()
    _blas.pin_one_thread()
    _, plan, store = build_clients(config)
    w0 = init_weights(store.train.dim, _child_seed(config.seed, _INIT_STREAM))
    state = store.evaluate(w0.copy(), config.beta, config.c)
    round_fn = _ROUND_FN[config.algorithm]
    records = []
    # a diverging run overflows before the per-round guard names its round;
    # the guard's NumericalError is the report, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for round_index in range(1, config.rounds + 1):
            try:
                state, record = round_fn(state, store, config, round_index)
            except ExperimentError as exc:
                raise type(exc)(f"round {round_index}: {exc}") from exc
            records.append(record)
    return ExperimentResult(records=records, initial_weights=w0,
                            final_weights=state.w, plan=plan)
