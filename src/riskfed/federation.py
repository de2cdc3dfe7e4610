"""Round orchestration: participation, dropout, client work, aggregation.

One experiment is fully determined by its configuration, including every
random stream: data generation, partitioning, weight initialization, and
the per-round participation and dropout draws all derive from the single
experiment seed through fixed stream tags. Per-client dropout draws are
seeded by (seed, round, client). Clients train in one serial loop, and
every BLAS call runs on one pinned OpenBLAS thread, so no thread count of
the host changes an outcome. The evaluation runs on the caller's thread
alone. Only fral_cse's central step uses ``_blas.both``'s helper
thread, which forms X^T y and the column sums beside the tail's Gram
product; each is the call a serial pass makes, so no arithmetic changes.

Clients live in one ``ClientStore``. Set-up draws or loads every record's
label and sector, partitions them, and only then writes the features,
each straight to its row of the store, so a synthetic run never holds
its features in record order. Each round starts from the store's
evaluation at the broadcast weights and ends with the one evaluation at
the new weights, which gives the round's train loss and starts the next
round; its tails also give the next round's first local epoch. All
algorithms share that round; only the step from the survivors to the new
weights differs: the curvature step of fral_cse, or the averaging step
of fedprox, of which fedavg is the case mu = 0.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import get_args, get_type_hints

import numpy as np

from . import _blas, _kernels, sensitivity
from ._pcg import first_uniforms
from .data import load_csv, split_points, synthetic_records
# generate_synthetic and temporal_split stay names here: perfbench/child.py
# wraps them by these names
from .data import generate_synthetic, temporal_split  # noqa: F401
from .errors import ConfigurationError, ExperimentError, NumericalError
from .metrics import RoundRecord
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


def _key(valid, expected, *, default=MISSING, name=None, synthetic=False):
    """A config key's field: its range (valid, and its error's expected text),
    its name in a config file if not the field's, and whether only synthetic
    data reads it, so that with data_csv set its range is not checked."""
    return field(default=default, metadata={
        "valid": valid, "expected": expected, "name": name, "synthetic": synthetic})


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment, a field per config key: its type is the
    annotation, its range in the metadata. A config is checked as it is
    built, so a built one is valid; None defaults resolve from other keys."""

    algorithm: str = _key(lambda v: v in ALGORITHMS, f"one of {ALGORITHMS}")
    clients: int = _key(lambda v: v >= 1, ">= 1")
    samples_per_client: int = _key(lambda v: v >= 1, ">= 1")
    rounds: int = _key(lambda v: v >= 0, ">= 0")
    seed: int = _key(lambda v: v >= 0, ">= 0")
    d: int = _key(lambda v: v >= 2, ">= 2", default=130, synthetic=True)
    num_sectors: int | None = _key(lambda v: v >= 1, ">= 1", default=None, synthetic=True)
    signal: float = _key(lambda v: v > 0, "> 0", default=1.0, synthetic=True)
    data_csv: str = _key(lambda v: True, "a path or empty", default="")
    train_fraction: float = _key(lambda v: 0 < v < 1, "in (0, 1)", default=0.8)
    labels_per_client: int = _key(lambda v: v >= 1, ">= 1", default=1, name="C")
    dirichlet_alpha: float = _key(lambda v: v > 0, "> 0", default=1.0, name="alpha")
    beta: float = _key(lambda v: 0 < v < 1, "in (0, 1)", default=0.8)
    c: float = _key(lambda v: v >= 0, ">= 0", default=1.0)
    # S = I + (c/n) J^T J over the survivors is already at least I, so the
    # damping added before the solve is only a numerical guard
    epsilon: float = _key(lambda v: v >= 0, ">= 0", default=1e-3)
    participation_rate: float = _key(lambda v: 0 < v <= 1, "in (0, 1]", default=1.0)
    dropout_rate: float = _key(lambda v: 0 <= v < 1, "in [0, 1)", default=0.0)
    local_epochs: int | None = _key(lambda v: v >= 0, ">= 0", default=None)
    local_lr: float = _key(lambda v: v > 0, "> 0", default=0.05)
    mu: float = _key(lambda v: v >= 0, ">= 0", default=0.0)

    def __post_init__(self):
        """Resolve the None defaults; check each key in schema order, range
        (not a synthetic key's with data_csv set) then a float's finiteness,
        then the joining rules; raise the first failure, led by its key."""
        if self.num_sectors is None:
            object.__setattr__(self, "num_sectors", min(self.clients, 5))
        if self.local_epochs is None:
            object.__setattr__(self, "local_epochs",
                               0 if self.algorithm == "fral_cse" else 1)
        for key, f in CONFIG_SCHEMA.items():
            value = getattr(self, f.name)
            if not (self.data_csv and f.metadata["synthetic"]
                    or f.metadata["valid"](value)):
                raise ConfigurationError(
                    f"{key} = {value!r} out of range, expected {f.metadata['expected']}")
            if VALUE_TYPES[f.name] is float and not math.isfinite(value):
                raise ConfigurationError(f"{key} = {value!r} is not finite")
        if self.algorithm == "fral_cse" and self.local_epochs != 0:
            raise ConfigurationError(
                f"local_epochs = {self.local_epochs!r} must be 0 for fral_cse: "
                f"its central step uses no local training"
            )
        if self.mu != 0.0 and self.algorithm != "fedprox":
            raise ConfigurationError("mu applies to the fedprox algorithm only")


# config-file key -> its ExperimentConfig field, in declaration order; and
# field name -> the type a value is read as: the field's annotation, less
# the None of a default that __post_init__ resolves
CONFIG_SCHEMA = {f.metadata["name"] or f.name: f for f in fields(ExperimentConfig)}
VALUE_TYPES = {name: (get_args(hint) or (hint,))[0]
               for name, hint in get_type_hints(ExperimentConfig).items()}


@dataclass
class ExperimentResult:
    """Everything a run produces beyond the metrics rows."""

    records: list
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

    ``participants`` holds ascending int64 client ids, as
    ``sample_participants`` draws them; the survivors keep that order.
    Participant cid survives when the first uniform of
    ``np.random.default_rng([seed, round_index, 5, cid])`` is at least
    rate; all participants are drawn in one vectorized pass. Every
    uniform is at least 0, so at rate 0 nothing is drawn and
    ``participants`` itself comes back.
    """
    if rate == 0:
        return participants
    draws = first_uniforms([seed, round_index, _DROPOUT_STREAM], participants)
    return participants[draws >= rate]


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
    """Local full-batch descent from w_t with the proximal pull mu*(w - w_t),
    each survivor on its shard of the store's train rows, then the size-weighted
    mean (fedavg is mu = 0), added in survivor order from 0.0; zero epochs keep
    w_t. A survivor's first epoch steps from its slice of the tail-active rows
    of ``state``, shifted to its shard, so no tail array is built per round."""
    w = state.w
    if config.local_epochs == 0:
        return w
    features, labels = store.train.features, store.train.labels
    sizes = store.train_sizes[survivors].tolist()
    total_n = sum(sizes)
    w_next = np.zeros_like(w)
    for a, n, s, m in zip(store.train_starts[survivors].tolist(), sizes,
                          state.active_starts[survivors].tolist(),
                          state.active_counts[survivors].tolist()):
        w_next += (n / total_n) * _kernels.local_sgd(
            features[a:a + n], labels[a:a + n], w, config.mu, config.beta,
            config.c, config.local_epochs, config.local_lr,
            state.active_rows[s:s + m] - a,
        )
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
        test_accuracy=after.test_accuracy,
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


def plan_clients(config: ExperimentConfig):
    """(records, plan, cuts), the one set-up of a run: the dataset CSV as
    loaded, or the synthetic records' labels and sectors with no feature
    drawn yet; their partition; and each client's train cut, by run's
    split check."""
    if config.data_csv:
        records = load_csv(config.data_csv)
    else:
        records = synthetic_records(
            n=config.clients * config.samples_per_client,
            d=config.d,
            num_sectors=config.num_sectors,
            seed=_child_seed(config.seed, _DATA_STREAM),
            signal=config.signal,
        )
    plan = exdir_partition(
        records.sectors,
        num_clients=config.clients,
        labels_per_client=config.labels_per_client,
        alpha=config.dirichlet_alpha,
        seed=_child_seed(config.seed, _PARTITION_STREAM),
    )
    return records, plan, split_points(plan.sizes(), config.train_fraction)


def build_data_and_plan(config: ExperimentConfig):
    """The benchmark's record-ordered view of a run's input: the dataset,
    features in memory, and its partition plan, after run's split check.
    A run builds its store without this copy (``build_clients``)."""
    records, plan, _ = plan_clients(config)
    return (records if config.data_csv else records.dataset()), plan


def build_clients(config: ExperimentConfig):
    """(None, plan, store): the set-up of ``plan_clients``, then the
    features written once, straight into the store of per-client
    temporal splits; synthetic features are streamed and never held in
    record order. Iterating the store yields the train shards in id
    order. The first slot holds nothing; perfbench/child.py unpacks three."""
    records, plan, cuts = plan_clients(config)
    return None, plan, ClientStore.build(records, plan, cuts)


def init_weights(d: int, seed: int) -> np.ndarray:
    """Seeded uniform initialization in [-0.01, 0.01], length d+1."""
    return np.random.default_rng(seed).uniform(-0.01, 0.01, size=d + 1)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all rounds, every BLAS call on one pinned thread; fral_cse's
    central step overlaps two whole calls on one helper thread.
    Deterministic per configuration."""
    _blas.pin_one_thread()
    _, plan, store = build_clients(config)
    w0 = init_weights(store.train.dim, _child_seed(config.seed, _INIT_STREAM))
    round_fn = _ROUND_FN[config.algorithm]
    records = []
    # a diverging run overflows before the per-round guard names its round,
    # at the initial weights too; the guard's NumericalError is the report,
    # not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        state = store.evaluate(w0, config.beta, config.c)
        for round_index in range(1, config.rounds + 1):
            try:
                state, record = round_fn(state, store, config, round_index)
            except ExperimentError as exc:
                raise type(exc)(f"round {round_index}: {exc}") from exc
            records.append(record)
    return ExperimentResult(records=records, final_weights=state.w, plan=plan)
