"""Run one ``riskfed run`` in this process, timed and traced from outside.

    python3 perfbench/child.py --config FILE --out DIR --result FILE.json
        [--loss-falls] [--trace 0|1]

``run.py`` starts this script once per measured run, in a fresh process
whose environment pins one BLAS thread. Nothing inside riskfed changes:
the public functions of its modules are replaced by wrappers that
record spans, each a (name, start, end, parent) tuple kept in memory.
With ``--trace 0`` only the round functions and the two calls that say
which clients trained and on what data are wrapped, so the end-to-end
figures carry almost no tracing cost; ``--trace 1`` wraps every layer
in the per-layer table of README.md and dumps the spans at the end, next
to the result (``FILE.spans.jsonl``).

After the run, and after its peak memory is read, the input records
are rebuilt: from the generator for synthetic data, with ``np.loadtxt``
for ``data_csv``. The artifacts are checked against them with
``checks.py``, and one JSON object with the timings, per-layer figures,
check failures and the run's identity is written to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  loads scipy's BLAS before the library scan

from riskfed import _kernels, cli, federation, objective, sensitivity

import checks


class Tracer:
    """In-memory spans around wrapped module functions."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, info)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.round_id = None  # the open round: parent of spans opened on pool threads

    def traced(self, fn, name, info=None, is_round=False):
        """fn wrapped to record a span named name per call.

        info(args, result) may return a tuple of counts kept with the span.
        """

        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self.round_id
            sid = next(self._ids)
            stack.append(sid)
            if is_round:
                self.round_id = sid
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            stack.pop()
            if is_round:
                self.round_id = None
            self.spans.append((sid, parent, name, start, end,
                               info(args, result) if info else None))
            return result

        return wrapper


# (module, attribute, span name, counts kept with the span); wrapped with --trace 1
LAYERS = [
    (cli, "parse_config", "cli.parse_config", None),
    (federation, "generate_synthetic", "data.generate_synthetic", None),
    (federation, "load_csv", "data.load_csv", None),
    (federation, "temporal_split", "data.temporal_split", None),
    (federation, "exdir_partition", "partition.exdir_partition", None),
    (federation, "sample_participants", "federation.sample_participants", None),
    (sensitivity, "client_report", "sensitivity.client_report",
     lambda a, r: (r.n_k, r.active_count, r.gram.nbytes)),
    (sensitivity, "aggregate_sensitivity", "sensitivity.aggregate_sensitivity", None),
    (sensitivity, "central_update", "sensitivity.central_update", None),
    (objective, "aggregate_gradient", "objective.aggregate_gradient", None),
    (_kernels, "local_loss_eval", "kernels.local_loss_eval", None),
    (_kernels, "linear_scores", "kernels.linear_scores", None),
    (_kernels, "local_sgd", "kernels.local_sgd", lambda a, r: (len(a[0]) * a[6],)),
    (cli, "write_partition_csv", "partition.write_partition_csv", None),
    (cli, "write_metrics_csv", "metrics.write_metrics_csv", None),
]


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the round functions and the calls that name the data and the
    survivors; with full, also every layer in LAYERS."""
    table = federation._ROUND_FN  # run_experiment looks the round function up here
    for algorithm, fn in table.items():
        table[algorithm] = tracer.traced(fn, "federation.round", is_round=True)
    federation.build_clients = tracer.traced(
        federation.build_clients, "federation.build_clients",
        lambda a, r: ([len(c.train) for c in r[2]],))
    federation.apply_dropout = tracer.traced(
        federation.apply_dropout, "federation.apply_dropout", lambda a, r: (r.tolist(),))
    for module, attr, name, info in LAYERS if full else ():
        setattr(module, attr, tracer.traced(getattr(module, attr), name, info))


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans, setup_s: float) -> dict:
    """Per-layer totals of one traced run; busy time is summed over threads."""
    busy, calls = defaultdict(float), defaultdict(int)
    children = defaultdict(list)
    for sid, parent, name, start, end, info in spans:
        busy[name] += end - start
        calls[name] += 1
        children[parent].append((start, end))
    reports = [(parent, info) for _, parent, name, _, _, info in spans
               if name == "sensitivity.client_report"]
    rows = sum(n for _, (n, _, _) in reports)
    active = sum(m for _, (_, m, _) in reports)
    gram_by_round = defaultdict(int)
    for parent, (_, _, nbytes) in reports:
        gram_by_round[parent] += nbytes
    rounds = [s for s in spans if s[2] == "federation.round"]
    survivors = sum(len(s[5][0]) for s in spans if s[2] == "federation.apply_dropout")
    return {
        "sensitivity.client_report_s": busy["sensitivity.client_report"],
        "sensitivity.client_report_calls": calls["sensitivity.client_report"],
        "sensitivity.rows_evaluated": rows,
        "sensitivity.active_rows": active,
        "sensitivity.active_fraction": active / rows if rows else 0.0,
        "sensitivity.gram_bytes_peak": max(gram_by_round.values(), default=0),
        "sensitivity.central_update_s": busy["sensitivity.central_update"],
        "sensitivity.central_update_calls": calls["sensitivity.central_update"],
        "sensitivity.aggregate_sensitivity_s": busy["sensitivity.aggregate_sensitivity"],
        "objective.aggregate_gradient_s": busy["objective.aggregate_gradient"],
        "federation.participation_s": (busy["federation.sample_participants"]
                                       + busy["federation.apply_dropout"]),
        "federation.survivors": survivors,
        "kernels.local_loss_eval_s": busy["kernels.local_loss_eval"],
        "kernels.local_loss_eval_calls": calls["kernels.local_loss_eval"],
        "kernels.linear_scores_s": busy["kernels.linear_scores"],
        "kernels.local_sgd_s": busy["kernels.local_sgd"],
        "kernels.local_sgd_calls": calls["kernels.local_sgd"],
        "kernels.local_sgd_row_epochs": sum(
            s[5][0] for s in spans if s[2] == "kernels.local_sgd"),
        "federation.round_s": busy["federation.round"],
        "federation.round_self_s": sum(
            (end - start) - _union_length(children[sid])
            for sid, _, _, start, end, _ in rounds),
        "cli.setup_s": setup_s,
        "cli.parse_config_s": busy["cli.parse_config"],
        "data.generate_synthetic_s": busy["data.generate_synthetic"],
        "data.load_csv_s": busy["data.load_csv"],
        "data.temporal_split_s": busy["data.temporal_split"],
        "data.temporal_split_calls": calls["data.temporal_split"],
        "partition.exdir_partition_s": busy["partition.exdir_partition"],
        "partition.write_partition_csv_s": busy["partition.write_partition_csv"],
        "metrics.write_metrics_csv_s": busy["metrics.write_metrics_csv"],
    }


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def input_records(config) -> tuple[np.ndarray, np.ndarray]:
    """The run's input (features, labels): the CSV read with numpy's own
    parser, or the synthetic records regenerated from the config."""
    if config.data_csv:
        with open(config.data_csv, encoding="utf-8") as fh:
            label = fh.readline().strip().split(",").index("label")
        table = np.loadtxt(config.data_csv, delimiter=",", skiprows=1, ndmin=2)
        return table[:, :label], table[:, label]
    data, _ = federation.build_data_and_plan(config)
    return data.features, data.labels


def identity(resolved_config: Path) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "backend": _kernels.BACKEND,
        "resolved_config_sha256": hashlib.sha256(resolved_config.read_bytes()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--loss-falls", action="store_true",
                        help="require the final train loss below the round-1 loss")
    args = parser.parse_args(argv)

    config = cli.parse_config(args.config)
    tracer = Tracer()
    install(tracer, full=bool(args.trace))
    t0 = time.perf_counter()
    code = cli.main(["run", "--config", args.config, "--out", args.out])
    total_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = list(tracer.spans)  # rebuilding the records below adds spans
    rounds = [s for s in spans if s[2] == "federation.round"]
    if code != 0:
        Path(args.result).write_text(json.dumps({
            "rounds_completed": len(rounds),
            "check_failures": [f"riskfed run exited with code {code}"],
        }), encoding="utf-8")
        return code

    run_dir, = Path(args.out).iterdir()
    (train_sizes,), = [s[5] for s in spans if s[2] == "federation.build_clients"]
    train_sizes = np.asarray(train_sizes)
    epochs = max(1, config.local_epochs)
    round_rows = [int(train_sizes[s[5][0]].sum()) * epochs
                  for s in spans if s[2] == "federation.apply_dropout"]
    setup_s = rounds[0][3] - t0

    features, labels = input_records(config)
    failures = checks.check_run(
        run_dir, features, labels, clients=config.clients, rounds=config.rounds,
        participation_rate=config.participation_rate, beta=config.beta, c=config.c,
        loss_falls=args.loss_falls,
    )
    try:
        final = checks.read_metrics(run_dir / "metrics.csv")[-1].tolist()
    except (OSError, ValueError, IndexError):  # reported by check_run
        final = [None] * 6
    result = {
        "setup_s": setup_s,
        "total_s": total_s,
        "peak_rss_mb": peak_rss_mb,
        "round_s": [end - start for _, _, _, start, end, _ in rounds],
        "round_rows": round_rows,
        "rounds_completed": len(rounds),
        "final_train_loss": final[1],
        "final_test_accuracy": final[2],
        "check_failures": failures,
        "metrics_csv_sha256": hashlib.sha256(
            (run_dir / "metrics.csv").read_bytes()).hexdigest(),
        "identity": identity(run_dir / "resolved_config.txt"),
    }
    if args.trace:
        result["layers"] = layer_metrics(spans, setup_s)
        with open(Path(args.result).with_suffix(".spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for sid, parent, name, start, end, _ in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0}) + "\n")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
