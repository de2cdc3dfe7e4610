"""Hash the artifact set: the files a change must leave byte-identical.

    PYTHONPATH=<checkout>/src python tools/artifact_set.py > hashes.txt

Runs ``python -m riskfed.cli`` once per config below, each in a fresh
process at one BLAS thread, on the riskfed that PYTHONPATH finds, and
prints one ``name file sha256`` line per artifact: ``run``'s
metrics.csv, weights.csv, partition.csv and resolved_config.txt for the
twelve RUNS, and ``partition-report``'s standard output and partition.csv
for the four REPORTS, 56 lines in all. To compare two checkouts, run this
script once with each one's ``src`` on PYTHONPATH and diff the two outputs.

The wide_fral, many_clients and fedprox_csv configs and the fedprox_csv
records are the benchmark's own, imported from perfbench/run.py, at
seed 1. The records are written to ``.perfbench/cache`` of the checkout
holding this script, as the benchmark writes them. fedprox_csv's
resolved_config.txt names that path, so its line matches only between
runs of the same copy of this script.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402

BENCH_SEED = 1
QUICKSTART = ROOT / "configs" / "quickstart.conf"


def workload(name: str, **override) -> dict:
    """A benchmark workload's config at BENCH_SEED, with keys overridden."""
    return dict(bench.WORKLOADS[name].config, seed=BENCH_SEED, **override)


# 8 clients x 300 rows under each baseline, also with a retired workers line
SMALL_BASELINE = {
    "clients": 8, "samples_per_client": 300, "rounds": 10, "seed": 3, "d": 12,
    "num_sectors": 1, "alpha": 10, "participation_rate": 0.75,
    "dropout_rate": 0.2, "local_epochs": 3,
}

# config name -> its keys, or the path of a config file
RUNS = {
    "quickstart": QUICKSTART,
    "wide_fral": workload("wide_fral"),
    "many_clients": workload("many_clients"),
    "fedprox_csv": workload("fedprox_csv"),
    "fedavg_small": dict(SMALL_BASELINE, algorithm="fedavg"),
    "fedavg_small_workers8": dict(SMALL_BASELINE, algorithm="fedavg", workers=8),
    "fedprox_small": dict(SMALL_BASELINE, algorithm="fedprox", mu=0.1),
    "fedprox_small_workers8": dict(SMALL_BASELINE, algorithm="fedprox", mu=0.1,
                                   workers=8),
    "fral_cse_dropout": {
        "algorithm": "fral_cse", "clients": 30, "samples_per_client": 200,
        "rounds": 15, "seed": 1, "d": 15, "num_sectors": 1, "alpha": 10,
        "dropout_rate": 0.6,
    },
    "many_clients_fedavg": workload("many_clients", algorithm="fedavg"),
    "many_clients_fedprox": workload("many_clients", algorithm="fedprox", mu=0.1,
                                     local_epochs=5),
    # 9 or 10 train rows at beta = 0.9: most tails, in evaluation and in
    # local training, hold no row
    "fedprox_empty_tail": {
        "algorithm": "fedprox", "clients": 40, "samples_per_client": 12,
        "rounds": 10, "seed": 1, "d": 5, "num_sectors": 1, "alpha": 10,
        "beta": 0.9, "mu": 0.1, "local_epochs": 3, "participation_rate": 0.75,
        "dropout_rate": 0.2,
    },
}
REPORTS = ("quickstart", "wide_fral", "many_clients", "fedprox_csv")
RUN_FILES = ("metrics.csv", "weights.csv", "partition.csv", "resolved_config.txt")
# the runs that read the benchmark's CSV records
CSV_RUNS = tuple(name for name, w in bench.WORKLOADS.items() if w.csv)


def write_configs(directory: Path, data_csv: Path) -> dict:
    """Each config name -> the path of its config file, written under
    directory; the configs of CSV_RUNS read data_csv."""
    paths = {}
    for name, keys in RUNS.items():
        if isinstance(keys, Path):
            paths[name] = keys
            continue
        if name in CSV_RUNS:
            keys = dict(keys, data_csv=data_csv)
        paths[name] = directory / f"{name}.conf"
        paths[name].write_text("".join(f"{k} = {v}\n" for k, v in keys.items()),
                               encoding="utf-8")
    return paths


def riskfed(*args) -> bytes:
    """The riskfed CLI's standard output, run pinned to one BLAS thread."""
    proc = subprocess.run([sys.executable, "-m", "riskfed.cli", *map(str, args)],
                          capture_output=True, env=dict(os.environ, **bench.PIN))
    if proc.returncode != 0:
        raise SystemExit(f"riskfed {' '.join(map(str, args))} exited "
                         f"{proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return proc.stdout


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def main() -> int:
    data_csv = bench.write_records(BENCH_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = write_configs(work, data_csv)
        for name, config in configs.items():
            out = work / "run" / name
            riskfed("run", "--config", config, "--out", out)
            run_dir, = out.iterdir()
            for file in RUN_FILES:
                print(name, file, sha256((run_dir / file).read_bytes()), flush=True)
        for name in REPORTS:
            out = work / "report" / name
            stdout = riskfed("partition-report", "--config", configs[name], "--out", out)
            print(name, "partition-report.stdout", sha256(stdout))
            print(name, "partition-report/partition.csv",
                  sha256((out / "partition.csv").read_bytes()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
