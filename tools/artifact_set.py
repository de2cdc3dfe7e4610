"""Hash the artifact set: the files a change must leave byte-identical.

    PYTHONPATH=<checkout>/src python tools/artifact_set.py > hashes.txt

Runs ``python -m riskfed.cli`` once per config below, each in a fresh
process at one BLAS thread, JOBS processes at a time, on the riskfed that
PYTHONPATH finds, and prints one ``name file sha256`` line per artifact:
``run``'s metrics.csv, weights.csv, partition.csv and resolved_config.txt
for the twelve RUNS, and ``partition-report``'s standard output and
partition.csv for the four REPORTS, 56 lines in all. They follow ``#``
lines that fingerprint the backend: the Python, numpy and scipy versions
and each loaded OpenBLAS's runtime configuration, which names the kernel
core it chose for this CPU. To compare two checkouts, run this script once
with each one's ``src`` on PYTHONPATH and diff the two outputs.
``artifact_set.sha256`` beside this script is its output on the backend
its header names; tests/test_artifact_set.py checks riskfed against it.

The wide_fral, many_clients and fedprox_csv configs and the fedprox_csv
records are the benchmark's own, imported from perfbench/run.py, at
seed 1. The records are written to ``.perfbench/cache`` of the checkout
holding this script, as the benchmark writes them. As in the benchmark,
the configs name them relative to that checkout, and riskfed runs there,
so every line is the same from any copy of the checkout.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
# importing perfbench/run.py sets its BLAS pin in os.environ; it is handed
# back, so that an importer and its subprocesses keep their thread counts
# (each riskfed run below is pinned on its own)
with mock.patch.dict(os.environ):
    import run as bench

BENCH_SEED = 1
JOBS = 2  # riskfed processes at a time
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
# the runtime configuration string of numpy's and scipy's OpenBLAS builds,
# then of plain OpenBLAS
BLAS_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
               "openblas_get_config")


def fingerprint() -> list[str]:
    """The ``#`` lines naming the backend: Python, numpy and scipy, and the
    configuration each OpenBLAS loaded in this process reports at run time."""
    import numpy
    import scipy.linalg  # loads scipy's OpenBLAS

    # read here, not through riskfed._blas, so that the script also runs
    # on the riskfed of an older checkout
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    configs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_CONFIG:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_char_p
                configs.append(f"# openblas {getter().decode()}")
                break
    return [f"# python {platform.python_version()}", f"# numpy {numpy.__version__}",
            f"# scipy {scipy.__version__}", *sorted(configs)]


def write_configs(directory: Path, data_csv: Path) -> dict:
    """Each config name -> the path of its config file, written under
    directory; the configs of CSV_RUNS read data_csv, a path inside the
    checkout, named relative to it."""
    paths = {}
    for name, keys in RUNS.items():
        if isinstance(keys, Path):
            paths[name] = keys
            continue
        if name in CSV_RUNS:
            keys = dict(keys, data_csv=data_csv.relative_to(ROOT).as_posix())
        paths[name] = directory / f"{name}.conf"
        paths[name].write_text("".join(f"{k} = {v}\n" for k, v in keys.items()),
                               encoding="utf-8")
    return paths


def riskfed(*args) -> bytes:
    """The riskfed CLI's standard output, run in the checkout pinned to one
    BLAS thread; PYTHONPATH is made absolute, so it finds the same riskfed."""
    pythonpath = os.pathsep.join(os.path.abspath(p) for p in
                                 os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)
    proc = subprocess.run([sys.executable, "-m", "riskfed.cli", *map(str, args)],
                          cwd=ROOT, capture_output=True,
                          env=dict(os.environ, **bench.PIN, PYTHONPATH=pythonpath))
    if proc.returncode != 0:
        raise SystemExit(f"riskfed {' '.join(map(str, args))} exited "
                         f"{proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return proc.stdout


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def run_lines(name: str, config: Path, out: Path) -> list[str]:
    riskfed("run", "--config", config, "--out", out)
    run_dir, = out.iterdir()
    return [f"{name} {file} {sha256((run_dir / file).read_bytes())}"
            for file in RUN_FILES]


def report_lines(name: str, config: Path, out: Path) -> list[str]:
    stdout = riskfed("partition-report", "--config", config, "--out", out)
    return [f"{name} partition-report.stdout {sha256(stdout)}",
            f"{name} partition-report/partition.csv "
            f"{sha256((out / 'partition.csv').read_bytes())}"]


def artifact_lines(runs=tuple(RUNS), reports=REPORTS) -> list[str]:
    """The hash lines of the named runs, then of the named reports."""
    data_csv = bench.write_records(BENCH_SEED)
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(JOBS) as pool:
        work = Path(tmp)
        configs = write_configs(work, data_csv)
        jobs = [pool.submit(run_lines, name, configs[name], work / "run" / name)
                for name in runs]
        jobs += [pool.submit(report_lines, name, configs[name], work / "report" / name)
                 for name in reports]
        return [line for job in jobs for line in job.result()]


def main() -> int:
    print(*fingerprint(), *artifact_lines(), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
