"""The riskfed benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs ``src/riskfed`` and nothing
installed. Each measured run is one ``riskfed run`` in a fresh process
(``child.py``) with one BLAS thread, so the figures measure the program
and not the scheduler. Runs repeat, whole, until the next one would end
after ``--seconds``; every figure is a median over them, except the
throughput, which pools their rounds. With
``--trace 1`` untraced and traced runs alternate and the per-layer
figures come from the traced ones. Every run's artifacts are checked
(``checks.py``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count rounds. Work files go to ``.perfbench/`` in the checkout.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)  # before numpy starts its BLAS in this process too

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120

# Records of the fedprox_csv workload, written by this file's generator.
CSV_ROWS, CSV_DIM, CSV_SECTORS, CSV_SIGNAL = 40_000, 60, 1, 1.5


@dataclass(frozen=True)
class Workload:
    config: dict  # riskfed config keys; the seed is added per run
    loss_falls: bool = True  # final train loss below the round-1 loss
    csv: bool = False  # read the records through data_csv


# alpha is raised above the default 1.0 so that no client of the
# partition comes out empty or with a single record on any seed.
# wide_fral keeps the default five sectors, one per client; the other two
# use one sector, because with five their final accuracy and loss depend
# on the seed's random sector directions more than any bound allows. The
# tail objective is smallest at w = 0, and averaging clients hold q fixed
# in their gradient, so fedprox's train loss climbs from round 1 to its
# fixed point while its accuracy holds: its loss is not required to fall.
# fedprox_csv's rounds take about 17 ms against a set-up of about 3.5 s,
# so it runs 700 of them: its throughput then rests on most of the window
# rather than on a few short bursts. Every timed run uses one client
# thread: on a 2-core shared host a two-thread pool waits on whichever core
# the host slows. Over ten seeds its pooled throughput spread by 0.21 and
# 0.25 of the median, against 0.12 and 0.19 for single one-thread runs.
WORKLOADS = {
    "wide_fral": Workload({
        "algorithm": "fral_cse", "clients": 100, "samples_per_client": 1000,
        "rounds": 20, "d": 130, "signal": 3.0, "alpha": 10, "epsilon": 2.0,
        "workers": 1,
    }),
    "many_clients": Workload({
        "algorithm": "fral_cse", "clients": 5000, "samples_per_client": 40,
        "rounds": 12, "d": 30, "num_sectors": 1, "signal": 1.5, "alpha": 100,
        "epsilon": 2.0, "participation_rate": 0.5, "dropout_rate": 0.1, "workers": 1,
    }),
    "fedprox_csv": Workload({
        "algorithm": "fedprox", "clients": 20, "samples_per_client": 2000,
        "rounds": 700, "alpha": 10, "mu": 0.1, "local_epochs": 5, "workers": 1,
    }, loss_falls=False, csv=True),
}

END_TO_END = {
    "setup_s": "s", "samples_per_s": "samples/s", "total_s": "s",
    "peak_rss_mb": "MB", "final_test_accuracy": "fraction", "final_train_loss": "loss",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"sensitivity.active_fraction": "fraction",
            "sensitivity.gram_bytes_peak": "bytes"}.get(name, "count")


def write_records(seed: int) -> Path:
    """The fedprox_csv records for seed as CSV, written once and kept until
    other records are written."""
    cache = WORK / "cache"
    stem = f"seed{seed}-{CSV_ROWS}x{CSV_DIM}-sectors{CSV_SECTORS}-signal{CSV_SIGNAL}"
    csv_path = cache / f"{stem}.csv"
    if csv_path.is_file():
        return csv_path
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    # Sector s has a unit mean direction m_s; x = y * signal * m_s + noise,
    # kept to six decimals.
    rng = np.random.default_rng([seed, CSV_DIM])
    means = rng.standard_normal((CSV_SECTORS, CSV_DIM))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    sectors = rng.integers(0, CSV_SECTORS, CSV_ROWS)
    labels = np.where(rng.random(CSV_ROWS) < 0.5, -1, 1)
    raw = labels[:, None] * CSV_SIGNAL * means[sectors]
    raw += rng.standard_normal((CSV_ROWS, CSV_DIM))
    features = np.rint(raw * 1e6) / 1e6
    header = [f"feature_{j}" for j in range(CSV_DIM)] + ["label", "sector"]
    tmp = csv_path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, y, s in zip(features.tolist(), labels.tolist(), sectors.tolist()):
            fh.write(",".join(map(repr, row)) + f",{y},{s}\n")
    tmp.replace(csv_path)
    return csv_path


def write_config(workload: str, seed: int, csv_path: Path | None, **override) -> Path:
    keys = dict(WORKLOADS[workload].config, seed=seed, **override)
    if csv_path is not None:
        keys["data_csv"] = csv_path.relative_to(ROOT).as_posix()
    tag = "".join(f"-{k}{v}" for k, v in override.items())
    path = WORK / "configs" / f"{workload}-seed{seed}{tag}.conf"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return path


def run_child(config: Path, out: Path, trace: int, workload: Workload) -> dict:
    """One riskfed run in a fresh pinned process; its result dict."""
    result = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config),
           "--out", str(out), "--result", str(result), "--trace", str(trace)]
    if workload.loss_falls:
        cmd.append("--loss-falls")
    env = dict(os.environ, **PIN, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rounds_completed": 0,
                "check_failures": [f"run killed after {CHILD_TIMEOUT_S} s"]}
    if result.is_file():
        return json.loads(result.read_text(encoding="utf-8"))
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    return {"rounds_completed": 0,
            "check_failures": [f"run exited with code {proc.returncode}: {tail[0]}"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riskfed" / "__init__.py").is_file():
        print(f"error: no riskfed sources under {ROOT / 'src'}; run from the root "
              f"of a riskfed checkout", file=sys.stderr)
        return 2
    # the window holds all of the invocation's work: records, configs, runs
    deadline = time.perf_counter() + args.seconds
    workload = WORKLOADS[args.workload]
    rounds = workload.config["rounds"]
    csv_path = write_records(args.seed) if workload.csv else None
    config = write_config(args.workload, args.seed, csv_path)
    runs_dir = WORK / "runs" / args.workload
    shutil.rmtree(runs_dir, ignore_errors=True)
    runs_dir.mkdir(parents=True)

    failures, results = [], []
    if args.workload == "wide_fral":
        # the client thread pool must not change a byte of the results
        pooled = run_child(write_config(args.workload, args.seed, None, workers=2),
                           runs_dir / "workers2", 0, workload)
        results.append((None, pooled))

    modes = (0, 1) if args.trace else (0,)
    durations = []
    while True:
        for trace in modes:
            start = time.perf_counter()
            out = runs_dir / f"{len(results):03d}-trace{trace}"
            results.append((trace, run_child(config, out, trace, workload)))
            durations.append(time.perf_counter() - start)
        if time.perf_counter() + len(modes) * statistics.median(durations) > deadline:
            break

    for _, r in results:
        failures += r["check_failures"]
    attempted = rounds * len(results)
    failed = sum(rounds - r["rounds_completed"] for _, r in results)
    done = [(t, r) for t, r in results if "metrics_csv_sha256" in r]
    if len({r["metrics_csv_sha256"] for _, r in done}) > 1:
        failures.append("metrics.csv differs between runs of one config "
                        "(workers 1 and 2 for wide_fral)")
    plain = [r for t, r in done if t == 0]
    traced = [r for t, r in done if t == 1]
    metrics = {}
    if not args.trace and plain:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "samples_per_s": (sum(sum(r["round_rows"]) for r in plain)
                              / sum(sum(r["round_s"]) for r in plain)),
            "total_s": statistics.median(r["total_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "final_test_accuracy": plain[0]["final_test_accuracy"],
            "final_train_loss": plain[0]["final_train_loss"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    elif args.trace and plain and traced:
        for name in traced[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["layers"]["federation.round_s"] for r in traced)
            - statistics.median(sum(r["round_s"]) for r in plain),
            "unit": "s",
        }
    correct = not failures and bool(metrics)

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "runs": len(results), "identity": done[0][1]["identity"] if done else None,
               "check_failures": failures, "runs_detail": [r for _, r in results]}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"workload {args.workload}  seed {args.seed}  runs {len(results)}  "
          f"rounds attempted {attempted} failed {failed}")
    print("identity " + json.dumps(summary["identity"]))
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']} {m['unit']}")
    for failure in failures:
        print(f"  check failed: {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
