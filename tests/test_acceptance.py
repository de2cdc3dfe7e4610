"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.

Each criterion that checks a property a unit test also checks calls
that unit test's ``check_*`` function, with its own seed, case count and
tolerance, so the property is written once.
"""

import time

import numpy as np

from riskfed.cli import main
from riskfed.federation import ExperimentConfig, build_data_and_plan, run_experiment
from riskfed.partition import exdir_partition

from conftest import make_dataset, make_store, run_cli
from oracles import brute_force_quantile, hinge_surrogate
from test_federation import check_c_zero_rounds
from test_objective import check_finite_differences
from test_partition import check_equal_shares, check_partition
from test_sensitivity import check_gram, check_sensitivity_sum, check_solve_residual


def report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status} ({elapsed:.2f}s){suffix}")


def experiment_config(algorithm, **overrides):
    """Pinned comparative-convergence setup shared by criteria 5-7."""
    base = dict(algorithm=algorithm, clients=10, samples_per_client=1000,
                rounds=100, seed=2, d=20, num_sectors=2, signal=2.5,
                labels_per_client=1, dirichlet_alpha=1.0, train_fraction=0.8,
                beta=0.8, c=1.0, epsilon=2.0, participation_rate=1.0,
                dropout_rate=0.0, local_lr=0.05)
    base.update(overrides)
    return ExperimentConfig(**base)


def final_accuracy(cfg):
    return run_experiment(cfg).records[-1].test_accuracy


def rounds_to_fraction_of_final(accuracies, fraction=0.95):
    target = fraction * accuracies[-1]
    return next(i for i, a in enumerate(accuracies, 1) if a >= target)


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = check_finite_differences(np.random.default_rng(101), 100)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    report(1, "gradient vs finite differences", ok, elapsed,
           f"worst rel err {worst:.2e}")
    assert worst <= 1e-5
    assert elapsed < 5.0


def test_criterion_2_quantile_tail_oracles():
    # one-client stores whose risks at w = [1, 0] are the drawn values:
    # with d = 1, x = risk and labels -1, the store sees exactly them
    rng = np.random.default_rng(102)
    w = np.array([1.0, 0.0])
    start = time.perf_counter()
    failures = []
    for _ in range(200):
        n = int(rng.integers(1, 60))
        if rng.random() < 0.5:
            risks = rng.integers(-4, 5, n).astype(float)
        else:
            risks = rng.standard_normal(n)
        beta = float(rng.uniform(0.01, 0.99))
        shard = make_dataset(risks[:, None], -np.ones(n))
        state = make_store([(shard, shard)]).evaluate(w, beta, 1.0)
        q = brute_force_quantile(risks, beta)
        if state.q[0] != q:
            failures.append(f"quantile {state.q[0]} != oracle {q}")
        if state.active_counts[0] != np.count_nonzero(risks > q):
            failures.append(f"{state.active_counts[0]} tail rows, not "
                            f"{np.count_nonzero(risks > q)}")
        # the loss is 0.5 ||w||^2 = 0.5 plus c = 1 times the hinge surrogate
        off = abs(state.losses[0] - (0.5 + hinge_surrogate(risks, q)))
        if off > 1e-12:
            failures.append(f"loss off the hinge surrogate by {off:.2e}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    report(2, "store threshold vs quantile/tail oracles", ok, elapsed,
           failures[0] if failures else "")
    assert not failures, failures[:3]
    assert elapsed < 1.0


def test_criterion_3_curvature_correctness():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    asymmetry, curvature = check_gram(rng, 100)
    sum_error = check_sensitivity_sum(rng, 100)
    residual = check_solve_residual(rng, 100)
    failures = [failure for failure, bad in (
        (f"gram asymmetric by {asymmetry:.2e}", asymmetry > 1e-12),
        (f"gram not PSD: v^T G v = {curvature:.2e}", curvature < -1e-10),
        (f"aggregate sensitivity off brute force by {sum_error:.2e}", sum_error > 1e-12),
        (f"solve residual {residual:.2e}", residual > 1e-8),
    ) if bad]
    elapsed = time.perf_counter() - start
    report(3, "curvature correctness", not failures, elapsed,
           failures[0] if failures else "")
    assert not failures, failures


def test_criterion_4_closed_form_round():
    start = time.perf_counter()
    cfg = ExperimentConfig(algorithm="fral_cse", clients=6, samples_per_client=50,
                           rounds=1, seed=17, d=5, c=0.0, epsilon=0.001,
                           participation_rate=1.0, dropout_rate=0.0)
    rel, first = check_c_zero_rounds(cfg)
    bitwise = np.array_equal(first, run_experiment(cfg).final_weights)
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-12 and bitwise
    report(4, "closed-form regularizer-only round", ok, elapsed,
           f"rel dev {rel:.2e}, bit-reproducible {bitwise}")
    assert rel <= 1e-12
    assert bitwise


def test_criterion_5_comparative_convergence():
    start = time.perf_counter()
    fral = [r.test_accuracy
            for r in run_experiment(experiment_config("fral_cse")).records]
    fedavg = [r.test_accuracy
              for r in run_experiment(
                  experiment_config("fedavg", local_epochs=1)).records]
    r_fral = rounds_to_fraction_of_final(fral)
    r_fedavg = rounds_to_fraction_of_final(fedavg)
    gap = fral[-1] - fedavg[-1]
    elapsed = time.perf_counter() - start
    speed_ok = r_fral <= r_fedavg / 2
    accuracy_ok = gap >= -0.01
    ok = speed_ok and accuracy_ok and elapsed < 60.0
    report(5, "comparative convergence vs fedavg", ok, elapsed,
           f"rounds-to-95%: {r_fral} vs {r_fedavg}, final gap {gap:+.4f}")
    assert speed_ok, (r_fral, r_fedavg)
    assert accuracy_ok, gap
    assert elapsed < 60.0


def test_criterion_6_dropout_robustness():
    start = time.perf_counter()
    baseline = final_accuracy(experiment_config("fral_cse"))
    dropped = final_accuracy(experiment_config("fral_cse", dropout_rate=0.4))
    delta = abs(dropped - baseline)
    elapsed = time.perf_counter() - start
    ok = delta <= 0.03 and elapsed < 60.0
    report(6, "robustness at 40% dropout", ok, elapsed,
           f"final {dropped:.4f} vs {baseline:.4f} (delta {delta:.4f})")
    assert delta <= 0.03
    assert elapsed < 60.0


def test_criterion_7_participation_robustness():
    start = time.perf_counter()
    baseline = final_accuracy(experiment_config("fral_cse"))
    partial = final_accuracy(
        experiment_config("fral_cse", participation_rate=0.2))
    delta = abs(partial - baseline)
    elapsed = time.perf_counter() - start
    ok = delta <= 0.05
    report(7, "robustness at 20% participation", ok, elapsed,
           f"final {partial:.4f} vs {baseline:.4f} (delta {delta:.4f})")
    assert delta <= 0.05


def run_artifacts(out):
    """Each artifact's bytes, by name, of the one run directory under out."""
    run_dir, = out.iterdir()
    return {path.name: path.read_bytes() for path in run_dir.iterdir()}


def test_criterion_8_run_determinism(tmp_path):
    # fral_cse's central step runs products large enough for OpenBLAS to
    # split across threads, so its case guards the one-thread pin at
    # OPENBLAS_NUM_THREADS 1 and 2 (test_cli checks the unset default).
    # OpenBLAS does not split fedprox's per-client matrix-vector products,
    # so that case guards reruns, the retired workers line and any batched
    # local step to come, not the pin.
    start = time.perf_counter()
    cases = {
        "fral_cse": "algorithm = fral_cse\n",
        "fedprox": "algorithm = fedprox\nmu = 0.1\nlocal_epochs = 3\n",
    }
    shards = ("clients = 10\nsamples_per_client = 500\nd = 130\nrounds = 10\n"
              "seed = 31\nnum_sectors = 1\nsignal = 3.0\nalpha = 10\nepsilon = 2.0\n"
              "participation_rate = 0.8\ndropout_rate = 0.1\n")
    failures = []
    for name, algorithm_text in cases.items():
        plain = tmp_path / f"{name}.conf"
        plain.write_text(algorithm_text + shards, encoding="utf-8")
        retired = tmp_path / f"{name}-workers.conf"
        retired.write_text(algorithm_text + shards + "workers = 8\n", encoding="utf-8")
        runs = {}
        for label, config in (("rerun", plain), ("retired workers line", retired)):
            out = tmp_path / f"{name}-{len(runs)}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            runs[label] = run_artifacts(out)
        # an in-process run takes the BLAS threads the test process's
        # environment sets, so both thread counts run in subprocesses
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-threads{threads}"
            proc = run_cli("run", "--config", str(plain), "--out", str(out),
                           env_vars={"OPENBLAS_NUM_THREADS": threads,
                                     "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None})
            assert proc.returncode == 0, proc.stderr
            runs[f"rerun at {threads} BLAS thread(s)"] = run_artifacts(out)
        reference = runs.pop("rerun")
        failures += [f"{name}: {label} differs" for label, blobs in runs.items()
                     if blobs != reference]
    elapsed = time.perf_counter() - start
    report(8, "byte-identical reruns across BLAS threads", not failures, elapsed,
           failures[0] if failures else "fral_cse, fedprox")
    assert not failures, failures


def test_criterion_9_partition_validity():
    start = time.perf_counter()
    failures = []
    sweep = [
        experiment_config("fral_cse"),
        experiment_config("fedavg", local_epochs=1),
        experiment_config("fral_cse", dropout_rate=0.4),
        experiment_config("fral_cse", participation_rate=0.2),
    ]
    for cfg in sweep:
        data, plan = build_data_and_plan(cfg)
        failures += check_partition(plan, data, cfg.clients, cfg.labels_per_client)

    data, _ = build_data_and_plan(sweep[0])
    concentrated = exdir_partition(data.sectors, num_clients=10, labels_per_client=1,
                                   alpha=1e6, seed=99)
    if check_partition(concentrated, data, 10, 1):
        failures.append("concentrated-alpha plan invalid")
    failures += check_equal_shares(concentrated, data)
    elapsed = time.perf_counter() - start
    report(9, "partition validity across the sweep", not failures, elapsed,
           failures[0] if failures else "")
    assert not failures, failures[:3]
