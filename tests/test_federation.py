import json
import math
import textwrap
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskfed import _kernels
from riskfed._pcg import first_uniforms
from riskfed.errors import ConfigurationError, ExperimentError
from riskfed.federation import (
    ALGORITHMS,
    CONFIG_SCHEMA,
    ExperimentConfig,
    _ROUND_FN,
    _averaging_step,
    apply_dropout,
    build_clients,
    build_data_and_plan,
    run_experiment,
    sample_participants,
)
from riskfed.metrics import write_metrics_csv
from riskfed.sensitivity import client_report

from conftest import client_test_shards, make_dataset, make_store, run_python
from oracles import (DROPOUT_STREAM, client_shards, dropout_uniform, exact_solve,
                     initial_weights, reference_run, risks, round_participants,
                     round_survivors, tail_rows)


# The memory probes run on 100 x 500 records at d = 100: 40 MB of features.
PROBE_FEATURE_BYTES = 100 * 500 * 100 * 8

# A probe's status(key) reads a size in bytes from /proc/self/status.
VM_STATUS = textwrap.dedent("""\
    def status(key):
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) * 1024

    """)

needs_vm_status = pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                                     reason="reads VmHWM from /proc/self/status")


def config(**kw):
    base = dict(algorithm="fral_cse", clients=1, samples_per_client=10, rounds=1,
                seed=0, d=2, num_sectors=1)
    base.update(kw)
    return ExperimentConfig(**base)


def config_keys(cfg):
    """cfg's resolved keys, by their names in a config file."""
    return {key: getattr(cfg, f.name) for key, f in CONFIG_SCHEMA.items()}


def client_from(features, labels):
    """A client's (train, test) pair, both the one dataset."""
    data = make_dataset(features, labels)
    return data, data


def run_round(w, clients, cfg, round_index):
    """One round of cfg's algorithm from weights w over a store of the
    clients' (train, test) pairs: (w_next, record)."""
    store = make_store(clients)
    after, record = _ROUND_FN[cfg.algorithm](store.evaluate(w, cfg.beta, cfg.c), store,
                                             cfg, round_index)
    return after.w, record


# one out-of-range value per config key: key -> (ExperimentConfig field,
# value); data_csv takes any path, so it has none
OUT_OF_RANGE = {
    "algorithm": ("algorithm", "fedsgd"),
    "clients": ("clients", 0),
    "samples_per_client": ("samples_per_client", 0),
    "rounds": ("rounds", -1),
    "seed": ("seed", -1),
    "d": ("d", 1),
    "num_sectors": ("num_sectors", 0),
    "signal": ("signal", 0.0),
    "train_fraction": ("train_fraction", 1.0),
    "C": ("labels_per_client", 0),
    "alpha": ("dirichlet_alpha", -1.0),
    "beta": ("beta", 1.0),
    "c": ("c", -0.5),
    "epsilon": ("epsilon", -1e-9),
    "participation_rate": ("participation_rate", 0.0),
    "dropout_rate": ("dropout_rate", 1.0),
    "local_epochs": ("local_epochs", -1),
    "local_lr": ("local_lr", 0.0),
    "mu": ("mu", -0.1),
}


class TestExperimentConfig:
    def test_out_of_range_values_cover_every_key_but_data_csv(self):
        assert set(OUT_OF_RANGE) == set(CONFIG_SCHEMA) - {"data_csv"}

    @pytest.mark.parametrize("key", list(OUT_OF_RANGE))
    def test_building_out_of_range_raises_naming_the_key(self, key):
        attr, value = OUT_OF_RANGE[key]
        with pytest.raises(ConfigurationError) as caught:
            config(**{attr: value})
        assert str(caught.value).startswith(f"{key} = {value!r} out of range, expected ")

    @pytest.mark.parametrize("overrides, error", [
        (dict(local_epochs=1), "local_epochs = 1 must be 0 for fral_cse: "
                               "its central step uses no local training"),
        (dict(algorithm="fedavg", mu=0.1), "mu applies to the fedprox algorithm only"),
        (dict(c=math.inf), "c = inf is not finite"),
        # each key is checked for range, then finiteness, before the next
        # key, and the rules joining two keys come after every key's checks
        (dict(c=math.inf, epsilon=-1.0), "c = inf is not finite"),
        (dict(c=math.inf, algorithm="fedavg", mu=0.5), "c = inf is not finite"),
    ], ids=["fral_cse-epochs", "mu-fedprox-only", "finite", "finite-before-later-key",
            "finite-before-join-rule"])
    def test_building_against_a_join_rule_raises_naming_the_key(self, overrides, error):
        with pytest.raises(ConfigurationError) as caught:
            config(**overrides)
        assert str(caught.value) == error

    def test_a_built_config_cannot_change(self):
        cfg = config()
        with pytest.raises(FrozenInstanceError):
            cfg.rounds = 2
        assert cfg.rounds == 1


class TestSampleParticipants:
    def test_full_rate_everyone(self):
        for rnd in (1, 5, 9):
            ids = sample_participants(7, 1.0, rnd, seed=3)
            np.testing.assert_array_equal(ids, np.arange(7))

    def test_twenty_percent_of_ten(self):
        ids = sample_participants(10, 0.2, 1, seed=3)
        assert ids.size == 2
        assert np.unique(ids).size == 2

    def test_at_least_one(self):
        assert sample_participants(10, 0.05, 1, seed=3).size == 1

    def test_deterministic_per_seed_and_round(self):
        a = sample_participants(20, 0.4, 6, seed=9)
        b = sample_participants(20, 0.4, 6, seed=9)
        np.testing.assert_array_equal(a, b)
        c = sample_participants(20, 0.4, 7, seed=9)
        assert not np.array_equal(a, c)


class TestApplyDropout:
    def test_zero_rate_identity(self):
        participants = np.arange(12)
        out = apply_dropout(participants, 0.0, 3, seed=1)
        np.testing.assert_array_equal(out, participants)

    def test_zero_rate_keeps_whom_the_draws_keep(self):
        participants = np.sort(np.random.default_rng(3).choice(500, 60, replace=False))
        for seed in (0, 7, 2**40 + 7):
            for rnd in (1, 2, 350):
                draws = first_uniforms([seed, rnd, DROPOUT_STREAM], participants)
                kept = apply_dropout(participants, 0.0, rnd, seed)
                np.testing.assert_array_equal(kept, participants[draws >= 0])

    def test_empirical_rate_three_sigma(self):
        dropped = 0
        total = 10000
        participants = np.arange(10)
        for rnd in range(total // 10):
            out = apply_dropout(participants, 0.4, rnd, seed=5)
            dropped += 10 - out.size
        sigma = np.sqrt(total * 0.4 * 0.6)
        assert abs(dropped - 0.4 * total) <= 3 * sigma

    def test_deterministic(self):
        a = apply_dropout(np.arange(30), 0.3, 2, seed=8)
        b = apply_dropout(np.arange(30), 0.3, 2, seed=8)
        np.testing.assert_array_equal(a, b)

    def test_matches_one_generator_per_participant(self):
        participants = np.sort(np.random.default_rng(4).choice(3000, 700,
                                                                replace=False))
        for seed, rnd, rate in ((0, 1, 0.1), (2**40 + 7, 12, 0.5), (9, 3, 0.0)):
            expected = round_survivors(participants, rate, seed, rnd)
            got = apply_dropout(participants, rate, rnd, seed)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.one_of(st.integers(0, 2**32 - 1),
                                      st.integers(2**40, 2**64 - 1)),
       rnd=st.integers(1, 1000), rate=st.sampled_from([0.0, 0.1, 0.5, 0.9]))
def test_apply_dropout_keeps_each_generators_survivors_in_order(data, seed, rnd, rate):
    # the input contract: ascending int64 ids, as sample_participants draws
    k = data.draw(st.integers(1, 60))
    participants = np.array(sorted(data.draw(st.sets(st.integers(0, k - 1)))),
                            dtype=np.int64)
    got = apply_dropout(participants, rate, rnd, seed)
    expected = round_survivors(participants, rate, seed, rnd)
    assert got.dtype == np.int64
    # expected keeps the participants' ascending order
    assert got.tolist() == expected
    if rate == 0:
        assert got is participants


def find_all_drop_round(cfg):
    for rnd in range(1, 200):
        participants = round_participants(cfg.clients, cfg.participation_rate,
                                          cfg.seed, rnd)
        if not round_survivors(participants, cfg.dropout_rate, cfg.seed, rnd):
            return rnd
    raise AssertionError("no all-drop round found")


def check_c_zero_rounds(cfg) -> tuple[float, np.ndarray]:
    """A fral_cse run of cfg, whose c is 0: each round's S is I and its g is
    w, so the step w - w / (1 + eps) scales w by eps / (1 + eps). The worst
    relative deviation of the final weights from (eps / (1 + eps))^rounds
    w0, coordinate by coordinate, and the final weights."""
    final = run_experiment(cfg).final_weights
    w0 = run_experiment(replace(cfg, rounds=0)).final_weights
    expected = (cfg.epsilon / (1 + cfg.epsilon)) ** cfg.rounds * w0
    return float(np.max(np.abs(final - expected) / np.maximum(1e-300, np.abs(expected)))), final


class TestFralRound:
    def test_closed_form_regularizer_only(self):
        # c = 0: gradient = w, S = I, so w' = w - w/(1+eps) = (eps/(1+eps)) w
        rng = np.random.default_rng(0)
        clients = [client_from(rng.standard_normal((5, 2)), rng.choice([-1.0, 1.0], 5))
                   for _ in range(3)]
        cfg = config(clients=3, c=0.0, epsilon=0.001)
        w = rng.standard_normal(3)
        w_next, record = run_round(w, clients, cfg, round_index=1)
        expected = (0.001 / 1.001) * w
        np.testing.assert_allclose(w_next, expected, rtol=1e-12)
        assert record.completed == 3

    def test_single_client_matches_cramer_oracle(self):
        # at w = [1,0,0]: risks are -1 and 2, q = -1, second sample active
        clients = [client_from([[1.0, 0.0], [-2.0, 0.0]], [1.0, 1.0])]
        cfg = config(beta=0.5, c=1.0, epsilon=0.5)
        w = np.array([1.0, 0.0, 0.0])
        grad = client_report(w, clients[0][0], beta=0.5, c=1.0).gradient
        jac = np.array([-2.0, 0.0, 1.0])
        s = np.eye(3) + 0.5 * np.outer(jac, jac)
        step = np.array(exact_solve(s + 0.5 * np.eye(3), grad), dtype=float)
        w_next, _ = run_round(w, clients, cfg, round_index=1)
        np.testing.assert_allclose(w_next, w - step, atol=1e-12)

    def test_all_drop_round_is_identity(self):
        clients = [client_from([[1.0, 0.0], [-2.0, 0.0]], [1.0, 1.0])]
        cfg = config(dropout_rate=0.9)
        rnd = find_all_drop_round(cfg)
        w = np.array([0.5, -0.5, 0.25])
        w_next, record = run_round(w, clients, cfg, round_index=rnd)
        np.testing.assert_array_equal(w_next, w)
        assert record.completed == 0
        assert record.step_norm == 0.0

    def test_multi_round_contraction_with_c_zero(self):
        cfg = config(algorithm="fral_cse", clients=4, samples_per_client=20,
                     rounds=7, seed=5, c=0.0, epsilon=0.001)
        assert check_c_zero_rounds(cfg)[0] <= 1e-10


class TestFedavgRound:
    def test_zero_epochs_degenerate(self):
        clients = [client_from([[1.0, 0.0], [-2.0, 0.0]], [1.0, 1.0])]
        cfg = config(algorithm="fedavg", local_epochs=0)
        w = np.array([0.3, 0.1, -0.2])
        w_next, _ = run_round(w, clients, cfg, round_index=1)
        np.testing.assert_array_equal(w_next, w)
        # several clients of unequal sizes: the size-weighted mean of the
        # unchanged weights would round away from them
        rng = np.random.default_rng(1)
        clients = [client_from(rng.standard_normal((n, 3)), rng.choice([-1.0, 1.0], n))
                   for n in (30, 7, 13, 30, 2, 19, 5)]
        w = rng.standard_normal(4)
        for cfg in (config(algorithm="fedavg", local_epochs=0, clients=7, d=3),
                    config(algorithm="fedprox", mu=0.1, local_epochs=0, clients=7, d=3)):
            w_next, record = run_round(w, clients, cfg, round_index=1)
            np.testing.assert_array_equal(w_next, w)
            assert record.step_norm == 0.0

    def test_single_client_one_epoch_plain_gradient_step(self):
        clients = [client_from([[1.0, 0.0], [-2.0, 0.0]], [1.0, 1.0])]
        cfg = config(algorithm="fedavg", local_epochs=1, local_lr=0.05, beta=0.5)
        w = np.array([1.0, 0.0, 0.0])
        grad = client_report(w, clients[0][0], beta=0.5, c=1.0).gradient
        w_next, _ = run_round(w, clients, cfg, round_index=1)
        np.testing.assert_allclose(w_next, w - 0.05 * grad, atol=1e-14)

    def test_duplicated_client_invariance(self):
        rng = np.random.default_rng(9)
        features = rng.standard_normal((6, 2))
        labels = rng.choice([-1.0, 1.0], 6)
        single = [client_from(features, labels)]
        doubled = [client_from(features, labels), client_from(features, labels)]
        w = rng.standard_normal(3)
        one, _ = run_round(w, single, config(algorithm="fedavg"), round_index=1)
        two, _ = run_round(w, doubled, config(algorithm="fedavg", clients=2),
                           round_index=1)
        np.testing.assert_array_equal(one, two)


class TestFedproxRound:
    def test_mu_zero_identical_to_fedavg(self):
        shared = dict(clients=6, samples_per_client=40, rounds=5, seed=21, d=4,
                      local_epochs=2, dropout_rate=0.2)
        avg = run_experiment(config(algorithm="fedavg", **shared))
        prox = run_experiment(config(algorithm="fedprox", mu=0.0, **shared))
        np.testing.assert_array_equal(avg.final_weights, prox.final_weights)
        for a, b in zip(avg.records, prox.records):
            assert a == b

    def test_large_mu_pins_local_model(self):
        rng = np.random.default_rng(33)
        clients = [client_from(rng.standard_normal((20, 2)),
                               rng.choice([-1.0, 1.0], 20))]
        w = rng.uniform(-0.1, 0.1, 3)
        # stable proximal regime: lr*mu < 1, enough epochs to converge;
        # the minimizer sits ||grad||/mu from the broadcast weights
        pinned = config(algorithm="fedprox", mu=1e3, local_lr=1e-4,
                        local_epochs=200)
        free = config(algorithm="fedprox", mu=0.0, local_lr=1e-4,
                      local_epochs=200)
        w_pinned, _ = run_round(w, clients, pinned, round_index=1)
        w_free, _ = run_round(w, clients, free, round_index=1)
        assert np.linalg.norm(w_pinned - w) <= 1e-3
        assert np.linalg.norm(w_pinned - w) <= 0.1 * np.linalg.norm(w_free - w)

    def test_two_step_hand_instance(self):
        # n=1 keeps the penalty inactive: g = w + mu*(w - w_t)
        # step1: w1 = (1-lr) w_t; step2: w2 = w1 - lr*(2*w1 - w_t) = 0.82 w_t
        clients = [client_from([[1.0, 2.0]], [1.0])]
        cfg = config(algorithm="fedprox", mu=1.0, local_lr=0.1, local_epochs=2)
        w = np.array([1.0, 0.0, -2.0])
        w_next, _ = run_round(w, clients, cfg, round_index=1)
        np.testing.assert_allclose(w_next, 0.82 * w, rtol=1e-14)


class TestRunExperiment:
    @pytest.mark.skipif(not Path("/proc/self/maps").is_file(),
                        reason="finds the OpenBLAS libraries in /proc/self/maps")
    def test_run_pins_every_openblas_to_one_thread(self):
        # numpy's and scipy's OpenBLAS each start with the two threads the
        # environment asks for; a run must leave every one of them at one
        probe = textwrap.dedent("""\
            import ctypes, json
            from riskfed.federation import ExperimentConfig, run_experiment

            GETTERS = ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads")

            def blas_threads():
                # each OpenBLAS in /proc/self/maps, with its thread count
                with open("/proc/self/maps", encoding="utf-8") as fh:
                    paths = {line.split()[-1] for line in fh
                             if "openblas" in line.lower()}
                counts = {}
                for path in sorted(paths):
                    lib = ctypes.CDLL(path)
                    for symbol in GETTERS:
                        if hasattr(lib, symbol):
                            counts[path] = getattr(lib, symbol)()
                            break
                return counts

            before = blas_threads()
            run_experiment(ExperimentConfig(algorithm="fral_cse", clients=2,
                                            samples_per_client=20, rounds=1, seed=0, d=2))
            print(json.dumps([before, blas_threads()]))
            """)
        proc = run_python("-c", probe, env_vars={"OPENBLAS_NUM_THREADS": "2",
                                                 "GOTO_NUM_THREADS": None,
                                                 "OMP_NUM_THREADS": None})
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        assert after, "no OpenBLAS found"
        assert set(after.values()) == {1}, (before, after)

    def test_zero_rounds(self):
        cfg = config(clients=3, samples_per_client=30, rounds=0, seed=4)
        result = run_experiment(cfg)
        assert result.records == []
        np.testing.assert_array_equal(result.final_weights,
                                      initial_weights(config_keys(cfg)))

    @pytest.mark.parametrize("algorithm, extra", [
        ("fral_cse", {}),
        ("fedavg", {"local_epochs": 3}),
        ("fedprox", {"mu": 0.1, "local_epochs": 3}),
    ], ids=["fral_cse", "fedavg", "fedprox"])
    def test_deterministic_metrics_bytes(self, tmp_path, algorithm, extra):
        cfg = config(algorithm=algorithm, clients=5, samples_per_client=60,
                     rounds=6, seed=11, d=4, dropout_rate=0.1,
                     participation_rate=0.8, **extra)
        paths, weights = [], []
        for i in range(2):
            result = run_experiment(cfg)
            path = tmp_path / f"m{i}.csv"
            write_metrics_csv(result.records, path)
            paths.append(path.read_bytes())
            weights.append(result.final_weights.tobytes())
        assert paths[0] == paths[1]
        assert weights[0] == weights[1]

    def test_skip_rounds_recorded_with_zero_step(self):
        cfg = config(clients=2, samples_per_client=30, rounds=30, seed=2,
                     dropout_rate=0.85)
        result = run_experiment(cfg)
        skipped = [r for r in result.records if r.completed == 0]
        assert skipped
        for r in skipped:
            assert r.step_norm == 0.0

    def test_converges_on_separable_data(self):
        cfg = config(algorithm="fral_cse", clients=10, samples_per_client=1000,
                     rounds=100, seed=42, d=20, num_sectors=1, signal=4.0)
        result = run_experiment(cfg)
        _, _, store = build_clients(cfg)
        # oracle: a full-batch least-squares fit confirms the data is
        # linearly separable to high accuracy before asserting on the run
        train_x = np.vstack([c.train.features for c in store])
        train_y = np.concatenate([c.train.labels for c in store])
        xb = np.hstack([train_x, np.ones((len(train_x), 1))])
        w_ls, *_ = np.linalg.lstsq(xb, train_y, rcond=None)
        test_x, test_y = store.test.features, store.test.labels
        oracle_acc = np.mean(test_y * (test_x @ w_ls[:-1] + w_ls[-1]) > 0)
        assert oracle_acc > 0.95
        assert result.records[-1].test_accuracy > 0.85

    def test_round_records_monotone_rounds(self):
        cfg = config(clients=3, samples_per_client=40, rounds=4, seed=6)
        result = run_experiment(cfg)
        assert [r.round for r in result.records] == [1, 2, 3, 4]
        for r in result.records:
            assert r.completed <= r.participants <= cfg.clients

    def test_mu_on_non_fedprox_rejected(self):
        with pytest.raises(ConfigurationError):
            config(algorithm="fedavg", mu=0.5)


class TestBuildClients:
    def test_store_rows_equal_per_client_temporal_splits(self):
        cfg = config(clients=7, samples_per_client=23, seed=3, d=3, num_sectors=2,
                     dirichlet_alpha=50.0)
        shards = client_shards(config_keys(cfg))
        _, plan, store = build_clients(cfg)
        for client, test_shard, (train, test) in zip(
                store, client_test_shards(store, plan), shards, strict=True):
            for got, (features, labels, sectors) in ((client.train, train),
                                                     (test_shard, test)):
                np.testing.assert_array_equal(got.features, features)
                np.testing.assert_array_equal(got.labels, labels)
                np.testing.assert_array_equal(got.sectors, sectors)
            # train shards are views of the store, not copies
            assert np.shares_memory(client.train.features, store.train.features)
        assert len(store.train) + len(store.test) == cfg.clients * cfg.samples_per_client

    def test_store_is_read_only_and_iterates_views_in_id_order(self):
        cfg = config(clients=1000, samples_per_client=10, d=3, dirichlet_alpha=100.0)
        _, _, store = build_clients(cfg)
        with pytest.raises(ValueError, match="read-only"):
            store.train.features[0, 0] = 1.0
        for part in (store.train, store.test):
            for array in (part.features, part.labels, part.sectors):
                assert not array.flags.writeable
        assert store.train_sizes.size == 1000
        assert [len(c.train) for c in store] == store.train_sizes.tolist()
        for client in store:
            assert np.shares_memory(client.train.features, store.train.features)
            assert np.shares_memory(client.train.labels, store.train.labels)
            assert np.shares_memory(client.train.sectors, store.train.sectors)

    @needs_vm_status
    def test_build_clients_holds_the_features_once(self):
        # The peak resident size may grow by at most 1.5 times the features
        # across build_clients; a record-ordered copy next to the store's
        # would double it.
        probe = VM_STATUS + textwrap.dedent("""\
            from riskfed.federation import ExperimentConfig, build_clients

            cfg = ExperimentConfig(algorithm="fral_cse", clients=100,
                                   samples_per_client=500, rounds=1, seed=1, d=100,
                                   dirichlet_alpha=100.0)
            before = status("VmRSS")
            build_clients(cfg)
            print(status("VmHWM") - before)
            """)
        proc = run_python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        grown = int(proc.stdout)
        assert grown <= 1.5 * PROBE_FEATURE_BYTES, grown / PROBE_FEATURE_BYTES

    @needs_vm_status
    def test_partition_report_draws_no_features(self, tmp_path):
        # The report reads only the labels and sectors, so the peak
        # resident size may grow by at most a quarter of the features
        # across it; drawing them would hold all of their bytes.
        config_path = tmp_path / "exp.conf"
        config_path.write_text(
            "algorithm = fral_cse\nclients = 100\nsamples_per_client = 500\n"
            "rounds = 1\nseed = 1\nd = 100\nalpha = 100\n", encoding="utf-8")
        probe = VM_STATUS + textwrap.dedent("""\
            import contextlib, io, sys
            from riskfed.cli import main

            before = status("VmRSS")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["partition-report", "--config", sys.argv[1]])
            print(code, status("VmHWM") - before)
            """)
        proc = run_python("-c", probe, str(config_path))
        assert proc.returncode == 0, proc.stderr
        code, grown = map(int, proc.stdout.split())
        assert code == 0
        assert grown < 0.25 * PROBE_FEATURE_BYTES, grown / PROBE_FEATURE_BYTES

    def test_build_data_and_plan_applies_the_split_check_of_run(self):
        # the config of test_cli.py's test_split_check_of_run_applies
        cfg = config(clients=4, samples_per_client=1, seed=1, d=4,
                     dirichlet_alpha=100.0)
        with pytest.raises(ConfigurationError) as caught:
            build_data_and_plan(cfg)
        assert str(caught.value) == (
            "client 0: split of 1 records at fraction 0.8 leaves an empty side")

    def test_averaging_step_trains_on_each_survivors_shard(self, monkeypatch):
        cfg = config(algorithm="fedprox", mu=0.1, clients=6, samples_per_client=30,
                     seed=5, d=3, num_sectors=2, local_epochs=2)
        _, _, store = build_clients(cfg)
        seen = []
        local_sgd = _kernels.local_sgd

        def recorded(features, labels, *args):
            seen.append((features, labels, args[6]))
            return local_sgd(features, labels, *args)

        monkeypatch.setattr(_kernels, "local_sgd", recorded)
        state = store.evaluate(np.full(4, 0.1), cfg.beta, cfg.c)
        survivors = np.array([0, 2, 3, 5])
        _averaging_step(state, store, cfg, survivors)
        assert len(seen) == survivors.size
        clients = list(store)
        for cid, (features, labels, tail) in zip(survivors.tolist(), seen):
            shard = clients[cid].train
            assert features.__array_interface__ == shard.features.__array_interface__
            assert labels.__array_interface__ == shard.labels.__array_interface__
            # the first epoch's tail is the evaluation's, in rows of the shard
            expected = state.tail_rows([cid]) - store.train_starts[cid]
            assert tail.tobytes() == expected.tobytes()


def averaging_step_from_scratch(state, store, config, survivors):
    """The averaging step as a plain loop: each survivor's local_sgd starts
    from its shard's tail at w, scored from the shard alone, and
    w_next += (n/total_n) * w_i runs in survivor-id order."""
    w = state.w
    if config.local_epochs == 0:
        return w
    total_n = int(store.train_sizes[survivors].sum())
    w_next = np.zeros_like(w)
    for cid in survivors.tolist():
        a, n = int(store.train_starts[cid]), int(store.train_sizes[cid])
        features, labels = store.train.features[a:a + n], store.train.labels[a:a + n]
        w_next += (n / total_n) * _kernels.local_sgd(
            features, labels, w, config.mu, config.beta, config.c, config.local_epochs,
            config.local_lr, tail_rows(features, labels, w, config.beta))
    return w_next


@settings(max_examples=60, deadline=None)
@given(clients=st.integers(1, 7), samples=st.sampled_from([12, 20]),
       seed=st.integers(0, 3), mu=st.sampled_from([0.0, 0.1, 0.7]),
       epochs=st.integers(0, 5), beta=st.sampled_from([0.5, 0.8, 0.9]),
       w_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_averaging_step_equals_the_from_scratch_loop(clients, samples, seed, mu, epochs,
                                                    beta, w_seed, data):
    # alpha 100 gives near-equal shards, so train sizes repeat; 12 records
    # a client leave 8 to 11 train rows, and at beta = 0.9 a shard of 9 or
    # fewer rows has an empty tail
    cfg = config(algorithm="fedprox" if mu else "fedavg", mu=mu, clients=clients,
                 samples_per_client=samples, seed=seed, d=3, dirichlet_alpha=100.0,
                 beta=beta, local_epochs=epochs, local_lr=0.3)
    _, _, store = build_clients(cfg)
    survivors = np.array(sorted(data.draw(
        st.sets(st.integers(0, clients - 1), min_size=1))), dtype=np.int64)
    w = np.random.default_rng(w_seed).standard_normal(4)
    state = store.evaluate(w, beta, cfg.c)
    got = _averaging_step(state, store, cfg, survivors)
    expected = averaging_step_from_scratch(state, store, cfg, survivors)
    assert got.tobytes() == expected.tobytes()


# The bound on the reference's floats: each row's train loss and step norm,
# relative, and the final weights, relative in norm. Over 2,400 drawn
# configs (1,433 of them run, the rest refused by both) the measured worst
# case was 1.4e-12, a fral_cse train loss at c = 0 and epsilon = 1e-3:
# there each step w - (S + eps I)^-1 g cancels about three digits, which
# is why epsilon is drawn from 1e-3 upward. fedavg's and fedprox's worst
# was 9.6e-15.
REFERENCE_BOUND = 1e-11


@st.composite
def small_configs(draw, algorithm):
    """A small synthetic config of algorithm: 1 to 12
    clients of 2 to 40 records, d from 2 to 8, 0 to 6 rounds, participation
    and dropout drawn. One dropout rate in four is round 1's draw of its
    first participant, who survives because the draw is at least the rate."""
    kw = dict(algorithm=algorithm, clients=draw(st.integers(1, 12)),
              samples_per_client=draw(st.integers(2, 40)), rounds=draw(st.integers(0, 6)),
              seed=draw(st.integers(0, 2**32 - 1)), d=draw(st.integers(2, 8)),
              num_sectors=draw(st.integers(1, 4)), signal=draw(st.floats(0.5, 3.0)),
              labels_per_client=draw(st.integers(1, 2)),
              dirichlet_alpha=draw(st.sampled_from([1.0, 10.0, 100.0])),
              beta=draw(st.floats(0.05, 0.95)),
              c=draw(st.sampled_from([0.0, 0.5, 1.0, 4.0])),
              epsilon=draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0])),
              participation_rate=draw(st.floats(0.1, 1.0)))
    if algorithm != "fral_cse":
        kw.update(local_epochs=draw(st.integers(0, 3)), local_lr=draw(st.floats(0.01, 0.5)))
    if algorithm == "fedprox":
        kw.update(mu=draw(st.sampled_from([0.0, 0.1, 1.0])))
    rate = draw(st.sampled_from([0.0, 0.3, 0.7, None]))
    if rate is None:
        seed = kw["seed"]
        first = round_participants(kw["clients"], kw["participation_rate"], seed, 1)[0]
        rate = dropout_uniform(seed, 1, first)
    return ExperimentConfig(dropout_rate=rate, **kw)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_equals_the_reference_run(algorithm, data):
    cfg = data.draw(small_configs(algorithm))
    keys = config_keys(cfg)
    try:
        result = run_experiment(cfg)
    except ExperimentError:
        result = None
    reference = reference_run(keys)
    assert (result is None) == (reference is None)
    if result is None:
        return
    rows, w = reference
    assert [(r.round, r.participants, r.completed) for r in result.records] == \
        [(row[0], row[3], row[4]) for row in rows]
    for record, (_, loss, accuracy, _, _, step) in zip(result.records, rows):
        assert abs(record.global_train_loss - loss) <= REFERENCE_BOUND * loss
        assert abs(record.step_norm - step) <= REFERENCE_BOUND * step
        if record.test_accuracy != accuracy:
            # the two runs' weights differ in their last bits, so one test
            # row whose score lies within 1e-9 of zero may fall on either side
            w_round = reference_run({**keys, "rounds": record.round})[1]
            tests = [test for _, test in client_shards(keys)]
            # a row's |risk| is |score|, its label being -1 or +1
            scores = np.abs(np.concatenate([risks(w_round, x, y) for x, y, _ in tests]))
            assert round(abs(record.test_accuracy - accuracy) * scores.size) == 1
            assert scores.min() <= 1e-9
    assert np.linalg.norm(result.final_weights - w) <= REFERENCE_BOUND * np.linalg.norm(w)
