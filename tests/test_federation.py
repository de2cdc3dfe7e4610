import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from riskfed import _kernels
from riskfed._pcg import first_uniforms
from riskfed.data import temporal_split
from riskfed.errors import ConfigurationError
from riskfed.federation import (
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
from riskfed.store import ClientState

from conftest import client_records, make_dataset, make_store, run_python


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
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


def client_from(features, labels, client_id=0):
    data = make_dataset(features, labels)
    return ClientState(client_id=client_id, train=data, test=data)


def run_round(w, clients, cfg, round_index):
    """One round of cfg's algorithm from weights w over a store of the
    clients: (w_next, record)."""
    store = make_store([(c.train, c.test) for c in clients])
    after, record = _ROUND_FN[cfg.algorithm](store.evaluate(w, cfg.beta, cfg.c), store,
                                             cfg, round_index)
    return after.w, record


def det3(a):
    return (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))


def cramer3(a, b):
    d = det3(a)
    out = np.empty(3)
    for j in range(3):
        m = a.copy()
        m[:, j] = b
        out[j] = det3(m) / d
    return out


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
                draws = first_uniforms([seed, rnd, 5], participants)
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
        # reference: one fresh generator per (seed, round, stream 5, client)
        participants = np.sort(np.random.default_rng(4).choice(3000, 700,
                                                                replace=False))
        for seed, rnd, rate in ((0, 1, 0.1), (2**40 + 7, 12, 0.5), (9, 3, 0.0)):
            expected = [int(cid) for cid in participants
                        if np.random.default_rng([seed, rnd, 5, int(cid)]).random()
                        >= rate]
            got = apply_dropout(participants, rate, rnd, seed)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)


def find_all_drop_round(cfg):
    for rnd in range(1, 200):
        participants = sample_participants(cfg.clients, cfg.participation_rate,
                                            rnd, cfg.seed)
        if apply_dropout(participants, cfg.dropout_rate, rnd, cfg.seed).size == 0:
            return rnd
    raise AssertionError("no all-drop round found")


class TestFralRound:
    def test_closed_form_regularizer_only(self):
        # c = 0: gradient = w, S = I, so w' = w - w/(1+eps) = (eps/(1+eps)) w
        rng = np.random.default_rng(0)
        clients = [client_from(rng.standard_normal((5, 2)),
                               rng.choice([-1.0, 1.0], 5), cid)
                   for cid in range(3)]
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
        grad = client_report(w, clients[0].train, beta=0.5, c=1.0).gradient
        jac = np.array([-2.0, 0.0, 1.0])
        s = np.eye(3) + 0.5 * np.outer(jac, jac)
        step = cramer3(s + 0.5 * np.eye(3), grad)
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
        result = run_experiment(cfg)
        ratio = 0.001 / 1.001
        expected = (ratio ** 7) * np.linalg.norm(result.initial_weights)
        assert np.linalg.norm(result.final_weights) == pytest.approx(
            expected, rel=1e-10
        )


class TestFedavgRound:
    def test_zero_epochs_degenerate(self):
        clients = [client_from([[1.0, 0.0], [-2.0, 0.0]], [1.0, 1.0])]
        cfg = config(algorithm="fedavg", local_epochs=0)
        w = np.array([0.3, 0.1, -0.2])
        w_next, _ = run_round(w, clients, cfg, round_index=1)
        np.testing.assert_array_equal(w_next, w)

    def test_single_client_one_epoch_plain_gradient_step(self):
        clients = [client_from([[1.0, 0.0], [-2.0, 0.0]], [1.0, 1.0])]
        cfg = config(algorithm="fedavg", local_epochs=1, local_lr=0.05, beta=0.5)
        w = np.array([1.0, 0.0, 0.0])
        grad = client_report(w, clients[0].train, beta=0.5, c=1.0).gradient
        w_next, _ = run_round(w, clients, cfg, round_index=1)
        np.testing.assert_allclose(w_next, w - 0.05 * grad, atol=1e-14)

    def test_duplicated_client_invariance(self):
        rng = np.random.default_rng(9)
        features = rng.standard_normal((6, 2))
        labels = rng.choice([-1.0, 1.0], 6)
        single = [client_from(features, labels)]
        doubled = [client_from(features, labels, 0), client_from(features, labels, 1)]
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
        # the minimizer sits ||grad||/mu from the anchor
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
        np.testing.assert_array_equal(result.initial_weights, result.final_weights)

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
        test_x = np.vstack([c.test.features for c in store])
        test_y = np.concatenate([c.test.labels for c in store])
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
        data, _ = build_data_and_plan(cfg)
        _, plan, store = build_clients(cfg)
        assert [c.client_id for c in store] == list(range(7))
        for client, idx in zip(store, client_records(plan)):
            records = make_dataset(data.features[idx], data.labels[idx], data.sectors[idx])
            train, test = temporal_split(records, cfg.train_fraction)
            for got, want in ((client.train, train), (client.test, test)):
                np.testing.assert_array_equal(got.features, want.features)
                np.testing.assert_array_equal(got.labels, want.labels)
                np.testing.assert_array_equal(got.sectors, want.sectors)
            # shards are views of the store, not copies
            assert np.shares_memory(client.train.features, store.train.features)
            assert np.shares_memory(client.test.features, store.test.features)
        assert len(store.train) + len(store.test) == len(data)

    def test_store_is_read_only_and_iterates_views_in_id_order(self):
        cfg = config(clients=1000, samples_per_client=10, d=3, dirichlet_alpha=100.0)
        _, _, store = build_clients(cfg)
        with pytest.raises(ValueError, match="read-only"):
            store.train.features[0, 0] = 1.0
        for part in (store.train, store.test):
            for array in (part.features, part.labels, part.sectors):
                assert not array.flags.writeable
        assert len(store) == 1000
        assert [c.client_id for c in store] == list(range(1000))
        for client in store:
            for shard, whole in ((client.train, store.train), (client.test, store.test)):
                assert np.shares_memory(shard.features, whole.features)
                assert np.shares_memory(shard.labels, whole.labels)
                assert np.shares_memory(shard.sectors, whole.sectors)

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
            cfg.validate()
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
            seen.append((features, labels))
            return local_sgd(features, labels, *args)

        monkeypatch.setattr(_kernels, "local_sgd", recorded)
        state = store.evaluate(np.full(4, 0.1), cfg.beta, cfg.c)
        survivors = np.array([0, 2, 3, 5])
        _averaging_step(state, store, cfg, survivors)
        assert len(seen) == survivors.size
        clients = list(store)
        for cid, (features, labels) in zip(survivors.tolist(), seen):
            shard = clients[cid].train
            assert features.__array_interface__ == shard.features.__array_interface__
            assert labels.__array_interface__ == shard.labels.__array_interface__
