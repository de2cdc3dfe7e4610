import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskfed
from riskfed.cli import main, parse_config, resolved_config_text
from riskfed.errors import ConfigurationError

MINIMAL = """\
algorithm = fral_cse
clients = 3
samples_per_client = 40
rounds = 2
seed = 7
d = 4
"""


def write_config(tmp_path, text=MINIMAL, name="exp.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(*args):
    """The riskfed CLI in a fresh interpreter, importing the riskfed under
    test, with Python's default warning filters."""
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    package_root = str(Path(riskfed.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-m", "riskfed.cli", *args],
                          capture_output=True, text=True, env=env)


class TestParseConfig:
    def test_minimal_config_fully_defaulted(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.algorithm == "fral_cse"
        assert cfg.beta == 0.8
        assert cfg.c == 1.0
        assert cfg.epsilon == 1e-3
        assert cfg.dirichlet_alpha == 1.0
        assert cfg.labels_per_client == 1
        assert cfg.train_fraction == 0.8
        assert cfg.local_lr == 0.05
        assert cfg.local_epochs == 0  # fral_cse default
        assert cfg.num_sectors == 3  # min(clients, 5)

    def test_local_epochs_default_per_algorithm(self, tmp_path):
        text = MINIMAL.replace("fral_cse", "fedavg")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.local_epochs == 1

    def test_float_key_parsed(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL + "beta = 0.8\n"))
        assert cfg.beta == 0.8

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# experiment\n\n" + MINIMAL + "beta = 0.6  # tail level\n"
        assert parse_config(write_config(tmp_path, text)).beta == 0.6

    def test_unknown_key_with_line_number(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "betaa = 0.8\n")
        with pytest.raises(ConfigurationError, match=r":7.*betaa"):
            parse_config(path)

    def test_type_mismatch_named(self, tmp_path):
        path = write_config(tmp_path, MINIMAL.replace("rounds = 2", "rounds = two"))
        with pytest.raises(ConfigurationError, match="rounds"):
            parse_config(path)

    def test_out_of_range_named_with_line(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "participation_rate = 1.5\n")
        with pytest.raises(ConfigurationError, match=r":7.*participation_rate"):
            parse_config(path)

    def test_missing_required_keys(self, tmp_path):
        path = write_config(tmp_path, "algorithm = fedavg\n")
        with pytest.raises(ConfigurationError, match="missing required"):
            parse_config(path)

    def test_mu_outside_fedprox_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "mu = 0.1\n")
        with pytest.raises(ConfigurationError, match="fedprox"):
            parse_config(path)

    def test_hash_inside_value_kept(self, tmp_path):
        csv_path = tmp_path / "a#b" / "d.csv"
        path = write_config(tmp_path, MINIMAL + f"data_csv = {csv_path}\n")
        assert parse_config(path).data_csv == str(csv_path)

    def test_hash_after_whitespace_starts_comment(self, tmp_path):
        text = MINIMAL.replace("seed = 7", "seed = 1  # note")
        assert parse_config(write_config(tmp_path, text)).seed == 1

    def test_local_epochs_rejected_for_fral_with_line(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "local_epochs = 2\n")
        with pytest.raises(ConfigurationError, match=r"exp\.conf:7: local_epochs"):
            parse_config(path)
        assert main(["validate", "--config", str(path)]) == 2

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "seed = 8\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(path)

    def test_resolved_text_round_trips(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        resolved = write_config(tmp_path, resolved_config_text(cfg), "resolved.conf")
        again = parse_config(resolved)
        assert resolved_config_text(again) == resolved_config_text(cfg)


class TestMainRun:
    def test_run_writes_exactly_four_artifacts(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        run_dirs = list(out.iterdir())
        assert len(run_dirs) == 1
        names = sorted(p.name for p in run_dirs[0].iterdir())
        assert names == ["metrics.csv", "partition.csv", "resolved_config.txt",
                         "weights.csv"]

    def test_run_twice_identical_metrics(self, tmp_path):
        config = write_config(tmp_path)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            run_dir = next(out.iterdir())
            blobs.append((run_dir / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_config_exit_code_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.conf"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_data_csv_exit_code_three(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("feature_0,feature_1,label\n1.0,2.0,0\n", encoding="utf-8")
        config = write_config(tmp_path, MINIMAL + f"data_csv = {bad}\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3
        assert list((tmp_path / "o").glob("*")) == []  # no run directory left

    def test_divergence_exit_code_four_names_round(self, tmp_path, capsys):
        # fedavg at local_lr = 1e6 overflows; the train loss first reads inf
        # in round 9, which used to be written to metrics.csv with exit 0
        text = ("algorithm = fedavg\nclients = 4\nsamples_per_client = 50\n"
                "rounds = 12\nseed = 0\nd = 4\nlocal_lr = 1e6\nlocal_epochs = 3\n")
        config = write_config(tmp_path, text)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "round 9: train loss is not finite" in capsys.readouterr().err
        assert list((tmp_path / "o").glob("*")) == []  # no run directory left

    @pytest.mark.parametrize("overrides, error", [
        # the quickstart as fedavg: w @ w and the step norm overflow first
        ("algorithm = fedavg\nlocal_lr = 1e6\n",
         "round 26: train loss is not finite (inf)"),
        # local training on two threads overflows inside the pool
        ("algorithm = fedprox\nmu = 0.5\nlocal_lr = 1e150\nlocal_epochs = 5\n"
         "workers = 2\n",
         "round 1: weights are not finite after the update"),
    ])
    def test_divergence_prints_only_the_error_line(self, tmp_path, overrides, error):
        text = ("clients = 10\nsamples_per_client = 1000\nrounds = 50\nseed = 42\n"
                "d = 20\nnum_sectors = 2\nsignal = 2.5\n" + overrides)
        config = write_config(tmp_path, text)
        out = run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
        assert out.returncode == 4
        assert out.stderr == f"error: {error}\n"

    def test_starved_client_error_names_sector_and_alpha(self, tmp_path, capsys):
        text = ("algorithm = fral_cse\nclients = 1000\nsamples_per_client = 40\n"
                "rounds = 1\nseed = 7\nd = 30\nnum_sectors = 5\n")
        config = write_config(tmp_path, text)
        assert main(["partition-report", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: client 34 received zero records from sector 2 at alpha = 1.0; "
            "raise alpha for more even Dirichlet shares, or retry with a new seed\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert list((tmp_path / "o").glob("*")) == []  # no run directory left
        with_alpha = write_config(tmp_path, text + "alpha = 100\n", "alpha.conf")
        assert main(["partition-report", "--config", str(with_alpha)]) == 0

    def test_split_error_names_client(self, tmp_path, capsys):
        text = ("algorithm = fral_cse\nclients = 100\nsamples_per_client = 1000\n"
                "rounds = 1\nseed = 1\nd = 130\n")
        config = write_config(tmp_path, text)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: client 45: split of 1 records at fraction 0.8 leaves an empty side\n")

    def test_zero_rounds_header_only_metrics(self, tmp_path):
        config = write_config(tmp_path, MINIMAL.replace("rounds = 2", "rounds = 0"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        lines = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        weights = (run_dir / "weights.csv").read_text(encoding="utf-8").splitlines()
        assert weights[0] == "index,value"
        assert len(weights) == 1 + 5  # d + bias


class TestMainValidate:
    def test_good_config_prints_resolved(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["validate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "algorithm = fral_cse" in out
        assert "epsilon = 0.001" in out

    def test_bad_config_exit_two(self, tmp_path):
        config = write_config(tmp_path, MINIMAL + "beta = 1.4\n")
        assert main(["validate", "--config", str(config)]) == 2


class TestMainPartitionReport:
    def test_report_and_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "part"
        code = main(["partition-report", "--config", str(config),
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "client 0:" in printed
        assert "partition valid" in printed
        lines = (out / "partition.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "client_id,record_index"
        assert len(lines) == 1 + 3 * 40
