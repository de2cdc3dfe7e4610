import errno
import os
from pathlib import Path

import pytest

from riskfed.cli import main, parse_config, resolved_config_text
from riskfed.data import generate_synthetic, write_csv
from riskfed.errors import ConfigurationError
from riskfed.federation import ExperimentConfig

from conftest import run_cli, run_python

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


def tree(root):
    """Each path under root -> its bytes, or None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


class DiskFull:
    """A text file opened as ``open`` would open it, whose first write
    reaches the disk and whose later writes fail with ENOSPC."""

    def __init__(self, *args, **kwargs):
        self.fh = open(*args, **kwargs)
        self.written = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        if self.written:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.fh.write(text)
        self.fh.flush()
        self.written = True


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

    def test_line_without_equals_sign_exit_code_two(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL.replace("clients = 3", "clients 3"))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: expected 'key = value'\n"

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

    @pytest.mark.parametrize("key, value", [
        ("participation_rate", "0.0"), ("dropout_rate", "1.0"), ("clients", "0"),
        ("d", "1"), ("num_sectors", "0"), ("signal", "0"), ("alpha", "0"),
        ("epsilon", "-1"), ("train_fraction", "1.0"), ("C", "0"),
        *[(key, "inf") for key in ("signal", "alpha", "epsilon", "c", "local_lr",
                                   "mu")],
    ])
    def test_rejected_value_named_with_line(self, tmp_path, key, value):
        # the key goes last, replacing any line of MINIMAL that sets it
        text = MINIMAL.replace("fral_cse", "fedprox") if key == "mu" else MINIMAL
        lines = [line for line in text.splitlines()
                 if not line.startswith(f"{key} =")] + [f"{key} = {value}"]
        path = write_config(tmp_path, "\n".join(lines) + "\n")
        reason = "is not finite" if value == "inf" else "out of range"
        with pytest.raises(ConfigurationError,
                           match=rf"exp\.conf:{len(lines)}: {key} = \S+ {reason}"):
            parse_config(path)
        assert main(["validate", "--config", str(path)]) == 2

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

    @pytest.mark.parametrize("key", ["seed", "C", "alpha"])
    def test_duplicate_key_rejected(self, tmp_path, key):
        # C and alpha set attributes of other names (labels_per_client,
        # dirichlet_alpha), so a duplicate is found by the config key
        lines = [line for line in MINIMAL.splitlines()
                 if not line.startswith(f"{key} =")] + [f"{key} = 1", f"{key} = 2"]
        path = write_config(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError,
                           match=rf"exp\.conf:{len(lines)}: duplicate key '{key}'"):
            parse_config(path)
        assert main(["validate", "--config", str(path)]) == 2

    def test_retired_workers_line_changes_nothing(self, tmp_path):
        plain = parse_config(write_config(tmp_path))
        retired = parse_config(write_config(tmp_path, MINIMAL + "workers = 8\n",
                                            "workers.conf"))
        assert resolved_config_text(retired) == resolved_config_text(plain)
        assert "workers" not in resolved_config_text(plain)
        with pytest.raises(TypeError):
            ExperimentConfig(algorithm="fral_cse", clients=3, samples_per_client=40,
                             rounds=2, seed=7, workers=1)

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

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # unpinned, OpenBLAS at 2 threads or its default summed this
        # config's products in another order than at 1 thread; confined to
        # one CPU, the helper thread's calls interleave with the caller's
        config = write_config(tmp_path, (
            "algorithm = fral_cse\nclients = 10\nsamples_per_client = 500\n"
            "d = 130\nrounds = 3\nseed = 1\nnum_sectors = 1\nsignal = 3.0\n"
            "alpha = 10\nepsilon = 2.0\n"))
        one_cpu = ("import os, sys\n"
                   "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                   "assert len(os.sched_getaffinity(0)) == 1\n"
                   "from riskfed.cli import main\n"
                   "sys.exit(main(sys.argv[1:]))\n")
        artifacts = {}
        for threads in ("2", "1", None, "one cpu"):
            out = tmp_path / f"threads-{threads}"
            args = ("run", "--config", str(config), "--out", str(out))
            env_vars = {"OPENBLAS_NUM_THREADS": threads,
                        "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}
            if threads == "one cpu":
                proc = run_python("-c", one_cpu, *args,
                                  env_vars=dict(env_vars, OPENBLAS_NUM_THREADS=None))
            else:
                proc = run_cli(*args, env_vars=env_vars)
            assert proc.returncode == 0, proc.stderr
            run_dir = next(out.iterdir())
            artifacts[threads] = [(run_dir / name).read_bytes()
                                  for name in ("metrics.csv", "weights.csv")]
        assert artifacts["2"] == artifacts["1"] == artifacts[None] == artifacts["one cpu"]

    def test_run_twice_identical_metrics(self, tmp_path):
        config = write_config(tmp_path)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            run_dir = next(out.iterdir())
            blobs.append((run_dir / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_byte_order_mark_config_runs(self, tmp_path):
        # line 1 is a comment, as in configs/quickstart.conf
        text = "# three clients\n" + MINIMAL
        blobs = []
        for name, head in (("plain.conf", b""), ("bom.conf", b"\xef\xbb\xbf")):
            config = tmp_path / name
            config.write_bytes(head + text.encode())
            out = tmp_path / name.replace(".conf", "")
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            blobs.append((next(out.iterdir()) / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_config_exit_code_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.conf"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config_exit_code_two(self, tmp_path, capsys, kind):
        path = tmp_path / "exp.conf"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: cannot read: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "partition-report"])
    def test_out_that_is_a_file_exit_code_two(self, tmp_path, command):
        # the records do not exist: building the data first would exit 3
        config = write_config(tmp_path, MINIMAL + f"data_csv = {tmp_path / 'no.csv'}\n")
        out = tmp_path / "taken"
        out.write_text("kept\n", encoding="utf-8")
        proc = run_cli(command, "--config", str(config), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: --out {out}: {out} is not a directory\n"
        assert out.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("command", ["run", "partition-report"])
    def test_out_through_a_dangling_symlink_exit_code_two(self, tmp_path, capsys,
                                                          command, below):
        # the records do not exist: building the data first would exit 3
        config = write_config(tmp_path, MINIMAL + f"data_csv = {tmp_path / 'no.csv'}\n")
        target = tmp_path / "missing" / "dir"
        link = tmp_path / "link"
        link.symlink_to(target)
        out = link / "sub" if below else link
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {link} is not a directory\n"
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["run", "partition-report"])
    def test_out_with_an_over_long_name_exit_code_two(self, tmp_path, command):
        # the records do not exist: building the data first would exit 3
        config = write_config(tmp_path, MINIMAL + f"data_csv = {tmp_path / 'no.csv'}\n")
        out = tmp_path / ("o" * 300) / "runs"
        proc = run_cli(command, "--config", str(config), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: --out {out}: {os.strerror(errno.ENAMETOOLONG)}\n"

    @pytest.mark.parametrize("broken", ["mkdir", "open"])
    @pytest.mark.parametrize("command", ["run", "partition-report"])
    def test_out_that_cannot_be_written_exit_code_two(self, tmp_path, capsys,
                                                      monkeypatch, command, broken):
        # root may write anywhere, so the refusal is patched in: making the
        # directory, or opening partition.csv, the artifact both commands write
        def refuse(*args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

        config = write_config(tmp_path)
        out = tmp_path / "runs"
        if broken == "mkdir":
            monkeypatch.setattr(Path, "mkdir", refuse)
        else:
            monkeypatch.setattr("riskfed.partition.open", refuse, raising=False)
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: cannot write: {os.strerror(errno.EACCES)}\n")

    @pytest.mark.parametrize("command", ["run", "partition-report"])
    def test_failed_write_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch,
                                               command):
        # the disk fills after the first line of partition.csv, the last
        # artifact run writes: no part of a run directory may be left, and
        # an earlier report's partition.csv must not be cut short
        out = tmp_path / "out"
        if command == "partition-report":
            earlier = write_config(tmp_path, MINIMAL.replace("seed = 7", "seed = 8"),
                                   name="earlier.conf")
            assert main([command, "--config", str(earlier), "--out", str(out)]) == 0
            capsys.readouterr()
        before = tree(out)
        monkeypatch.setattr("riskfed.partition.open", DiskFull, raising=False)
        config = write_config(tmp_path)
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: cannot write: {os.strerror(errno.ENOSPC)}\n")
        assert tree(out) == before

    @pytest.mark.parametrize("command", ["run", "partition-report"])
    def test_config_too_large_for_memory_exit_code_two(self, tmp_path, capsys, command):
        # 10^18 records: the first array asks for 8 * 10^18 bytes, more than
        # any 64-bit address space, so the request fails before anything is
        # allocated
        text = MINIMAL.replace("clients = 3", "clients = 1000").replace(
            "samples_per_client = 40", "samples_per_client = 1000000000000000")
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: not enough memory for this config: ")
        assert not out.exists()

    def test_bad_data_csv_exit_code_three(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("feature_0,feature_1,label\n1.0,2.0,0\n", encoding="utf-8")
        config = write_config(tmp_path, MINIMAL + f"data_csv = {bad}\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3
        assert list((tmp_path / "o").glob("*")) == []  # no run directory left

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8",
                                      "cell past the csv field limit"])
    def test_unreadable_data_csv_exit_code_three(self, tmp_path, capsys, kind):
        path = tmp_path / "records.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(b"feature_0,feature_1,label\n\xff\xfe,2.0,1\n")
        elif kind == "cell past the csv field limit":
            path.write_text("feature_0,label\n" + "1" * 200_000 + ",1\n",
                            encoding="utf-8")
        config = write_config(tmp_path, MINIMAL + f"data_csv = {path}\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: cannot read: ")
        assert list((tmp_path / "o").glob("*")) == []  # no run directory left

    def test_divergence_exit_code_four_names_round(self, tmp_path, capsys):
        # fedavg at local_lr = 1e6 overflows; the train loss first reads inf
        # in round 9, which used to be written to metrics.csv with exit 0
        text = ("algorithm = fedavg\nclients = 4\nsamples_per_client = 50\n"
                "rounds = 12\nseed = 0\nd = 4\nlocal_lr = 1e6\nlocal_epochs = 3\n")
        config = write_config(tmp_path, text)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "round 9: train loss is not finite" in capsys.readouterr().err
        assert list((tmp_path / "o").glob("*")) == []  # no run directory left

    @pytest.mark.parametrize("c", ["1e308", "1e150"])
    def test_curvature_too_large_to_factor_blames_the_scale(self, tmp_path, capsys, c):
        # S + eps I is at least (1 + eps) I, but beside entries near c the
        # identity rounds away and the factorization fails in round 2; the
        # smallest eigenvalue reads 1.7e+291 at c = 1e308, and -1.8e+134,
        # within the eigensolver's rounding of zero, at c = 1e150
        text = ("algorithm = fral_cse\nclients = 1\nsamples_per_client = 20\n"
                "rounds = 2\nseed = 2\nd = 4\nnum_sectors = 3\nC = 3\nalpha = 1e150\n"
                f"c = {c}\n")
        config = write_config(tmp_path, text)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "error: round 2: sensitivity system is too large in scale to factor")
        assert list((tmp_path / "o").glob("*")) == []  # no run directory left

    @pytest.mark.parametrize("overrides, error", [
        # the quickstart as fedavg: w @ w and the step norm overflow first
        ("algorithm = fedavg\nlocal_lr = 1e6\n",
         "round 26: train loss is not finite (inf)"),
        # local training overflows; the retired workers line is read and ignored
        ("algorithm = fedprox\nmu = 0.5\nlocal_lr = 1e150\nlocal_epochs = 5\n"
         "workers = 2\n",
         "round 1: weights are not finite after the update"),
        # a finite but huge feature overflows the Gram to inf before the
        # Cholesky factorization
        ("algorithm = fral_cse\ndata_csv = {huge_csv}\n",
         "round 4: sensitivity system is not finite"),
    ])
    def test_divergence_prints_only_the_error_line(self, tmp_path, overrides, error):
        huge = generate_synthetic(200, 2, 1, seed=0)
        huge.features[5, 0] = 1e200
        write_csv(huge, tmp_path / "huge.csv")
        text = ("clients = 10\nsamples_per_client = 1000\nrounds = 50\nseed = 42\n"
                "d = 20\nnum_sectors = 2\nsignal = 2.5\n" + overrides)
        config = write_config(tmp_path, text.format(huge_csv=tmp_path / "huge.csv"))
        out = run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
        assert out.returncode == 4
        assert out.stderr == f"error: {error}\n"

    @pytest.mark.parametrize("rounds", [0, 1])
    def test_initial_weights_overflow_prints_no_warning(self, tmp_path, rounds):
        # the train loss at the initial weights overflows to inf; round 1
        # has no survivor, so its record carries that loss and the guard
        # names round 1; with no round, nothing non-finite is written
        text = ("algorithm = fedprox\nclients = 2\nsamples_per_client = 3\n"
                f"rounds = {rounds}\nseed = 0\nd = 2\nsignal = 1e150\nbeta = 0.5\n"
                "c = 1e308\nalpha = 100\nparticipation_rate = 0.5\n"
                "dropout_rate = 0.999999\nnum_sectors = 2\nC = 2\nlocal_lr = 1e200\n"
                "local_epochs = 3\nmu = 0.1\n")
        config = write_config(tmp_path, text)
        out = run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"))
        if rounds:
            assert out.returncode == 4
            assert out.stderr == "error: round 1: train loss is not finite (inf)\n"
            assert list((tmp_path / "o").glob("*")) == []  # no run directory left
        else:
            assert (out.returncode, out.stderr) == (0, "")
            for artifact in Path(out.stdout.strip()).iterdir():
                body = artifact.read_text(encoding="utf-8").lower()
                assert "inf" not in body and "nan" not in body, artifact.name

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

    @pytest.mark.parametrize("line", ["d = 1", "num_sectors = 0", "signal = 0"])
    @pytest.mark.parametrize("with_csv, code", [(True, 0), (False, 2)])
    def test_synthetic_keys_unchecked_with_data_csv(self, tmp_path, line, with_csv, code):
        # d, num_sectors and signal shape synthetic data only, so a config
        # may describe a one-feature CSV honestly
        records = tmp_path / "one.csv"
        records.write_text("feature_0,label\n0.5,1\n-0.5,-1\n0.25,1\n", encoding="utf-8")
        text = MINIMAL.replace("d = 4\n", "") + line + "\n"
        if with_csv:
            text += f"data_csv = {records}\n"
        assert main(["validate", "--config", str(write_config(tmp_path, text))]) == code


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

    def test_split_check_of_run_applies(self, tmp_path, capsys):
        text = ("algorithm = fral_cse\nclients = 4\nsamples_per_client = 1\n"
                "rounds = 1\nseed = 1\nd = 4\nnum_sectors = 1\nalpha = 100\n")
        config = write_config(tmp_path, text)
        error = "error: client 0: split of 1 records at fraction 0.8 leaves an empty side\n"
        assert main(["partition-report", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", error)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == error

    @pytest.mark.parametrize("records", ["synthetic", "data_csv"])
    def test_report_writes_the_partition_of_run(self, tmp_path, records):
        text = ("algorithm = fral_cse\nclients = 6\nsamples_per_client = 50\n"
                "rounds = 1\nseed = 4\nd = 3\nnum_sectors = 3\nC = 2\nalpha = 5\n")
        if records == "data_csv":
            write_csv(generate_synthetic(240, 3, 3, seed=8), tmp_path / "records.csv")
            text += f"data_csv = {tmp_path / 'records.csv'}\n"
        config = write_config(tmp_path, text)
        assert main(["partition-report", "--config", str(config),
                     "--out", str(tmp_path / "report")]) == 0
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert ((tmp_path / "report" / "partition.csv").read_bytes()
                == (run_dir / "partition.csv").read_bytes())

    @pytest.mark.parametrize("keys, error", [
        ("num_sectors = 2\nC = 3\n", "C must lie in [1, 2], got 3"),
        ("num_sectors = 3\n",
         "C = 1 with 2 clients cannot cover 3 sector groups; raise C or clients"),
    ], ids=["above_group_count", "coverage"])
    def test_partition_errors_name_c(self, tmp_path, capsys, keys, error):
        text = ("algorithm = fral_cse\nclients = 2\nsamples_per_client = 50\n"
                "rounds = 1\nseed = 1\nd = 4\n" + keys)
        config = write_config(tmp_path, text)
        assert main(["partition-report", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


class TestShippedConfigs:
    """The configs the README's commands name stay valid under the schema."""

    @pytest.mark.parametrize("config", sorted(p for p in CONFIGS.iterdir() if p.is_file()),
                             ids=lambda p: p.name)
    def test_validates(self, config):
        assert main(["validate", "--config", str(config)]) == 0

    def test_quickstart_runs_and_writes_four_artifacts(self, tmp_path):
        out = tmp_path / "runs"
        assert main(["run", "--config", str(CONFIGS / "quickstart.conf"),
                     "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "metrics.csv", "partition.csv", "resolved_config.txt", "weights.csv"]
