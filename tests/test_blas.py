"""pin_one_thread's fallbacks: no maps file, and an OpenBLAS that does not
load; how both() hands its side call to the helper thread and back; and
that only fral_cse's central step starts the helper thread."""

import io
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from riskfed import _blas

from conftest import run_python

QUICKSTART = Path(__file__).resolve().parent.parent / "configs" / "quickstart.conf"


def test_without_maps_file_nothing_is_pinned(monkeypatch):
    def no_maps(*args, **kwargs):
        raise OSError("no /proc/self/maps")

    loaded = []
    monkeypatch.setattr(_blas, "open", no_maps, raising=False)
    monkeypatch.setattr(_blas.ctypes, "CDLL", loaded.append)
    _blas.pin_one_thread()
    assert loaded == []


def test_unloadable_library_is_skipped_and_the_rest_pinned(monkeypatch, tmp_path):
    broken = tmp_path / "libopenblas-broken.so"
    broken.write_bytes(b"not a shared object")
    good = "/usr/lib/libopenblas-good.so"
    maps = "".join(f"7f00-7f01 r-xp 00000000 08:01 {i} {path}\n"
                   for i, path in enumerate((broken, good, "/usr/lib/libc.so.6")))
    pinned = []

    class Library:
        def openblas_set_num_threads(self, n):
            pinned.append(n)

    real_cdll = _blas.ctypes.CDLL

    def cdll(path):
        return Library() if path == good else real_cdll(path)

    with pytest.raises(OSError):
        real_cdll(str(broken))
    monkeypatch.setattr(_blas, "open", lambda *a, **k: io.StringIO(maps),
                        raising=False)
    monkeypatch.setattr(_blas.ctypes, "CDLL", cdll)
    _blas.pin_one_thread()
    assert pinned == [1]


def test_side_runs_under_the_callers_errstate():
    big = np.full((4, 4), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            _, product = _blas.both(lambda: None, lambda: big @ big)
        # the same product warns where the caller does not ignore overflow
        with pytest.raises(RuntimeWarning, match="overflow"):
            _blas.both(lambda: None, lambda: big @ big)
    assert np.isinf(product).all()


def test_exception_in_side_reaches_the_caller():
    main_ran = []
    with pytest.raises(ZeroDivisionError):
        _blas.both(lambda: main_ran.append(True), lambda: 1 / 0)
    assert main_ran == [True]


def test_side_finishes_before_an_exception_in_main_propagates():
    started, finished = threading.Event(), []

    def side():
        started.set()
        time.sleep(0.2)
        finished.append(True)

    def main():
        assert started.wait(5)
        raise ValueError("main failed")

    with pytest.raises(ValueError, match="main failed"):
        _blas.both(main, side)
    assert finished == [True]


def test_commands_without_a_round_start_no_thread():
    # the helper's executor exists from import, and starts its thread only
    # at the first both(): validate and partition-report run no round
    probe = textwrap.dedent(f"""\
        import threading
        from riskfed.cli import main
        for command in ("validate", "partition-report"):
            assert main([command, "--config", {str(QUICKSTART)!r}]) == 0
        print(threading.active_count())
        """)
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


def test_only_the_central_step_starts_the_helper(tmp_path):
    # the evaluation runs on the caller, so the averaging runs start no
    # thread; fral_cse's tail_system starts the helper, which then stays
    shards = "clients = 4\nsamples_per_client = 30\nd = 3\nrounds = 2\nseed = 5\n"
    algorithms = {"fedavg": "algorithm = fedavg\n",
                  "fedprox": "algorithm = fedprox\nmu = 0.1\nlocal_epochs = 2\n",
                  "fral_cse": "algorithm = fral_cse\n"}
    for name, text in algorithms.items():
        (tmp_path / f"{name}.conf").write_text(text + shards, encoding="utf-8")
    probe = textwrap.dedent(f"""\
        import threading
        from pathlib import Path
        from riskfed.cli import main
        root = Path({str(tmp_path)!r})
        threads = {{}}
        for name in {list(algorithms)!r}:
            config, out = root / f"{{name}}.conf", root / name
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            threads[name] = threading.active_count()
        print(threads)
        """)
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str({"fedavg": 1, "fedprox": 1, "fral_cse": 2})
