"""The artifact set of tools/artifact_set.py: 56 artifacts from configs
that riskfed accepts, whose hashes on the backend named in
tools/artifact_set.sha256 are the ones that file holds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskfed
from riskfed.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import artifact_set  # noqa: E402


def test_twelve_runs_and_four_reports_make_56_artifacts():
    assert set(artifact_set.REPORTS) <= set(artifact_set.RUNS)
    assert (len(artifact_set.RUNS) * len(artifact_set.RUN_FILES)
            + 2 * len(artifact_set.REPORTS)) == 56


@pytest.mark.parametrize("name", list(artifact_set.RUNS))
def test_config_validates(name, tmp_path, capsys):
    records = artifact_set.ROOT / "records.csv"
    config = artifact_set.write_configs(tmp_path, records)[name]
    assert main(["validate", "--config", str(config)]) == 0
    reads_records = "data_csv = records.csv\n" in capsys.readouterr().out
    assert reads_records == (name in artifact_set.CSV_RUNS)


def test_importing_the_tool_leaves_the_blas_pin_unset():
    """perfbench/run.py pins the BLAS through os.environ when it is imported;
    importing the tool, which imports it, leaves the pin's variables as they
    were, so a test session and its subprocesses keep their thread counts."""
    pin = sorted(artifact_set.bench.PIN)
    env = {k: v for k, v in os.environ.items() if k not in pin}
    code = ("import os, sys; sys.path.insert(0, 'tools'); import artifact_set; "
            f"print([k for k in {pin!r} if k in os.environ])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=artifact_set.ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# a quick run of each algorithm and one report, for another backend
FEW_RUNS = ("quickstart", "fedavg_small", "fedprox_empty_tail", "fral_cse_dropout")
FEW_REPORTS = ("quickstart",)


def test_artifacts_match_the_committed_hashes(monkeypatch, capsys):
    """On the committed backend every artifact hash is the committed one;
    on another, two runs of a few configs write the same bytes."""
    package_root = str(Path(riskfed.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    committed = artifact_set.ROOT / "tools" / "artifact_set.sha256"
    lines = committed.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    backend = artifact_set.fingerprint()
    if backend == header:
        assert artifact_set.artifact_lines() == lines[len(header):]
        return
    with capsys.disabled():
        print("", f"{committed.name} holds the hashes of", *header,
              "this backend is", *backend, "so two runs of a few configs are "
              "compared instead", sep="\n")
    first = artifact_set.artifact_lines(FEW_RUNS, FEW_REPORTS)
    assert first == artifact_set.artifact_lines(FEW_RUNS, FEW_REPORTS)
