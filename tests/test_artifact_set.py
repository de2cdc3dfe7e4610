"""The artifact set of tools/artifact_set.py: 41 artifacts from configs
that riskfed accepts."""

import sys
from pathlib import Path

import pytest

from riskfed.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import artifact_set  # noqa: E402


def test_eleven_runs_and_four_reports_make_41_artifacts():
    assert set(artifact_set.REPORTS) <= set(artifact_set.RUNS)
    assert (len(artifact_set.RUNS) * len(artifact_set.RUN_FILES)
            + 2 * len(artifact_set.REPORTS)) == 41


@pytest.mark.parametrize("name", list(artifact_set.RUNS))
def test_config_validates(name, tmp_path, capsys):
    records = tmp_path / "records.csv"
    config = artifact_set.write_configs(tmp_path, records)[name]
    assert main(["validate", "--config", str(config)]) == 0
    reads_records = f"data_csv = {records}\n" in capsys.readouterr().out
    assert reads_records == (name in artifact_set.CSV_RUNS)
