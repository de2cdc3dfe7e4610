"""The repository's pytest settings keep a failing test readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(x):
    assert x < 10
"""


def test_failing_property_test_shows_its_example(tmp_path):
    # under filterwarnings = error, a deprecation raised while hypothesis
    # built the report ended the session in INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
