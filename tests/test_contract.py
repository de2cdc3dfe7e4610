"""The exit-code contract, fuzzed: small config files drawn from
CONFIG_SCHEMA, each optional key left out or set at a range edge, just
inside or outside it, or at a magnitude from 1e-300 to 1e308, each run
in process through ``cli.main``.

A run exits 0, 2, 3 or 4. A failure prints one ``error:`` line and
leaves nothing under --out; a success writes the four artifacts, none
holding inf or nan. pyproject.toml turns warnings into errors, so a
numpy warning that leaks out of a run fails the test as well.
"""

import contextlib
import io
import math
import re
import tempfile
from dataclasses import MISSING
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskfed.cli import main
from riskfed.federation import ALGORITHMS, CONFIG_SCHEMA, VALUE_TYPES

ARTIFACTS = ["metrics.csv", "partition.csv", "resolved_config.txt", "weights.csv"]
KEYS = [key for key in CONFIG_SCHEMA if key != "data_csv"]
# a required number's value where it is not drawn: a small run whose
# plan most often gives every client a train and a test row
REQUIRED = {"clients": 3, "samples_per_client": 20, "rounds": 2, "seed": 0}
# the magnitudes of a float drawn at the tiny or the huge scale
MAGNITUDES = {"tiny": [1e-300, 1e-150], "huge": [1e150, 1e308]}


def candidates(key, scale):
    """key's values to draw at a scale: each bound its range names and its
    neighbours, or for a float at the tiny or huge scale, MAGNITUDES."""
    f = CONFIG_SCHEMA[key]
    if key == "algorithm":
        return [*ALGORITHMS, "fedsgd"]
    bounds = [float(b) for b in re.findall(r"\d+", f.metadata["expected"])]
    if VALUE_TYPES[f.name] is int:
        return sorted({int(b) + i for b in bounds for i in (-1, 0, 1, 2)})
    if scale in MAGNITUDES:
        return MAGNITUDES[scale]
    return sorted({np.nextafter(b, side) for b in bounds for side in (-math.inf, math.inf)}
                  | set(bounds))


def value(key, scale, outside: bool):
    """A value of key at a scale, out of its range or in it; a key in its
    range may also be left out where it has a default, or take REQUIRED's
    value. Where the scale has no such value, the range's edges do."""
    f = CONFIG_SCHEMA[key]
    pool, edges = ([v for v in candidates(key, s) if f.metadata["valid"](v) != outside]
                   for s in (scale, "edges"))
    drawn = st.sampled_from(pool or edges)
    if outside:
        return drawn
    if f.default is not MISSING:
        return st.none() | drawn
    return st.just(REQUIRED[key]) | drawn if key in REQUIRED else drawn


@st.composite
def config_files(draw):
    """The text of a config file whose floats are drawn at one scale, so
    that huge values meet as they do in a diverging run; one file in four
    has one key out of its range."""
    scale = draw(st.sampled_from(["edges", *MAGNITUDES]))
    outside = draw(st.sampled_from(KEYS)) if draw(st.integers(0, 3)) == 0 else None
    lines = [f"{key} = {v}\n" for key in KEYS
             if (v := draw(value(key, scale, key == outside))) is not None]
    return "".join(lines)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(config_files())
# the train loss at the initial weights overflows: a huge c and signal, and
# a client that holds two sectors. Drawn files seldom meet all three, so
# this one stays, with round 1's only participant dropped out
@example("algorithm = fedprox\nclients = 2\nsamples_per_client = 3\nrounds = 1\n"
         "seed = 0\nd = 2\nsignal = 1e150\nbeta = 0.5\nc = 1e308\nalpha = 100\n"
         "participation_rate = 0.5\ndropout_rate = 0.999999\nnum_sectors = 2\nC = 2\n"
         "local_lr = 1e200\nlocal_epochs = 3\nmu = 0.1\n")
def test_every_run_keeps_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "exp.conf", Path(tmp) / "out"
        config.write_text(text, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["run", "--config", str(config), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        written = list(out.glob("*")) if out.exists() else []
        if code:
            assert re.fullmatch(r"error: .*\n", stderr.getvalue())
            assert written == []
            return
        assert stderr.getvalue() == ""
        [run_dir] = written
        assert sorted(p.name for p in run_dir.iterdir()) == ARTIFACTS
        for name in ARTIFACTS:
            body = (run_dir / name).read_text(encoding="utf-8").lower()
            assert not re.search(r"\b(inf|nan)\b", body), name
