"""The README's config section names exactly the keys riskfed reads:
the required keys in its prose, the optional keys in its table, each
with the default that riskfed gives it."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from riskfed.federation import CONFIG_SCHEMA, ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def config_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Config format")
    return text[start:text.index("\n### ", start)]


def test_readme_config_section_names_exactly_the_schema_keys():
    section = config_section()
    prose = section[section.index("Required:"):section.index("Optional keys")]
    required = re.findall(r"`(\w+)`", prose)
    optional = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    no_default = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    assert required == [key for key, (attr, *_) in CONFIG_SCHEMA.items()
                        if attr in no_default]
    assert optional == [key for key in CONFIG_SCHEMA if key not in required]


def table_defaults() -> dict:
    """Each optional key's default cell in the README's config table."""
    return dict(re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", config_section(), re.MULTILINE))


# defaults that __post_init__ computes from other keys
COMPUTED = {"num_sectors": "min(clients, 5)",
            "local_epochs": "0 (`fral_cse`) / 1 (others)"}


def test_readme_literal_defaults_are_the_config_defaults():
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    cells = table_defaults()
    assert {key: cells.pop(key) for key in COMPUTED} == COMPUTED
    for key, cell in cells.items():
        attr, cast, *_ = CONFIG_SCHEMA[key]
        assert defaults[attr] == ("" if cell == "(empty)" else cast(cell)), key


# min(clients, 5) sectors, and 0 local epochs for fral_cse, 1 for the others
@pytest.mark.parametrize("algorithm, clients, sectors, epochs",
                         [("fral_cse", 3, 3, 0), ("fedavg", 8, 5, 1)])
def test_readme_computed_defaults_hold(algorithm, clients, sectors, epochs):
    config = ExperimentConfig(algorithm=algorithm, clients=clients,
                              samples_per_client=40, rounds=1, seed=0)
    assert (config.num_sectors, config.local_epochs) == (sectors, epochs)
