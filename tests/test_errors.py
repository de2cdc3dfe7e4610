"""The error taxonomy: one ExperimentError subclass per exit code that the
README documents."""

import re
from pathlib import Path

from riskfed.errors import ExperimentError

README = Path(__file__).resolve().parent.parent / "README.md"


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_one_error_class_per_documented_exit_code():
    codes = {cls.__name__: cls.exit_code for cls in subclasses(ExperimentError)}
    assert codes == {"ConfigurationError": 2, "DataError": 3, "NumericalError": 4}
    readme = README.read_text(encoding="utf-8")
    start = readme.index("Exit codes:")
    documented = re.findall(r"\b(\d+) \w", readme[start:readme.index("(", start)])
    assert sorted(map(int, documented)) == [0, *sorted(codes.values())]
