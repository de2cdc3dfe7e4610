"""Error taxonomy shared across the package.

Each error class carries the process exit code the CLI maps it to.
"""


class ExperimentError(Exception):
    """Base class for all riskfed errors."""

    exit_code = 1


class ConfigurationError(ExperimentError):
    """Invalid configuration value, key, or shape contract."""

    exit_code = 2


class DataError(ExperimentError):
    """Malformed or empty input data."""

    exit_code = 3


class NumericalError(ExperimentError):
    """Numerical failure, e.g. a linear solve on an indefinite system."""

    exit_code = 4

