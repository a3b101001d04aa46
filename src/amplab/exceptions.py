"""Exception types shared across the package, and the one rule for what a
count or a size is (``require_count``): every layer imports this module, so
each entry point checks its counts and sizes here and names the field."""

from numbers import Integral


class AmplabError(Exception):
    pass


class DimensionError(AmplabError, ValueError):
    """Shapes or sizes of inputs are inconsistent."""


class ParameterError(AmplabError, ValueError):
    """A scalar parameter is outside its allowed range."""


class SpecError(AmplabError, ValueError):
    """A declarative spec (ensemble, signal, config) is invalid."""


class ScheduleError(AmplabError, KeyError):
    """An Onsager coefficient required by the recursion is missing."""


class BudgetError(AmplabError, RuntimeError):
    """A brute-force evaluation would exceed the configured budget."""


class NumericError(AmplabError, RuntimeError):
    """A numerical routine failed (singular matrix, lost positive definiteness)."""


class ConfigError(AmplabError, ValueError):
    """Experiment configuration failed validation.

    ``field`` carries the dotted path of the offending entry.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def require_count(value, name: str, error: type) -> int:
    """value as an int; error naming name unless value is an integer (numpy's
    too), not a bool, and at least 1. Sizes raise DimensionError, counts of
    draws or probes ParameterError."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)
