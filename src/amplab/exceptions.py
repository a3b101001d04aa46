"""Exception types shared across the package, and the three input rules
every layer imports from here, so each entry point checks its input up front
and names the field: ``require_count`` for a count or a size,
``require_number`` for a real-valued parameter (a threshold, a noise level, a
density), ``require_vector`` for a vector. The first two raise
error(message), where error is an exception type or any callable that makes
the exception from the message, as the config's ConfigError naming its key."""

from numbers import Integral, Real
from typing import Callable

import numpy as np


class AmplabError(Exception):
    pass


class DimensionError(AmplabError, ValueError):
    """Shapes or sizes of inputs are inconsistent."""


class ParameterError(AmplabError, ValueError):
    """A scalar parameter is outside its allowed range."""


class SpecError(AmplabError, ValueError):
    """A declarative spec (ensemble, signal, config) is invalid."""


class ScheduleError(AmplabError, LookupError):
    """An Onsager coefficient, or a denoiser, that a recursion of T
    iterations reads is missing. A LookupError but not a KeyError, whose
    str() would quote the message."""


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


_FLOAT_MAX = np.finfo(np.float64).max


def is_integer(value) -> bool:
    """Whether value is an integer, numpy's too, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def require_count(value, name: str, error: Callable) -> int:
    """value as an int; error naming name unless value is an integer
    (``is_integer``) and at least 1. Sizes raise DimensionError, counts of
    draws or probes ParameterError."""
    if not is_integer(value) or value < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def require_number(value, name: str, error: Callable, low=None, high=None) -> float:
    """value as a float; error naming name unless value is a real number,
    numpy's too and not a bool, in [low, high]. NaN lies in no range. A bound
    left None leaves that side open but finite, written (-inf or inf); an
    infinite bound admits its infinity: [0, inf] takes inf, [0, inf) does not."""
    lo = -_FLOAT_MAX if low is None else low
    hi = _FLOAT_MAX if high is None else high
    if isinstance(value, bool) or not isinstance(value, Real) or not lo <= value <= hi:
        span = f"{'(-inf' if low is None else f'[{low}'}, {'inf)' if high is None else f'{high}]'}"
        raise error(f"{name} must be a number in {span}, got {value!r}")
    return float(value)


def require_vector(x, name: str) -> np.ndarray:
    """x as a float64 vector; DimensionError naming name unless it is 1-D and
    non-empty: a matrix or stack of vectors, a scalar or an empty array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DimensionError(f"{name} must be a non-empty vector, got shape {x.shape}")
    return x
