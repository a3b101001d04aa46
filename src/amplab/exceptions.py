"""Exception types shared across the package, and the five input rules
every layer imports from here, so each entry point checks its input up front
and names the field: ``require_count`` for a count or a size,
``require_number`` for a real-valued parameter (a threshold, a noise level, a
density), ``require_vector`` for a vector, ``require_length`` for the
denoisers or schedule entries a run of T iterations reads, and
``require_divergence`` for the divergence formulas a caller takes its Onsager
terms from. The first two raise error(message), where error is an exception
type or any callable that makes the exception from the message, as the
config's ConfigError naming its key.

The vector rule owns what it checks: it hands back a read-only float64 copy
(``_owned``), so no later write to the caller's array, or through the copy,
can change a value after its checks. Every constructor that keeps an array
builds it by the same step.
"""

from numbers import Integral, Real
from typing import Callable, Sequence

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


def _owned(x) -> np.ndarray:
    """A read-only float64 copy of x."""
    x = np.array(x, dtype=np.float64)
    x.flags.writeable = False
    return x


def require_vector(x, name: str) -> np.ndarray:
    """x as a read-only float64 copy (``_owned``); DimensionError naming name
    unless it is 1-D and non-empty: a matrix or stack of vectors, a scalar or
    an empty array."""
    x = _owned(x)
    if x.ndim != 1 or x.size == 0:
        raise DimensionError(f"{name} must be a non-empty vector, got shape {x.shape}")
    return x


def require_length(seq: Sequence, T: int, what: str = "denoisers", fewer: int = 0) -> None:
    """ParameterError unless T is a count (``require_count``), checked before
    any arithmetic on it; ScheduleError naming the needed count when seq holds
    fewer than T - fewer entries, the count a run of T iterations reads."""
    count = require_count(T, "T", ParameterError) - fewer
    if len(seq) < count:
        raise ScheduleError(f"need {count} {what} for T={T}, got {len(seq)}")


def require_divergence(seq: Sequence, what: str) -> None:
    """ParameterError naming what[i] for the first denoiser of seq that has no
    divergence formula: the solvers and the runner that take their Onsager
    terms from the formula check every denoiser they will read
    before any draw or matvec."""
    for i, den in enumerate(seq):
        if den.divergence_fn is None:
            raise ParameterError(f"{what}[{i}] has no divergence formula")
