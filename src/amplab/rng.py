"""Counter-based random streams with explicit substream derivation.

Every sampling routine in the package takes an :class:`RngStream` rather than
a bare generator so that (seed, stream_id) fully determines the output and
disjoint stream_ids give statistically independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError, is_integer

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; a cheap 64-bit bijection."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _integer(value, name: str) -> int:
    """value as an int; ParameterError naming name unless it is an integer."""
    if not is_integer(value):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (seed, stream_id).

    The same pair always yields the identical sample sequence; distinct
    stream_ids key independent Philox counter streams. seed and stream_id
    are integers (``exceptions.is_integer``), taken mod 2^64; anything else
    raises ParameterError naming it.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _integer(getattr(self, name), name) & _MASK64)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, k: int) -> "RngStream":
        """Substream k of this stream (same seed, mixed stream_id); k is an
        integer, taken mod 2^64."""
        mixed = splitmix64((self.stream_id ^ splitmix64(_integer(k, "k") & _MASK64)) & _MASK64)
        return RngStream(self.seed, mixed)
