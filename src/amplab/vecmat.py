"""Column-major identification of R^(M x N) with R^n, n = M*N.

vec stacks columns: vec(X) = (X[0,0], ..., X[M-1,0], X[0,1], ..., X[M-1,N-1]).
The flat index of entry (j, j') is i = j + j' * M.
"""

import numpy as np

from .exceptions import DimensionError


def vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x).reshape(-1, order="F")


def mat(v: np.ndarray, m: int, n: int) -> np.ndarray:
    v = np.asarray(v)
    if v.size != m * n:
        raise DimensionError(f"cannot reshape length-{v.size} vector to {m}x{n}")
    return v.reshape((m, n), order="F")


def split_index(i, m):
    """Flat index -> (row, col) pair under the column-major pairing."""
    i = np.asarray(i)
    return i % m, i // m
