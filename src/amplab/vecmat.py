"""Column-major identification of R^(M x N) with R^n, n = M*N.

vec stacks columns: vec(X) = (X[0,0], ..., X[M-1,0], X[0,1], ..., X[M-1,N-1]).
The flat index of entry (j, j') is i = j + j' * M.

Both maps act on the trailing axes and carry any leading axes along, so a
stack of vectors maps to a stack of matrices and back: vec takes
(..., M, N) to (..., M*N) and mat takes (..., M*N) to (..., M, N).
"""

import numpy as np

from .exceptions import DimensionError


def vec(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    return np.swapaxes(x, -1, -2).reshape(x.shape[:-2] + (-1,))


def mat(v: np.ndarray, m: int, n: int) -> np.ndarray:
    v = np.atleast_1d(v)
    if v.shape[-1] != m * n:
        raise DimensionError(f"cannot reshape length-{v.shape[-1]} vector to {m}x{n}")
    return np.swapaxes(v.reshape(v.shape[:-1] + (n, m)), -1, -2)


def split_index(i, m):
    """Flat index -> (row, col) pair under the column-major pairing."""
    i = np.asarray(i)
    return i % m, i // m
