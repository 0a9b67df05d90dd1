"""Matrix Market array I/O.

Thin wrappers over scipy.io so every float64 value survives a write/read
round trip bitwise (17 significant digits uniquely identify a binary64
value).  Vectors are stored as single-column matrices.
"""

import numpy as np
from scipy.io import mmread, mmwrite


def write_matrix(path, a):
    """Write a dense matrix or vector to a Matrix Market array file."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D data, got ndim={a.ndim}")
    mmwrite(str(path), a, precision=17)


def read_matrix(path):
    """Read a Matrix Market file as a float64 array (2-D, dense).

    Raises ValueError for complex data, which has no float64 value.
    """
    data = mmread(str(path))
    if hasattr(data, "toarray"):
        data = data.toarray()
    if np.iscomplexobj(data):
        raise ValueError(f"{path} holds complex entries")
    return np.asarray(data, dtype=np.float64)


def read_vector(path):
    """Read a Matrix Market file holding a single column as a 1-D array."""
    data = read_matrix(path)
    if data.ndim == 2 and data.shape[1] == 1:
        return data[:, 0].copy()
    if data.ndim == 2 and data.shape[0] == 1:
        return data[0, :].copy()
    raise ValueError(f"expected a single row or column, got shape {data.shape}")
