"""Vectorized coefficient-block enumeration shared by the numpy-backed scans."""

from __future__ import annotations

import numpy as np


def int_dtype(max_value: int) -> np.dtype:
    """Narrowest signed integer dtype that holds every value in [0, max_value]."""
    return np.min_scalar_type(-max_value - 1)


def coeff_digits(count: int, base: int, width: int) -> np.ndarray:
    """(count, width) array whose row i holds the base-`base` digits of i.

    Column 0 is the least significant digit, matching counting order.  The
    dtype is the narrowest one that holds a digit below `base`.
    """
    out = np.empty((count, width), dtype=int_dtype(base - 1))
    idx = np.arange(count, dtype=np.int64)
    for j in range(width):
        out[:, j] = (idx % base).astype(out.dtype)
        idx //= base
    return out


def rows_to_indices(rows: np.ndarray, base: int) -> np.ndarray:
    """Inverse of coeff_digits: base-`base` value of each row, int64."""
    acc = np.zeros(rows.shape[0], dtype=np.int64)
    mult = 1
    for j in range(rows.shape[1]):
        acc += rows[:, j].astype(np.int64) * mult
        mult *= base
    return acc
