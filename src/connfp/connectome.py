"""Linear detrending, Pearson functional connectomes and their edge vectors."""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, DimensionError


def detrend(series) -> np.ndarray:
    """Remove each row's least-squares line over the time index.

    Output rows have exactly zero mean and zero best-fit slope.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"detrend expects a (p, T) array, got shape {x.shape}")
    T = x.shape[1]
    if T < 2:
        raise DimensionError(f"detrend needs at least 2 timepoints, got {T}")
    t = np.arange(T, dtype=float)
    tc = t - t.mean()
    slope = (x @ tc) / (tc @ tc)
    return x - x.mean(axis=1, keepdims=True) - slope[:, None] * tc[None, :]


def pearson_rows(a: np.ndarray, b: np.ndarray, degenerate: str) -> np.ndarray:
    """Pearson correlation of every row of a with every row of b: entry
    (i, j) correlates a[i] with b[j], unclipped. Rows are centered, their
    products divided by the outer product of their norms; b may be a itself,
    which is then centered once. A zero-variance row raises
    DegenerateInputError(degenerate.format(row=i, side=s)), s being "first"
    for a row of a and "second" for one of b."""

    def center(x, side):
        c = x - x.mean(axis=1, keepdims=True)
        sq = np.einsum("ij,ij->i", c, c)
        dead = np.flatnonzero(sq == 0.0)
        if dead.size:
            raise DegenerateInputError(degenerate.format(row=dead[0], side=side))
        return c, np.sqrt(sq)

    ca, na = center(a, "first")
    cb, nb = (ca, na) if b is a else center(b, "second")
    return (ca @ cb.T) / np.outer(na, nb)


def pearson_fc(series) -> np.ndarray:
    """p x p Pearson correlation matrix across ROI rows of a (p, T) series:
    symmetric, entries in [-1, 1], unit diagonal."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"pearson_fc expects a (p, T) array, got shape {x.shape}")
    T = x.shape[1]
    if T < 3:
        raise DimensionError(f"pearson_fc needs at least 3 timepoints, got {T}")
    if not np.all(np.isfinite(x)):
        raise ValueError("pearson_fc input contains non-finite values")
    c = pearson_rows(x, x, "ROI {row} has zero variance; correlations are undefined")
    c = (c + c.T) / 2.0
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    return c


def vectorize_upper(matrix) -> np.ndarray:
    """Row-major strict upper triangle: (0,1), (0,2), ..., (0,p-1), (1,2), ..."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"vectorize_upper expects a square matrix, got shape {m.shape}")
    edges = m[np.triu_indices(m.shape[0], k=1)]
    if not np.all(np.isfinite(edges)):
        raise ValueError("edge vector contains non-finite values")
    return edges


def edge_matrix(mats) -> np.ndarray:
    """m x n matrix whose column i is vectorize_upper of matrix i."""
    return np.column_stack([vectorize_upper(m) for m in mats])


def mat(edges) -> np.ndarray:
    """Inverse of vectorize_upper; the diagonal is set to zero. p is read off
    the length m = p(p-1)/2."""
    v = np.asarray(edges, dtype=float)
    p = (1 + math.isqrt(1 + 8 * v.size)) // 2
    if v.ndim != 1 or p * (p - 1) // 2 != v.size:
        raise DimensionError(f"an edge vector has length p(p-1)/2, got shape {v.shape}")
    out = np.zeros((p, p))
    out[np.triu_indices(p, k=1)] = v
    return out + out.T
