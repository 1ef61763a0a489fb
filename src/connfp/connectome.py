"""Linear detrending, Pearson functional connectomes and their edge vectors."""

from __future__ import annotations

import functools
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
    (i, j) correlates a[i] with b[j], unclipped. Rows are centered, then
    scaled by the power of two that brings their largest magnitude into
    [0.5, 1): that is exact, so no bit of a correlation moves, and the
    squares neither overflow nor underflow at any finite magnitude. Their
    products are divided by the outer product of their norms. b may be a
    itself, which is then centered once. A zero-variance row raises
    DegenerateInputError(degenerate.format(row=i, side=s)), s being "first"
    for a row of a and "second" for one of b."""

    def center(x, side):
        c = x - x.mean(axis=1, keepdims=True)
        np.ldexp(c, -np.frexp(np.maximum(c.max(axis=1), -c.min(axis=1)))[1][:, None], out=c)
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


@functools.cache
def upper_pairs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) index pair of the row-major strict upper triangle of
    a p x p matrix, (0,1), (0,2), ..., (0,p-1), (1,2), ...: the order of every
    edge vector. Cached per p, so the arrays are read-only."""
    rows, cols = np.triu_indices(p, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def n_edges(p: int) -> int:
    """Edges m = p(p - 1)/2 of a p-ROI connectome."""
    return p * (p - 1) // 2


def vectorize_upper(matrix) -> np.ndarray:
    """Row-major strict upper triangle, in the order of upper_pairs."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"vectorize_upper expects a square matrix, got shape {m.shape}")
    edges = m[upper_pairs(m.shape[0])]
    if not np.all(np.isfinite(edges)):
        raise ValueError("edge vector contains non-finite values")
    return edges


def n_rois(m: int) -> int:
    """The p of edge vectors of length m = p(p-1)/2."""
    p = (1 + math.isqrt(1 + 8 * m)) // 2
    if n_edges(p) != m:
        raise DimensionError(f"an edge vector has length p(p-1)/2, got {m}")
    return p


def mat(edges) -> np.ndarray:
    """Inverse of vectorize_upper; the diagonal is set to zero. p is read off
    the length m (n_rois)."""
    v = np.asarray(edges, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"an edge vector is 1-d, got shape {v.shape}")
    p = n_rois(v.size)
    out = np.zeros((p, p))
    out[upper_pairs(p)] = v
    return out + out.T
