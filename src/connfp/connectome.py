"""Linear detrending, Pearson functional connectomes and their edge vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError


@dataclass
class EdgeVector:
    """Strict upper triangle of a p x p matrix, row-major order."""

    values: np.ndarray
    p: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise DimensionError(f"edge vector must be 1-d, got shape {v.shape}")
        expected = self.p * (self.p - 1) // 2
        if v.size != expected:
            raise DimensionError(
                f"edge vector for p={self.p} must have length {expected}, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("edge vector contains non-finite values")
        self.values = v


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
    centered = x - x.mean(axis=1, keepdims=True)
    sq = np.einsum("ij,ij->i", centered, centered)
    dead = np.flatnonzero(sq == 0.0)
    if dead.size:
        raise DegenerateInputError(
            f"ROI {dead[0]} has zero variance; correlations are undefined"
        )
    norms = np.sqrt(sq)
    c = (centered @ centered.T) / np.outer(norms, norms)
    c = (c + c.T) / 2.0
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    return c


def vectorize_upper(matrix) -> EdgeVector:
    """Row-major strict upper triangle: (0,1), (0,2), ..., (0,p-1), (1,2), ..."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"vectorize_upper expects a square matrix, got shape {m.shape}")
    p = m.shape[0]
    iu = np.triu_indices(p, k=1)
    return EdgeVector(m[iu].copy(), p)


def edge_matrix(mats) -> np.ndarray:
    """m x n matrix whose column i is vectorize_upper of matrix i."""
    return np.column_stack([vectorize_upper(m).values for m in mats])


def mat(edges: EdgeVector) -> np.ndarray:
    """Inverse of vectorize_upper; the diagonal is set to zero."""
    if not isinstance(edges, EdgeVector):
        raise TypeError("mat expects an EdgeVector (which carries its declared p)")
    out = np.zeros((edges.p, edges.p))
    iu = np.triu_indices(edges.p, k=1)
    out[iu] = edges.values
    return out + out.T
