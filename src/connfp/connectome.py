"""Time-series conditioning and Pearson functional connectomes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DimensionError
from .synth import NetworkPartition

_SYM_TOL = 1e-12


def _as_matrix(x) -> np.ndarray:
    """Accept a Connectome-like object or a plain array."""
    return np.asarray(getattr(x, "matrix", x), dtype=float)


@dataclass
class Connectome:
    """p x p Pearson correlation matrix with unit diagonal."""

    matrix: np.ndarray
    subject_id: str = ""
    session_label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"connectome matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("connectome matrix contains non-finite entries")
        if np.max(np.abs(m - m.T)) > _SYM_TOL:
            raise ValueError("connectome matrix is not symmetric within 1e-12")
        if np.any(np.diag(m) != 1.0):
            raise ValueError("connectome diagonal must be exactly 1")
        if np.any(m < -1.0) or np.any(m > 1.0):
            raise ValueError("connectome entries must lie in [-1, 1]")
        self.matrix = m

    @property
    def p(self) -> int:
        return self.matrix.shape[0]


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

    def __len__(self) -> int:
        return self.values.size


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


def bandpass(series, low_hz: float, high_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Ideal spectral mask: keep DFT bins with low_hz <= |f| <= high_hz (closed).

    All other bins are zeroed and the series is inverse-transformed; the
    operation is a projection, so applying it twice changes nothing.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"bandpass expects a (p, T) array, got shape {x.shape}")
    fs = float(sample_rate_hz)
    if not np.isfinite(fs) or fs <= 0:
        raise ConfigurationError(f"sample_rate_hz must be a positive number, got {sample_rate_hz!r}")
    low, high = float(low_hz), float(high_hz)
    if not (0.0 <= low < high <= fs / 2.0):
        raise ConfigurationError(
            f"band edges must satisfy 0 <= low < high <= sample_rate/2, got [{low}, {high}] at fs={fs}"
        )
    T = x.shape[1]
    spectrum = np.fft.rfft(x, axis=1)
    freqs = np.fft.rfftfreq(T, d=1.0 / fs)
    keep = (freqs >= low) & (freqs <= high)
    spectrum[:, ~keep] = 0.0
    return np.fft.irfft(spectrum, n=T, axis=1)


def pearson_fc(series, subject_id: str = "", session_label: str = "") -> Connectome:
    """Pearson correlation matrix across ROI rows of a (p, T) series."""
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
    return Connectome(c, subject_id, session_label)


def vectorize_upper(connectome) -> EdgeVector:
    """Row-major strict upper triangle: (0,1), (0,2), ..., (0,p-1), (1,2), ..."""
    m = _as_matrix(connectome)
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


def exclude_networks(connectome: Connectome, partition: NetworkPartition, excluded) -> Connectome:
    """Drop every ROI belonging to the excluded networks (row/column deletion)."""
    excl = sorted({int(g) for g in excluded})
    for g in excl:
        if g < 0 or g >= partition.n_networks:
            raise ConfigurationError(f"cannot exclude unknown network {g}")
    m = _as_matrix(connectome)
    if partition.p_rois != m.shape[0]:
        raise DimensionError(
            f"partition covers {partition.p_rois} ROIs but connectome has {m.shape[0]}"
        )
    if not excl:
        return Connectome(m.copy(), getattr(connectome, "subject_id", ""),
                          getattr(connectome, "session_label", ""))
    keep = np.flatnonzero(~np.isin(partition.assignment, excl))
    if keep.size < 2:
        raise DegenerateInputError(
            f"excluding networks {excl} leaves {keep.size} ROIs; at least 2 are required"
        )
    sub = m[np.ix_(keep, keep)].copy()
    return Connectome(sub, getattr(connectome, "subject_id", ""),
                      getattr(connectome, "session_label", ""))


def fisher_z(connectome, clip: float = 1.0 - 1e-12) -> np.ndarray:
    """arctanh transform of the off-diagonal entries; diagonal set to 0.

    The result is no longer bounded by [-1, 1], so it is returned as a plain
    array rather than a Connectome.
    """
    m = _as_matrix(connectome).copy()
    np.fill_diagonal(m, 0.0)
    np.clip(m, -clip, clip, out=m)
    out = np.arctanh(m)
    np.fill_diagonal(out, 0.0)
    return out
