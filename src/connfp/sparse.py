"""Sparse dictionary learning on edge vectors: greedy pursuit coding plus
singular-pair atom updates (K-SVD).

Coding is batched orthogonal matching pursuit against the Gram matrix
(Rubinstein, Zibulevsky & Elad 2008): each greedy step gives every unfinished
column the atom most correlated with its residual, by one argmax over
D^T Y - G X, and re-solves every support exactly, by one batched solve of
the stacked support Gram systems or, where a support Gram matrix is singular
or badly conditioned, by minimum-norm lstsq on the atoms themselves.

The dictionary update sweeps the atoms in order, each replaced by the leading
singular pair of its restricted error matrix; an atom no column uses waits
for the re-seeding of atoms between iterations, which moves atoms to
badly reconstructed data columns. Atoms change only in these two places,
and every step is guarded so the squared-error objective never increases: a
column keeps its previous code where that beats the fresh pursuit code, a
singular-pair commit is skipped where roundoff would make it lose, and the
re-seeding is a transaction, committed only when it strictly lowers the
objective.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .rng import substream

_RESIDUAL_TOL = 1e-12
# support Gram matrices whose eigenvalue ratio falls below this (an atom
# submatrix condition number above 100) are solved by lstsq on the atoms
# themselves, because the normal equations square the condition number
_GRAM_RCOND = 1e-4
# pursuit takes the lowest-index atom whose |correlation| is within this
# fraction of the largest, so that roundoff cannot decide a tie: the same
# pursuit run on a dictionary with an extra (barred) atom forms D^T Y in a
# different order, and an exact argmax could then pick the other atom
_TIE_RTOL = 1e-9
_UNIT_TOL = 1e-10
_ATOM_MATCH_TOL = 1e-8


@dataclass
class Dictionary:
    """m x K matrix of unit-norm atoms (columns), as ksvd and map_atoms return it."""

    atoms: np.ndarray


@dataclass
class SparseCodes:
    """K x n coefficient matrix, at most L nonzeros per column, as ksvd and
    map_atoms return it."""

    codes: np.ndarray


@dataclass
class KsvdReport:
    objective_history: np.ndarray
    replaced_atoms: np.ndarray


def _support_coefs(atoms, Y, Gs, b, S, cols):
    """Least-squares coefficients of every column cols[i] of Y on its support
    S[i]: one batched solve of the stacked support Gram systems Gs c = b, with
    numpy's minimum-norm lstsq on the atoms themselves for supports whose Gram
    matrix is singular or too ill-conditioned to solve accurately."""
    if S.shape[1] == 1:
        return b / Gs[:, 0]  # one unit-norm atom: always well conditioned
    w = np.linalg.eigvalsh(Gs)
    ok = w[:, 0] > _GRAM_RCOND * w[:, -1]
    if ok.all():
        return np.linalg.solve(Gs, b[..., None])[..., 0]
    coef = np.empty_like(b)
    coef[ok] = np.linalg.solve(Gs[ok], b[ok][..., None])[..., 0]
    for i in np.flatnonzero(~ok):
        coef[i] = np.linalg.lstsq(atoms[:, S[i]], Y[:, cols[i]], rcond=None)[0]
    return coef


def _encode(atoms: np.ndarray, Y: np.ndarray, L: int, banned=None) -> np.ndarray:
    """K x n codes of every column of Y, as encode_all describes; assumes
    validated arguments. banned, when given, names one atom per column that
    the column's pursuit may not select. The correlations with the residuals
    are D^T r = D^T Y - G X, so no step forms D^T times a residual."""
    K, n = atoms.shape[1], Y.shape[1]
    G = atoms.T @ atoms
    DtY = atoms.T @ Y
    X = np.zeros((K, n))
    chosen = np.zeros((K, n), dtype=bool)
    if banned is not None:
        chosen[banned, np.arange(n)] = True
    support = np.zeros((n, L), dtype=np.intp)
    cols = np.flatnonzero(np.sqrt((Y * Y).sum(axis=0)) >= _RESIDUAL_TOL)
    for s in range(L):
        corr = DtY[:, cols] - G @ X[:, cols]
        corr[chosen[:, cols]] = 0.0  # residual is already orthogonal to these, up to roundoff
        mag = abs(corr)
        top = mag.max(axis=0)
        j = (mag >= top - _TIE_RTOL * top).argmax(axis=0)
        live = top != 0.0
        cols, j = cols[live], j[live]
        if cols.size == 0:
            break
        support[cols, s] = j
        chosen[j, cols] = True
        S = support[cols, : s + 1]
        Gs = G[S[:, :, None], S[:, None, :]]
        b = DtY[S, cols[:, None]]
        X[S, cols[:, None]] = _support_coefs(atoms, Y, Gs, b, S, cols)
        if s + 1 < L:
            resid = Y[:, cols] - atoms @ X[:, cols]
            cols = cols[np.sqrt((resid * resid).sum(axis=0)) >= _RESIDUAL_TOL]
    return X


def encode_all(atoms, Y, L: int) -> np.ndarray:
    """K x n codes of every column of Y against the m x K unit-norm atoms;
    column order is preserved.

    All columns are coded at once: each of the at most L greedy steps adds
    to every unfinished column the unchosen atom most correlated with its
    residual (the lowest index among those within a relative 1e-9 of the
    largest |correlation|), then re-solves each support by one batched solve
    of the stacked support Gram systems, or by minimum-norm lstsq where a
    support Gram matrix is singular or badly conditioned. A column stops once
    its residual norm is below 1e-12 or no unchosen atom correlates with its
    residual.
    """
    D = np.asarray(atoms, dtype=float)
    if D.ndim != 2:
        raise DimensionError(f"dictionary atoms must be 2-d, got shape {D.shape}")
    if not np.all(np.isfinite(D)):
        raise ValueError("dictionary contains non-finite entries")
    if np.max(np.abs(np.linalg.norm(D, axis=0) - 1.0)) > _UNIT_TOL:
        raise ValueError("dictionary atoms must have unit norm within 1e-10")
    data = np.asarray(Y, dtype=float)
    if data.ndim != 2:
        raise DimensionError(f"Y must be 2-d, got shape {data.shape}")
    m, K = D.shape
    if data.shape[0] != m:
        raise DimensionError(f"Y rows ({data.shape[0]}) must match atom length ({m})")
    if not np.all(np.isfinite(data)):
        raise ValueError("Y contains non-finite values")
    if not (1 <= L <= min(K, m)):
        raise ValueError(f"L must satisfy 1 <= L <= min(K={K}, m={m}), got {L}")
    return _encode(D, data, L)


def _leading_left_vector(E: np.ndarray):
    """Leading left singular vector of E, or None when E is zero.

    The leading eigenvector v of the q x q Gram matrix E^T E (LAPACK eigh) is
    projected back through E, so the returned vector is an exact image of a
    unit vector, which keeps the subsequent least-squares row update honest.
    A single-column E needs no decomposition: v = [1] exactly, so u is E's
    column normalized, the same bits as the eigh route gives on a contiguous
    E such as ksvd builds.
    """
    Ev = E[:, 0] if E.shape[1] == 1 else E @ np.linalg.eigh(E.T @ E)[1][:, -1]
    s = math.sqrt(Ev @ Ev)
    return None if s == 0.0 else Ev / s


def _is_existing_atom(column: np.ndarray, atoms: np.ndarray) -> bool:
    norm = np.linalg.norm(column)
    if norm == 0.0:
        return True  # never usable as an atom
    overlap = abs(atoms.T @ (column / norm))
    return bool(overlap.max() > 1.0 - _ATOM_MATCH_TOL)


def _column_errors(Y, atoms, X) -> np.ndarray:
    """Squared residual ||y_i - D x_i||^2 of every column."""
    return ((Y - atoms @ X) ** 2).sum(axis=0)


def _worst_column(Y, atoms, err) -> int:
    """Index of the worst-reconstructed column (squared residuals err) not
    already present as an atom (ties toward the lowest index), or -1 when
    every column is degenerate or duplicated."""
    for i in np.argsort(-err, kind="stable"):
        if not _is_existing_atom(Y[:, i], atoms):
            return int(i)
    return -1


def _reseed_sweep(
    data: np.ndarray, atoms: np.ndarray, X: np.ndarray, err: np.ndarray, L: int
) -> tuple[int, np.ndarray | None]:
    """Tentatively re-seed each atom k in turn at the worst-reconstructed data
    column; returns (commits, codes): the number of swaps committed and, when
    the sweep ends on a round that commits nothing, the K x n codes of every
    data column against the final dictionary (else None).

    err holds every column's squared residual against (atoms, X). Each trial
    is a transaction: the columns whose codes use atom k, plus the target
    column, are re-coded with atom k replaced by the candidate atom c, and the
    swap is committed only when their total squared error strictly drops. No
    other column has a nonzero code on atom k, so the objective never
    increases; a commit updates atoms, X and err on the affected columns only.

    Until a trial commits, the target and c are the same for every remaining
    k, so one round codes all those trials in one pursuit against [D, c],
    each column barred from its own trial's atom k, and commits the first
    that wins: the commits and their order are those of one trial at a time,
    except that a |correlation| tie (within 1e-9) between c (index K) and
    another atom goes to the other atom. The same pursuit codes every data
    column barred from c; those are the codes returned when a round commits
    nothing.
    """
    K, n = atoms.shape[1], data.shape[1]
    commits = 0
    start = 0
    while start < K:
        target = _worst_column(data, atoms, err)
        if target < 0:
            break
        # norm, not sqrt(v @ v): a data column is strided, and the two sum it
        # in different orders
        extended = np.column_stack([atoms, data[:, target] / np.linalg.norm(data[:, target])])
        used = X[start:] != 0.0
        used[:, target] = True
        trial, idx = np.nonzero(used)  # per trial, its columns in ascending order
        bounds = np.concatenate([[0], np.cumsum(np.count_nonzero(used, axis=1))])
        t = idx.size
        cols = np.concatenate([data[:, idx], data], axis=1)
        codes = _encode(extended, cols, L, banned=np.concatenate([trial + start, np.full(n, K)]))
        col_err = _column_errors(data[:, idx], extended, codes[:, :t])
        old_err = np.add.reduceat(err[idx], bounds[:-1])
        new_err = np.add.reduceat(col_err, bounds[:-1])
        wins = np.flatnonzero(new_err < old_err - 1e-12 * np.maximum(1.0, old_err))
        if wins.size == 0:
            return commits, codes[:K, t:].copy()  # row K is zero: c was barred
        w = wins[0]
        k, seg = start + w, slice(bounds[w], bounds[w + 1])
        atoms[:, k] = extended[:, K]
        new_codes = codes[:K, seg]  # row k is zero: atom k was barred
        new_codes[k] = codes[K, seg]
        X[:, idx[seg]] = new_codes
        err[idx[seg]] = col_err[seg]
        commits += 1
        start = k + 1
    return commits, None


def _init_atoms(Y: np.ndarray, K: int, rng) -> np.ndarray:
    """K distinct data columns, sampled without replacement and normalized.

    Zero columns are never picked; if fewer than K usable columns exist, the
    remainder is filled with random unit vectors.
    """
    m, n = Y.shape
    norms = np.linalg.norm(Y, axis=0)
    usable = np.flatnonzero(norms > 0)
    take = min(K, usable.size)
    atoms = np.empty((m, K))
    if take:
        chosen = rng.choice(usable, size=take, replace=False)
        atoms[:, :take] = Y[:, chosen] / norms[chosen]
    for k in range(take, K):
        v = rng.standard_normal(m)
        atoms[:, k] = v / np.linalg.norm(v)
    return atoms


def ksvd(Y, K: int, L: int, iters: int = 30, seed: int = 0):
    """Learn K unit-norm atoms and codes with at most L nonzeros per column of Y.

    Each iteration after the first starts with a re-seeding sweep
    (_reseed_sweep, whose tie rule applies), then codes every column by
    pursuit, keeping a column's previous code where that has the strictly
    smaller error, then updates the atoms in order: for atom k with support columns
    Omega, the leading singular pair of E_k = Y_Omega - D X_Omega + d_k x^k_Omega
    becomes the atom (of either sign) and its codes on Omega. An atom with
    empty Omega is left as it is for the next re-seeding sweep; one whose E_k
    is zero keeps its value and gets zero codes on Omega. Atoms change
    nowhere else, so random atoms come only from the initialization, when
    fewer than K columns are usable.
    The recorded objective ||Y - D X||_F^2, one entry per iteration, never
    increases; the report's replaced_atoms counts each iteration's re-seeding
    commits. Returns (Dictionary, SparseCodes, KsvdReport).
    """
    data = np.asarray(Y, dtype=float)
    if data.ndim != 2:
        raise DimensionError(f"Y must be 2-d, got shape {data.shape}")
    m, n = data.shape
    if m < 2:
        raise ValueError(f"Y needs at least 2 rows, got {m}")
    if n < 1:
        raise ValueError("Y needs at least one column")
    if not np.all(np.isfinite(data)):
        raise ValueError("Y contains non-finite values")
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    if not (1 <= L <= min(K, m)):
        raise ValueError(f"L must satisfy 1 <= L <= min(K={K}, m={m}), got {L}")
    if not isinstance(iters, (int, np.integer)) or iters < 1:
        raise ValueError(f"iters must be a positive integer, got {iters!r}")
    if n < K:
        warnings.warn(
            f"fewer data columns ({n}) than atoms ({K}); the dictionary is underdetermined",
            stacklevel=2,
        )

    atoms = _init_atoms(data, K, substream(seed, 0))
    X = np.zeros((K, n))
    # squared residual of every column: recomputed after each iteration,
    # updated in place by the re-seeding commits
    err = _column_errors(data, atoms, X)
    history = []
    replaced_per_iter = []
    for it in range(iters):
        replaced, X_new = _reseed_sweep(data, atoms, X, err, L) if it > 0 else (0, None)
        if X_new is None:
            X_new = _encode(atoms, data, L)
        # fresh pursuit codes, kept per column only where they beat the
        # previous codes against the current dictionary
        keep = err < _column_errors(data, atoms, X_new)
        X_new[:, keep] = X[:, keep]
        X = X_new
        # an atom's update writes only its own code row, so every support can
        # be read before the sweep
        used = X != 0.0
        for k in range(K):
            omega = used[k].nonzero()[0]
            if omega.size == 0:
                continue  # unused: left to the next iteration's re-seeding sweep
            R = data[:, omega] - atoms @ X[:, omega]
            E = R + atoms[:, k, None] * X[k, omega]
            u = _leading_left_vector(E)
            if u is None:
                X[k, omega] = 0.0  # E is zero: without atom k these columns are exact
                continue
            x_new = E.T @ u
            err_old = float((R * R).sum())
            err_new = float((E * E).sum()) - float(x_new @ x_new)
            # an exact singular pair cannot lose to the old pair; skip the
            # commit in the floating-point corner cases where it would
            if err_new <= err_old + 1e-12 * max(1.0, err_old):
                atoms[:, k] = u
                X[k, omega] = x_new
        err = _column_errors(data, atoms, X)
        history.append(float(err.sum()))
        replaced_per_iter.append(replaced)
    return (
        Dictionary(atoms),
        SparseCodes(X),
        KsvdReport(np.asarray(history), np.asarray(replaced_per_iter)),
    )


def map_atoms(Y, basis, learned):
    """Map a ksvd result learned on the coordinates R of Y = basis R back to
    the space of Y, and check it there.

    basis has orthonormal columns, so pursuit and squared errors are the same
    for (D~, R) and (basis D~, Y): the atoms become D = basis D~, and the
    codes and the report stay those of the call made. Raises RuntimeError
    unless ||Y - D X||_F^2 matches the reported final objective within 1e-9
    of ||Y||_F^2.
    """
    dictionary, codes, report = learned
    data = np.asarray(Y, dtype=float)
    D = basis @ dictionary.atoms
    final = float(np.sum((data - D @ codes.codes) ** 2))
    recorded = float(report.objective_history[-1])
    if abs(final - recorded) > 1e-9 * float(np.sum(data * data)):
        raise RuntimeError(
            f"mapped dictionary reconstructs Y with squared error {final}, "
            f"but the learned one reported {recorded}"
        )
    return Dictionary(D), codes, report

