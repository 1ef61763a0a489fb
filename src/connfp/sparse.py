"""Sparse dictionary learning on edge vectors: greedy pursuit coding plus
singular-pair atom updates.

The coding step is batched orthogonal matching pursuit against the Gram
matrix (Rubinstein, Zibulevsky & Elad 2008): G = D^T D and D^T Y are formed
once per call, each greedy step picks the next atom of every still-active
column with one argmax over the correlation matrix D^T Y - G X, and every
column's support is re-solved exactly with one batched solve of the stacked
support Gram systems. Supports whose Gram matrix is singular or badly
conditioned (near-duplicate atoms) fall back to numpy's minimum-norm lstsq on
the atoms themselves. The dictionary update sweeps atoms sequentially, each
replaced by the leading singular pair of its restricted error matrix
(from one symmetric eigendecomposition of its column Gram matrix).
Atoms that no column uses are replaced by the currently worst-reconstructed
data column.

Every step is guarded so the squared-error objective never increases:
fresh pursuit codes are kept only where they beat the previous iteration's
codes, singular-pair commits are skipped in the floating-point corner cases
where they would not improve the restricted error, and the between-iteration
atom re-seeding (which escapes misallocated dictionaries) is transactional,
committed only when re-coding the affected columns strictly lowers the
objective. The re-seeding sweep evaluates its per-atom trials together, in
one pursuit against the dictionary extended by the candidate atom, until one
of them commits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .connectome import EdgeVector, mat
from .errors import DimensionError
from .rng import substream

_RESIDUAL_TOL = 1e-12
# support Gram matrices whose eigenvalue ratio falls below this (an atom
# submatrix condition number above 100) are solved by lstsq on the atoms
# themselves, because the normal equations square the condition number
_GRAM_RCOND = 1e-4
_UNIT_TOL = 1e-10
_ATOM_MATCH_TOL = 1e-8


@dataclass
class Dictionary:
    """m x K matrix of unit-norm atoms (columns)."""

    atoms: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float)
        if a.ndim != 2:
            raise DimensionError(f"dictionary atoms must be 2-d, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("dictionary contains non-finite entries")
        norms = np.linalg.norm(a, axis=0)
        if np.max(np.abs(norms - 1.0)) > _UNIT_TOL:
            raise ValueError("dictionary atoms must have unit norm within 1e-10")
        self.atoms = a

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def K(self) -> int:
        return self.atoms.shape[1]


@dataclass
class SparseCodes:
    """K x n coefficient matrix, at most L nonzeros per column."""

    codes: np.ndarray
    L: int

    def __post_init__(self):
        c = np.asarray(self.codes, dtype=float)
        if c.ndim != 2:
            raise DimensionError(f"codes must be 2-d, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("codes contain non-finite entries")
        nnz = np.count_nonzero(c, axis=0)
        if np.any(nnz > self.L):
            worst = int(np.argmax(nnz))
            raise ValueError(
                f"column {worst} has {int(nnz[worst])} nonzeros, exceeding L={self.L}"
            )
        self.codes = c


@dataclass
class KsvdReport:
    objective_history: np.ndarray
    replaced_atoms: np.ndarray
    iterations_run: int


def _support_coefs(atoms, Y, Gs, b, S, cols):
    """Least-squares coefficients of every column cols[i] of Y on its support
    S[i]: one batched solve of the stacked support Gram systems Gs c = b, with
    numpy's minimum-norm lstsq on the atoms themselves for supports whose Gram
    matrix is singular or too ill-conditioned to solve accurately."""
    if S.shape[1] == 1:
        return b / Gs[:, 0]  # one unit-norm atom: always well conditioned
    w = np.linalg.eigvalsh(Gs)
    ok = w[:, 0] > _GRAM_RCOND * w[:, -1]
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
    cols = np.flatnonzero(np.linalg.norm(Y, axis=0) >= _RESIDUAL_TOL)
    for s in range(L):
        corr = DtY[:, cols] - G @ X[:, cols]
        corr[chosen[:, cols]] = 0.0  # residual is already orthogonal to these, up to roundoff
        j = np.argmax(np.abs(corr), axis=0)
        live = corr[j, np.arange(cols.size)] != 0.0
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
            cols = cols[np.linalg.norm(resid, axis=0) >= _RESIDUAL_TOL]
    return X


def omp(dictionary: Dictionary, y, L: int) -> np.ndarray:
    """Sparse code for one target vector: at most L atoms, exact LS on the support.

    The single-column case of encode_all, so it runs the same batched coder.
    Stops early once the residual norm drops below 1e-12. Returns a dense
    length-K vector.
    """
    target = np.asarray(y, dtype=float)
    if target.ndim != 1:
        raise DimensionError(f"target must be 1-d, got shape {target.shape}")
    return encode_all(dictionary, target[:, None], L).codes[:, 0]


def encode_all(dictionary: Dictionary, Y, L: int) -> SparseCodes:
    """Code every column of Y independently; column order is preserved.

    All columns are coded at once: each of the at most L greedy steps adds
    to every unfinished column the unchosen atom most correlated with its
    residual (ties toward the lowest index), then re-solves each support by
    one batched solve of the stacked support Gram systems, or by minimum-norm
    lstsq where a support Gram matrix is singular or badly conditioned. A
    column stops once its residual norm is below 1e-12 or no unchosen atom
    correlates with its residual.
    """
    data = np.asarray(Y, dtype=float)
    if data.ndim != 2:
        raise DimensionError(f"Y must be 2-d, got shape {data.shape}")
    if data.shape[0] != dictionary.m:
        raise DimensionError(
            f"Y rows ({data.shape[0]}) must match atom length ({dictionary.m})"
        )
    if not np.all(np.isfinite(data)):
        raise ValueError("Y contains non-finite values")
    if not (1 <= L <= min(dictionary.K, dictionary.m)):
        raise ValueError(
            f"L must satisfy 1 <= L <= min(K={dictionary.K}, m={dictionary.m}), got {L}"
        )
    return SparseCodes(_encode(dictionary.atoms, data, L), L)


def _leading_left_vector(E: np.ndarray):
    """Leading left singular vector of E, or None when E is zero.

    The leading eigenvector v of the q x q Gram matrix E^T E (LAPACK eigh) is
    projected back through E, so the returned vector is an exact image of a
    unit vector, which keeps the subsequent least-squares row update honest.
    A single-column E (q = 1) gets v = [1] exactly, so u is E normalized.
    """
    Ev = E @ np.linalg.eigh(E.T @ E)[1][:, -1]
    s = float(np.linalg.norm(Ev))
    return None if s == 0.0 else Ev / s


def _is_existing_atom(column: np.ndarray, atoms: np.ndarray) -> bool:
    norm = np.linalg.norm(column)
    if norm == 0.0:
        return True  # never usable as an atom
    overlap = np.abs(atoms.T @ (column / norm))
    return bool(np.max(overlap) > 1.0 - _ATOM_MATCH_TOL)


def _breaks_sign_rule(v: np.ndarray) -> bool:
    """The sign rule: an atom's largest-magnitude entry (the first, on ties)
    is positive. True when v must be flipped to follow it."""
    return bool(v[np.argmax(np.abs(v))] < 0)


def _unit_atom(v: np.ndarray) -> np.ndarray:
    """Normalize v and apply the sign rule."""
    atom = v / np.linalg.norm(v)
    return -atom if _breaks_sign_rule(atom) else atom


def _column_errors(Y, atoms, X) -> np.ndarray:
    """Squared residual ||y_i - D x_i||^2 of every column."""
    return np.sum((Y - atoms @ X) ** 2, axis=0)


def _worst_column(Y, atoms, err) -> int:
    """Index of the worst-reconstructed column (squared residuals err) not
    already present as an atom (ties toward the lowest index), or -1 when
    every column is degenerate or duplicated."""
    for i in np.argsort(-err, kind="stable"):
        if not _is_existing_atom(Y[:, i], atoms):
            return int(i)
    return -1


def _replacement_atom(Y, atoms, X, rng) -> np.ndarray:
    """The worst-reconstructed usable data column, or else a random unit vector
    so the sweep can always continue."""
    i = _worst_column(Y, atoms, _column_errors(Y, atoms, X))
    return _unit_atom(Y[:, i] if i >= 0 else rng.standard_normal(Y.shape[0]))


def _reseed_sweep(
    data: np.ndarray, atoms: np.ndarray, X: np.ndarray, err: np.ndarray, L: int
) -> int:
    """Tentatively re-seed each atom k in turn at the worst-reconstructed data
    column; returns the number of swaps committed.

    err holds every column's squared residual against (atoms, X). Each trial
    is a transaction: the columns whose codes use atom k (plus the re-seeding
    target itself) are re-coded against the dictionary with atom k replaced
    by the candidate, and the swap is committed only when their total squared
    error strictly drops. Columns outside that set carry a zero coefficient on
    atom k, so their residuals cannot move; the objective therefore never
    increases, and a commit updates atoms, X and err on the affected columns
    only. Frees atoms stuck duplicating structure that fewer atoms already
    span.

    A trial that does not commit changes nothing, so until one commits the
    target column and its candidate atom c are the same for every remaining
    k. Those trials are evaluated together: one pursuit over the affected
    columns of all of them against [D, c], each column barred from its own
    trial's atom k. The first trial that lowers its error commits, and the
    sweep restarts after it, so the commits and their order are those of one
    trial at a time. Only an exact |correlation| tie between c and another
    atom resolves differently: c sits at index K, so the other atom wins.
    """
    K = atoms.shape[1]
    commits = 0
    start = 0
    while start < K:
        target = _worst_column(data, atoms, err)
        if target < 0:
            break
        extended = np.column_stack([atoms, _unit_atom(data[:, target])])
        trials = range(start, K)
        affected = [np.union1d(np.flatnonzero(X[k] != 0.0), [target]) for k in trials]
        sizes = [a.size for a in affected]
        cols = data[:, np.concatenate(affected)]
        codes = _encode(extended, cols, L, banned=np.repeat(trials, sizes))
        col_err = _column_errors(cols, extended, codes)
        bounds = np.cumsum([0, *sizes])
        for k, idx, lo, hi in zip(trials, affected, bounds[:-1], bounds[1:]):
            old_err = float(np.sum(err[idx]))
            new_err = float(np.sum(col_err[lo:hi]))
            if new_err < old_err - 1e-12 * max(1.0, old_err):
                atoms[:, k] = extended[:, K]
                new_codes = codes[:K, lo:hi]  # row k is zero: atom k was barred
                new_codes[k] = codes[K, lo:hi]
                X[:, idx] = new_codes
                err[idx] = col_err[lo:hi]
                commits += 1
                start = k + 1
                break
        else:
            break
    return commits


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
    """Alternate full-data pursuit coding with sequential singular-pair atom
    updates.

    For atom k with support columns Omega, the restricted error matrix is
    E_k = Y_Omega - D X_Omega + d_k x^k_Omega; its leading singular pair
    (from the eigendecomposition of E_k^T E_k) becomes the new atom and the
    new coefficients on Omega. The atom sign is fixed so its largest-magnitude
    entry is positive. Between iterations, each atom is tentatively re-seeded
    at the worst-reconstructed data column and the swap kept only when it
    strictly lowers the objective; the trials of one sweep are coded together
    against [D, c] with c the candidate atom, so an exact |correlation| tie
    between c and another atom goes to the other atom. Every step is guarded,
    so the recorded objective ||Y - D X||_F^2 (one entry after each full
    iteration) is nonincreasing. Returns (Dictionary, SparseCodes, KsvdReport).
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

    rng = substream(seed, 0)
    atoms = _init_atoms(data, K, rng)
    X = np.zeros((K, n))
    # squared residual of every column: recomputed after each iteration,
    # updated in place by the re-seeding commits
    err = _column_errors(data, atoms, X)
    history = []
    replaced_per_iter = []
    for it in range(iters):
        replaced = _reseed_sweep(data, atoms, X, err, L) if it > 0 else 0
        # fresh pursuit codes, kept per column only where they beat the
        # previous codes against the current dictionary
        X_new = _encode(atoms, data, L)
        keep = err < _column_errors(data, atoms, X_new)
        X_new[:, keep] = X[:, keep]
        X = X_new
        for k in range(K):
            omega = np.flatnonzero(X[k] != 0.0)
            if omega.size == 0:
                atoms[:, k] = _replacement_atom(data, atoms, X, rng)
                replaced += 1
                continue
            R = data[:, omega] - atoms @ X[:, omega]
            E = R + np.outer(atoms[:, k], X[k, omega])
            u = _leading_left_vector(E)
            if u is None:
                atoms[:, k] = _replacement_atom(data, atoms, X, rng)
                X[k, omega] = 0.0
                replaced += 1
                continue
            x_new = E.T @ u
            err_old = float(np.sum(R * R))
            err_new = float(np.sum(E * E)) - float(x_new @ x_new)
            # an exact singular pair cannot lose to the old pair; skip the
            # commit in the floating-point corner cases where it would
            if err_new <= err_old + 1e-12 * max(1.0, err_old):
                if _breaks_sign_rule(u):
                    u, x_new = -u, -x_new
                atoms[:, k] = u
                X[k, omega] = x_new
        err = _column_errors(data, atoms, X)
        history.append(float(np.sum(err)))
        replaced_per_iter.append(replaced)
    return (
        Dictionary(atoms.copy()),
        SparseCodes(X, L),
        KsvdReport(np.asarray(history), np.asarray(replaced_per_iter), int(iters)),
    )


def map_atoms(Y, basis, learned):
    """Map a ksvd result learned on the coordinates R of Y = basis R back to
    the space of Y, and check it there.

    basis has orthonormal columns, so pursuit and squared errors are the same
    for (D~, R) and (basis D~, Y): the atoms become D = basis D~, the sign
    rule is applied again to them (a flipped atom's code row is flipped with
    it), and the report stays that of the call made. Raises RuntimeError
    unless ||Y - D X||_F^2 matches the reported final objective within 1e-9
    of ||Y||_F^2; Dictionary and SparseCodes check unit norms and L.
    """
    dictionary, codes, report = learned
    data = np.asarray(Y, dtype=float)
    D = basis @ dictionary.atoms
    X = codes.codes.copy()
    flip = np.array([_breaks_sign_rule(d) for d in D.T], dtype=bool)
    D[:, flip] = -D[:, flip]
    X[flip] = 0.0 - X[flip]  # unlike negation, keeps zero codes +0.0
    final = float(np.sum((data - D @ X) ** 2))
    recorded = float(report.objective_history[-1])
    if abs(final - recorded) > 1e-9 * float(np.sum(data * data)):
        raise RuntimeError(
            f"mapped dictionary reconstructs Y with squared error {final}, "
            f"but the learned one reported {recorded}"
        )
    return Dictionary(D), SparseCodes(X, codes.L), report


def refine(residual_matrix, dictionary: Dictionary, code) -> np.ndarray:
    """Subtract the coded edge reconstruction: R - mat(D @ x).

    With a zero code this is the identity; with a perfect code the result is
    exactly zero off the diagonal.
    """
    R = np.asarray(getattr(residual_matrix, "matrix", residual_matrix), dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise DimensionError(f"residual matrix must be square, got shape {R.shape}")
    p = R.shape[0]
    expected = p * (p - 1) // 2
    if dictionary.m != expected:
        raise DimensionError(
            f"dictionary edge length {dictionary.m} does not match p={p} "
            f"(expected {expected})"
        )
    x = np.asarray(code, dtype=float)
    if x.ndim != 1 or x.size != dictionary.K:
        raise DimensionError(f"code must be a length-{dictionary.K} vector, got shape {x.shape}")
    return R - mat(EdgeVector(dictionary.atoms @ x, p))
