"""Pursuit coding and dictionary learning.

The derived expectations use independent oracles: exhaustive least-squares
search over all supports for the pursuit, a per-column pursuit with a fresh
lstsq solve per step as the reference for the batched coder, the re-seeding
sweep run one trial at a time as the reference for the batched sweep, and
numpy's full SVD for the rank-1 dictionary case. ksvd's atom update is
compared bit for bit with the same update written plainly, one atom at a
time.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from connfp import DimensionError, encode_all, ksvd
from connfp import sparse
from connfp.rng import substream
from connfp.sparse import (
    _column_errors,
    _encode,
    _init_atoms,
    _leading_left_vector,
    _reseed_sweep,
    _worst_column,
    map_atoms,
)

# ---------------------------------------------------------------- oracles


def best_support_residual(atoms, y, L):
    """Exhaustive search: exact least squares on every support of size <= L."""
    K = atoms.shape[1]
    best = float(y @ y)  # empty support
    for size in range(1, L + 1):
        for support in itertools.combinations(range(K), size):
            sub = atoms[:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            r = y - sub @ coef
            best = min(best, float(r @ r))
    return best


def reference_pursuit(atoms, y, L):
    """Greedy pursuit on one column with a fresh lstsq solve per step: the
    correlations come straight from the residual, chosen atoms are zeroed,
    the lowest index within a relative 1e-9 of the largest |correlation| is
    taken, and the pursuit stops on a residual norm below 1e-12 or a best
    correlation of exactly 0."""
    code = np.zeros(atoms.shape[1])
    resid = y.astype(float, copy=True)
    support = []
    coef = None
    for _ in range(L):
        if np.linalg.norm(resid) < 1e-12:
            break
        corr = atoms.T @ resid
        corr[support] = 0.0
        top = np.max(np.abs(corr))
        if top == 0.0:
            break
        j = int(np.flatnonzero(np.abs(corr) >= top - 1e-9 * top)[0])
        support.append(j)
        sub = atoms[:, support]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        resid = y - sub @ coef
    if support:
        code[support] = coef
    return code


def reference_reseed_sweep(data, atoms, X, err, L):
    """The re-seeding sweep one trial at a time: for each atom k in turn, the
    columns using it plus the worst-reconstructed column are re-coded against
    the dictionary with atom k replaced by that column, normalized, and the
    swap is committed when their squared error strictly drops. Updates atoms,
    X and err in place; returns the number of commits."""
    commits = 0
    for k in range(atoms.shape[1]):
        target = _worst_column(data, atoms, err)
        if target < 0:
            continue
        candidate = atoms.copy()
        candidate[:, k] = data[:, target] / np.linalg.norm(data[:, target])
        affected = np.union1d(np.flatnonzero(X[k] != 0.0), [target])
        cols = data[:, affected]
        new_codes = _encode(candidate, cols, L)
        new_col_err = _column_errors(cols, candidate, new_codes)
        old_err = float(np.sum(err[affected]))
        new_err = float(np.sum(new_col_err))
        if new_err < old_err - 1e-12 * max(1.0, old_err):
            atoms[:, k] = candidate[:, k]
            X[:, affected] = new_codes
            err[affected] = new_col_err
            commits += 1
    return commits


def reference_leading_left_vector(E):
    """The leading left singular vector by the eigh route for every support
    size, a single column included; None when E is zero."""
    Ev = E @ np.linalg.eigh(E.T @ E)[1][:, -1]
    s = float(np.linalg.norm(Ev))
    return None if s == 0.0 else Ev / s


def reference_ksvd(Y, K, L, iters, seed):
    """ksvd with its atom update written plainly: each atom's support read
    from its current code row by np.flatnonzero, E built with np.outer, sums
    by np.sum and the leading vector from eigh for every support size.
    Initialization, pursuit and re-seeding are the module's own. Returns
    (atoms, codes, objective history, replaced atoms per iteration, the
    support size of every atom update)."""
    data = np.asarray(Y, dtype=float)
    atoms = _init_atoms(data, K, substream(seed, 0))
    X = np.zeros((K, data.shape[1]))
    err = _column_errors(data, atoms, X)
    history, replaced_per_iter, sizes = [], [], []
    for it in range(iters):
        replaced, X_new = _reseed_sweep(data, atoms, X, err, L) if it > 0 else (0, None)
        if X_new is None:
            X_new = _encode(atoms, data, L)
        keep = err < _column_errors(data, atoms, X_new)
        X_new[:, keep] = X[:, keep]
        X = X_new
        for k in range(K):
            omega = np.flatnonzero(X[k] != 0.0)
            sizes.append(omega.size)
            if omega.size == 0:
                continue
            R = data[:, omega] - atoms @ X[:, omega]
            E = R + np.outer(atoms[:, k], X[k, omega])
            u = reference_leading_left_vector(E)
            if u is None:
                X[k, omega] = 0.0
                continue
            x_new = E.T @ u
            err_old = float(np.sum(R * R))
            err_new = float(np.sum(E * E)) - float(x_new @ x_new)
            if err_new <= err_old + 1e-12 * max(1.0, err_old):
                atoms[:, k] = u
                X[k, omega] = x_new
        err = _column_errors(data, atoms, X)
        history.append(float(np.sum(err)))
        replaced_per_iter.append(replaced)
    return atoms, X, np.asarray(history), np.asarray(replaced_per_iter), sizes


def random_dictionary(seed, m, K):
    a = substream(seed, 101).standard_normal((m, K))
    return a / np.linalg.norm(a, axis=0)


# ------------------------------------ omp (matching pursuit) on one column


def test_omp_recovers_single_atom():
    D = random_dictionary(0, 8, 5)
    code = encode_all(D, D[:, [3]], 2)[:, 0]
    expected = np.zeros(5)
    expected[3] = 1.0
    np.testing.assert_allclose(code, expected, atol=1e-12)


def test_omp_zero_target_gives_zero_code():
    D = random_dictionary(1, 8, 5)
    np.testing.assert_array_equal(encode_all(D, np.zeros((8, 1)), 3)[:, 0], np.zeros(5))


def test_omp_never_beats_exhaustive_search_and_often_matches():
    matches = 0
    for seed in range(60):
        D = random_dictionary(seed, 8, 5)
        y = substream(seed, 102).standard_normal(8)
        L = 1 + seed % 3
        code = encode_all(D, y[:, None], L)[:, 0]
        r = y - D @ code
        got = float(r @ r)
        best = best_support_residual(D, y, L)
        assert got >= best - 1e-10
        if got <= best + 1e-10:
            matches += 1
    assert matches >= 0.6 * 60


def test_omp_residual_orthogonal_to_selected_atoms():
    for seed in range(20):
        D = random_dictionary(seed, 10, 6)
        y = substream(seed, 103).standard_normal(10)
        code = encode_all(D, y[:, None], 3)[:, 0]
        support = np.flatnonzero(code)
        r = y - D @ code
        if support.size:
            assert np.max(np.abs(D[:, support].T @ r)) < 1e-8


def test_omp_orthonormal_closed_form():
    rng = substream(7, 104)
    Q = np.linalg.qr(rng.standard_normal((10, 6)))[0]
    y = rng.standard_normal(10)
    inner = Q.T @ y
    for L in (1, 2, 4):
        code = encode_all(Q, y[:, None], L)[:, 0]
        top = np.argsort(-np.abs(inner), kind="stable")[:L]
        expected = np.zeros(6)
        expected[top] = inner[top]
        np.testing.assert_allclose(code, expected, atol=1e-12)


def test_omp_rank_deficient_support_uses_minimum_norm():
    a = np.zeros((4, 3))
    a[:, 0] = [1.0, 0, 0, 0]
    a[:, 1] = [1.0, 0, 0, 0]  # duplicate atom
    a[:, 2] = [0, 1.0, 0, 0]
    code = encode_all(a, np.array([[2.0], [0.0], [0.0], [0.0]]), 2)[:, 0]
    r = np.array([2.0, 0, 0, 0]) - a @ code
    assert np.linalg.norm(r) < 1e-10


def test_omp_near_duplicate_atoms_fall_back_to_minimum_norm():
    """Two atoms equal up to roundoff both enter the support, so the solve
    meets a singular support Gram matrix; the target's component outside
    their span keeps the residual away from zero."""
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    outside = np.array([0.0, 1.0, -1.0])
    twin = u + 1e-16 * outside
    twin /= np.linalg.norm(twin)
    a = np.column_stack([u, twin])
    y = 2.0 * u + outside
    code = encode_all(a, y[:, None], 2)[:, 0]
    assert np.count_nonzero(code) == 2
    np.testing.assert_allclose(code, np.linalg.lstsq(a, y, rcond=None)[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(code, reference_pursuit(a, y, 2), rtol=0, atol=1e-12)
    r = y - a @ code
    assert np.max(np.abs(a.T @ r)) < 1e-12
    assert np.linalg.norm(r) > 1.0


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    m=st.integers(2, 12),
    K=st.integers(1, 10),
    L_pick=st.integers(0, 11),
    n=st.integers(0, 6),
    zero_col=st.booleans(),
    atom_col=st.booleans(),
)
def test_encode_all_matches_reference_pursuit(seed, m, K, L_pick, n, zero_col, atom_col):
    """The batched coder reproduces the per-column lstsq pursuit on tie-free
    random data, including zero columns and columns equal to a scaled atom
    (both stop early)."""
    L = 1 + L_pick % min(K, m)
    D = random_dictionary(seed, m, K)
    rng = substream(seed, 117)
    Y = rng.standard_normal((m, n))
    if zero_col and n > 0:
        Y[:, 0] = 0.0
    if atom_col and n > 1:
        Y[:, 1] = -1.5 * D[:, seed % K]
    codes = encode_all(D, Y, L)
    assert codes.shape == (K, n)
    for i in range(n):
        expected = reference_pursuit(D, Y[:, i], L)
        np.testing.assert_array_equal(codes[:, i] != 0.0, expected != 0.0)
        np.testing.assert_allclose(codes[:, i], expected, rtol=0, atol=1e-10)


def test_omp_validates_arguments():
    D = random_dictionary(2, 8, 5)
    Y = np.zeros((8, 1))
    with pytest.raises(ValueError):
        encode_all(D, Y, 0)
    with pytest.raises(ValueError):
        encode_all(D, Y, 6)
    with pytest.raises(DimensionError):
        encode_all(D, np.zeros((7, 1)), 2)
    with pytest.raises(ValueError):
        encode_all(D, np.full((8, 1), np.nan), 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), L=st.integers(1, 4))
def test_omp_code_never_exceeds_sparsity(seed, L):
    D = random_dictionary(seed, 9, 6)
    y = substream(seed, 105).standard_normal(9)
    code = encode_all(D, y[:, None], L)[:, 0]
    assert np.count_nonzero(code) <= L


# ------------------------------------------------------------- encode_all


def test_encode_all_on_atom_columns_is_permutation_structured():
    D = random_dictionary(3, 8, 5)
    Y = D[:, [2, 0, 4]]
    codes = encode_all(D, Y, 2)
    for col, atom in enumerate([2, 0, 4]):
        expected = np.zeros(5)
        expected[atom] = 1.0
        np.testing.assert_allclose(codes[:, col], expected, atol=1e-12)


# ------------------------------------------------------------------- ksvd


def test_ksvd_exact_on_orthonormal_atom_columns():
    Q = np.linalg.qr(substream(8, 108).standard_normal((8, 3)))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        D, X, report = ksvd(Q, K=3, L=1, iters=2, seed=0)
    assert report.objective_history[1] < 1e-20


def test_ksvd_objective_monotone_on_random_data():
    for seed in range(10):
        Y = substream(seed, 109).standard_normal((20, 40))
        D, X, report = ksvd(Y, K=10, L=3, iters=30, seed=seed)
        diffs = np.diff(report.objective_history)
        assert np.all(diffs <= 1e-9)
        assert np.max(np.abs(np.linalg.norm(D.atoms, axis=0) - 1.0)) < 1e-10


def test_ksvd_history_is_prefix_stable_and_atoms_stay_unit():
    """Running fewer iterations reproduces the head of a longer run, so the
    per-iteration invariants can be read off the truncated runs."""
    Y = substream(12, 110).standard_normal((16, 30))
    full = ksvd(Y, K=8, L=3, iters=6, seed=3)[2].objective_history
    for iters in range(1, 6):
        D, X, report = ksvd(Y, K=8, L=3, iters=iters, seed=3)
        np.testing.assert_array_equal(report.objective_history, full[:iters])
        assert np.max(np.abs(np.linalg.norm(D.atoms, axis=0) - 1.0)) < 1e-10
        assert np.all(np.count_nonzero(X.codes, axis=0) <= 3)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    m=st.integers(2, 10),
    K=st.integers(1, 8),
    L_pick=st.integers(0, 9),
    n=st.integers(1, 12),
    duplicate=st.booleans(),
    from_data=st.booleans(),
)
def test_reseed_sweep_matches_one_trial_at_a_time(seed, m, K, L_pick, n, duplicate, from_data):
    """The batched re-seeding sweep commits the same swaps, in the same
    order, as trying one atom at a time. The starting dictionary is random
    or made of data columns, optionally with atom 1 a copy of atom 0, which a
    swap can always improve on."""
    L = 1 + L_pick % min(K, m)
    rng = substream(seed, 131)
    Y = rng.standard_normal((m, n))
    atoms = random_dictionary(seed, m, K)
    if from_data:
        picked = Y[:, np.arange(K) % n]
        atoms = picked / np.linalg.norm(picked, axis=0)
    if duplicate and K > 1:
        atoms[:, 1] = atoms[:, 0]
    X = _encode(atoms, Y, L)
    err = _column_errors(Y, atoms, X)
    batched = [atoms.copy(), X.copy(), err.copy()]
    single = [atoms.copy(), X.copy(), err.copy()]
    commits, codes = _reseed_sweep(Y, *batched, L)
    assert commits == reference_reseed_sweep(Y, *single, L)
    np.testing.assert_array_equal(batched[1] != 0.0, single[1] != 0.0)
    for got, expected in zip(batched, single):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
    np.testing.assert_allclose(batched[2], _column_errors(Y, batched[0], batched[1]), atol=1e-10)
    if codes is not None:
        fresh = _encode(batched[0], Y, L)
        assert codes.shape == (K, n) and codes.flags.c_contiguous
        np.testing.assert_array_equal(codes != 0.0, fresh != 0.0)
        np.testing.assert_allclose(codes, fresh, rtol=0, atol=1e-10)


def ksvd_against_reference(seed, m, n, K, L_pick, iters, duplicate):
    """Run ksvd as it is and with its re-seeding sweep replaced by the
    one-trial-at-a-time reference followed by ksvd's own full-data pursuit;
    the two must agree. Returns the sweep exits that fell back to that
    pursuit: "last_atom" (the sweep's last round committed the last atom)
    and "no_target" (no usable re-seeding target was left)."""
    L = 1 + L_pick % min(K, m)
    Y = substream(seed, 140).standard_normal((m, n))
    if duplicate and n > 1:
        Y[:, 1] = Y[:, 0]
    exits = set()

    def spy(data, atoms, X, err, L):
        commits, codes = real_sweep(data, atoms, X, err, L)
        if codes is None:
            exits.add("no_target" if _worst_column(data, atoms, err) < 0 else "last_atom")
        return commits, codes

    def reference(data, atoms, X, err, L):
        return reference_reseed_sweep(data, atoms, X, err, L), None

    real_sweep = sparse._reseed_sweep
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("ignore")  # n < K is part of the input space
        mp.setattr(sparse, "_reseed_sweep", spy)
        D, X, report = ksvd(Y, K=K, L=L, iters=iters, seed=seed)
        mp.setattr(sparse, "_reseed_sweep", reference)
        D_ref, X_ref, report_ref = ksvd(Y, K=K, L=L, iters=iters, seed=seed)
    np.testing.assert_array_equal(X.codes != 0.0, X_ref.codes != 0.0)
    np.testing.assert_array_equal(report.replaced_atoms, report_ref.replaced_atoms)
    np.testing.assert_allclose(D.atoms, D_ref.atoms, rtol=0, atol=1e-10)
    np.testing.assert_allclose(X.codes, X_ref.codes, rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        report.objective_history, report_ref.objective_history, rtol=1e-12
    )
    return exits


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    m=st.integers(2, 10),
    n=st.integers(1, 12),
    K=st.integers(1, 8),
    L_pick=st.integers(0, 9),
    iters=st.integers(2, 6),
    duplicate=st.booleans(),
)
@example(seed=3, m=3, n=7, K=6, L_pick=8, iters=3, duplicate=True)
def test_ksvd_matches_reference_sweep_then_full_pursuit(seed, m, n, K, L_pick, iters, duplicate):
    """The codes the re-seeding sweep returns in place of ksvd's own
    full-data pursuit change nothing beyond roundoff: supports and replaced
    atoms are identical to the reference loop's. The example holds two equal
    data columns, whose pursuit meets a tie at roundoff level that the sweep's
    pursuit over [D, c] and ksvd's own over D must break alike."""
    ksvd_against_reference(seed, m, n, K, L_pick, iters, duplicate)


@pytest.mark.parametrize(
    "args, exit_kind",
    [((19, 7, 6, 3, 9, 3, False), "last_atom"), ((1, 6, 7, 7, 9, 2, False), "no_target")],
)
def test_ksvd_reference_cases_reach_each_fallback(args, exit_kind):
    """Fixed inputs that take each fallback to ksvd's own pursuit after a
    sweep (iteration 0 always takes the third), so a sweep that returned the
    stale codes of a committing round would fail the comparison."""
    assert exit_kind in ksvd_against_reference(*args)


@pytest.mark.parametrize(
    "m, n, K, L, seed, column_space, reaches",
    [
        (40, 12, 8, 3, 1, True, None),
        (10, 6, 8, 2, 0, False, "empty_support"),
        (12, 20, 6, 1, 0, False, None),
        (40, 12, 8, 3, 2, True, "single_user"),
        (12, 20, 10, 2, 2, False, "replaced"),
    ],
    ids=["column_space", "more_atoms_than_columns", "one_atom_per_column",
         "single_user_support", "replaced_atom"],
)
def test_ksvd_atom_update_matches_plain_reference_bitwise(m, n, K, L, seed, column_space, reaches):
    """Atoms, codes, objective history and re-seeding counts equal those of
    the plainly written atom update bit for bit. column_space runs on the R
    factor of Y = QR, as the pipeline does for K <= n < m. reaches names the
    path a case must take: a re-seeding commit, an atom with an empty
    support, or one with a single-column support."""
    Y = substream(seed, 150).standard_normal((m, n))
    if column_space:
        Y = np.linalg.qr(Y)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # K > n is one of the cases
        D, X, report = ksvd(Y, K=K, L=L, iters=10, seed=seed)
    atoms, codes, history, replaced, sizes = reference_ksvd(Y, K, L, 10, seed)
    np.testing.assert_array_equal(D.atoms, atoms)
    np.testing.assert_array_equal(X.codes, codes)
    np.testing.assert_array_equal(report.objective_history, history)
    np.testing.assert_array_equal(report.replaced_atoms, replaced)
    if reaches == "replaced":
        assert replaced.sum() > 0
    if reaches == "empty_support":
        assert 0 in sizes
    if reaches == "single_user":
        assert 1 in sizes


def test_ksvd_leaves_an_unused_atom_as_initialized():
    """With more atoms than columns, an atom no column uses is never touched:
    it keeps the random unit vector of the initialization (same stream), its
    code row ends zero, and the objective history never increases."""
    m, n, K, L, seed = 10, 6, 8, 2, 0
    Y = substream(seed, 150).standard_normal((m, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # K > n
        D, X, report = ksvd(Y, K=K, L=L, iters=10, seed=seed)
    initial = _init_atoms(Y, K, substream(seed, 0))
    unused = np.flatnonzero(~X.codes.any(axis=1))
    assert unused.size > 0
    np.testing.assert_array_equal(D.atoms[:, unused], initial[:, unused])
    assert np.all(np.diff(report.objective_history) <= 0.0)


def test_leading_left_vector_of_one_column_and_of_zero():
    """One column: the column normalized, bit for bit what the eigh route
    gives. A zero matrix has no leading vector."""
    rng = substream(3, 151)
    for m in (1, 2, 7, 30):
        E = rng.standard_normal((m, 1))
        u = _leading_left_vector(E)
        np.testing.assert_array_equal(u, E[:, 0] / np.linalg.norm(E[:, 0]))
        np.testing.assert_array_equal(u, reference_leading_left_vector(E))
    for q in (1, 3):
        assert _leading_left_vector(np.zeros((5, q))) is None


def _near_degenerate_data():
    """12 x 9 data whose top two singular values differ by 0.1%."""
    rng = substream(9, 113)
    U = np.linalg.qr(rng.standard_normal((12, 9)))[0]
    V = np.linalg.qr(rng.standard_normal((9, 9)))[0]
    s = np.array([2.0, 1.998, 1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1])
    return U @ np.diag(s) @ V.T


@pytest.mark.parametrize(
    "Y",
    [substream(9, 111).standard_normal((12, 9)), _near_degenerate_data()],
    ids=["gaussian", "near_degenerate"],
)
def test_ksvd_rank_one_matches_full_svd(Y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        D, X, report = ksvd(Y, K=1, L=1, iters=10, seed=0)
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    assert abs(float(U[:, 0] @ D.atoms[:, 0])) > 1.0 - 1e-8
    # objective equals the energy not captured by the leading singular value
    expected = float(np.sum(s[1:] ** 2))
    assert report.objective_history[-1] == pytest.approx(expected, rel=1e-8)


def test_ksvd_reaches_exact_representation_on_structured_data():
    """Data drawn 3-sparse from three disjoint orthonormal atom triples is
    exactly representable; the learner must drive the error to zero."""
    hits = 0
    for seed in range(3):
        rng = substream(seed, 112)
        D0 = np.linalg.qr(rng.standard_normal((20, 9)))[0]
        X0 = np.zeros((9, 40))
        for i in range(40):
            block = [[0, 1, 2], [3, 4, 5], [6, 7, 8]][i % 3]
            X0[block, i] = rng.standard_normal(3)
        Y = D0 @ X0
        D, X, report = ksvd(Y, K=10, L=3, iters=30, seed=seed)
        rel = np.linalg.norm(Y - D.atoms @ X.codes) / np.linalg.norm(Y)
        hits += rel < 1e-6
    assert hits == 3


def test_map_atoms_reproduces_the_learned_fit_and_rejects_a_foreign_basis():
    """Atoms learned on R map to unit atoms Q D~ of Y = QR, with the learned
    codes and the reported objective; a basis that is not the one of Y fails
    the objective check."""
    rng = substream(11, 114)
    Y = rng.standard_normal((30, 8))
    Q, R = np.linalg.qr(Y)
    learned = ksvd(R, K=4, L=2, iters=6, seed=3)
    D, X, report = map_atoms(Y, Q, learned)
    atoms = D.atoms
    np.testing.assert_array_equal(atoms, Q @ learned[0].atoms)
    np.testing.assert_array_equal(X.codes, learned[1].codes)
    objective = float(np.sum((Y - atoms @ X.codes) ** 2))
    assert objective == pytest.approx(report.objective_history[-1], rel=1e-12)
    # the result records check nothing, so the properties are checked here
    assert np.max(np.abs(np.linalg.norm(atoms, axis=0) - 1.0)) <= 1e-10
    assert np.all(np.count_nonzero(X.codes, axis=0) <= 2)
    encode_all(atoms, Y, 2)
    with pytest.raises(ValueError, match="unit norm"):
        encode_all(1.1 * atoms, Y, 2)
    foreign = np.linalg.qr(rng.standard_normal((30, 8)))[0]
    with pytest.raises(RuntimeError, match="mapped dictionary"):
        map_atoms(Y, foreign, learned)


def test_ksvd_deterministic():
    Y = substream(10, 113).standard_normal((14, 20))
    a = ksvd(Y, K=6, L=2, iters=8, seed=5)
    b = ksvd(Y, K=6, L=2, iters=8, seed=5)
    np.testing.assert_array_equal(a[0].atoms, b[0].atoms)
    np.testing.assert_array_equal(a[1].codes, b[1].codes)
    np.testing.assert_array_equal(a[2].objective_history, b[2].objective_history)


def test_ksvd_warns_when_columns_are_scarce():
    Y = substream(11, 114).standard_normal((10, 4))
    with pytest.warns(UserWarning, match="fewer data columns"):
        ksvd(Y, K=6, L=2, iters=1, seed=0)


def test_ksvd_validates_arguments():
    Y = np.random.default_rng(0).standard_normal((10, 12))
    with pytest.raises(ValueError):
        ksvd(Y, K=0, L=1, iters=1)
    with pytest.raises(ValueError):
        ksvd(Y, K=4, L=5, iters=1)
    with pytest.raises(ValueError):
        ksvd(Y, K=4, L=2, iters=0)
    with pytest.raises(ValueError):
        ksvd(np.full((4, 4), np.inf), K=2, L=1, iters=1)
    with pytest.raises(ValueError):
        ksvd(np.zeros((1, 5)), K=2, L=1, iters=1)


def test_ksvd_report_shapes():
    Y = substream(13, 115).standard_normal((12, 18))
    D, X, report = ksvd(Y, K=5, L=2, iters=7, seed=1)
    assert report.objective_history.shape == (7,)
    assert report.replaced_atoms.shape == (7,)
    assert np.all(np.isfinite(report.objective_history))


# ------------------------------------------------------------ type guards


def test_dictionary_requires_unit_norm():
    """Atoms from outside the package are checked where they enter, in
    encode_all: a 2-d, finite array of unit-norm columns."""
    Y = np.zeros((4, 1))
    with pytest.raises(ValueError, match="unit norm"):
        encode_all(np.ones((4, 2)), Y, 1)
    with pytest.raises(ValueError, match="non-finite"):
        encode_all(np.full((4, 2), np.nan), Y, 1)
    with pytest.raises(DimensionError):
        encode_all(np.ones(4) / 2.0, Y, 1)
