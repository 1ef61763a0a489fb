"""Pursuit coding and dictionary learning.

The derived expectations use independent oracles: exhaustive least-squares
search over all supports for the pursuit, a per-column pursuit with a fresh
lstsq solve per step as the reference for the batched coder, the re-seeding
sweep run one trial at a time as the reference for the batched sweep, numpy's
full SVD for the rank-1 dictionary case, and an explicit index map for the
refinement subtraction.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connfp import (
    Connectome,
    Dictionary,
    DimensionError,
    EdgeVector,
    ResidualConnectome,
    SparseCodes,
    encode_all,
    ksvd,
    mat,
    omp,
    pearson_fc,
    refine,
    vectorize_upper,
)
from connfp.rng import substream
from connfp.sparse import (
    _column_errors,
    _encode,
    _reseed_sweep,
    _unit_atom,
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
    ties go to the lowest index, and the pursuit stops on a residual norm
    below 1e-12 or a best correlation of exactly 0."""
    code = np.zeros(atoms.shape[1])
    resid = y.astype(float, copy=True)
    support = []
    coef = None
    for _ in range(L):
        if np.linalg.norm(resid) < 1e-12:
            break
        corr = atoms.T @ resid
        corr[support] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if corr[j] == 0.0:
            break
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
        candidate[:, k] = _unit_atom(data[:, target])
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


def random_dictionary(seed, m, K):
    a = substream(seed, 101).standard_normal((m, K))
    return Dictionary(a / np.linalg.norm(a, axis=0))


# -------------------------------------------------------------------- omp


def test_omp_recovers_single_atom():
    D = random_dictionary(0, 8, 5)
    code = omp(D, D.atoms[:, 3], 2)
    expected = np.zeros(5)
    expected[3] = 1.0
    np.testing.assert_allclose(code, expected, atol=1e-12)


def test_omp_zero_target_gives_zero_code():
    D = random_dictionary(1, 8, 5)
    np.testing.assert_array_equal(omp(D, np.zeros(8), 3), np.zeros(5))


def test_omp_never_beats_exhaustive_search_and_often_matches():
    matches = 0
    for seed in range(60):
        D = random_dictionary(seed, 8, 5)
        y = substream(seed, 102).standard_normal(8)
        L = 1 + seed % 3
        code = omp(D, y, L)
        r = y - D.atoms @ code
        got = float(r @ r)
        best = best_support_residual(D.atoms, y, L)
        assert got >= best - 1e-10
        if got <= best + 1e-10:
            matches += 1
    assert matches >= 0.6 * 60


def test_omp_residual_orthogonal_to_selected_atoms():
    for seed in range(20):
        D = random_dictionary(seed, 10, 6)
        y = substream(seed, 103).standard_normal(10)
        code = omp(D, y, 3)
        support = np.flatnonzero(code)
        r = y - D.atoms @ code
        if support.size:
            assert np.max(np.abs(D.atoms[:, support].T @ r)) < 1e-8


def test_omp_orthonormal_closed_form():
    rng = substream(7, 104)
    Q = np.linalg.qr(rng.standard_normal((10, 6)))[0]
    D = Dictionary(Q)
    y = rng.standard_normal(10)
    inner = Q.T @ y
    for L in (1, 2, 4):
        code = omp(D, y, L)
        top = np.argsort(-np.abs(inner), kind="stable")[:L]
        expected = np.zeros(6)
        expected[top] = inner[top]
        np.testing.assert_allclose(code, expected, atol=1e-12)


def test_omp_rank_deficient_support_uses_minimum_norm():
    a = np.zeros((4, 3))
    a[:, 0] = [1.0, 0, 0, 0]
    a[:, 1] = [1.0, 0, 0, 0]  # duplicate atom
    a[:, 2] = [0, 1.0, 0, 0]
    D = Dictionary(a)
    code = omp(D, np.array([2.0, 0.0, 0.0, 0.0]), 2)
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
    D = Dictionary(a)
    y = 2.0 * u + outside
    code = omp(D, y, 2)
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
        Y[:, 1] = -1.5 * D.atoms[:, seed % K]
    codes = encode_all(D, Y, L).codes
    assert codes.shape == (K, n)
    for i in range(n):
        expected = reference_pursuit(D.atoms, Y[:, i], L)
        np.testing.assert_array_equal(codes[:, i] != 0.0, expected != 0.0)
        np.testing.assert_allclose(codes[:, i], expected, rtol=0, atol=1e-10)


def test_omp_validates_arguments():
    D = random_dictionary(2, 8, 5)
    y = np.zeros(8)
    with pytest.raises(ValueError):
        omp(D, y, 0)
    with pytest.raises(ValueError):
        omp(D, y, 6)
    with pytest.raises(DimensionError):
        omp(D, np.zeros(7), 2)
    with pytest.raises(ValueError):
        omp(D, np.full(8, np.nan), 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), L=st.integers(1, 4))
def test_omp_code_never_exceeds_sparsity(seed, L):
    D = random_dictionary(seed, 9, 6)
    y = substream(seed, 105).standard_normal(9)
    code = omp(D, y, L)
    assert np.count_nonzero(code) <= L


# ------------------------------------------------------------- encode_all


def test_encode_all_on_atom_columns_is_permutation_structured():
    D = random_dictionary(3, 8, 5)
    Y = D.atoms[:, [2, 0, 4]]
    codes = encode_all(D, Y, 2).codes
    for col, atom in enumerate([2, 0, 4]):
        expected = np.zeros(5)
        expected[atom] = 1.0
        np.testing.assert_allclose(codes[:, col], expected, atol=1e-12)


def test_encode_all_single_column_matches_omp():
    D = random_dictionary(4, 8, 5)
    y = substream(4, 106).standard_normal(8)
    np.testing.assert_array_equal(
        encode_all(D, y[:, None], 3).codes[:, 0], omp(D, y, 3)
    )


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
    atoms = random_dictionary(seed, m, K).atoms
    if from_data:
        picked = Y[:, np.arange(K) % n]
        atoms = picked / np.linalg.norm(picked, axis=0)
    if duplicate and K > 1:
        atoms[:, 1] = atoms[:, 0]
    X = _encode(atoms, Y, L)
    err = _column_errors(Y, atoms, X)
    batched = [atoms.copy(), X.copy(), err.copy()]
    single = [atoms.copy(), X.copy(), err.copy()]
    commits = _reseed_sweep(Y, *batched, L)
    assert commits == reference_reseed_sweep(Y, *single, L)
    np.testing.assert_array_equal(batched[1] != 0.0, single[1] != 0.0)
    for got, expected in zip(batched, single):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
    np.testing.assert_allclose(batched[2], _column_errors(Y, batched[0], batched[1]), atol=1e-10)


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
    """Atoms learned on R map to unit atoms of Y = QR under the sign rule,
    with the same codes up to flipped rows and the reported objective; a
    basis that is not the one of Y fails the objective check."""
    rng = substream(11, 114)
    Y = rng.standard_normal((30, 8))
    Q, R = np.linalg.qr(Y)
    learned = ksvd(R, K=4, L=2, iters=6, seed=3)
    D, X, report = map_atoms(Y, Q, learned)
    atoms = D.atoms
    assert np.all(atoms[np.argmax(np.abs(atoms), axis=0), np.arange(4)] > 0)
    np.testing.assert_allclose(np.abs(X.codes), np.abs(learned[1].codes), rtol=0, atol=0)
    objective = float(np.sum((Y - atoms @ X.codes) ** 2))
    assert objective == pytest.approx(report.objective_history[-1], rel=1e-12)
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
    assert report.iterations_run == 7
    assert report.objective_history.shape == (7,)
    assert report.replaced_atoms.shape == (7,)
    assert np.all(np.isfinite(report.objective_history))


# ------------------------------------------------------------ type guards


def test_dictionary_requires_unit_norm():
    with pytest.raises(ValueError):
        Dictionary(np.ones((4, 2)))


def test_sparse_codes_enforce_sparsity_bound():
    with pytest.raises(ValueError, match="column 1"):
        SparseCodes(np.array([[1.0, 1.0], [0.0, 2.0], [0.0, 3.0]]), L=2)
    SparseCodes(np.array([[1.0, 1.0], [0.0, 2.0], [0.0, 0.0]]), L=2)


# ----------------------------------------------------------------- refine


def _residual_fixture(seed, p=5):
    series = substream(seed, 116).standard_normal((p, 60))
    C = pearson_fc(series)
    m = C.matrix - np.eye(p)
    return ResidualConnectome(m, "s", "rest")


def test_refine_zero_code_is_identity():
    R = _residual_fixture(0)
    D = random_dictionary(6, 10, 4)
    out = refine(R, D, np.zeros(4))
    np.testing.assert_array_equal(out, R.matrix)


def test_refine_perfect_code_zeroes_off_diagonal():
    R = _residual_fixture(1)
    e = vectorize_upper(Connectome(np.eye(5) + R.matrix, "s", "rest")).values
    atom = e / np.linalg.norm(e)
    D = Dictionary(atom[:, None])
    out = refine(R, D, np.array([np.linalg.norm(e)]))
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_allclose(out[off], 0.0, atol=1e-12)


def test_refine_matches_index_map_oracle():
    R = _residual_fixture(2, p=4)
    D = random_dictionary(7, 6, 3)
    x = np.array([0.5, -1.0, 0.25])
    out = refine(R, D, x)
    coded = D.atoms @ x
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for idx, (i, j) in enumerate(pairs):
        assert out[i, j] == pytest.approx(R.matrix[i, j] - coded[idx], abs=1e-12)
        assert out[j, i] == out[i, j]
    assert np.all(np.diag(out) == np.diag(R.matrix))


def test_refine_rejects_mismatched_dictionary():
    R = _residual_fixture(3, p=4)
    D = random_dictionary(8, 10, 3)  # 10 edges implies p=5, not 4
    with pytest.raises(DimensionError):
        refine(R, D, np.zeros(3))
    good = random_dictionary(9, 6, 3)
    with pytest.raises(DimensionError):
        refine(R, good, np.zeros(5))
