"""Detrending and connectome construction.

Derived expectations are checked against independent oracles written in the
most literal form available: normal equations for the detrend line and the
textbook two-pass covariance formula for Pearson correlation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connfp import (
    DegenerateInputError,
    DimensionError,
    EdgeVector,
    detrend,
    mat,
    pearson_fc,
    vectorize_upper,
)

# ---------------------------------------------------------------- oracles


def ols_line_residual(row):
    """Least-squares line removal via explicit normal equations."""
    row = np.asarray(row, dtype=float)
    t = np.arange(row.size, dtype=float)
    A = np.column_stack([t, np.ones_like(t)])
    # 2x2 normal equations solved directly
    AtA = A.T @ A
    Aty = A.T @ row
    slope, intercept = np.linalg.solve(AtA, Aty)
    return row - (slope * t + intercept)


def pearson_two_pass(x, y):
    """Textbook two-pass Pearson correlation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mx, my = x.mean(), y.mean()
    cov = float(np.sum((x - mx) * (y - my)))
    sx = math.sqrt(float(np.sum((x - mx) ** 2)))
    sy = math.sqrt(float(np.sum((y - my) ** 2)))
    return cov / (sx * sy)


# ---------------------------------------------------------------- detrend


def test_detrend_removes_exact_line():
    out = detrend(np.array([[1.0, 2.0, 3.0, 4.0]]))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_detrend_removes_constant():
    out = detrend(np.array([[7.0, 7.0, 7.0]]))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_detrend_matches_normal_equations_oracle():
    row = np.array([1.0, 2.0, 2.0, 3.0, 5.0])
    expected = ols_line_residual(row)
    out = detrend(row[None, :])
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


def test_detrend_output_has_zero_mean_and_slope():
    rng = np.random.default_rng(0)
    series = rng.standard_normal((5, 31))
    out = detrend(series)
    t = np.arange(31) - np.mean(np.arange(31))
    assert np.max(np.abs(out.mean(axis=1))) < 1e-12
    assert np.max(np.abs(out @ t)) / np.linalg.norm(t) < 1e-10


def test_detrend_rejects_single_sample():
    with pytest.raises(DimensionError):
        detrend(np.ones((3, 1)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40))
def test_detrend_idempotent(values):
    row = np.array([values])
    once = detrend(row)
    twice = detrend(once)
    np.testing.assert_allclose(twice, once, atol=1e-9)


# ---------------------------------------------------------------- pearson_fc


def test_pearson_exact_anticorrelation():
    series = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
    C = pearson_fc(series)
    assert C[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_pearson_identical_rows():
    series = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
    C = pearson_fc(series)
    assert C[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_pearson_matches_two_pass_oracle():
    x = np.array([1.0, 2.0, 3.0, 5.0])
    y = np.array([2.0, 1.0, 4.0, 3.0])
    expected = pearson_two_pass(x, y)
    C = pearson_fc(np.vstack([x, y]))
    assert C[0, 1] == pytest.approx(expected, abs=1e-12)


def test_pearson_diagonal_exactly_one_and_symmetric():
    rng = np.random.default_rng(2)
    C = pearson_fc(rng.standard_normal((6, 50)))
    assert np.all(np.diag(C) == 1.0)
    np.testing.assert_allclose(C, C.T, atol=1e-12)
    assert np.all(np.abs(C) <= 1.0)


def test_pearson_rejects_zero_variance_row_naming_it():
    series = np.random.default_rng(3).standard_normal((4, 30))
    series[2] = 5.0
    with pytest.raises(DegenerateInputError, match="2"):
        pearson_fc(series)


def test_pearson_rejects_short_series():
    with pytest.raises(DimensionError):
        pearson_fc(np.random.default_rng(0).standard_normal((3, 2)))


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.1, 50.0),
    b=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**20),
)
def test_pearson_invariant_to_positive_affine_rescaling(a, b, seed):
    series = np.random.default_rng(seed).standard_normal((4, 25))
    base = pearson_fc(series)
    scaled = series.copy()
    scaled[1] = a * scaled[1] + b
    np.testing.assert_allclose(pearson_fc(scaled), base, atol=1e-10)


# ------------------------------------------------- vectorize_upper and mat


def test_vectorize_layout_p3():
    m = np.eye(3)
    m[0, 1] = m[1, 0] = 0.2
    m[0, 2] = m[2, 0] = 0.3
    m[1, 2] = m[2, 1] = 0.4
    e = vectorize_upper(m)
    np.testing.assert_array_equal(e.values, [0.2, 0.3, 0.4])
    assert e.p == 3


def test_vectorize_identity_gives_zero_vector():
    e = vectorize_upper(np.eye(3))
    np.testing.assert_array_equal(e.values, np.zeros(3))


def test_vectorize_layout_p4_order():
    m = np.eye(4)
    vals = {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5, (2, 3): 6}
    for (i, j), v in vals.items():
        m[i, j] = m[j, i] = v / 10.0
    e = vectorize_upper(m)
    np.testing.assert_array_equal(e.values, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])


def test_mat_inverts_vectorize_exactly():
    rng = np.random.default_rng(4)
    C = pearson_fc(rng.standard_normal((5, 40)))
    back = mat(vectorize_upper(C))
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_array_equal(back[off], C[off])
    assert np.all(np.diag(back) == 0.0)


def test_vectorize_of_mat_is_identity_on_vectors():
    values = np.array([0.3, -0.1, 0.7, 0.2, -0.5, 0.05])
    e = EdgeVector(values, 4)
    m = mat(e)
    np.testing.assert_array_equal(vectorize_upper(np.eye(4) + m).values, values)


def test_mat_zero_vector_and_layout():
    np.testing.assert_array_equal(mat(EdgeVector(np.zeros(3), 3)), np.zeros((3, 3)))
    m = mat(EdgeVector(np.array([1.0, 2.0, 3.0]), 3))
    assert m[0, 1] == 1.0 and m[0, 2] == 2.0 and m[1, 2] == 3.0
    np.testing.assert_array_equal(m, m.T)


def test_edge_vector_rejects_wrong_length():
    with pytest.raises(DimensionError):
        EdgeVector(np.zeros(4), 3)


# ----------------------------------------------------- excluding networks


def test_exclusion_equals_recomputation_on_subset_series():
    # correlation acts row by row, so dropping ROIs from the series deletes
    # their rows and columns from the connectome
    series = np.random.default_rng(16).standard_normal((6, 80))
    keep = [0, 1, 4, 5]
    np.testing.assert_allclose(
        pearson_fc(series[keep]), pearson_fc(series)[np.ix_(keep, keep)], atol=1e-12
    )
