"""Similarity, identification, permutation testing, pipelines, grids, ablation.

Similarity entries are checked against a two-pass correlation oracle; the
finn_raw pipeline is checked against a hand-assembled run built from the
public pieces (detrend, pearson_fc, edge_matrix, similarity_matrix,
identify), and the refined methods against the dictionary and codes they
report.
"""

import numpy as np
import pytest

import connfp.fingerprint
from connfp import (
    ArchitectureConfig,
    CohortConfig,
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    NetworkPartition,
    PipelineOptions,
    SimilarityMatrix,
    TimeSeriesSet,
    TrainConfig,
    default_partition,
    detrend,
    edge_matrix,
    generate_cohort,
    grid_search,
    ksvd,
    identify,
    ablation,
    pearson_fc,
    permutation_test,
    residual,
    run_pipeline,
    run_pipeline_with_artifacts,
    similarity_matrix,
    train,
    vectorize_upper,
)
from connfp.fingerprint import _KSVD_SEED, _PERM_BLOCK, _PERM_STREAM
from connfp.rng import derive_seed, substream

# ---------------------------------------------------------------- fixtures


def corr_two_pass(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc)))


def connectome_set(seed, n, p=6, T=50):
    rng = substream(seed, 301)
    return [pearson_fc(rng.standard_normal((p, T))) for _ in range(n)]


def small_opts(**kw):
    base = dict(
        K=3,
        L=2,
        sdl_iters=5,
        arch=ArchitectureConfig(channels=(2,), latent_dim=4),
        train_cfg=TrainConfig(epochs=5),
        seed=9,
    )
    base.update(kw)
    return PipelineOptions(**base)


def small_cohort(seed=0, n=5, p=8, T=60, sessions=("rest", "motor")):
    return generate_cohort(
        CohortConfig(
            n_subjects=n,
            p_rois=p,
            n_timepoints=T,
            sessions=sessions,
            subject_strength=2.0,
            noise_std=1.0,
            seed=seed,
        )
    )


def keep_rois(cohort, keep):
    """The cohort with every series cut down to the ROI rows in keep."""
    data = {key: x[keep] for key, x in cohort.data.items()}
    return TimeSeriesSet(data, cohort.subject_ids, cohort.session_labels)


# -------------------------------------------------------------- similarity


def test_similarity_of_set_with_itself_has_unit_diagonal():
    edges = edge_matrix(connectome_set(0, 4))
    sim = similarity_matrix(edges, edges)
    np.testing.assert_allclose(np.diag(sim.values), 1.0, atol=1e-12)


def test_similarity_against_negated_set_flips_sign():
    mats = connectome_set(1, 3)
    sim = similarity_matrix(edge_matrix(mats), edge_matrix(mats))
    flipped = similarity_matrix(edge_matrix(mats), edge_matrix([-m for m in mats]))
    np.testing.assert_allclose(flipped.values, -sim.values, atol=1e-12)


def test_similarity_entries_match_correlation_oracle():
    one = connectome_set(2, 3)
    two = connectome_set(3, 3)
    sim = similarity_matrix(edge_matrix(one), edge_matrix(two))
    for i in range(3):
        for j in range(3):
            expected = corr_two_pass(vectorize_upper(one[i]), vectorize_upper(two[j]))
            assert sim.values[i, j] == pytest.approx(expected, abs=1e-12)


def test_similarity_rejects_constant_edge_vectors():
    mats = connectome_set(4, 3, p=4)
    flat = np.full((4, 4), 0.5)
    np.fill_diagonal(flat, 1.0)
    with pytest.raises(DegenerateInputError, match="first set"):
        similarity_matrix(edge_matrix([flat] + mats[1:]), edge_matrix(mats))
    with pytest.raises(DegenerateInputError, match="second set"):
        similarity_matrix(edge_matrix(mats), edge_matrix(mats[:2] + [flat]))


def test_similarity_input_guards():
    edges = edge_matrix(connectome_set(5, 3))
    with pytest.raises(ValueError, match="equal length"):
        similarity_matrix(edges, edges[:, :2])
    with pytest.raises(ValueError, match="at least 2"):
        similarity_matrix(edges[:, :1], edges[:, :1])
    with pytest.raises(DimensionError):
        similarity_matrix(edges, edge_matrix(connectome_set(6, 3, p=5)))
    with pytest.raises(DimensionError, match="2-d"):
        similarity_matrix(edges[:, 0], edges[:, 1])


def test_similarity_matrix_type_guards():
    with pytest.raises(DimensionError):
        SimilarityMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SimilarityMatrix(np.array([[0.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        SimilarityMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))


# ------------------------------------------------------------ identify


def test_identify_perfect_and_shifted():
    eye = SimilarityMatrix(np.eye(4))
    res = identify(eye)
    assert res.accuracy == 1.0
    np.testing.assert_array_equal(res.predictions, np.arange(4))

    shifted = SimilarityMatrix(np.roll(np.eye(4), 1, axis=1))
    assert identify(shifted).accuracy == 0.0


def test_identify_breaks_ties_toward_lowest_index():
    v = np.zeros((3, 3))
    v[0, 1] = v[0, 2] = 0.7
    res = identify(SimilarityMatrix(v))
    assert res.predictions[0] == 1


def test_identify_accuracy_is_hit_fraction():
    v = np.eye(5)
    v[0] = [0.0, 0.9, 0.0, 0.0, 0.0]  # one planted miss
    res = identify(SimilarityMatrix(v))
    assert res.accuracy == pytest.approx(4 / 5)
    assert float(res.accuracy * 5) == int(res.accuracy * 5)


def test_identify_on_random_similarity_sits_at_chance():
    n, trials = 20, 500
    rng = substream(14, 302)
    accs = [
        identify(SimilarityMatrix(rng.uniform(-1.0, 1.0, (n, n)))).accuracy
        for _ in range(trials)
    ]
    accs = np.asarray(accs)
    se = accs.std(ddof=1) / np.sqrt(trials)
    assert abs(accs.mean() - 1.0 / n) < 3.0 * se


# ----------------------------------------------------------- permutation


def test_permutation_p_value_hits_add_one_floor_on_perfect_matrix():
    report = permutation_test(identify(SimilarityMatrix(np.eye(10))), 200, seed=0)
    assert report.p_value == pytest.approx(1.0 / 201.0)
    assert report.null_hits.shape == (200,)
    assert report.null_hits.dtype.kind == "i"


def test_permutation_p_value_is_one_when_nothing_observed():
    v = np.roll(np.eye(6), 1, axis=1)  # every prediction misses
    report = permutation_test(identify(SimilarityMatrix(v)), 99, seed=1)
    assert report.p_value == 1.0


def test_permutation_null_mean_sits_near_one_over_n():
    report = permutation_test(identify(SimilarityMatrix(np.eye(10))), 400, seed=2)
    null = report.null_hits / 10
    se = null.std(ddof=1) / np.sqrt(null.size)
    assert abs(null.mean() - 0.1) < 3.0 * se


def test_permutation_is_seed_deterministic():
    result = identify(SimilarityMatrix(np.eye(5)))
    a = permutation_test(result, 50, seed=3)
    b = permutation_test(result, 50, seed=3)
    c = permutation_test(result, 50, seed=4)
    np.testing.assert_array_equal(a.null_hits, b.null_hits)
    assert not np.array_equal(a.null_hits, c.null_hits)


@pytest.mark.parametrize("bad", [0, -5, 2.5, "many", True, False])
def test_permutation_rejects_bad_counts(bad):
    with pytest.raises(ValueError):
        permutation_test(identify(SimilarityMatrix(np.eye(3))), bad)


def oracle_null_hits(simmat, n_perm, seed):
    """Hits against n_perm successive permutation(n) draws of one stream."""
    predictions = np.argmax(simmat.values, axis=1)
    rng = substream(seed, _PERM_STREAM)
    return np.array([np.sum(predictions == rng.permutation(predictions.size))
                     for _ in range(n_perm)])


def random_simmat(seed, n):
    return SimilarityMatrix(np.tanh(substream(seed, 311).standard_normal((n, n))))


# n_perm within one block, one above a block, and one above five small blocks
@pytest.mark.parametrize(
    "block, n_perm", [(_PERM_BLOCK, 1), (_PERM_BLOCK, 300), (_PERM_BLOCK, _PERM_BLOCK + 1), (16, 81)]
)
def test_permutation_null_equals_one_stream_oracle(block, n_perm, monkeypatch):
    monkeypatch.setattr(connfp.fingerprint, "_PERM_BLOCK", block)
    sim = random_simmat(6, 5)
    report = permutation_test(identify(sim), n_perm, seed=21)
    hits = oracle_null_hits(sim, n_perm, 21)
    np.testing.assert_array_equal(report.null_hits, hits)
    observed = int(np.sum(np.argmax(sim.values, axis=1) == np.arange(sim.values.shape[0])))
    assert report.p_value == (1 + int(np.sum(hits >= observed))) / (1 + n_perm)


@pytest.mark.parametrize("block", [_PERM_BLOCK, 16])
def test_shorter_permutation_null_is_a_prefix_of_a_longer_one(block, monkeypatch):
    sim = random_simmat(5, 12)
    short = permutation_test(identify(sim), 50, seed=8)
    monkeypatch.setattr(connfp.fingerprint, "_PERM_BLOCK", block)
    long = permutation_test(identify(sim), 120, seed=8)
    np.testing.assert_array_equal(short.null_hits, long.null_hits[:50])


def test_identify_is_invariant_under_increasing_transforms():
    # base values kept in [-1, 0] so 2x + 1 stays inside the valid range
    rng = substream(15, 303)
    v = rng.uniform(-1.0, 0.0, (8, 8))
    base = identify(SimilarityMatrix(v))
    for transform in (lambda x: 2.0 * x + 1.0, lambda x: x**3):
        res = identify(SimilarityMatrix(transform(v)))
        np.testing.assert_array_equal(res.predictions, base.predictions)
        assert res.accuracy == base.accuracy


# -------------------------------------------------------------- pipelines


def test_finn_raw_matches_hand_assembled_run():
    cohort = small_cohort(seed=1)
    result = run_pipeline(cohort, "rest", "motor", "finn_raw", small_opts())
    sets = {
        ses: [
            pearson_fc(detrend(cohort.series(sid, ses)))
            for sid in cohort.subject_ids
        ]
        for ses in ("rest", "motor")
    }
    expected = identify(similarity_matrix(edge_matrix(sets["rest"]), edge_matrix(sets["motor"])))
    np.testing.assert_array_equal(result.predictions, expected.predictions)
    np.testing.assert_array_equal(result.simmat.values, expected.simmat.values)
    assert result.accuracy == expected.accuracy


def test_roi_exclusion_equals_dropping_rows_before_correlation():
    cohort = small_cohort(seed=2)
    keep = [1, 2, 4, 5, 6, 7]
    excluded = run_pipeline(keep_rois(cohort, keep), "rest", "motor", "finn_raw", small_opts())
    sets = {
        ses: [
            pearson_fc(detrend(cohort.series(sid, ses))[keep])
            for sid in cohort.subject_ids
        ]
        for ses in ("rest", "motor")
    }
    expected = identify(similarity_matrix(edge_matrix(sets["rest"]), edge_matrix(sets["motor"])))
    # detrending the sliced series rather than slicing the detrended ones
    # moves the last bit of some entries
    np.testing.assert_allclose(excluded.simmat.values, expected.simmat.values, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(excluded.predictions, expected.predictions)


@pytest.mark.parametrize("method", ["baseline_groupavg", "convae_sdl"])
def test_pipeline_is_run_to_run_deterministic(method):
    cohort = small_cohort(seed=3)
    a = run_pipeline(cohort, "rest", "motor", method, small_opts())
    b = run_pipeline(cohort, "rest", "motor", method, small_opts())
    np.testing.assert_array_equal(a.simmat.values, b.simmat.values)
    np.testing.assert_array_equal(a.predictions, b.predictions)


def test_several_test_sessions_share_one_fit_of_the_train_session(monkeypatch):
    cohort = small_cohort(seed=14, sessions=("rest", "motor", "wm"))
    opts = small_opts()
    trains = []

    def counted_train(*args, **kwargs):
        trains.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(connfp.fingerprint, "train", counted_train)
    results, artifacts = run_pipeline_with_artifacts(
        cohort, "rest", ["motor", "wm"], "convae_sdl", opts
    )
    assert len(trains) == 1
    assert set(artifacts.dictionaries) == {"rest", "motor", "wm"}
    for test in ("motor", "wm"):
        alone = run_pipeline(cohort, "rest", test, "convae_sdl", opts)
        np.testing.assert_array_equal(results[test].simmat.values, alone.simmat.values)
    assert len(trains) == 3


def test_pipeline_rejects_bad_requests():
    cohort = small_cohort(seed=5)
    with pytest.raises(ConfigurationError, match="method"):
        run_pipeline(cohort, "rest", "motor", "svm", small_opts())
    with pytest.raises(ConfigurationError, match="train_session"):
        run_pipeline(cohort, "sleep", "motor", "finn_raw", small_opts())
    with pytest.raises(ConfigurationError, match="test_session"):
        run_pipeline(cohort, "rest", "sleep", "finn_raw", small_opts())
    with pytest.raises(ConfigurationError, match="differ"):
        run_pipeline(cohort, "rest", "rest", "finn_raw", small_opts())
    with pytest.raises(ConfigurationError, match="test_session"):
        run_pipeline_with_artifacts(cohort, "rest", ["motor", "sleep"], "finn_raw", small_opts())


@pytest.mark.parametrize("method", ["baseline_groupavg", "convae_sdl"])
def test_refined_similarity_is_target_minus_coded_part(method):
    """The refined edge matrix of each session is edge_matrix(residuals) - D X,
    with the dictionary, codes and autoencoder the pipeline reports; the
    residuals are each connectome minus the train session's group-mean
    connectome (baseline_groupavg) or the autoencoder's residual (convae_sdl)."""
    cohort = small_cohort(seed=18, n=10)
    results, artifacts = run_pipeline_with_artifacts(
        cohort, "rest", ["motor"], method, small_opts()
    )
    mats = {
        ses: [pearson_fc(detrend(cohort.series(sid, ses))) for sid in cohort.subject_ids]
        for ses in ("rest", "motor")
    }
    group_mean = np.mean(mats["rest"], axis=0)
    refined = {}
    for ses, ms in mats.items():
        if method == "baseline_groupavg":
            resid = [m - group_mean for m in ms]
        else:
            resid = residual(ms, artifacts.ae_params)
        coded = artifacts.dictionaries[ses].atoms @ artifacts.codes[ses].codes
        refined[ses] = edge_matrix(resid) - coded
    expected = similarity_matrix(refined["rest"], refined["motor"])
    np.testing.assert_allclose(
        results["motor"].simmat.values, expected.values, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "kw",
    [dict(K=0), dict(L=0), dict(sdl_iters=0)],
)
def test_pipeline_options_validation(kw):
    with pytest.raises(ConfigurationError):
        small_opts(**kw).validate()


# ------------------------------------------------- K-SVD in the column space


def recorded_ksvd(monkeypatch):
    """Route the pipeline's ksvd calls through a recorder of (Y, output)."""
    calls = []

    def recording(Y, *args, **kwargs):
        out = ksvd(Y, *args, **kwargs)
        calls.append((np.array(Y), out))
        return out

    monkeypatch.setattr(connfp.fingerprint, "ksvd", recording)
    return calls


def direct_ksvd(cohort, opts, ses):
    """ksvd on the session's full m x n residual edge matrix E (its edge
    matrix minus the rest session's group-mean edge vector), with the
    pipeline's seed; returns (E, output)."""
    mats = {
        s: [pearson_fc(detrend(cohort.series(sid, s))) for sid in cohort.subject_ids]
        for s in ("rest", ses)
    }
    E = edge_matrix(mats[ses]) - vectorize_upper(np.mean(mats["rest"], axis=0))[:, None]
    seed = derive_seed(opts.seed, _KSVD_SEED, cohort.session_labels.index(ses))
    return E, ksvd(E, opts.K, opts.L, iters=opts.sdl_iters, seed=seed)


@pytest.mark.parametrize("K, L", [(3, 2), (6, 3), (12, 1)])
def test_dictionary_learned_in_the_column_space_matches_direct_ksvd(monkeypatch, K, L):
    """With K <= n < m the pipeline runs ksvd on the n x n factor R of E = QR
    and maps the atoms back: same supports, same atoms and codes up to
    roundoff, the sign rule in R^m, and the reported objective equal to the
    residual of the mapped dictionary on E."""
    cohort = small_cohort(seed=15, n=12, p=10, T=80)  # m = 45 edges
    opts = small_opts(K=K, L=L, sdl_iters=10)
    calls = recorded_ksvd(monkeypatch)
    _, artifacts = run_pipeline_with_artifacts(
        cohort, "rest", ["motor"], "baseline_groupavg", opts
    )
    monkeypatch.undo()
    assert [Y.shape for Y, _ in calls] == [(12, 12), (12, 12)]
    for (_, (_, _, report)), ses in zip(calls, ["rest", "motor"]):
        E, (D_ref, X_ref, _) = direct_ksvd(cohort, opts, ses)
        D = artifacts.dictionaries[ses].atoms
        X = artifacts.codes[ses].codes
        np.testing.assert_array_equal(X != 0.0, X_ref.codes != 0.0)
        np.testing.assert_allclose(D, D_ref.atoms, rtol=0, atol=1e-12)
        np.testing.assert_allclose(X, X_ref.codes, rtol=0, atol=1e-10)
        assert np.all(D[np.argmax(np.abs(D), axis=0), np.arange(K)] > 0)
        objective = float(np.sum((E - D @ X) ** 2))
        assert objective == pytest.approx(report.objective_history[-1], rel=1e-9)


@pytest.mark.filterwarnings("ignore:fewer data columns")
def test_more_atoms_than_subjects_runs_ksvd_on_the_edges_themselves(monkeypatch):
    cohort = small_cohort(seed=16, n=5)
    opts = small_opts(K=7, L=2)
    calls = recorded_ksvd(monkeypatch)
    _, artifacts = run_pipeline_with_artifacts(
        cohort, "rest", ["motor"], "baseline_groupavg", opts
    )
    monkeypatch.undo()
    assert [Y.shape for Y, _ in calls] == [(28, 5), (28, 5)]
    for ses in ("rest", "motor"):
        _, (D_ref, X_ref, _) = direct_ksvd(cohort, opts, ses)
        np.testing.assert_array_equal(artifacts.dictionaries[ses].atoms, D_ref.atoms)
        np.testing.assert_array_equal(artifacts.codes[ses].codes, X_ref.codes)


def test_grid_factors_each_session_once(monkeypatch):
    qr = np.linalg.qr
    factored = []

    def counting_qr(a, *args, **kwargs):
        factored.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    cells = grid_search(
        small_cohort(seed=17, n=8), "rest", "motor", "baseline_groupavg",
        [2, 4, 6], [1, 2], small_opts(),
    )
    assert len(cells) == 6
    assert factored == [(28, 8), (28, 8)]


# ------------------------------------------------------------ grid search


def test_grid_single_cell_agrees_with_run_pipeline():
    cohort = small_cohort(seed=6)
    opts = small_opts()
    cells = grid_search(cohort, "rest", "motor", "baseline_groupavg", [3], [2], opts)
    direct = run_pipeline(cohort, "rest", "motor", "baseline_groupavg", opts)
    assert len(cells) == 1
    assert cells[0].K == 3 and cells[0].L == 2
    assert cells[0].accuracy == direct.accuracy


def test_grid_skips_infeasible_cells():
    cohort = small_cohort(seed=7)
    cells = grid_search(
        cohort, "rest", "motor", "baseline_groupavg", [2, 4], [1, 3, 5], small_opts()
    )
    assert [(c.K, c.L) for c in cells] == [(2, 1), (4, 1), (4, 3)]


def test_grid_finn_raw_is_constant_across_cells():
    cohort = small_cohort(seed=8)
    cells = grid_search(cohort, "rest", "motor", "finn_raw", [2, 3], [1, 2], small_opts())
    accs = {c.accuracy for c in cells}
    assert len(cells) == 4 and len(accs) == 1


def test_grid_sweep_stays_within_bounds():
    cohort = small_cohort(seed=9, n=20, p=8, T=80)
    cells = grid_search(
        cohort,
        "rest",
        "motor",
        "baseline_groupavg",
        range(2, 16),
        [1, 2, 3],
        small_opts(sdl_iters=3),
    )
    assert len(cells) == 14 * 3 - 1  # only (K=2, L=3) is infeasible
    assert all(0.0 <= c.accuracy <= 1.0 for c in cells)
    assert all(c.L <= c.K for c in cells)


@pytest.mark.filterwarnings("ignore:fewer data columns")
def test_grid_degenerate_cell_is_none_with_one_warning():
    # with K > n an atom can take a subject's whole residual: that cell's
    # refined edge vector has zero variance, and only that cell is lost
    cohort, opts = small_cohort(seed=27, n=5), small_opts()
    with pytest.warns(UserWarning) as record:
        cells = grid_search(cohort, "rest", "motor", "baseline_groupavg", range(2, 9), [2, 3],
                            opts)
    empty = []
    for cell in cells:
        cell_opts = small_opts(K=cell.K, L=cell.L)
        if cell.accuracy is None:
            empty.append((cell.K, cell.L))
            with pytest.raises(DegenerateInputError):
                run_pipeline(cohort, "rest", "motor", "baseline_groupavg", cell_opts)
        else:
            direct = run_pipeline(cohort, "rest", "motor", "baseline_groupavg", cell_opts)
            assert cell.accuracy == direct.accuracy
    assert empty and all(K > 5 for K, _ in empty)
    warned = [str(w.message) for w in record if str(w.message).startswith("grid cell")]
    assert len(warned) == len(empty)
    for (K, L), message in zip(empty, warned):
        assert message.startswith(f"grid cell K={K}, L={L} of baseline_groupavg: ")
        assert "zero variance" in message


def test_grid_rejects_empty_ranges():
    cohort = small_cohort(seed=10)
    with pytest.raises(ConfigurationError):
        grid_search(cohort, "rest", "motor", "finn_raw", [], [1], small_opts())


# --------------------------------------------------------------- ablation


def test_ablation_reports_baseline_and_per_network_rows():
    cohort = small_cohort(seed=11)
    part = default_partition(8, 4)
    opts = small_opts()
    out = ablation(cohort, part, "rest", "motor", "finn_raw", opts)
    direct = run_pipeline(cohort, "rest", "motor", "finn_raw", opts)
    assert out.baseline_accuracy == direct.accuracy
    assert [r.network for r in out.rows] == [0, 1, 2, 3]
    for row in out.rows:
        assert row.accuracy is not None
        assert row.delta == pytest.approx(row.accuracy - out.baseline_accuracy)
        keep = np.flatnonzero(part.assignment != row.network)
        manual = run_pipeline(keep_rois(cohort, keep), "rest", "motor", "finn_raw", opts)
        assert row.accuracy == manual.accuracy


def test_ablation_skips_networks_that_leave_too_few_rois():
    cohort = small_cohort(seed=12, p=4)
    part = NetworkPartition(np.array([0, 0, 0, 1]), ["big", "small"])
    with pytest.warns(UserWarning, match="skipped"):
        out = ablation(cohort, part, "rest", "motor", "finn_raw", small_opts())
    assert out.rows[0].accuracy is None and out.rows[0].delta is None
    assert out.rows[1].accuracy is not None
    # two ROIs left make one edge, which has no variance across subjects
    part = NetworkPartition(np.array([0, 0, 1, 1]), ["left", "right"])
    with pytest.warns(UserWarning, match="fewer than 3 ROIs"):
        out = ablation(cohort, part, "rest", "motor", "finn_raw", small_opts())
    assert all(row.accuracy is None and row.delta is None for row in out.rows)


def test_ablation_rejects_partition_size_mismatch():
    cohort = small_cohort(seed=13, p=8)
    with pytest.raises(DimensionError):
        ablation(cohort, default_partition(6, 2), "rest", "motor", "finn_raw", small_opts())
