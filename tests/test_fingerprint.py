"""Similarity, identification, permutation testing, pipelines, grids, ablation.

Similarity entries are checked against a two-pass correlation oracle; the
finn_raw pipeline is checked against a hand-assembled run built from the
public pieces (detrend, pearson_fc, vectorize_upper, similarity_matrix,
identify), and the refined methods against the dictionary and codes they
report.
"""

import tracemalloc
import types
from dataclasses import fields

import numpy as np
import pytest

import connfp.fingerprint
from connfp import (
    ArchitectureConfig,
    CohortConfig,
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    PipelineOptions,
    SessionConnectomes,
    SimilarityMatrix,
    TrainConfig,
    detrend,
    generate_cohort,
    grid_search,
    ksvd,
    identify,
    ablation,
    mat,
    pearson_fc,
    permutation_test,
    residual,
    run_pipeline,
    run_pipeline_with_artifacts,
    session_connectomes,
    similarity_matrix,
    train,
    vectorize_upper,
)
from connfp.connectome import n_edges
from connfp.fingerprint import (
    _KSVD_SEED,
    _PERM_BLOCK,
    _PERM_STREAM,
    METHODS,
    check_networks,
    check_sparsity,
)
from connfp.rng import derive_seed, substream

# ---------------------------------------------------------------- fixtures


def corr_two_pass(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc)))


def edge_rows(mats):
    """The n x m matrix whose row i is the edge vector of connectome i."""
    return np.stack([vectorize_upper(m) for m in mats])


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


def run_with_artifacts(cohort, train_session, test_sessions, method, opts):
    """run_pipeline_with_artifacts on the cohort's connectomes, built as connfp run builds them."""
    connectomes = session_connectomes(cohort, train_session, test_sessions)
    return run_pipeline_with_artifacts(connectomes, train_session, test_sessions, method, opts)


def keep_rois(cohort, keep):
    """The cohort with every series cut down to the ROI rows in keep, as a
    source with the four members session_connectomes reads."""
    return types.SimpleNamespace(
        subject_ids=cohort.subject_ids, session_labels=cohort.session_labels,
        shape=(len(keep), cohort.shape[1]),
        series=lambda sid, ses: cohort.series(sid, ses)[keep])


# -------------------------------------------------------------- similarity


def test_similarity_of_set_with_itself_has_unit_diagonal():
    edges = edge_rows(connectome_set(0, 4))
    sim = similarity_matrix(edges, edges)
    np.testing.assert_allclose(np.diag(sim.values), 1.0, atol=1e-12)


def test_similarity_against_negated_set_flips_sign():
    mats = connectome_set(1, 3)
    sim = similarity_matrix(edge_rows(mats), edge_rows(mats))
    flipped = similarity_matrix(edge_rows(mats), edge_rows([-m for m in mats]))
    np.testing.assert_allclose(flipped.values, -sim.values, atol=1e-12)


def test_similarity_entries_match_correlation_oracle():
    one = connectome_set(2, 3)
    two = connectome_set(3, 3)
    sim = similarity_matrix(edge_rows(one), edge_rows(two))
    for i in range(3):
        for j in range(3):
            expected = corr_two_pass(vectorize_upper(one[i]), vectorize_upper(two[j]))
            assert sim.values[i, j] == pytest.approx(expected, abs=1e-12)


def test_similarity_rejects_constant_edge_vectors():
    mats = connectome_set(4, 3, p=4)
    flat = np.full((4, 4), 0.5)
    np.fill_diagonal(flat, 1.0)
    with pytest.raises(DegenerateInputError, match="first set"):
        similarity_matrix(edge_rows([flat] + mats[1:]), edge_rows(mats))
    with pytest.raises(DegenerateInputError, match="second set"):
        similarity_matrix(edge_rows(mats), edge_rows(mats[:2] + [flat]))


def test_similarity_input_guards():
    edges = edge_rows(connectome_set(5, 3))
    with pytest.raises(ValueError, match="equal length"):
        similarity_matrix(edges, edges[:2])
    with pytest.raises(ValueError, match="at least 2"):
        similarity_matrix(edges[:1], edges[:1])
    with pytest.raises(DimensionError):
        similarity_matrix(edges, edge_rows(connectome_set(6, 3, p=5)))
    with pytest.raises(DimensionError, match="2-d"):
        similarity_matrix(edges[0], edges[1])
    # an m x n set of 4 subjects: rows of 4 values, and 4 is no edge count
    # p(p - 1)/2, so its 15 edges are not correlated as if they were subjects
    columns = edge_rows(connectome_set(7, 4)).T
    with pytest.raises(DimensionError, match=r"p\(p-1\)/2, got 4"):
        similarity_matrix(columns, columns)
    for bad in (np.nan, np.inf):
        broken = edges.copy()
        broken[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            similarity_matrix(edges, broken)
        with pytest.raises(ValueError, match="non-finite"):
            similarity_matrix(broken, edges)


def test_similarity_takes_subject_rows_without_copying_them():
    """On two C-contiguous 40 x 2016 sets the traced peak is the two
    centered copies pearson_rows makes and little more: at most
    2.25 n m 8 B, where copying each set into subject rows first would
    double it."""
    one, two = substream(26, 303).standard_normal((2, 40, 2016))
    similarity_matrix(one, two)  # first-call allocations
    tracemalloc.start()
    try:
        similarity_matrix(one, two)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 40 * 2016 * 8


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
    expected = identify(similarity_matrix(edge_rows(sets["rest"]), edge_rows(sets["motor"])))
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
    expected = identify(similarity_matrix(edge_rows(sets["rest"]), edge_rows(sets["motor"])))
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
    results, artifacts = run_with_artifacts(
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
        run_with_artifacts(cohort, "rest", ["motor", "sleep"], "finn_raw", small_opts())
    # a session the connectomes were not built for
    connectomes = session_connectomes(small_cohort(seed=5, sessions=("rest", "motor", "wm")),
                                      "rest", ["motor"])
    with pytest.raises(ConfigurationError, match="test_sessions 'wm'"):
        run_pipeline_with_artifacts(connectomes, "rest", ["wm"], "finn_raw", small_opts())


@pytest.mark.parametrize("L, p, methods", [(7, 4, ["finn_raw", "baseline_groupavg"]),
                                           (29, 8, ["convae_sdl"])])
def test_sparsity_above_the_number_of_edges_is_rejected(L, p, methods):
    with pytest.raises(ConfigurationError, match=f"m={p * (p - 1) // 2}"):
        check_sparsity(L, p, methods)
    check_sparsity(L, p, ["finn_raw"])
    check_sparsity(p * (p - 1) // 2, p, methods)


def test_session_connectomes_hold_one_edge_matrix_per_session():
    """Each built session is one C-contiguous n x m float64 matrix whose row
    i is the edge vector of subject i's connectome, and nothing else is
    held."""
    cohort = small_cohort(seed=23, sessions=("rest", "motor", "wm"))
    built = session_connectomes(cohort, "rest", ["wm"])
    assert [f.name for f in fields(SessionConnectomes)] == ["edges", "session_labels", "p"]
    assert list(built.edges) == ["rest", "wm"] and built.p == 8
    for ses, E in built.edges.items():
        assert E.shape == (5, 28) and E.dtype == np.float64 and E.flags.c_contiguous
        expected = edge_rows([pearson_fc(detrend(cohort.series(sid, ses)))
                                 for sid in cohort.subject_ids])
        np.testing.assert_array_equal(E, expected)


def test_sessions_stay_c_contiguous_subject_rows_through_every_stage(monkeypatch):
    """Every SessionConnectomes.edges value, every residual output and every
    ablation cut is a C-contiguous (n, m) float64 array, m the edges of the
    connectomes it holds, so that each reader takes it as it is."""
    cohort = small_cohort(seed=25, n=6)
    seen = []
    residual_of = connfp.fingerprint.residual
    rerun = connfp.fingerprint.run_pipeline_with_artifacts

    def recording_residual(edges, *args):
        seen.append((edges.shape[1], residual_of(edges, *args)))
        return seen[-1][1]

    def recording_run(conns, *args):
        seen.extend((n_edges(conns.p), E) for E in conns.edges.values())
        return rerun(conns, *args)

    monkeypatch.setattr(connfp.fingerprint, "residual", recording_residual)
    monkeypatch.setattr(connfp.fingerprint, "run_pipeline_with_artifacts", recording_run)
    ablation(session_connectomes(cohort, "rest", ["motor"]), 2, "rest", "motor",
             "convae_sdl", small_opts())
    # the full build, then the cut of each network: 2 sessions and 2 residuals per run
    assert [m for m, _ in seen] == [28] * 4 + [6] * 8
    for m, E in seen:
        assert E.shape == (6, m) and E.dtype == np.float64 and E.flags.c_contiguous


def test_session_connectomes_hold_the_edges_and_build_one_subject_at_a_time():
    """On 2 sessions of 40 x 64 x 300, the traced memory still held after the
    build is the two n x m edge matrices, give or take a few kB of records;
    its peak exceeds them by one subject's build (series, detrended copy and
    connectome), which is under 4 series plus connectomes."""
    cohort = small_cohort(seed=22, n=40, p=64, T=300)
    session_connectomes(cohort, "rest", ["motor"])  # first-call allocations
    tracemalloc.start()
    try:
        vectorize_upper(pearson_fc(detrend(cohort.series(cohort.subject_ids[0], "rest"))))
        one_subject = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        built = session_connectomes(cohort, "rest", ["motor"])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = 2 * (64 * 63 // 2) * 40 * 8
    assert sum(E.nbytes for E in built.edges.values()) == edges
    assert abs(held - edges) < 16_000
    assert peak - held <= one_subject + 16_000
    assert one_subject < 4 * (64 * 300 * 8 + 64 * 64 * 8)


def test_a_connectome_that_cannot_be_built_names_subject_and_session():
    """An error of the build is raised again as its own type, prefixed with
    the subject and session; the cohort's own errors pass unchanged."""
    cohort = small_cohort(seed=24)
    dead = types.SimpleNamespace(
        subject_ids=cohort.subject_ids, session_labels=cohort.session_labels,
        shape=cohort.shape,
        series=lambda sid, ses: np.zeros(cohort.shape) if sid == "sub003" and ses == "motor"
        else cohort.series(sid, ses))
    with pytest.raises(DegenerateInputError, match="^sub003, session motor: ROI 0 has zero"):
        session_connectomes(dead, "rest", ["motor"])

    def failing(sid, ses):
        raise ValueError("the cohort's own message")

    with pytest.raises(ValueError, match="^the cohort's own message$"):
        session_connectomes(types.SimpleNamespace(**{**vars(dead), "series": failing}),
                            "rest", ["motor"])


def test_methods_sharing_one_build_change_no_bits(monkeypatch):
    """The three methods run in turn on one SessionConnectomes, as connfp run
    runs them, give what run_pipeline gives with a build of its own:
    bitwise-equal similarity matrices, dictionaries, codes and autoencoder
    loss curve; and the shared connectomes are left as built."""
    cohort = small_cohort(seed=21)
    opts = small_opts()
    shared = session_connectomes(cohort, "rest", ["motor"])
    own = []

    def capturing(*args, **kwargs):
        own.append(run_pipeline_with_artifacts(*args, **kwargs))
        return own[-1]

    monkeypatch.setattr(connfp.fingerprint, "run_pipeline_with_artifacts", capturing)
    for method in METHODS:
        results, artifacts = run_pipeline_with_artifacts(shared, "rest", ["motor"], method, opts)
        alone = run_pipeline(cohort, "rest", "motor", method, opts)
        (expected,), reference = own[-1][0].values(), own[-1][1]
        assert expected is alone
        np.testing.assert_array_equal(results["motor"].simmat.values, alone.simmat.values)
        assert artifacts.dictionaries.keys() == reference.dictionaries.keys()
        for ses, dictionary in artifacts.dictionaries.items():
            np.testing.assert_array_equal(dictionary.atoms, reference.dictionaries[ses].atoms)
            np.testing.assert_array_equal(artifacts.codes[ses].codes,
                                          reference.codes[ses].codes)
        if method == "convae_sdl":
            np.testing.assert_array_equal(artifacts.ae_history, reference.ae_history)
        else:
            assert artifacts.ae_history is None and reference.ae_history is None
    rebuilt = session_connectomes(cohort, "rest", ["motor"])
    for ses, E in rebuilt.edges.items():
        np.testing.assert_array_equal(shared.edges[ses], E)


@pytest.mark.parametrize("method", ["baseline_groupavg", "convae_sdl"])
def test_refined_similarity_is_target_minus_coded_part(method):
    """The refined edge matrix of each session is its residual edges - D X,
    with the dictionary, codes and autoencoder the pipeline reports; the
    residuals are each connectome minus the train session's group-mean
    connectome (baseline_groupavg) or the autoencoder's residual (convae_sdl)."""
    cohort = small_cohort(seed=18, n=10)
    results, artifacts = run_with_artifacts(
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
            resid = edge_rows([m - group_mean for m in ms])
        else:
            resid = residual(edge_rows(ms), artifacts.ae_params,
                             small_opts().train_cfg.batch_size)
        coded = artifacts.dictionaries[ses].atoms @ artifacts.codes[ses].codes
        refined[ses] = resid - coded.T
    expected = similarity_matrix(refined["rest"], refined["motor"])
    np.testing.assert_allclose(
        results["motor"].simmat.values, expected.values, rtol=0, atol=1e-12
    )


def test_negating_an_atom_with_its_code_row_changes_no_refined_bit():
    """An atom's sign is arbitrary: negating any atom together with its code
    row leaves E - D X, and so the similarity, bitwise the same, since every
    product d_ik x_kj keeps its bits."""
    cohort = small_cohort(seed=18, n=10)
    _, artifacts = run_with_artifacts(cohort, "rest", ["motor"], "baseline_groupavg", small_opts())
    m, K = artifacts.dictionaries["rest"].atoms.shape
    rng = substream(19, 302)
    E = {ses: rng.standard_normal((10, m)) for ses in ("rest", "motor")}

    def refined(sign):
        return {ses: E[ses] - ((artifacts.dictionaries[ses].atoms * sign)
                               @ (artifacts.codes[ses].codes * sign[:, None])).T for ses in E}

    kept = refined(np.ones(K))
    expected = similarity_matrix(kept["rest"], kept["motor"]).values
    for sign in [*(1.0 - 2.0 * np.eye(K)), -np.ones(K)]:
        flipped = refined(sign)
        for ses in E:
            np.testing.assert_array_equal(flipped[ses], kept[ses])
        np.testing.assert_array_equal(
            similarity_matrix(flipped["rest"], flipped["motor"]).values, expected)


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
    """ksvd on the session's full residual edges (its edge matrix minus the
    rest session's group-mean edge vector) as the C-contiguous m x n matrix
    E the pipeline passes, with the pipeline's seed; returns (E, output)."""
    mats = {
        s: [pearson_fc(detrend(cohort.series(sid, s))) for sid in cohort.subject_ids]
        for s in ("rest", ses)
    }
    E = np.ascontiguousarray(
        (edge_rows(mats[ses]) - vectorize_upper(np.mean(mats["rest"], axis=0))).T)
    seed = derive_seed(opts.seed, _KSVD_SEED, cohort.session_labels.index(ses))
    return E, ksvd(E, opts.K, opts.L, iters=opts.sdl_iters, seed=seed)


@pytest.mark.parametrize("K, L", [(3, 2), (6, 3), (12, 1)])
def test_dictionary_learned_in_the_column_space_matches_direct_ksvd(monkeypatch, K, L):
    """With K <= n < m the pipeline runs ksvd on the n x n factor R of E = QR
    and maps the atoms back: same supports, the same atoms and codes up to
    roundoff and each atom's sign (taken with its code row), and the reported
    objective equal to the residual of the mapped dictionary on E."""
    cohort = small_cohort(seed=15, n=12, p=10, T=80)  # m = 45 edges
    opts = small_opts(K=K, L=L, sdl_iters=10)
    calls = recorded_ksvd(monkeypatch)
    _, artifacts = run_with_artifacts(
        cohort, "rest", ["motor"], "baseline_groupavg", opts
    )
    monkeypatch.undo()
    assert [Y.shape for Y, _ in calls] == [(12, 12), (12, 12)]
    for (_, (_, _, report)), ses in zip(calls, ["rest", "motor"]):
        E, (D_ref, X_ref, _) = direct_ksvd(cohort, opts, ses)
        D = artifacts.dictionaries[ses].atoms
        X = artifacts.codes[ses].codes
        np.testing.assert_array_equal(X != 0.0, X_ref.codes != 0.0)
        sign = np.sign(np.sum(D * D_ref.atoms, axis=0))
        np.testing.assert_allclose(D, D_ref.atoms * sign, rtol=0, atol=1e-12)
        np.testing.assert_allclose(X, X_ref.codes * sign[:, None], rtol=0, atol=1e-10)
        objective = float(np.sum((E - D @ X) ** 2))
        assert objective == pytest.approx(report.objective_history[-1], rel=1e-9)


@pytest.mark.filterwarnings("ignore:fewer data columns")
def test_more_atoms_than_subjects_runs_ksvd_on_the_edges_themselves(monkeypatch):
    cohort = small_cohort(seed=16, n=5)
    opts = small_opts(K=7, L=2)
    calls = recorded_ksvd(monkeypatch)
    _, artifacts = run_with_artifacts(
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
    # slicing the connectomes moves some entries by an ulp against rebuilding
    # them from the sliced series (keep_rois), too little to move a prediction
    # here: every method's rows agree exactly
    cohort = small_cohort(seed=11)
    connectomes = session_connectomes(cohort, "rest", ["motor"])
    opts = small_opts()
    for method in METHODS:
        base, accuracies = ablation(connectomes, 4, "rest", "motor", method, opts)
        direct = run_pipeline(cohort, "rest", "motor", method, opts)
        assert base == direct.accuracy, method
        assert len(accuracies) == 4
        for g, acc in enumerate(accuracies):
            keep = [roi for roi in range(8) if roi // 2 != g]
            manual = run_pipeline(keep_rois(cohort, keep), "rest", "motor", method, opts)
            assert acc == manual.accuracy, (method, g)


@pytest.mark.parametrize(
    "p, n_networks, blocks",
    [
        (16, 4, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]),
        (10, 3, [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        (6, 6, [[0], [1], [2], [3], [4], [5]]),
    ],
    ids=["even", "remainder-first", "singletons"],
)
def test_ablation_excludes_contiguous_blocks_remainder_first(monkeypatch, p, n_networks, blocks):
    """Network g is the g-th contiguous block, the first p mod n_networks
    blocks one ROI larger: each rerun gets the edges of the connectomes cut
    down to the other ROIs, in order, and matches a rerun on series cut the
    same way."""
    cohort = small_cohort(seed=14, p=p)
    connectomes = session_connectomes(cohort, "rest", ["motor"])
    runs = []
    rerun = connfp.fingerprint.run_pipeline_with_artifacts

    def recording(conns, *args):
        runs.append(conns)
        return rerun(conns, *args)

    monkeypatch.setattr(connfp.fingerprint, "run_pipeline_with_artifacts", recording)
    base, accuracies = ablation(connectomes, n_networks, "rest", "motor", "finn_raw", small_opts())
    assert runs[0] is connectomes and len(runs) == 1 + n_networks
    for block, conns, acc in zip(blocks, runs[1:], accuracies):
        keep = [roi for roi in range(p) if roi not in block]
        assert conns.p == len(keep)
        for ses, full in connectomes.edges.items():
            cut = [mat(whole)[np.ix_(keep, keep)] for whole in full]
            np.testing.assert_array_equal(conns.edges[ses], edge_rows(cut))
        manual = run_pipeline(keep_rois(cohort, keep), "rest", "motor", "finn_raw", small_opts())
        assert acc == manual.accuracy, block


def test_check_networks_rejects_zero_and_more_networks_than_rois():
    check_networks(1, 8)
    check_networks(8, 8)
    for g in (0, 9):
        with pytest.raises(ConfigurationError, match=f"cannot split 8 ROIs into {g} networks"):
            check_networks(g, 8)
    connectomes = session_connectomes(small_cohort(seed=13, p=8), "rest", ["motor"])
    with pytest.raises(ConfigurationError, match="cannot split 8 ROIs into 9 networks"):
        ablation(connectomes, 9, "rest", "motor", "finn_raw", small_opts())


def test_ablation_skips_networks_that_leave_too_few_rois():
    # 5 ROIs in 2 networks: excluding net00 (ROIs 0-2) leaves one edge, which
    # has no variance across subjects; excluding net01 leaves 3 ROIs, 3 edges
    connectomes = session_connectomes(small_cohort(seed=12, p=5), "rest", ["motor"])
    with pytest.warns(UserWarning) as record:
        _, accuracies = ablation(connectomes, 2, "rest", "motor", "finn_raw", small_opts())
    assert [str(w.message) for w in record] == [
        "excluding network 0 (net00) leaves fewer than 3 ROIs; skipped"]
    assert accuracies[0] is None and accuracies[1] is not None
    # a refined method with L = 4 also skips net01, whose 3 edges are fewer than L
    with pytest.warns(UserWarning) as record:
        _, accuracies = ablation(connectomes, 2, "rest", "motor", "baseline_groupavg",
                                 small_opts(K=4, L=4))
    assert [str(w.message) for w in record] == [
        "excluding network 0 (net00) leaves fewer than 3 ROIs; skipped",
        "excluding network 1 (net01) leaves 3 edges, fewer than L=4; skipped"]
    assert accuracies == [None, None]
