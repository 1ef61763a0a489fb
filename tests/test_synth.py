"""Synthetic cohort generator.

Structural claims (which rows carry signal, which subspaces coincide) are
checked directly against linear algebra on the raw series, since the
generative model is a sum of low-rank terms.
"""

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from connfp import (
    CohortConfig,
    ConfigurationError,
    PipelineOptions,
    SyntheticCohort,
    edge_matrix,
    generate_cohort,
    pearson_fc,
    run_pipeline,
    similarity_matrix,
)
from connfp.cli import StoredCohort, cmd_synth
from connfp.config import ExperimentConfig

# ---------------------------------------------------------------- helpers


def colspace_basis(x, rank):
    U, s, _ = np.linalg.svd(x, full_matrices=False)
    return U[:, :rank]


def alignment(x, y, rank):
    """Smallest cosine of the principal angles between two column spaces."""
    q1 = colspace_basis(x, rank)
    q2 = colspace_basis(y, rank)
    return float(np.linalg.svd(q1.T @ q2, compute_uv=False).min())


def small_cfg(**kw):
    base = dict(
        n_subjects=4,
        p_rois=8,
        n_timepoints=50,
        sessions=("rest", "motor"),
        seed=0,
    )
    base.update(kw)
    return CohortConfig(**base)


def every_series(cohort):
    """The cohort's series, subject by subject in session order."""
    keys = itertools.product(cohort.subject_ids, cohort.session_labels)
    return [cohort.series(sid, ses) for sid, ses in keys]


# --------------------------------------------------------------- cohorts


def test_generate_cohort_shapes_and_keys():
    cfg = small_cfg(n_subjects=3, p_rois=6, n_timepoints=40)
    cohort = generate_cohort(cfg)
    assert cohort.subject_ids == ["sub000", "sub001", "sub002"]
    assert cohort.session_labels == ["rest", "motor"]
    assert cohort.shape == (6, 40)
    for sid in cohort.subject_ids:
        for ses in cohort.session_labels:
            x = cohort.series(sid, ses)
            assert x.shape == (6, 40)
            assert np.all(np.isfinite(x))


# SHA-256 of the bytes of every series of layout_cfg(n_subjects=3), subject by
# subject in session order, as drawn when every series was held in memory
# (numpy 2.4 with its bundled OpenBLAS, x86-64)
LAYOUT_SHA256 = "d8e9e2a3a96423f71159131a6f2fafa4b18bfcb48834961512ead71a8dd72930"


def layout_cfg(n_subjects):
    return small_cfg(n_subjects=n_subjects, sessions=("rest", "motor", "wm"),
                     subject_rois=(1, 4, 6), seed=3)


def series_bytes(cohort, keys):
    return [cohort.series(sid, ses).tobytes() for sid, ses in keys]


def test_stream_layout_is_pinned():
    """A series is drawn from the substreams of its own subject and session,
    so its bytes follow from the seed alone: not from the number of subjects,
    and not from the order in which the series are asked for."""
    cohort = generate_cohort(layout_cfg(3))
    keys = list(itertools.product(cohort.subject_ids, cohort.session_labels))
    drawn = series_bytes(cohort, keys)
    assert hashlib.sha256(b"".join(drawn)).hexdigest() == LAYOUT_SHA256
    assert series_bytes(generate_cohort(layout_cfg(5)), keys) == drawn
    assert series_bytes(generate_cohort(layout_cfg(3)), keys[::-1]) == drawn[::-1]


def test_generate_cohort_is_deterministic():
    cfg = small_cfg(seed=42)
    a = generate_cohort(cfg)
    b = generate_cohort(small_cfg(seed=42))
    for x, y in zip(every_series(a), every_series(b)):
        np.testing.assert_array_equal(x, y)


def test_seed_changes_every_series():
    a = generate_cohort(small_cfg(seed=1))
    b = generate_cohort(small_cfg(seed=2))
    for x, y in zip(every_series(a), every_series(b)):
        assert not np.array_equal(x, y)


def test_component_ranks_bound_series_rank():
    cfg = small_cfg(
        p_rois=12,
        n_timepoints=60,
        noise_std=0.0,
        rank_subject=2,
        rank_task=1,
        rank_group=2,
    )
    cohort = generate_cohort(cfg)
    for x in every_series(cohort):
        assert np.linalg.matrix_rank(x, tol=1e-8) <= 5

    solo = generate_cohort(
        replace(cfg, task_strength=0.0, group_strength=0.0)
    )
    for x in every_series(solo):
        assert np.linalg.matrix_rank(x, tol=1e-8) <= 2


def test_subject_component_is_fixed_across_sessions():
    """With only the subject term active, both sessions of one subject span
    the same loading subspace while different subjects span different ones."""
    cfg = small_cfg(
        n_subjects=3,
        p_rois=16,
        n_timepoints=80,
        task_strength=0.0,
        group_strength=0.0,
        noise_std=0.0,
        rank_subject=3,
        seed=5,
    )
    cohort = generate_cohort(cfg)
    same = alignment(
        cohort.series("sub000", "rest"), cohort.series("sub000", "motor"), 3
    )
    other = alignment(
        cohort.series("sub000", "rest"), cohort.series("sub001", "rest"), 3
    )
    assert same > 1.0 - 1e-8
    assert other < 0.999


def test_session_component_is_shared_across_subjects():
    cfg = small_cfg(
        n_subjects=3,
        p_rois=16,
        n_timepoints=80,
        subject_strength=0.0,
        group_strength=0.0,
        noise_std=0.0,
        rank_task=3,
        seed=6,
    )
    cohort = generate_cohort(cfg)
    shared = alignment(
        cohort.series("sub000", "rest"), cohort.series("sub002", "rest"), 3
    )
    across = alignment(
        cohort.series("sub000", "rest"), cohort.series("sub000", "motor"), 3
    )
    assert shared > 1.0 - 1e-8
    assert across < 0.999


def test_rank_zero_component_ignores_its_strength():
    a = generate_cohort(small_cfg(rank_subject=0, subject_strength=0.0))
    b = generate_cohort(small_cfg(rank_subject=0, subject_strength=7.5))
    for x, y in zip(every_series(a), every_series(b)):
        np.testing.assert_array_equal(x, y)


def test_subject_rois_mask_zeroes_excluded_rows():
    cfg = small_cfg(
        p_rois=8,
        task_strength=0.0,
        group_strength=0.0,
        noise_std=0.0,
        subject_rois=(1, 4, 6),
    )
    cohort = generate_cohort(cfg)
    inside = [1, 4, 6]
    outside = [0, 2, 3, 5, 7]
    for x in every_series(cohort):
        np.testing.assert_array_equal(x[outside], 0.0)
        assert np.all(np.any(x[inside] != 0.0, axis=1))


def test_zero_signal_similarity_is_centered_on_chance():
    """All structured strengths zero leaves pure noise, so the self match
    across sessions has no edge over other subjects: the mean diagonal
    similarity should sit within 3 standard errors of zero."""
    diags = []
    for seed in range(10):
        cfg = CohortConfig(
            n_subjects=8,
            p_rois=8,
            n_timepoints=100,
            sessions=("rest", "motor"),
            subject_strength=0.0,
            task_strength=0.0,
            group_strength=0.0,
            noise_std=1.0,
            seed=seed,
        )
        cohort = generate_cohort(cfg)
        rest = [pearson_fc(cohort.series(s, "rest")) for s in cohort.subject_ids]
        motor = [pearson_fc(cohort.series(s, "motor")) for s in cohort.subject_ids]
        diags.extend(np.diag(similarity_matrix(edge_matrix(rest), edge_matrix(motor)).values))
    diags = np.asarray(diags)
    se = diags.std(ddof=1) / np.sqrt(diags.size)
    assert abs(diags.mean()) < 3.0 * se


def test_identification_improves_with_subject_strength():
    strengths = (0.25, 1.0, 4.0)
    means = []
    for s in strengths:
        accs = []
        for seed in range(10):
            cfg = CohortConfig(
                n_subjects=8,
                p_rois=12,
                n_timepoints=120,
                sessions=("rest", "motor"),
                subject_strength=s,
                task_strength=1.0,
                group_strength=1.0,
                noise_std=1.0,
                seed=seed,
            )
            cohort = generate_cohort(cfg)
            res = run_pipeline(cohort, "rest", "motor", "finn_raw", PipelineOptions(seed=0))
            accs.append(res.accuracy)
        means.append(float(np.mean(accs)))
    assert means[0] <= means[1] <= means[2]
    assert means[2] > means[0]


# ------------------------------------------------------------ validation


@pytest.mark.parametrize(
    "kw, field",
    [
        (dict(n_subjects=1), "cohort.n_subjects"),
        (dict(p_rois=3), "cohort.p_rois"),
        (dict(n_timepoints=7, p_rois=8), "cohort.n_timepoints"),
        (dict(subject_strength=-1.0), "cohort.subject_strength"),
        (dict(noise_std=float("nan")), "cohort.noise_std"),
        (dict(task_strength="high"), "cohort.task_strength"),
        (dict(rank_subject=-1), "cohort.rank_subject"),
        (dict(rank_group=2.5), "cohort.rank_group"),
        (dict(sessions=()), "cohort.sessions"),
        (dict(sessions=("rest", "rest")), "cohort.sessions"),
        (dict(seed=-1), "cohort.seed"),
        (dict(subject_rois=()), "cohort.subject_rois"),
        (dict(subject_rois=(0, 0)), "cohort.subject_rois"),
        (dict(subject_rois=(0, 8)), "cohort.subject_rois"),
    ],
)
def test_bad_config_names_offending_field(kw, field):
    with pytest.raises(ConfigurationError, match=field.replace(".", r"\.")):
        generate_cohort(small_cfg(**kw))


@pytest.mark.parametrize("source", [SyntheticCohort, StoredCohort], ids=lambda c: c.__name__)
def test_unknown_series_raises_key_error(source, tmp_path):
    """A generated and a stored cohort refuse a subject or session they lack alike."""
    cfg = small_cfg()
    if source is StoredCohort:
        cmd_synth(ExperimentConfig(cohort=cfg, output_dir=str(tmp_path)))
        cohort = StoredCohort(tmp_path)
    else:
        cohort = generate_cohort(cfg)
    assert isinstance(cohort, source)
    for sid, ses in (("sub000", "wm"), ("sub009", "rest")):
        with pytest.raises(KeyError):
            cohort.series(sid, ses)


def test_a_series_that_overflows_is_refused():
    cohort = generate_cohort(small_cfg(subject_strength=1e308))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        cohort.series("sub000", "rest")
