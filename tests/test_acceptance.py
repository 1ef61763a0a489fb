"""Acceptance checks for the whole package, one per claim.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with the measured numbers. Every check is deterministic: all
randomness flows through fixed seeds, so reruns reproduce the same values.
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from connfp import (
    ArchitectureConfig,
    CohortConfig,
    PipelineOptions,
    SimilarityMatrix,
    ablation,
    build_params,
    default_partition,
    generate_cohort,
    identify,
    ksvd,
    loss_and_grad,
    mat,
    omp,
    permutation_test,
    run_pipeline,
    vectorize_upper,
)
from connfp.container import read_matrix, write_matrix
from connfp.rng import substream


def _verdict(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {desc}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. pursuit vs exhaustive search


def _best_support_residual(atoms, y, L):
    K = atoms.shape[1]
    best = float(y @ y)
    for size in range(1, L + 1):
        for support in itertools.combinations(range(K), size):
            sub = atoms[:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            r = y - sub @ coef
            best = min(best, float(r @ r))
    return best


def test_criterion_1_pursuit_never_beats_exhaustive_search():
    t0 = time.time()
    n_instances, matches, worst_ortho = 200, 0, 0.0
    never_better = True
    for seed in range(n_instances):
        a = substream(seed, 501).standard_normal((8, 5))
        D = a / np.linalg.norm(a, axis=0)
        y = substream(seed, 502).standard_normal(8)
        L = 1 + seed % 3
        code = omp(D, y, L)
        r = y - D @ code
        got = float(r @ r)
        best = _best_support_residual(D, y, L)
        if got < best - 1e-10:
            never_better = False
        if got <= best + 1e-10:
            matches += 1
        support = np.flatnonzero(code)
        if support.size:
            worst_ortho = max(worst_ortho, float(np.max(np.abs(D[:, support].T @ r))))
    elapsed = time.time() - t0
    ok = never_better and matches >= 0.6 * n_instances and worst_ortho < 1e-8 and elapsed < 10
    _verdict(
        1,
        "greedy pursuit vs exhaustive support search",
        ok,
        f"optimal on {matches}/{n_instances}, max residual-atom inner product "
        f"{worst_ortho:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. dictionary learning: monotone objective, unit atoms, exact recovery


def test_criterion_2_dictionary_learning_descends_and_recovers():
    t0 = time.time()
    worst_increase = -np.inf
    worst_norm_dev = 0.0
    for seed in range(10):
        Y = substream(seed, 5).standard_normal((20, 40))
        D, X, report = ksvd(Y, K=10, L=3, iters=30, seed=seed)
        worst_increase = max(worst_increase, float(np.max(np.diff(report.objective_history))))
        worst_norm_dev = max(
            worst_norm_dev, float(np.max(np.abs(np.linalg.norm(D.atoms, axis=0) - 1.0)))
        )

    hits = 0
    for seed in range(10):
        rng = substream(seed, 6)
        D0 = np.linalg.qr(rng.standard_normal((20, 9)))[0]
        X0 = np.zeros((9, 40))
        for i in range(40):
            block = [[0, 1, 2], [3, 4, 5], [6, 7, 8]][i % 3]
            X0[block, i] = rng.standard_normal(3)
        Y = D0 @ X0
        D, X, report = ksvd(Y, K=10, L=3, iters=30, seed=seed)
        rel = float(np.linalg.norm(Y - D.atoms @ X.codes) / np.linalg.norm(Y))
        hits += rel < 1e-6
    elapsed = time.time() - t0
    ok = worst_increase <= 1e-9 and worst_norm_dev < 1e-10 and hits >= 8 and elapsed < 30
    _verdict(
        2,
        "dictionary learning objective and exact-sparse recovery",
        ok,
        f"max objective increase {worst_increase:.2e}, max atom norm deviation "
        f"{worst_norm_dev:.2e}, recovery on {hits}/10 seeds, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. autoencoder gradients vs central finite differences


def test_criterion_3_autoencoder_gradients_match_finite_differences():
    t0 = time.time()
    arch = ArchitectureConfig(channels=(4, 8), latent_dim=16)
    h = 1e-5
    worst = 0.0
    for seed in range(5):
        params = build_params(arch, 8, seed=seed)
        batch = list(substream(seed, 503).standard_normal((2, 8, 8)))
        _, grads = loss_and_grad(params, batch)
        for a, g in zip(params.arrays(), grads):
            flat, gflat = a.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss_and_grad(params, batch)[0]
                flat[i] = keep - h
                down = loss_and_grad(params, batch)[0]
                flat[i] = keep
                fd = (up - down) / (2.0 * h)
                denom = max(abs(fd), abs(gflat[i]), 1e-6)
                worst = max(worst, abs(gflat[i] - fd) / denom)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30
    _verdict(
        3,
        "analytic autoencoder gradients vs finite differences",
        ok,
        f"max relative error {worst:.2e} over 5 seeds, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. perfect identification on a strong cohort


def test_criterion_4_strong_cohort_identifies_perfectly():
    t0 = time.time()
    cohort = generate_cohort(
        CohortConfig(
            n_subjects=10,
            p_rois=16,
            n_timepoints=200,
            subject_strength=5.0,
            task_strength=0.0,
            group_strength=0.0,
            noise_std=0.1,
            seed=11,
        )
    )
    opts = PipelineOptions(seed=0)
    min_acc, max_p = 1.0, 0.0
    n_pairs = 0
    for train in cohort.session_labels:
        for test in cohort.session_labels:
            if train == test:
                continue
            result = run_pipeline(cohort, train, test, "finn_raw", opts)
            report = permutation_test(result, 1000, seed=5)
            min_acc = min(min_acc, result.accuracy)
            max_p = max(max_p, report.p_value)
            n_pairs += 1
    elapsed = time.time() - t0
    ok = min_acc == 1.0 and max_p < 0.05 and elapsed < 20
    _verdict(
        4,
        "perfect identification on a strong cohort",
        ok,
        f"min accuracy {min_acc:.3f} over {n_pairs} session pairs, "
        f"max p-value {max_p:.4f} at 1000 permutations, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. method ordering on a mixed cohort


def test_criterion_5_refinement_beats_raw_matching_on_mixed_cohort():
    t0 = time.time()
    methods = ("finn_raw", "baseline_groupavg", "convae_sdl")
    accs = {m: [] for m in methods}
    for seed in range(10):
        cohort = generate_cohort(
            CohortConfig(
                n_subjects=30,
                p_rois=32,
                n_timepoints=300,
                sessions=("rest", "motor"),
                subject_strength=1.0,
                task_strength=3.0,
                group_strength=2.0,
                noise_std=1.0,
                seed=seed,
            )
        )
        opts = PipelineOptions(seed=seed)
        for m in methods:
            accs[m].append(run_pipeline(cohort, "rest", "motor", m, opts).accuracy)
    means = {m: float(np.mean(v)) for m, v in accs.items()}
    gap = means["convae_sdl"] - means["finn_raw"]
    elapsed = time.time() - t0
    ok = (
        means["convae_sdl"] >= means["baseline_groupavg"] >= means["finn_raw"]
        and gap >= 0.05
        and elapsed < 600
    )
    _verdict(
        5,
        "mean accuracy ordering on the mixed cohort",
        ok,
        f"finn_raw {means['finn_raw']:.3f} <= baseline {means['baseline_groupavg']:.3f} "
        f"<= convae_sdl {means['convae_sdl']:.3f}, gap {gap * 100:.1f}pp, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. chance-level behavior without subject signal


def test_criterion_6_no_subject_signal_means_chance_accuracy():
    t0 = time.time()
    accs, insignificant = [], 0
    for seed in range(20):
        cohort = generate_cohort(
            CohortConfig(
                n_subjects=10,
                p_rois=16,
                n_timepoints=200,
                sessions=("rest", "motor"),
                subject_strength=0.0,
                task_strength=5.0,
                group_strength=0.0,
                noise_std=0.1,
                seed=seed,
            )
        )
        result = run_pipeline(cohort, "rest", "motor", "finn_raw", PipelineOptions(seed=0))
        accs.append(result.accuracy)
        report = permutation_test(result, 1000, seed=seed)
        insignificant += report.p_value > 0.05
    accs = np.asarray(accs)
    se = accs.std(ddof=1) / np.sqrt(accs.size)
    deviation = abs(accs.mean() - 0.1)
    elapsed = time.time() - t0
    ok = deviation <= 3.0 * se and insignificant >= 17 and elapsed < 300
    _verdict(
        6,
        "chance accuracy when subjects carry no signal",
        ok,
        f"mean accuracy {accs.mean():.4f} vs chance 0.1 (|diff| {deviation:.4f} <= "
        f"3SE {3 * se:.4f}), p>0.05 on {insignificant}/20 seeds, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. ablation localizes the planted network


def test_criterion_7_excluding_the_planted_network_destroys_identification():
    t0 = time.time()
    partition_networks = 4
    base_accs = []
    net_accs = {g: [] for g in range(partition_networks)}
    for seed in range(10):
        cohort = generate_cohort(
            CohortConfig(
                n_subjects=10,
                p_rois=16,
                n_timepoints=200,
                sessions=("rest", "motor"),
                subject_strength=5.0,
                task_strength=1.0,
                group_strength=1.0,
                noise_std=1.0,
                subject_rois=(0, 1, 2, 3),
                seed=seed,
            )
        )
        partition = default_partition(16, partition_networks)
        result = ablation(cohort, partition, "rest", "motor", "finn_raw", PipelineOptions(seed=0))
        base_accs.append(result.baseline_accuracy)
        for row in result.rows:
            net_accs[row.network].append(row.accuracy)
    base_mean = float(np.mean(base_accs))
    planted = np.asarray(net_accs[0])
    se = planted.std(ddof=1) / np.sqrt(planted.size)
    planted_dev = abs(planted.mean() - 0.1)
    others_ok = all(
        float(np.mean(net_accs[g])) > 0.8 * base_mean for g in range(1, partition_networks)
    )
    elapsed = time.time() - t0
    ok = planted_dev <= 3.0 * se and others_ok and elapsed < 600
    other_means = ", ".join(
        f"net{g} {float(np.mean(net_accs[g])):.3f}" for g in range(1, partition_networks)
    )
    _verdict(
        7,
        "network ablation localizes the planted signal",
        ok,
        f"baseline {base_mean:.3f}; excluding planted net0 -> {planted.mean():.3f} "
        f"(|diff to chance| {planted_dev:.3f} <= 3SE {3 * se:.3f}); {other_means}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. byte-identical CLI reruns


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "connfp.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def test_criterion_8_cli_reruns_are_byte_identical(tmp_path):
    t0 = time.time()
    config = {
        "cohort": {
            "n_subjects": 6,
            "p_rois": 8,
            "n_timepoints": 60,
            "sessions": ["rest", "motor"],
            "subject_strength": 3.0,
            "task_strength": 1.0,
            "group_strength": 1.0,
            "noise_std": 1.0,
            "seed": 5,
        },
        "train_session": "rest",
        "test_sessions": ["motor"],
        "methods": ["finn_raw", "baseline_groupavg", "convae_sdl"],
        "K": 3,
        "L": 2,
        "sdl_iters": 5,
        "ae": {"channels": [2], "latent_dim": 4, "epochs": 5, "batch_size": 6},
        "n_perm": 50,
        "n_networks": 4,
        "seed": 0,
        "output_dir": str(tmp_path / "unused"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1), encoding="utf-8")

    compared = 0
    identical = True
    for command in ("synth", "run"):
        dirs = [tmp_path / f"{command}{i}" for i in (1, 2)]
        for d in dirs:
            proc = _cli(command, cfg_path, "--out", d)
            assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in dirs[0].iterdir())
        if names != sorted(p.name for p in dirs[1].iterdir()):
            identical = False
        for name in names:
            compared += 1
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                identical = False
    elapsed = time.time() - t0
    ok = identical and compared > 0 and elapsed < 300
    _verdict(
        8,
        "byte-identical outputs across command reruns",
        ok,
        f"{compared} files compared across synth and run reruns, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. round trips and ranking invariance


def test_criterion_9_round_trips_and_ranking_invariance(tmp_path):
    t0 = time.time()
    vec_ok = True
    for p in (4, 7, 12):
        m = substream(p, 504).standard_normal((p, p))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        back = mat(vectorize_upper(m))
        vec_ok &= bool(np.array_equal(back, m))
        v = vectorize_upper(m)
        vec_ok &= bool(np.array_equal(vectorize_upper(mat(v)), v))

    path1, path2 = tmp_path / "a.bin", tmp_path / "b.bin"
    arr = substream(0, 505).standard_normal((6, 9))
    write_matrix(path1, arr, role="connectome", subject="sub000", session="rest", seed=1)
    loaded, header = read_matrix(path1)
    write_matrix(
        path2, loaded, role=header["role"], subject=header["subject"],
        session=header["session"], seed=header["seed"],
    )
    container_ok = path1.read_bytes() == path2.read_bytes()

    v = substream(1, 506).uniform(-1.0, 0.0, (9, 9))
    base = identify(SimilarityMatrix(v))
    rank_ok = True
    for transform in (lambda x: 2.0 * x + 1.0, lambda x: x**3):
        res = identify(SimilarityMatrix(transform(v)))
        rank_ok &= bool(np.array_equal(res.predictions, base.predictions))
        rank_ok &= res.accuracy == base.accuracy
    elapsed = time.time() - t0
    ok = vec_ok and container_ok and rank_ok
    _verdict(
        9,
        "vectorization, container, and ranking round trips",
        ok,
        f"edge vector round trip exact: {vec_ok}; container bytes stable: "
        f"{container_ok}; ranking invariant: {rank_ok}, {elapsed:.1f}s",
    )
