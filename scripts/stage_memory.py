"""Traced memory of the connectome build and of each method's pipeline, for
one or more source trees.

Each tree runs in a child process that imports that tree's connfp (this
script again, with --child and the tree's src first on PYTHONPATH). The
child draws the 2-session cohort (rest and motor; task strength 3.0, group
strength 2.0, seed 0), builds its connectomes with session_connectomes under
tracemalloc and prints the bytes the build still holds. Then, for each
method in turn, it resets the traced peak, runs run_pipeline_with_artifacts
(rest trains, motor is tested; K 8, L 3, --epochs, seed 0 and otherwise the
default PipelineOptions) and prints the peak, which counts the held build,
with the method's accuracy and the repr of its similarity matrix's sum, so
that two trees' results can be compared bit for bit. A series and a
connectome of one subject are built before tracing starts, so that caches
filled on first use are not counted. MB = 10^6 B.

Usage: python3 scripts/stage_memory.py [--subjects 100] [--rois 268]
       [--timepoints 1200] [--epochs 2] [--methods finn_raw ...]
       [--src TREE ...]

Each tree is the root of a checkout (it holds src/connfp); the default is
this checkout. --subjects must be at least K = 8. At the defaults one tree
takes about 10 s (2 cores), and its traced peak stays under 0.5 GB.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tracemalloc
from pathlib import Path

from checkouts import child_failed, source_trees, tree_env

METHODS = ("finn_raw", "baseline_groupavg", "convae_sdl")
# atoms per dictionary and per code, fixed here so that trees whose defaults
# differ are measured alike; with fewer subjects than K a refined edge row
# comes out constant
K, L = 8, 3


def measure(subjects: int, rois: int, timepoints: int, epochs: int, methods) -> None:
    """Print the held build and each method's traced peak, with this
    process's connfp."""
    from connfp import (CohortConfig, PipelineOptions, TrainConfig, detrend, generate_cohort,
                        pearson_fc, run_pipeline_with_artifacts, session_connectomes,
                        vectorize_upper)

    cohort = generate_cohort(CohortConfig(
        n_subjects=subjects, p_rois=rois, n_timepoints=timepoints, sessions=("rest", "motor"),
        task_strength=3.0, group_strength=2.0, seed=0))
    vectorize_upper(pearson_fc(detrend(cohort.series(cohort.subject_ids[0], "rest"))))
    opts = PipelineOptions(K=K, L=L, train_cfg=TrainConfig(epochs=epochs), seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        connectomes = session_connectomes(cohort, "rest", ["motor"])
        held = tracemalloc.get_traced_memory()[0] - before
        print(f"held {held} B = {held / 1e6:.1f} MB")
        for method in methods:
            tracemalloc.reset_peak()
            results, _ = run_pipeline_with_artifacts(connectomes, "rest", ["motor"], method, opts)
            peak = tracemalloc.get_traced_memory()[1] - before
            result = results["motor"]
            print(f"{method} peak {peak} B = {peak / 1e6:.1f} MB, accuracy {result.accuracy!r}, "
                  f"similarity sum {float(result.simmat.values.sum())!r}")
            del results, result
    finally:
        tracemalloc.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--subjects", type=int, default=100)
    parser.add_argument("--rois", type=int, default=268)
    parser.add_argument("--timepoints", type=int, default=1200)
    parser.add_argument("--epochs", type=int, default=2,
                        help="autoencoder training epochs (convae_sdl)")
    parser.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    parser.add_argument("--src", type=Path, action="append",
                        help="root of a checkout to measure (repeatable; default: this one)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.epochs < 1:
        parser.error("--epochs must be at least 1")
    if args.subjects < K:
        parser.error(f"--subjects must be at least K = {K}")
    if args.child:
        measure(args.subjects, args.rois, args.timepoints, args.epochs, args.methods)
        return
    trees = source_trees(parser, args.src)
    print(f"rest -> motor, {args.subjects} subjects x {args.rois} ROIs x {args.timepoints} "
          f"timepoints, {args.epochs} epochs, K={K}, L={L}")
    for tree in trees:
        done = subprocess.run(
            [sys.executable, __file__, "--child", "--subjects", str(args.subjects), "--rois",
             str(args.rois), "--timepoints", str(args.timepoints), "--epochs", str(args.epochs),
             "--methods", *args.methods],
            capture_output=True, text=True, env=tree_env(tree))
        if done.returncode != 0:
            child_failed("stage_memory", str(tree), done.returncode, done.stderr)
        for line in done.stdout.splitlines():
            print(f"{tree}: {line}")


if __name__ == "__main__":
    main()
