"""Mean identification accuracy of the three methods on a mixed-signal cohort.

The cohort plants a weak subject signature under stronger task- and
group-shared components, the regime where removing common structure should
pay off. Reports per-seed and mean accuracies, and with at least two seeds their
standard deviations, so the method ordering can be read off directly.

Usage: python3 scripts/mixed_cohort_eval.py [--seeds 10] [--epochs 200] ...
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from connfp import CohortConfig, PipelineOptions, generate_cohort, run_pipeline
from connfp.convae import ArchitectureConfig, TrainConfig

METHODS = ("finn_raw", "baseline_groupavg", "convae_sdl")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--subjects", type=int, default=30)
    ap.add_argument("--rois", type=int, default=32)
    ap.add_argument("--timepoints", type=int, default=300)
    ap.add_argument("--subject-strength", type=float, default=1.0)
    ap.add_argument("--task-strength", type=float, default=3.0)
    ap.add_argument("--group-strength", type=float, default=2.0)
    ap.add_argument("--noise", type=float, default=1.0)
    ap.add_argument("--rank-subject", type=int, default=3)
    ap.add_argument("--rank-task", type=int, default=3)
    ap.add_argument("--rank-group", type=int, default=3)
    ap.add_argument("--K", type=int, default=8)
    ap.add_argument("--L", type=int, default=3)
    ap.add_argument("--sdl-iters", type=int, default=30)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--latent", type=int, default=64)
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")

    acc = {m: [] for m in METHODS}
    t_start = time.time()
    for seed in range(args.seeds):
        cfg = CohortConfig(
            n_subjects=args.subjects,
            p_rois=args.rois,
            n_timepoints=args.timepoints,
            sessions=("rest", "motor"),
            subject_strength=args.subject_strength,
            task_strength=args.task_strength,
            group_strength=args.group_strength,
            noise_std=args.noise,
            rank_subject=args.rank_subject,
            rank_task=args.rank_task,
            rank_group=args.rank_group,
            seed=seed,
        )
        cohort = generate_cohort(cfg)
        opts = PipelineOptions(
            K=args.K,
            L=args.L,
            sdl_iters=args.sdl_iters,
            arch=ArchitectureConfig(latent_dim=args.latent),
            train_cfg=TrainConfig(epochs=args.epochs),
            seed=seed,
        )
        row = []
        for meth in METHODS:
            result = run_pipeline(cohort, "rest", "motor", meth, opts)
            acc[meth].append(result.accuracy)
            row.append(f"{meth}={result.accuracy:.3f}")
        print(f"seed {seed}: " + "  ".join(row), flush=True)

    print(f"\ntotal time {time.time() - t_start:.1f}s")
    for meth in METHODS:
        vals = np.asarray(acc[meth])
        sd = f"  (sd {vals.std(ddof=1):.4f})" if vals.size > 1 else ""
        print(f"mean {meth}: {vals.mean():.4f}{sd}")
    gap = float(np.mean(acc["convae_sdl"]) - np.mean(acc["finn_raw"]))
    print(f"convae_sdl - finn_raw: {gap * 100:.1f} percentage points")


if __name__ == "__main__":
    main()
