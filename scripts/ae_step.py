"""Per-step cost of training the autoencoder, by input size.

For each matrix size p, builds n synthetic connectomes (Pearson matrices of
random p-ROI series). After two seconds of warm-up steps, it takes STEPS
training steps on minibatches of BATCH in float32, exactly as
``convae.train`` does, and prints the median time of each part of a step:
the forward pass with the loss, the backward pass, and the adaptive-moment
update. Last, it runs a 2-epoch ``train`` under tracemalloc and prints the
peak of traced memory.

The ``cold`` line, printed after the first size's, holds the medians of the
first STEPS warm-up steps of that size: the first steps the process takes,
with the index caches empty and the BLAS threads not yet settled. A fresh
process that stalls shows there, not in the warmed lines.

Usage: python3 scripts/ae_step.py

Takes about 15 seconds on 2 cores.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from connfp import ArchitectureConfig, TrainConfig, pearson_fc, train
from connfp import convae
from connfp.rng import substream

SIZES = (32, 64, 128, 268)
N = 32  # connectomes per size
BATCH = 16
STEPS = 7  # timed steps per size


def step_times(mats: np.ndarray, batch: int, steps: int):
    """Median seconds of forward (with the loss), backward and update per
    step, as (first `steps` warm-up steps, `steps` steps after the warm-up)."""
    cfg, seed = TrainConfig(), 0
    params = convae.build_params(ArchitectureConfig(), mats.shape[1], seed)
    theta = convae._flatten_params(params, np.float32)
    m1, m2 = np.zeros_like(theta), np.zeros_like(theta)
    g, tmp = np.empty_like(theta), np.empty_like(theta)
    order = substream(seed, 1).permutation(len(mats))

    def one_step(step: int) -> tuple[float, float, float]:
        start = (step * batch) % len(mats)
        x = mats[order[start : start + batch]]
        t0 = time.perf_counter()
        diff, _, tape = convae._loss_terms(params, x)
        t1 = time.perf_counter()
        convae._backward_tape(params, tape, (2.0 / diff.size) * diff, g)
        t2 = time.perf_counter()
        convae._adam_update(theta, g, m1, m2, tmp, step + 1, cfg)
        return t1 - t0, t2 - t1, time.perf_counter() - t2

    # steps for two seconds fill the index caches and let the BLAS threads
    # settle: on a shared 2-core machine, a fresh process has been seen to
    # run its first second of steps a hundred times slower
    cold, warm_until = [], time.perf_counter() + 2.0
    while len(cold) < steps or time.perf_counter() < warm_until:
        cold.append(one_step(len(cold)))
    times = [one_step(len(cold) + i) for i in range(steps)]
    return [tuple(float(v) for v in np.median(t[:steps], axis=0)) for t in (cold, times)]


def train_peak_mb(mats: np.ndarray, batch: int) -> float:
    """Peak traced memory, in MB, of a 2-epoch train on mats."""
    tracemalloc.start()
    try:
        train(mats, ArchitectureConfig(), TrainConfig(epochs=2, batch_size=batch))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    print(f"n={N} batch={BATCH} steps={STEPS} numpy={np.__version__}")
    print(f"{'p':>5} {'forward_ms':>11} {'backward_ms':>12} {'adam_ms':>8} {'train2_peak_mb':>15}")
    for p in SIZES:
        rng = substream(p, 0)
        mats = np.stack([pearson_fc(rng.standard_normal((p, 2 * p))) for _ in range(N)])
        mats = mats.astype(np.float32)
        cold, (fwd, bwd, adam) = step_times(mats, BATCH, STEPS)
        peak = train_peak_mb(mats, BATCH)
        print(f"{p:>5} {fwd * 1e3:>11.3f} {bwd * 1e3:>12.3f} {adam * 1e3:>8.3f} {peak:>15.1f}",
              flush=True)
        if p == SIZES[0]:
            fwd, bwd, adam = cold
            print(f"{'cold':>5} {fwd * 1e3:>11.3f} {bwd * 1e3:>12.3f} {adam * 1e3:>8.3f}",
                  flush=True)


if __name__ == "__main__":
    main()
