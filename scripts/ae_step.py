"""Per-step cost of training the autoencoder, by input size.

For each matrix size p, builds the edge vectors of n synthetic connectomes
(Pearson matrices of random p-ROI series), the input ``convae.train`` takes.
After two seconds of warm-up steps, it takes STEPS
training steps on minibatches of BATCH in float32, exactly as
``convae.train`` does, in one workspace, and prints the median time of each
part of a step: the batch gather and forward pass with the loss, the
backward pass, and the adaptive-moment update; then the minor page faults
per step, which count the pages the heap took back from the system. Last,
it runs a 2-epoch ``train`` under tracemalloc and prints the peak of traced
memory.

The ``cold`` line, printed after the first size's, holds the medians of the
first STEPS warm-up steps of that size: the first steps the process takes,
with the index caches empty and the BLAS threads not yet settled. A fresh
process that stalls shows there, not in the warmed lines.

Usage: python3 scripts/ae_step.py

Takes about 15 seconds on 2 cores.
"""

from __future__ import annotations

import resource
import time
import tracemalloc

import numpy as np

from connfp import ArchitectureConfig, TrainConfig, pearson_fc, train, vectorize_upper
from connfp import convae
from connfp.connectome import n_rois
from connfp.rng import substream

SIZES = (32, 64, 128, 268)
N = 32  # connectomes per size
BATCH = 16
STEPS = 7  # timed steps per size


def step_times(edges: np.ndarray, batch: int, steps: int):
    """Median seconds of forward (with the batch gather and the loss),
    backward and update per step on the (n, m) edge vectors, and the mean
    minor page faults per step, as (first `steps` warm-up steps, `steps`
    steps after the warm-up)."""
    seed = 0
    n, p = len(edges), n_rois(edges.shape[1])
    params = convae.build_params(ArchitectureConfig(), p, seed)
    theta = convae._flatten_params(params, np.float32)
    m1, m2 = np.zeros_like(theta), np.zeros_like(theta)
    g, tmp = np.empty_like(theta), np.empty(convae._ADAM_BLOCK, np.float32)
    grads = convae._param_views(g, params)
    ws = convae._Workspace(params, min(batch, n), np.float32, grads=True)
    x = convae._stack_inputs(edges, np.float32).reshape(p * p, n)
    order = substream(seed, 1).permutation(n)

    def one_step(step: int) -> tuple[float, float, float, int]:
        start = (step * batch) % n
        idx = order[start : start + batch]
        v = ws.views(len(idx))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        np.take(x, idx, axis=1, out=v.x[1:], mode="clip")
        convae._forward(params, v)
        convae._loss(v)
        t1 = time.perf_counter()
        convae._backward(params, v, grads)
        t2 = time.perf_counter()
        convae._adam_update(theta, g, m1, m2, tmp, step + 1)
        t3 = time.perf_counter()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return t1 - t0, t2 - t1, t3 - t2, faults

    # steps for two seconds fill the index caches and let the BLAS threads
    # settle: on a shared 2-core machine, a fresh process has been seen to
    # run its first second of steps a hundred times slower
    cold, warm_until = [], time.perf_counter() + 2.0
    while len(cold) < steps or time.perf_counter() < warm_until:
        cold.append(one_step(len(cold)))
    warm = [one_step(len(cold) + i) for i in range(steps)]
    return [(*(float(t) for t in np.median(np.array(part)[:, :3], axis=0)),
             float(np.mean(np.array(part)[:, 3])))
            for part in (cold[:steps], warm)]


def train_peak_mb(edges: np.ndarray, batch: int) -> float:
    """Peak traced memory, in MB, of a 2-epoch train on the edge vectors."""
    tracemalloc.start()
    try:
        train(edges, ArchitectureConfig(), TrainConfig(epochs=2, batch_size=batch))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    print(f"n={N} batch={BATCH} steps={STEPS} numpy={np.__version__}")
    print(f"{'p':>5} {'forward_ms':>11} {'backward_ms':>12} {'adam_ms':>8} "
          f"{'faults_per_step':>16} {'train2_peak_mb':>15}")
    for p in SIZES:
        rng = substream(p, 0)
        edges = np.stack([vectorize_upper(pearson_fc(rng.standard_normal((p, 2 * p))))
                          for _ in range(N)]).astype(np.float32)
        cold, warm = step_times(edges, BATCH, STEPS)
        peak = train_peak_mb(edges, BATCH)
        print(f"{p:>5} {line(*warm)} {peak:>15.1f}", flush=True)
        if p == SIZES[0]:
            print(f"{'cold':>5} {line(*cold)}", flush=True)


def line(fwd: float, bwd: float, adam: float, faults: float) -> str:
    return f"{fwd * 1e3:>11.3f} {bwd * 1e3:>12.3f} {adam * 1e3:>8.3f} {faults:>16.1f}"


if __name__ == "__main__":
    main()
