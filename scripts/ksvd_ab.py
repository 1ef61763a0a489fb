"""Time ``ksvd`` from two source trees in one process, on the K-SVD calls of
one grid-sweep benchmark seed.

The inputs are those of perfbench's grid-sweep workload for the given seed:
its cohorts and pipeline options are made by ``perfbench.workloads.GridSweep``
(read-only), and one ``grid_search`` per cohort, run with this checkout's
package, records the arguments of every ``ksvd`` call it makes (16 per unit
of work). Each tree's ``connfp`` is then imported under its own name and
every recorded call is timed on both trees, alternating which tree runs
first from call to call. The machine's speed drifts by tens of percent
between one-second slices (perfbench/README.md), so timing the two trees
call by call, side by side, sizes a kernel change far more steadily than
two separate benchmark runs.

Prints each round's ratio, each tree's total, the ratio of the totals
(second tree over first), and whether every output (atoms, codes,
objective history, replacement counts) is bitwise equal between the trees.

Usage: python3 scripts/ksvd_ab.py TREE_A TREE_B [--seed 1] [--rounds 5]

Each tree is the root of a checkout (it holds src/connfp). With 5 rounds it
takes 20 to 30 seconds on 2 cores.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import connfp.fingerprint  # noqa: E402
from perfbench.workloads import SIZES, TEST, TRAIN, GridSweep  # noqa: E402


def load_ksvd(tree: Path, alias: str):
    """``ksvd`` of the package in tree/src/connfp, imported as ``alias``."""
    init = tree / "src" / "connfp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"ksvd_ab: no package at {init}")
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{alias}.sparse").ksvd


def grid_calls(seed: int) -> list[tuple[tuple, dict]]:
    """(args, kwargs) of every ksvd call of one grid_search per cohort."""
    size = SIZES["full"]["grid-sweep"]
    with tempfile.TemporaryDirectory() as workdir:
        wl = GridSweep(seed, size, Path(workdir))
        wl.setup()
    calls = []
    original = connfp.fingerprint.ksvd

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    connfp.fingerprint.ksvd = record
    try:
        for cohort, opts in zip(wl.inputs, wl.opts):
            connfp.fingerprint.grid_search(cohort, TRAIN, TEST, wl.method,
                                           size["K_values"], size["L_values"], opts)
    finally:
        connfp.fingerprint.ksvd = original
    return calls


def outputs_equal(a, b) -> bool:
    (da, ca, ra), (db, cb, rb) = a, b
    return all(np.array_equal(x, y) for x, y in (
        (da.atoms, db.atoms), (ca.codes, cb.codes),
        (ra.objective_history, rb.objective_history),
        (ra.replaced_atoms, rb.replaced_atoms)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs=2, type=Path, help="roots of the two checkouts")
    ap.add_argument("--seed", type=int, default=1, help="grid-sweep workload seed")
    ap.add_argument("--rounds", type=int, default=5, help="passes over the calls")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    fns = [load_ksvd(tree.resolve(), f"connfp_ab{i}") for i, tree in enumerate(args.trees)]
    calls = grid_calls(args.seed)
    totals = [0.0, 0.0]
    differing = set()
    for r in range(args.rounds):
        spent = [0.0, 0.0]
        for i, (a, kw) in enumerate(calls):
            out = [None, None]
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                t0 = perf_counter()
                out[side] = fns[side](*a, **kw)
                spent[side] += perf_counter() - t0
            if not outputs_equal(*out):
                differing.add(i)
        print(f"round {r}: {spent[0]:.3f} s  {spent[1]:.3f} s  ratio {spent[1] / spent[0]:.3f}",
              flush=True)
        totals = [t + s for t, s in zip(totals, spent)]
    print(f"grid-sweep seed {args.seed}: {len(calls)} ksvd calls, {args.rounds} rounds")
    for tree, total in zip(args.trees, totals):
        print(f"{total:8.3f} s  {tree}")
    print(f"ratio (second / first): {totals[1] / totals[0]:.3f}")
    print(f"outputs bitwise equal on {len(calls) - len(differing)} of {len(calls)} calls"
          + (f"; differing calls: {sorted(differing)}" if differing else ""))


if __name__ == "__main__":
    main()
