"""Time one costly kernel, ``ksvd`` or ``train``, from two source trees in one
process, on the calls that one benchmark seed makes.

The inputs are those of a perfbench workload for the given seed, made by its
workload class (read-only); one unit per cohort, run with this checkout's
package, records the arguments of every call of the function:

- ``--function ksvd``: grid-sweep, one ``grid_search`` per cohort, 16
  ``sparse.ksvd`` calls per cohort, 48 in all.
- ``--function train``: pipeline-mixed, one ``convae_sdl`` ``run_pipeline``
  per cohort, one ``convae.train`` call each: 5 calls of 30 subjects × 32
  ROIs at 200 epochs.

Each round imports each tree's ``connfp`` afresh under its own name and times
every recorded call on both trees, side by side, in both orders: the first
tree then the second, and the second then the first. The machine's speed
drifts by tens of percent between one-second slices (perfbench/README.md),
so timing the two trees call by call sizes a kernel change far more
steadily than two separate benchmark runs.

The tree imported first reads up to about 2% faster or slower than the
other, so the import order alternates too: even rounds import the first
tree first, odd rounds the second. A ratio is the second tree's time over
the first's.

A call's ratio is the geometric mean of its two orders' ratios: the tree
that runs second in a pair can read a few percent faster or slower than it
would first, and over both orders that cancels. A round's figure is the
median of its call ratios: a slow slice of the machine then moves one
call's ratio, not the round's figure, as it would move the ratio of the
round's totals. A round runs each call REPEATS times in each order.

Prints each round's import order, each tree's time and the round's median
ratio, then each tree's total, the ratio of the totals for each import
order, their geometric mean (the figure to read: the import-order bias
cancels in it), and how many calls give every output
bitwise equal between the trees: for ksvd the atoms, codes, objective
history and replacement counts, for train every parameter array and the loss
history. ksvd also counts the calls equal only up to each atom's sign, taken
with its code row: an atom's sign is arbitrary (D X is what the pipeline
reads), so a tree that normalizes it and one that does not agree in that
sense.

Usage: python3 scripts/ab.py TREE_A TREE_B --function {ksvd,train}
[--seed 1] [--rounds 6]

Each tree is the root of a checkout (it holds src/connfp). With 6 rounds
ksvd and train each take about 100 seconds on 2 cores.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import connfp.fingerprint  # noqa: E402
from perfbench.workloads import SIZES, TEST, TRAIN, GridSweep, PipelineMixed  # noqa: E402

# function -> (its module in the package, the workload whose calls it times)
FUNCTIONS = {"ksvd": ("sparse", "grid-sweep"), "train": ("convae", "pipeline-mixed")}
# how many times a round runs each call in each order: one pair of calls
# reads up to about 10% off (the standard deviation of a K-SVD call's log
# ratio), so a round's median needs about a hundred K-SVD ratios or a few
# train ratios of calls ten times as long to hold within ±3%
REPEATS = 2


def load(tree: Path, alias: str, function: str):
    """``function`` of the package in tree/src/connfp, imported as ``alias``."""
    init = tree / "src" / "connfp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"ab: no package at {init}")
    for name in [n for n in sys.modules if n == alias or n.startswith(f"{alias}.")]:
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return getattr(importlib.import_module(f"{alias}.{FUNCTIONS[function][0]}"), function)


def record_calls(function: str, seed: int, size: dict) -> list[tuple[tuple, dict]]:
    """(args, kwargs) of every call of function that one unit per cohort of
    its workload, at the given size, makes."""
    if function == "ksvd":
        workload = GridSweep

        def unit(cohort, opts):
            connfp.fingerprint.grid_search(cohort, TRAIN, TEST, GridSweep.method,
                                           size["K_values"], size["L_values"], opts)
    else:
        workload = PipelineMixed

        def unit(cohort, opts):
            connfp.fingerprint.run_pipeline(cohort, TRAIN, TEST, "convae_sdl", opts)

    with tempfile.TemporaryDirectory() as workdir:
        wl = workload(seed, size, Path(workdir))
        wl.setup()
    calls = []
    original = getattr(connfp.fingerprint, function)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    setattr(connfp.fingerprint, function, record)
    try:
        for cohort, opts in zip(wl.inputs, wl.opts):
            unit(cohort, opts)
    finally:
        setattr(connfp.fingerprint, function, original)
    return calls


def compare(function: str, a, b) -> str:
    """"bitwise" when every output of the two calls is equal; for ksvd
    "sign" when the atoms and codes are equal once some atoms of b are
    negated together with their code rows; else "differ"."""
    if function == "train":
        (pa, ha), (pb, hb) = a, b
        same = np.array_equal(ha, hb) and all(
            np.array_equal(x, y) for x, y in zip(pa.arrays(), pb.arrays(), strict=True))
        return "bitwise" if same else "differ"
    (da, ca, ra), (db, cb, rb) = a, b
    if not (np.array_equal(ra.objective_history, rb.objective_history)
            and np.array_equal(ra.replaced_atoms, rb.replaced_atoms)):
        return "differ"
    if np.array_equal(da.atoms, db.atoms) and np.array_equal(ca.codes, cb.codes):
        return "bitwise"
    sign = np.where(np.all(da.atoms == db.atoms, axis=0), 1.0, -1.0)
    if (np.array_equal(da.atoms, db.atoms * sign)
            and np.array_equal(ca.codes, cb.codes * sign[:, None])):
        return "sign"
    return "differ"


def ab(trees: list[Path], function: str, calls, rounds: int) -> None:
    """Time calls on both trees for the given rounds and print the report."""
    # totals[order][side]: order 0 imports the first tree first, order 1 the second
    totals = [[0.0, 0.0], [0.0, 0.0]]
    # call index -> "sign" or "differ", the worst verdict of any round
    verdicts: dict[int, str] = {}
    for r in range(rounds):
        order = r % 2
        fns = [None, None]
        for slot, side in enumerate((order, 1 - order)):
            fns[side] = load(trees[side], f"connfp_ab{slot}", function)
        spent, ratios = [0.0, 0.0], []
        for i, (a, kw) in enumerate(calls):
            pair_ratios = []
            for j in range(2 * REPEATS):
                out, took = [None, None], [0.0, 0.0]
                for side in ((0, 1) if j % 2 == 0 else (1, 0)):
                    t0 = perf_counter()
                    out[side] = fns[side](*a, **kw)
                    took[side] = perf_counter() - t0
                spent = [s + t for s, t in zip(spent, took)]
                pair_ratios.append(took[1] / took[0])
                verdict = compare(function, *out)
                if verdict != "bitwise" and verdicts.get(i) != "differ":
                    verdicts[i] = verdict
            # the tree that runs second in a pair can read a few percent
            # faster or slower; over both orders that cancels
            ratios += [math.sqrt(x * y) for x, y in zip(pair_ratios[::2], pair_ratios[1::2])]
        print(f"round {r} (tree {order + 1} imported first): {spent[0]:.3f} s  "
              f"{spent[1]:.3f} s  median ratio {statistics.median(ratios):.3f}", flush=True)
        totals[order] = [t + s for t, s in zip(totals[order], spent)]
    for side, tree in enumerate(trees):
        print(f"{totals[0][side] + totals[1][side]:8.3f} s  {tree}")
    ratios = [second / first for first, second in totals]
    for order, ratio in enumerate(ratios):
        print(f"ratio (second / first), tree {order + 1} imported first: {ratio:.3f}")
    print(f"ratio (second / first), geometric mean of both orders: "
          f"{math.sqrt(ratios[0] * ratios[1]):.3f}")
    differing = sorted(i for i, v in verdicts.items() if v == "differ")
    signed = (f", equal up to each atom's sign on "
              f"{sum(v == 'sign' for v in verdicts.values())}" if function == "ksvd" else "")
    print(f"outputs bitwise equal on {len(calls) - len(verdicts)} of {len(calls)} calls"
          + signed + (f"; differing calls: {differing}" if differing else ""))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs=2, type=Path, help="roots of the two checkouts")
    ap.add_argument("--function", required=True, choices=sorted(FUNCTIONS),
                    help="the kernel to time")
    ap.add_argument("--seed", type=int, default=1, help="benchmark workload seed")
    ap.add_argument("--rounds", type=int, default=6,
                    help="passes over the calls, at least 2 (one per import order)")
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    workload = FUNCTIONS[args.function][1]
    calls = record_calls(args.function, args.seed, SIZES["full"][workload])
    print(f"{workload} seed {args.seed}: {len(calls)} {args.function} calls, "
          f"{args.rounds} rounds", flush=True)
    ab([tree.resolve() for tree in args.trees], args.function, calls, args.rounds)


if __name__ == "__main__":
    main()
