"""Peak memory, wall time and page faults of ``connfp synth`` and of
``connfp run`` on a generated and on a stored cohort, for one or more source
trees.

Writes one cohort with ``connfp synth`` (from the first tree), then runs
three commands as child processes of each tree in turn: ``connfp synth``
(into a scratch directory), ``connfp run`` on the generated cohort (no
cohort_dir) and ``connfp run`` on the stored one (its cohort_dir). The runs
do no permutation tests and by default finn_raw only, so that drawing or
reading the cohort and building its connectomes is most of the run;
``--methods`` names others, such as convae_sdl, which trains the autoencoder
for ``--epochs`` epochs (default: the config's 200; a 268-ROI cohort takes
minutes per run at 200). The first session trains and every other session
is tested. Each repeat runs every command from every tree once; for each
command the order of the trees rotates from repeat to repeat, so with two
trees they alternate which runs first. For each run it prints the wall
time, and the child's peak RSS and minor page faults as ``wait4`` reports
them (perfbench's cli-run reads the same peak RSS), then each command's
medians per tree.

Usage: python3 scripts/run_memory.py [--subjects 100] [--rois 64]
       [--timepoints 1200] [--sessions 2] [--methods finn_raw ...]
       [--epochs 200] [--repeats 3] [--src TREE ...]

Each tree is the root of a checkout (it holds src/connfp); the default is
this checkout. The cohort lives in a temporary directory that is removed at
the end.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from connfp.config import example_config  # noqa: E402
from connfp.convae import TrainConfig  # noqa: E402
from connfp.fingerprint import METHODS  # noqa: E402
from connfp.synth import DEFAULT_SESSIONS  # noqa: E402


def run_connfp(tree: Path, *argv) -> tuple[float, float, int]:
    """Run ``connfp`` from tree's package; return (wall s, peak RSS MB, minor
    page faults)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-m", "connfp.cli", *map(str, argv)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env) as proc:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"run_memory: connfp {argv[0]} from {tree} exited {code}: "
                 f"{err.decode(errors='replace').strip()[-500:]}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--subjects", type=int, default=100)
    parser.add_argument("--rois", type=int, default=64)
    parser.add_argument("--timepoints", type=int, default=1200)
    parser.add_argument("--sessions", type=int, default=2)
    parser.add_argument("--methods", nargs="+", choices=METHODS, default=["finn_raw"])
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                        help="autoencoder training epochs (convae_sdl)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--src", type=Path, action="append",
                        help="root of a checkout to run (repeatable; default: this one)")
    args = parser.parse_args()
    if not 2 <= args.sessions <= len(DEFAULT_SESSIONS):
        parser.error(f"--sessions must be between 2 and {len(DEFAULT_SESSIONS)}")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.epochs < 1:
        parser.error("--epochs must be at least 1")
    trees = [tree.resolve() for tree in args.src or [ROOT]]
    for tree in trees:
        if not (tree / "src" / "connfp" / "__init__.py").is_file():
            parser.error(f"no package at {tree / 'src' / 'connfp'}")
    sessions = list(DEFAULT_SESSIONS[: args.sessions])

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = example_config()
        cfg["cohort"].update(n_subjects=args.subjects, p_rois=args.rois,
                             n_timepoints=args.timepoints, sessions=sessions)
        cfg["ae"]["epochs"] = args.epochs
        cfg.update(output_dir=str(tmp / "cohort"), train_session=sessions[0],
                   test_sessions=sessions[1:], methods=args.methods, n_perm=0)
        synth_cfg = tmp / "synth.json"
        synth_cfg.write_text(json.dumps(cfg), encoding="utf-8")
        run_connfp(trees[0], "synth", synth_cfg)
        stored_cfg = tmp / "stored.json"
        stored_cfg.write_text(json.dumps(dict(cfg, cohort_dir=cfg["output_dir"])),
                              encoding="utf-8")
        commands = {  # label -> connfp arguments
            "synth": ("synth", synth_cfg, "--out", tmp / "synth"),
            "run generated": ("run", synth_cfg, "--out", tmp / "out"),
            "run stored": ("run", stored_cfg, "--out", tmp / "out"),
        }

        print(f"connfp run, {'+'.join(args.methods)}, {args.subjects} subjects x "
              f"{args.rois} ROIs x {args.timepoints} timepoints x {args.sessions} sessions")
        runs = {(label, t): [] for label in commands for t in range(len(trees))}
        for r in range(args.repeats):
            for label, argv in commands.items():
                for i in range(len(trees)):
                    t = (r + i) % len(trees)
                    runs[label, t].append(run_connfp(trees[t], *argv))
                    print(f"repeat {r} {label} {trees[t]}: {line(*runs[label, t][-1])}")
        for (label, t), measured in runs.items():
            print(f"median {label} {trees[t]}: {line(*map(statistics.median, zip(*measured)))}")


def line(wall: float, rss: float, faults: float) -> str:
    return f"wall {wall:.3f} s, peak RSS {rss:.1f} MB, minor faults {faults:.0f}"


if __name__ == "__main__":
    main()
