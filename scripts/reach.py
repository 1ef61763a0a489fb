"""Print the statements of src/connfp that no program path executes.

Traces, line by line with ``sys.settrace`` (standard library only, no
coverage package needed), what these runs execute in the package:

- one unit of each benchmark workload, in process, on workload seed 0:
  pipeline-mixed and grid-sweep as perfbench runs them, and cli-run's
  ``connfp synth``, ``connfp run`` and two malformed-cohort probes through
  ``connfp.cli.main`` (inputs and configs from ``perfbench.workloads``,
  used read-only);
- ``connfp run``, ``grid``, ``ablate`` and ``inspect`` through
  ``connfp.cli.main`` on a 3-session variant of ``example_config()``
  (sessions rest, motor and wm; test sessions motor and wm).

It then prints every outermost statement of each module that none of them
executed, as ``<module>:<line>[-<last line>]: <first source line>``, and a
count. A statement counts as executed when any line it spans ran;
docstrings and other bare strings run no code and are never listed. The
package is imported after tracing starts, so its definitions count.

Usage: python3 scripts/reach.py [--size full|smoke]

full (the default) takes the benchmark's sizes and ``example_config()`` with
``ae.epochs`` 30, about 11 s on 2 cores; smoke takes perfbench's smoke sizes,
also for the config variant's cohort and (K, L), about 1 s.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import logging
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "connfp"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def trace_lines(files) -> dict[str, set[int]]:
    """Start tracing; returns {file: lines run so far}, filled as code runs."""
    hits = {str(f): set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename in hits else None)
    return hits


def run_workloads(size: str, workdir: Path) -> None:
    """One in-process unit of each benchmark workload; exits on a failure."""
    from perfbench.workloads import SIZES, WORKLOADS

    for name, cls in WORKLOADS.items():
        wl = cls(0, SIZES[size][name], workdir / name)
        wl.setup(in_process=True)
        if name == "cli-run":
            # unit() runs its probes as subprocesses, which the tracer cannot see
            runs = [(["run", wl.run_cfgs[0], "--out", workdir / "cli-run-out"], 0)]
            runs += [(["run", cfg, "--out", workdir / "probe-out"], None) for _, cfg in wl.probes]
            for argv, expected in runs:
                rc = wl.connfp(argv, True)[0]
                if rc is None or (expected is not None and rc != expected):
                    sys.exit(f"reach: cli-run's connfp {argv[0]} {argv[1].name} exited {rc}")
        else:
            wl.unit(0, True)
        if wl.failed:
            sys.exit(f"reach: {name} failed: {wl.failures}")


def run_commands(size: str, workdir: Path) -> None:
    """run, grid, ablate and inspect on the 3-session config variant."""
    from connfp import cli
    from connfp.config import example_config
    from perfbench.workloads import SIZES

    cfg = example_config()
    cfg["cohort"]["sessions"] = ["rest", "motor", "wm"]
    cfg["test_sessions"] = ["motor", "wm"]
    cfg["ae"]["epochs"] = 30
    if size == "smoke":
        small = SIZES["smoke"]["cli-run"]
        opts = small["opts"]
        cfg["cohort"].update(n_subjects=small["n"], p_rois=small["p"], n_timepoints=small["T"])
        cfg.update(K=opts["K"], L=opts["L"], sdl_iters=opts["sdl_iters"], n_perm=small["n_perm"],
                   K_range=[2, opts["K"]], L_range=[2, 3])
        cfg["ae"]["epochs"] = opts["epochs"]
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for command in ("run", "grid", "ablate"):
        rc = cli.main([command, str(path), "--out", str(workdir / command)])
        if rc != 0:
            sys.exit(f"reach: connfp {command} exited {rc}")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["inspect", str(next((workdir / "run").glob("simmat_*.bin")))])
    if rc != 0:
        sys.exit(f"reach: connfp inspect exited {rc}")


def unreached(tree: ast.AST, hit: set[int]) -> list[tuple[int, int]]:
    """(first, last) lines of every outermost statement under tree with no
    line in hit; bare strings are skipped."""
    out = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.stmt):
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant) \
                    and isinstance(child.value.value, str):
                continue
            first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
            if hit.isdisjoint(range(first, child.end_lineno + 1)):
                out.append((first, child.end_lineno))
                continue
        out += unreached(child, hit)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    files = sorted(PACKAGE.glob("*.py"))
    hits = trace_lines(files)
    logging.disable(logging.CRITICAL)
    try:
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_workloads(args.size, Path(tmp))
            run_commands(args.size, Path(tmp))
    finally:
        sys.settrace(None)
    total = 0
    for f in files:
        source = f.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, last in unreached(ast.parse(source), hits[str(f)]):
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"{f.name}:{span}: {lines[first - 1].strip()}")
            total += 1
    print(f"{total} unreached statements in {len(files)} modules")


if __name__ == "__main__":
    main()
