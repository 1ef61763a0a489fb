"""connfp benchmark: one workload per call, result as the last stdout line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-mixed --seed 0 --seconds 30 --trace 0

Workloads: pipeline-mixed, grid-sweep, cli-run (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--smoke`` shrinks every input so a workload finishes in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Provenance (nproc,
versions, git SHA, seed) goes to standard error and, with the raw samples and
spans, to ``perfbench/.work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"


def pin_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ[var])
        except (KeyError, ValueError):
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def provenance(args, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "nproc": nproc,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "git_sha": git_sha(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["pipeline-mixed", "grid-sweep", "cli-run"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if not (SRC / "connfp" / "__init__.py").is_file():
        print(f"perfbench: no connfp sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import connfp

    if not Path(connfp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported connfp from {connfp.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    prov = provenance(args, nproc)
    print(json.dumps({"provenance": prov}), file=sys.stderr)
    size = workloads.SIZES["smoke" if args.smoke else "full"][args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, size, workdir)
        if args.trace:
            metrics, samples, recorder = workloads.trace(wl)
        else:
            metrics, samples = workloads.measure(wl, args.seconds)
            recorder = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"provenance": prov, "samples": samples, "failures": wl.failures,
              "check_errors": wl.errors}
    if recorder is not None:
        record["spans"] = recorder.spans
    (records / f"{tag}.json").write_text(json.dumps(record), encoding="utf-8")
    for message in wl.errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    for message in wl.failures:
        print(f"perfbench: operation failed: {message}", file=sys.stderr)
    result = {
        "correct": not wl.errors,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
