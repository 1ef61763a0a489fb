"""Self-tests of the benchmark harness, on tiny inputs.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from connfp import run_pipeline
from connfp.sparse import ksvd
from perfbench import checks, workloads
from perfbench.tracing import TARGETS, Recorder

ROOT = Path(__file__).resolve().parents[2]
SMOKE = workloads.SIZES["smoke"]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def current_targets() -> dict:
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mods, attr, _ in TARGETS.values() for mod in mods}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    if workload == "cli-run":
        # each round is one run and two probes; only the probes may fail
        assert result["attempted"] % 3 == 0
        assert result["failed"] <= 2 * result["attempted"] // 3
    else:
        assert result["failed"] == 0
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_restores_every_patched_function(workload, tmp_path):
    before = current_targets()
    wl = workloads.WORKLOADS[workload](0, SMOKE[workload], tmp_path)
    workloads.trace(wl)
    after = current_targets()
    assert all(after[key] is fn for key, fn in before.items())


def test_patches_are_undone_when_the_block_raises():
    before = current_targets()
    with pytest.raises(RuntimeError):
        with Recorder(timed=True).patched(tuple(TARGETS)):
            during = current_targets()
            assert all(during[key] is not fn for key, fn in before.items())
            raise RuntimeError("stop")
    after = current_targets()
    assert all(after[key] is fn for key, fn in before.items())


def test_altered_similarity_entry_fails_the_finn_check(tmp_path):
    wl = workloads.PipelineMixed(0, SMOKE["pipeline-mixed"], tmp_path)
    wl.setup()
    cohort = wl.inputs[0]
    one = [cohort.series(s, "rest") for s in cohort.subject_ids]
    two = [cohort.series(s, "motor") for s in cohort.subject_ids]
    S = run_pipeline(cohort, "rest", "motor", "finn_raw", wl.opts[0]).simmat.values.copy()
    assert checks.check_finn(S, one, two, "finn") == []
    S[0, 1] += 1e-7
    assert checks.check_finn(S, one, two, "finn")


@pytest.mark.parametrize("corruption", ["atom_norm", "extra_nonzero", "rising_objective"])
def test_corrupted_ksvd_output_fails_the_method_checks(corruption):
    Y = np.random.default_rng(0).standard_normal((20, 12))
    dictionary, codes, report = ksvd(Y, 4, 2, iters=5, seed=0)
    assert checks.check_ksvd(Y, 2, (dictionary, codes, report), "ksvd") == []
    if corruption == "atom_norm":
        dictionary.atoms[:, 0] *= 1.0 + 1e-8
    elif corruption == "extra_nonzero":
        codes.codes[:, 0] = 0.5
    else:
        report.objective_history[-1] = report.objective_history[0] * 2.0
    assert checks.check_ksvd(Y, 2, (dictionary, codes, report), "ksvd")


def _rewrite_manifest(out: Path, edit) -> None:
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def test_corrupted_run_directory_fails_the_checks(tmp_path):
    size = SMOKE["cli-run"]
    wl = workloads.CliRun(0, size, tmp_path)
    wl.setup(in_process=True)
    wl.unit(0, in_process=True)
    out, cohort_dir = wl.outputs[0], wl.inputs_dir / "cohort0"
    L = size["opts"]["L"]
    assert checks.check_run_dir(out, cohort_dir, size["n_perm"], L)[0] == []

    pristine = tmp_path / "pristine"
    shutil.copytree(out, pristine)

    def wrong_hash(manifest):
        manifest["files"][0]["sha256"] = "0" * 64

    _rewrite_manifest(out, wrong_hash)
    errors = checks.check_run_dir(out, cohort_dir, size["n_perm"], L)[0]
    assert any("SHA-256" in e for e in errors)

    # one similarity entry changed, with the manifest updated to vouch for it
    shutil.rmtree(out)
    shutil.copytree(pristine, out)
    name = "simmat_rest_motor_finn_raw.bin"
    blob = bytearray((out / name).read_bytes())
    (length,) = struct.unpack_from("<Q", blob, 0)
    offset = 8 + length + 8  # entry (0, 1)
    (value,) = struct.unpack_from("<d", blob, offset)
    struct.pack_into("<d", blob, offset, value + 1e-6)
    (out / name).write_bytes(bytes(blob))

    def vouch(manifest):
        for entry in manifest["files"]:
            if entry["file"] == name:
                entry["sha256"] = checks.sha256(out / name)

    _rewrite_manifest(out, vouch)
    errors = checks.check_run_dir(out, cohort_dir, size["n_perm"], L)[0]
    assert errors and not any("SHA-256" in e for e in errors)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("--workload", "pipeline-mixed", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
