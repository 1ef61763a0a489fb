"""The scripts under scripts/: run as a user runs them, as subprocesses, or,
where a full run takes too long, with their functions loaded in process on a
small input."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from connfp import pearson_fc
from connfp.rng import substream

ROOT = Path(__file__).resolve().parents[1]
# a cohort small enough that one seed of all three methods takes well under a second
SMALL = ("--epochs", "5", "--subjects", "6", "--rois", "8", "--timepoints", "60",
         "--K", "2", "--L", "1")


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_mixed_cohort_eval_rejects_fewer_than_one_seed(seeds):
    done = run_script("mixed_cohort_eval.py", "--seeds", seeds)
    assert done.returncode == 2
    assert "--seeds must be at least 1" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("seeds, shows_sd", [("1", False), ("2", True)])
def test_mixed_cohort_eval_prints_sd_only_from_two_seeds(seeds, shows_sd):
    done = run_script("mixed_cohort_eval.py", "--seeds", seeds, *SMALL)
    assert done.returncode == 0, done.stderr
    assert "Warning" not in done.stderr
    means = [line for line in done.stdout.splitlines() if line.startswith("mean ")]
    assert len(means) == 3
    assert all(("(sd " in line) == shows_sd and "nan" not in line for line in means)
    # the refined methods paired seed by seed, the standard error only from two seeds
    (per_seed,) = [line for line in done.stdout.splitlines()
                   if line.startswith("convae_sdl - baseline_groupavg per seed: ")]
    assert len(per_seed.split(": ")[1].split()) == int(seeds)
    (paired,) = [line for line in done.stdout.splitlines() if line.startswith("paired ")]
    assert ("(se " in paired) == shows_sd and "nan" not in paired
    counts = paired.split()[-6:]
    assert counts[::2] == ["wins", "ties", "losses"]
    assert sum(int(c) for c in counts[1::2]) == int(seeds)


def load_script(name):
    """A script of scripts/, imported as a module (scripts/ is no package)."""
    path = ROOT / "scripts" / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ae_step_times_each_part_and_the_peak_on_a_small_input():
    # ae_step calls private convae functions, so a change to one of their
    # signatures shows here
    ae_step = load_script("ae_step.py")
    rng = substream(0, 701)
    mats = np.stack([pearson_fc(rng.standard_normal((8, 16))) for _ in range(6)])
    mats = mats.astype(np.float32)
    for *times, faults in ae_step.step_times(mats, 4, 3):
        assert len(times) == 3
        assert all(np.isfinite(t) and t > 0 for t in times)
        assert faults >= 0
    assert ae_step.train_peak_mb(mats, 4) > 0


def test_reach_lists_code_only_tests_run():
    """connectome.mat is called by tests alone, so every statement of its body
    is listed; pearson_fc runs on every path, so its return is not."""
    done = run_script("reach.py", "--size", "smoke")
    assert done.returncode == 0, done.stderr
    listed = {line.split(":")[1].split("-")[0] for line in done.stdout.splitlines()
              if line.startswith("connectome.py:")}
    tree = ast.parse((ROOT / "src" / "connfp" / "connectome.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    body = defs["mat"].body[1:]  # after the docstring
    assert body and {str(stmt.lineno) for stmt in body} <= listed
    (ret,) = [stmt for stmt in defs["pearson_fc"].body if isinstance(stmt, ast.Return)]
    assert str(ret.lineno) not in listed


def test_run_memory_prints_each_run_and_the_medians():
    # by default finn_raw alone; --methods adds the one that trains
    for methods in ([], ["finn_raw", "convae_sdl"]):
        done = run_script("run_memory.py", "--subjects", "10", "--rois", "8", "--timepoints",
                          "60", "--repeats", "1", *(["--methods", *methods] if methods else []))
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == (f"connfp run, {'+'.join(methods or ['finn_raw'])}, "
                            "10 subjects x 8 ROIs x 60 timepoints x 2 sessions")
        labels = ["synth", "run generated", "run stored"]
        assert [line.split(":")[0] for line in lines[1:]] == (
            [f"repeat 0 {label} {ROOT}" for label in labels]
            + [f"median {label} {ROOT}" for label in labels])
        for line in lines[1:]:
            wall, rss, faults = (part.split() for part in line.split(": ")[1].split(", "))
            assert wall[0] == "wall" and rss[:2] == ["peak", "RSS"]
            assert faults[:2] == ["minor", "faults"]
            assert float(wall[-2]) > 0 and float(rss[-2]) > 0 and int(faults[-1]) > 0


@pytest.mark.parametrize("argv, epochs", [([], 200), (["--epochs", "2"], 2)])
def test_run_memory_sets_the_training_epochs(monkeypatch, capsys, argv, epochs):
    """--epochs reaches the config of every run (by default the config's 200)."""
    run_memory = load_script("run_memory.py")
    configs = []

    def fake_run_connfp(tree, command, config, *rest):
        if command == "run":
            configs.append(json.loads(Path(config).read_text(encoding="utf-8")))
        return 1.0, 1.0, 1

    monkeypatch.setattr(run_memory, "run_connfp", fake_run_connfp)
    monkeypatch.setattr(sys, "argv", ["run_memory.py", "--methods", "convae_sdl",
                                      "--repeats", "2", *argv])
    run_memory.main()
    # two repeats, each of a run on the generated and on the stored cohort
    assert [cfg["ae"]["epochs"] for cfg in configs] == [epochs] * 4
    assert [cfg["methods"] for cfg in configs] == [["convae_sdl"]] * 4
    assert [bool(cfg["cohort_dir"]) for cfg in configs] == [False, True] * 2
    assert capsys.readouterr().out.startswith("connfp run, convae_sdl, ")


def test_run_memory_rejects_fewer_than_one_epoch():
    done = run_script("run_memory.py", "--epochs", "0")
    assert done.returncode == 2
    assert "--epochs must be at least 1" in done.stderr


@pytest.mark.parametrize("function, workload", [("ksvd", "grid-sweep"), ("train", "pipeline-mixed")])
def test_ab_times_two_trees_on_the_recorded_calls(capsys, function, workload):
    # the recorded calls of the benchmark's smoke size; the same tree twice
    ab = load_script("ab.py")
    size = ab.SIZES["smoke"][workload]
    calls = ab.record_calls(function, 1, size)
    # one convae_sdl pipeline per cohort trains once
    assert len(calls) == (size["cohorts"] if function == "train" else 4)
    ab.ab([ROOT, ROOT], function, calls, 2)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "round 0 (tree 1 imported first)", "round 1 (tree 2 imported first)"]
    assert all(float(line.split()[-1]) > 0 for line in lines[:2])
    assert lines[-1] == f"outputs bitwise equal on {len(calls)} of {len(calls)} calls" + (
        ", equal up to each atom's sign on 0" if function == "ksvd" else "")


def test_ab_rejects_fewer_than_two_rounds():
    done = run_script("ab.py", str(ROOT), str(ROOT), "--function", "train", "--rounds", "1")
    assert done.returncode == 2
    assert "--rounds must be at least 2" in done.stderr
