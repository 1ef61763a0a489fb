"""The scripts under scripts/, run as a user runs them: as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
