"""Command-line interface and config parsing.

CLI tests drive a real subprocess, exactly as a user would, and inspect only
the documented products: CSV tables, JSON summaries, and matrix containers.
Reruns of the same config must be byte-identical. The one exception calls
`main` in process so that it can make a write fail part way through a run.
"""

import builtins
import contextlib
import csv
import dataclasses
import io
import json
import logging
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connfp import (
    ArchitectureConfig,
    CohortConfig,
    ConfigurationError,
    DegenerateInputError,
    PipelineOptions,
    TrainConfig,
    generate_cohort,
    run_pipeline,
    run_pipeline_with_artifacts,
)
from connfp import cli
from connfp.cli import load_cohort
from connfp.config import config_from_dict, example_config, load_config
from connfp.container import read_matrix, sha256_file, write_matrix


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "connfp.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def base_config(out_dir):
    return {
        "cohort": {
            "n_subjects": 6,
            "p_rois": 8,
            "n_timepoints": 60,
            "sessions": ["rest", "motor"],
            "subject_strength": 3.0,
            "task_strength": 1.0,
            "group_strength": 1.0,
            "noise_std": 1.0,
            "seed": 5,
        },
        "train_session": "rest",
        "test_sessions": ["motor"],
        "methods": ["finn_raw", "baseline_groupavg", "convae_sdl"],
        "K": 3,
        "L": 2,
        "K_range": [2, 4],
        "L_range": [2, 3],
        "sdl_iters": 5,
        "ae": {"channels": [2], "latent_dim": 4, "epochs": 5, "batch_size": 6},
        "n_perm": 50,
        "n_networks": 4,
        "seed": 0,
        "output_dir": str(out_dir),
    }


def write_config(directory, cfg, name="config.json"):
    path = Path(directory) / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def synth_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    out = root / "cohort"
    cfg_path = write_config(root, base_config(out))
    proc = run_cli("synth", cfg_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    return out


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    out = root / "results"
    cfg_path = write_config(root, base_config(out))
    proc = run_cli("run", cfg_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    return out, cfg_path


# ------------------------------------------------------------------ synth


def test_synth_writes_every_series_with_manifest(synth_out):
    manifest = json.loads((synth_out / "manifest.json").read_text())
    assert manifest["format"] == "connfp-cohort"
    assert len(manifest["entries"]) == 6 * 2
    assert manifest["p_rois"] == 8 and manifest["n_timepoints"] == 60
    entry = manifest["entries"][0]
    arr, header = read_matrix(synth_out / entry["file"])
    assert arr.shape == (8, 60)
    assert header["subject"] == entry["subject"]
    assert sha256_file(synth_out / entry["file"]) == entry["sha256"]


def test_synth_rerun_is_byte_identical(synth_out, tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "unused"))
    proc = run_cli("synth", cfg_path, "--out", tmp_path / "again")
    assert proc.returncode == 0, proc.stderr
    for name in [e["file"] for e in json.loads(
        (synth_out / "manifest.json").read_text())["entries"]] + ["manifest.json"]:
        assert (tmp_path / "again" / name).read_bytes() == (synth_out / name).read_bytes()


def test_written_cohort_loads_back_exactly(synth_out):
    loaded = load_cohort(synth_out)
    direct = generate_cohort(CohortConfig(**base_config("x")["cohort"]))
    assert loaded.subject_ids == direct.subject_ids
    assert loaded.session_labels == direct.session_labels
    for key in direct.data:
        np.testing.assert_array_equal(loaded.data[key], direct.data[key])


def test_synth_seed_override_rewrites_both_seeds(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "o1"))
    proc = run_cli("synth", cfg_path, "--seed", 123, "--out", tmp_path / "o2")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert manifest["seed"] == 123


# -------------------------------------------------------------------- run


def test_run_writes_accuracy_table_with_all_methods(run_out):
    out, _ = run_out
    header, rows = read_csv(out / "accuracy.csv")
    methods = ["finn_raw", "baseline_groupavg", "convae_sdl"]
    assert header == (
        ["train_session", "test_session"]
        + [f"accuracy_{m}" for m in methods]
        + [f"p_value_{m}" for m in methods]
    )
    assert len(rows) == 1  # one session pair
    assert rows[0][0] == "rest" and rows[0][1] == "motor"
    for cell in rows[0][2:]:
        assert 0.0 <= float(cell) <= 1.0
    assert b"\r" not in (out / "accuracy.csv").read_bytes()


def test_run_summary_lists_one_record_per_pair(run_out):
    out, _ = run_out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["train_session"] == "rest"
    assert len(summary["records"]) == 1
    record = summary["records"][0]
    assert set(record["accuracy"]) == {"finn_raw", "baseline_groupavg", "convae_sdl"}
    assert set(record["p_value"]) == set(record["accuracy"])


def test_run_writes_per_method_artifacts(run_out):
    out, _ = run_out
    for method in ("finn_raw", "baseline_groupavg", "convae_sdl"):
        assert (out / f"simmat_rest_motor_{method}.bin").exists()
        assert (out / f"perm_rest_motor_{method}.json").exists()
    for ses in ("rest", "motor"):
        assert (out / f"dictionary_{ses}_convae_sdl.bin").exists()
        assert (out / f"codes_{ses}_baseline_groupavg.bin").exists()
    assert (out / "autoencoder_rest.bin").exists()
    atoms, header = read_matrix(out / "dictionary_rest_convae_sdl.bin")
    assert atoms.shape == (8 * 7 // 2, 3)  # edges x K
    np.testing.assert_allclose(np.linalg.norm(atoms, axis=0), 1.0, atol=1e-10)


def test_run_writes_the_autoencoder_loss_curve(run_out):
    out, cfg_path = run_out
    name = "ae_loss_rest.json"
    manifest = json.loads((out / "manifest.json").read_text())
    assert name in [f["file"] for f in manifest["files"]]
    curve = json.loads((out / name).read_text())
    cfg = load_config(cfg_path)
    _, artifacts = run_pipeline_with_artifacts(
        generate_cohort(cfg.cohort), "rest", ["motor"], "convae_sdl", cfg
    )
    assert curve == {
        "train_session": "rest",
        "epochs": 5,
        "batch_size": 6,
        "seed": 0,
        "ae_history": artifacts.ae_history.tolist(),
    }
    assert len(curve["ae_history"]) == 5


def test_run_permutation_files_agree_with_the_tables(run_out):
    out, _ = run_out
    n_perm = base_config(out)["n_perm"]
    record = json.loads((out / "summary.json").read_text())["records"][0]
    header, rows = read_csv(out / "accuracy.csv")
    perm_files = sorted(out.glob("perm_*.json"))
    assert len(perm_files) == 3
    for path in perm_files:
        perm = json.loads(path.read_text())
        method = perm["method"]
        hist = np.asarray(perm["null_hits_histogram"])
        assert hist.sum() == n_perm
        n = hist.size - 1
        observed_hits = round(perm["observed_accuracy"] * n)
        p_value = (1 + int(hist[observed_hits:].sum())) / (1 + n_perm)
        assert p_value == perm["p_value"] == record["p_value"][method]
        assert float(rows[0][header.index(f"p_value_{method}")]) == p_value
        assert perm["observed_accuracy"] == record["accuracy"][method]
        mean = float(np.arange(n + 1) @ hist) / (n * n_perm)
        assert perm["null_mean"] == pytest.approx(mean, abs=1e-15)


def test_permutation_test_ignores_the_other_pairs_and_methods(tmp_path):
    # the rest -> wm finn_raw test draws the same null whatever else the
    # config lists, and in whatever order
    variants = [
        dict(test_sessions=["motor", "wm"]),
        dict(test_sessions=["wm", "motor"]),
        dict(test_sessions=["wm"]),
        dict(test_sessions=["wm"], methods=["baseline_groupavg", "finn_raw"]),
    ]
    written = []
    for i, variant in enumerate(variants):
        cfg = dict(base_config(tmp_path / f"out{i}"), methods=["finn_raw"], n_perm=200)
        cfg["cohort"].update(n_subjects=8, sessions=["rest", "motor", "wm"])
        cfg.update(variant)
        proc = run_cli("run", write_config(tmp_path, cfg, f"config{i}.json"))
        assert proc.returncode == 0, proc.stderr
        written.append((tmp_path / f"out{i}" / "perm_rest_wm_finn_raw.json").read_text())
    assert written == [written[0]] * len(variants)


def test_run_rerun_is_byte_identical(run_out, tmp_path):
    out, cfg_path = run_out
    proc = run_cli("run", cfg_path, "--out", tmp_path / "again")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    names = [f["file"] for f in manifest["files"]] + ["manifest.json"]
    for name in names:
        assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes(), name


def test_run_does_not_depend_on_the_blas_thread_count(tmp_path):
    """At 16 x 32 x 100 with batches of 16 the autoencoder's products are big
    enough for OpenBLAS to split across threads; the run's files must not
    change with the thread count (README, "BLAS threads")."""
    cfg = base_config(tmp_path / "out")
    cfg["cohort"].update(n_subjects=16, p_rois=32, n_timepoints=100)
    cfg.update(K=3, L=2, n_perm=20)
    cfg["ae"].update(channels=[8, 16], latent_dim=64, epochs=2, batch_size=16)
    config = write_config(tmp_path, cfg)
    manifests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "connfp.cli", "run", str(config), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_run_from_cohort_dir_matches_inline_generation(run_out, synth_out, tmp_path):
    out, _ = run_out
    cfg = base_config(tmp_path / "fromdir")
    cfg["cohort_dir"] = str(synth_out)
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fromdir" / "accuracy.csv").read_bytes() == (
        out / "accuracy.csv"
    ).read_bytes()


def test_cohort_dir_sessions_are_checked_against_the_loaded_cohort(tmp_path):
    synth_cfg = dict(base_config(tmp_path / "cohort"), train_session="a", test_sessions=["b"])
    synth_cfg["cohort"]["sessions"] = ["a", "b"]
    proc = run_cli("synth", write_config(tmp_path, synth_cfg, "synth.json"))
    assert proc.returncode == 0, proc.stderr
    # no cohort key: the default cohort.sessions do not list "a" or "b"
    cfg = dict(base_config(tmp_path / "out"), cohort_dir=str(tmp_path / "cohort"),
               train_session="a", test_sessions=["b"], methods=["finn_raw"], n_perm=0)
    del cfg["cohort"]
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "simmat_a_b_finn_raw.bin").exists()
    # a session the loaded cohort lacks is still a configuration error, and
    # each command finds it before it creates its output directory
    cfg["test_sessions"] = ["rest"]
    for command in ("run", "grid", "ablate"):
        cfg["output_dir"] = str(tmp_path / f"rejected_{command}")
        proc = run_cli(command, write_config(tmp_path, cfg))
        assert proc.returncode == 2, command
        assert "'rest'" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / f"rejected_{command}").exists(), command


def test_run_seed_override_changes_similarity(run_out, tmp_path):
    out, cfg_path = run_out
    proc = run_cli("run", cfg_path, "--seed", 99, "--out", tmp_path / "seeded")
    assert proc.returncode == 0, proc.stderr
    name = "simmat_rest_motor_finn_raw.bin"
    assert (tmp_path / "seeded" / name).read_bytes() != (out / name).read_bytes()


def test_run_variant_flags_and_zero_permutations(tmp_path):
    cfg = base_config(tmp_path / "variant")
    cfg["methods"] = ["baseline_groupavg"]
    cfg["n_perm"] = 0
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(tmp_path / "variant" / "accuracy.csv")
    assert header == ["train_session", "test_session", "accuracy_baseline_groupavg"]
    assert not any((tmp_path / "variant").glob("perm_*.json"))


class HalfWrite:
    """A file whose first write puts half of its data on disk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def install_write_fault(kind, monkeypatch):
    """Make one write of a run fail: a container write, the os.replace that
    ends the first JSON write, or the write of the first CSV or container
    file, half way through. Returns the list that receives the output file's
    name."""
    hit = []
    if kind == "container":

        def broken_write(path, *args, **kwargs):
            hit.append(Path(path).name)
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_autoencoder", broken_write)
        return hit
    if kind == "json":
        real_replace = os.replace

        def broken_replace(src, dst, *args, **kwargs):
            if Path(dst).suffix != ".json":
                return real_replace(src, dst, *args, **kwargs)
            hit.append(Path(dst).name)
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        return hit
    suffix = {"csv": ".csv", "matrix": ".bin"}[kind]
    real_open = builtins.open

    def faulty_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        name = os.path.basename(str(file)).removesuffix(".tmp")
        if "w" in mode and name.endswith(suffix) and not hit:
            hit.append(name)
            return HalfWrite(fh)
        return fh

    monkeypatch.setattr(builtins, "open", faulty_open)
    return hit


@pytest.mark.parametrize("kind", ["container", "json", "csv", "matrix"])
def test_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch, kind):
    """A rerun that dies half way, in a container, JSON or CSV write, must not
    leave the earlier run's manifest vouching for files the rerun has already
    overwritten, nor a temporary file, nor a partly written output."""
    out = tmp_path / "results"
    cfg_path = write_config(tmp_path, base_config(out))
    assert cli.main(["run", str(cfg_path)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    hit = install_write_fault(kind, monkeypatch)
    assert cli.main(["run", str(cfg_path), "--seed", "7"]) == 3
    monkeypatch.undo()
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        for entry in json.loads(manifest_path.read_text())["files"]:
            assert sha256_file(out / entry["file"]) == entry["sha256"], entry["file"]
    assert not list(out.glob("*.tmp"))
    assert len(hit) == 1
    assert (out / hit[0]).read_bytes() == before[hit[0]]
    if kind != "matrix":
        # the fault lands after the rerun has replaced earlier outputs, so a
        # manifest left in place would vouch for files that changed
        assert any(p.read_bytes() != before[p.name] for p in out.glob("simmat_*.bin"))


def test_unexpected_exception_exits_3_with_one_line(tmp_path, monkeypatch, caplog, capsys):
    def broken_run(cfg):
        raise KeyError("entries")

    monkeypatch.setattr(cli, "cmd_run", broken_run)
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    with caplog.at_level(logging.ERROR, logger="connfp"):
        assert cli.main(["run", str(cfg_path)]) == 3
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert [r.getMessage() for r in errors] == ["failed: KeyError: 'entries'"]
    assert all(r.exc_info is None for r in errors)
    assert "Traceback" not in capsys.readouterr().err


# ------------------------------------------------------------- grid/ablate


def test_grid_writes_feasible_cells_per_method(tmp_path):
    cfg = base_config(tmp_path / "grid")
    cfg["methods"] = ["finn_raw", "baseline_groupavg"]
    proc = run_cli("grid", write_config(tmp_path, cfg))
    assert proc.returncode == 0, proc.stderr
    for method in cfg["methods"]:
        header, rows = read_csv(tmp_path / "grid" / f"grid_{method}.csv")
        assert header == ["K", "L", "accuracy"]
        assert [(int(k), int(l)) for k, l, _ in rows] == [
            (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)
        ]
        assert all(0.0 <= float(a) <= 1.0 for _, _, a in rows)
    _, finn_rows = read_csv(tmp_path / "grid" / "grid_finn_raw.csv")
    assert len({a for _, _, a in finn_rows}) == 1


def test_grid_writes_a_degenerate_cell_empty_and_warns(tmp_path, synth_out):
    """With K > n_subjects an atom can take a subject's whole residual: only
    that cell is lost, written empty with one warning line, while a constant
    ROI, which no cell survives, still fails the whole grid."""
    cfg = base_config(tmp_path / "grid")
    cfg.update(methods=["baseline_groupavg", "convae_sdl"], K_range=[2, 8])
    proc = run_cli("grid", write_config(tmp_path, cfg))
    assert proc.returncode == 0, proc.stderr
    opts = config_from_dict(cfg)
    cohort = generate_cohort(opts.cohort)
    warned = [line for line in proc.stderr.splitlines() if line.startswith("warning: grid cell")]
    empty = []
    for method in cfg["methods"]:
        _, rows = read_csv(tmp_path / "grid" / f"grid_{method}.csv")
        assert len(rows) == 13
        for K, L, accuracy in rows:
            cell_opts = dataclasses.replace(opts, K=int(K), L=int(L))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # K > n warns that coding is underdetermined
                try:
                    result = run_pipeline(cohort, "rest", "motor", method, cell_opts)
                except DegenerateInputError:
                    result = None
            if result is None:
                empty.append(f"warning: grid cell K={K}, L={L} of {method}: ")
                assert accuracy == ""
            else:
                assert accuracy == repr(result.accuracy)
    assert empty
    assert len(warned) == len(empty)
    assert all(w.startswith(e) and "zero variance" in w for w, e in zip(warned, empty))

    cfg["cohort_dir"] = str(constant_roi_cohort(synth_out, tmp_path / "cohort"))
    cfg["output_dir"] = str(tmp_path / "dead")
    proc = run_cli("grid", write_config(tmp_path, cfg))
    assert proc.returncode == 3
    assert "failed: DegenerateInputError: " in proc.stderr and "zero variance" in proc.stderr
    assert not (tmp_path / "dead").exists()


def test_ablate_writes_baseline_plus_network_rows(tmp_path):
    cfg = base_config(tmp_path / "abl")
    cfg["methods"] = ["finn_raw"]
    proc = run_cli("ablate", write_config(tmp_path, cfg))
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(tmp_path / "abl" / "ablation_finn_raw.csv")
    assert header == ["network", "accuracy", "delta"]
    assert rows[0][0] == "none" and float(rows[0][2]) == 0.0
    assert [r[0] for r in rows[1:]] == ["net00", "net01", "net02", "net03"]
    baseline = float(rows[0][1])
    for _, acc, delta in rows[1:]:
        assert float(delta) == pytest.approx(float(acc) - baseline, abs=1e-12)


@pytest.mark.parametrize(
    "command, patch, code, message",
    [
        # more atoms than subjects: the run then exits 3, as in
        # test_runtime_failure_exits_3, but warns first
        ("run", {"K": 32}, 3,
         "warning: fewer data columns (6) than atoms (32); the dictionary is underdetermined"),
        ("ablate", {"cohort": {"p_rois": 4}, "n_networks": 2, "methods": ["finn_raw"]}, 0,
         "warning: excluding network 0 (net00) leaves fewer than 3 ROIs; skipped"),
    ],
)
def test_library_warnings_are_one_log_line_each(tmp_path, command, patch, code, message):
    cfg = base_config(tmp_path / "out")
    cfg["cohort"].update(patch.get("cohort", {}))
    cfg.update({key: value for key, value in patch.items() if key != "cohort"})
    proc = run_cli(command, write_config(tmp_path, cfg))
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert message in lines
    # no source path with line number, no echoed source line
    assert ".py:" not in proc.stderr and "UserWarning" not in proc.stderr
    assert not any(line.startswith(" ") for line in lines)


@pytest.mark.parametrize("command, table", [("grid", "grid"), ("ablate", "ablation")])
def test_grid_and_ablate_write_a_manifest_of_their_tables(tmp_path, command, table):
    """Like run, grid and ablate drop an earlier manifest before writing and
    end with a manifest that vouches for each table by SHA-256."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text('{"files": [{"file": "old.csv", "sha256": "0"}]}')
    cfg = dict(base_config(out), methods=["finn_raw", "baseline_groupavg"])
    proc = run_cli(command, write_config(tmp_path, cfg))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == f"connfp-{command}" and manifest["seed"] == 0
    names = [f"{table}_baseline_groupavg.csv", f"{table}_finn_raw.csv"]
    assert [e["file"] for e in manifest["files"]] == names
    for entry in manifest["files"]:
        assert sha256_file(out / entry["file"]) == entry["sha256"]


# ---------------------------------------------------------------- inspect


def test_inspect_prints_parseable_header(synth_out):
    target = next(synth_out.glob("ts_*.bin"))
    proc = run_cli("inspect", target)
    assert proc.returncode == 0, proc.stderr
    header = json.loads(proc.stdout)
    assert header["format"] == "connfp-matrix"
    assert header["role"] == "timeseries"


def test_inspect_rejects_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.bin"
    path.write_bytes(struct.pack("<Q", 5) + b"[1,2]")
    proc = run_cli("inspect", path)
    assert proc.returncode == 3
    assert "not a JSON object" in proc.stderr
    assert "Traceback" not in proc.stderr


# -------------------------------------------------------------- exit codes


def test_bad_config_value_exits_2_and_names_field(tmp_path):
    cfg = base_config(tmp_path / "bad")
    cfg["cohort"]["n_subjects"] = 1
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 2
    assert "cohort.n_subjects" in proc.stderr


def test_value_float32_cannot_hold_exits_2_without_traceback(tmp_path):
    cfg = base_config(tmp_path / "huge_lr")
    cfg["ae"]["learning_rate"] = 1e39
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 2
    assert "ae: learning_rate" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "huge_lr").exists()


def test_missing_and_malformed_config_exit_2(tmp_path):
    proc = run_cli("run", tmp_path / "nope.json")
    assert proc.returncode == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json]")
    proc = run_cli("run", bad)
    assert proc.returncode == 2
    assert "JSON" in proc.stderr
    # a UTF-16 byte-order mark: not UTF-8, so not JSON either
    bad.write_bytes(b"\xff\xfe{}")
    proc = run_cli("run", bad)
    assert proc.returncode == 2
    assert "JSON" in proc.stderr


def test_cohort_manifest_without_entries_exits_2(synth_out, tmp_path):
    cohort = tmp_path / "cohort"
    shutil.copytree(synth_out, cohort)
    manifest = json.loads((cohort / "manifest.json").read_text())
    del manifest["entries"]
    (cohort / "manifest.json").write_text(json.dumps(manifest))
    cfg = dict(base_config(tmp_path / "out"), cohort_dir=str(cohort), methods=["finn_raw"])
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 2
    assert "manifest.json" in proc.stderr and "entries" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cohort_file_not_matching_its_checksum_exits_2(synth_out, tmp_path):
    cohort = tmp_path / "cohort"
    shutil.copytree(synth_out, cohort)
    name = json.loads((cohort / "manifest.json").read_text())["entries"][0]["file"]
    blob = bytearray((cohort / name).read_bytes())
    (length,) = struct.unpack_from("<Q", blob, 0)
    blob[8 + length] ^= 0x01  # lowest mantissa byte of the first value: stays finite
    (cohort / name).write_bytes(bytes(blob))
    cfg = dict(base_config(tmp_path / "out"), cohort_dir=str(cohort), methods=["finn_raw"])
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 2
    assert name in proc.stderr and "SHA-256" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def constant_roi_cohort(synth_out, cohort):
    """A copy of the synth cohort with a dead ROI, exactly constant whatever
    the roundoff: ROI 2 of one series, rewritten with its header fields and
    vouched for by the manifest."""
    shutil.copytree(synth_out, cohort)
    name = _series_files(cohort)[0]
    series, header = read_matrix(cohort / name)
    series[2] = 0.0
    write_matrix(cohort / name, series,
                 **{key: header[key] for key in ("role", "subject", "session", "seed")})
    _rehash(cohort, name)
    return cohort


@pytest.mark.parametrize("trigger", ["more_atoms_than_subjects", "constant_roi"])
def test_runtime_failure_exits_3(tmp_path, synth_out, trigger):
    """The failing run follows a successful one into the same directory and
    must leave it exactly as it was, manifest included."""
    out = tmp_path / "fail"
    cfg = base_config(out)
    proc = run_cli("run", write_config(tmp_path, cfg, "ok.json"))
    assert proc.returncode == 0, proc.stderr
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "manifest.json" in before
    if trigger == "more_atoms_than_subjects":
        cfg["methods"] = ["baseline_groupavg"]
        cfg["K"] = 32  # more atoms than subjects: coding degenerates downstream
    else:
        cfg["cohort_dir"] = str(constant_roi_cohort(synth_out, tmp_path / "cohort"))
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 3
    assert "failed: DegenerateInputError: " in proc.stderr
    assert "zero variance" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# ------------------------------------------------------ boundary fuzzing
#
# Each example damages a copy of the synth cohort and runs `connfp run` on it
# in process: the run must end in exit 2 or 3, raise nothing out of `main`,
# and log no traceback. Where the manifest's SHA-256 is re-recorded for the
# damaged file, the container reader itself has to notice.


class _LogLines(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        self.lines.append(self.format(record))  # the traceback too, if one is attached


def run_damaged(cohort_src, damage, allow_unchanged=False):
    """Run `connfp run` on a copy of cohort_src after damage(copy); returns
    the exit code. With allow_unchanged, exit 0 is accepted when the damaged
    cohort still loads to the same series (the damage missed every byte the
    reader interprets)."""
    with tempfile.TemporaryDirectory() as tmp:
        cohort = Path(tmp) / "cohort"
        shutil.copytree(cohort_src, cohort)
        damage(cohort)
        cfg = dict(base_config(Path(tmp) / "out"), cohort_dir=str(cohort),
                   methods=["finn_raw"], n_perm=0)
        cfg_path = write_config(tmp, cfg)
        handler, stderr = _LogLines(), io.StringIO()
        logger = logging.getLogger("connfp")
        logger.addHandler(handler)
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.main(["run", str(cfg_path)])
        finally:
            logger.removeHandler(handler)
        if code == 0 and allow_unchanged:
            damaged, original = load_cohort(cohort), load_cohort(cohort_src)
            assert damaged.subject_ids == original.subject_ids
            assert damaged.session_labels == original.session_labels
            for key, arr in original.data.items():
                np.testing.assert_array_equal(damaged.data[key], arr)
            return code
    assert code in (2, 3), handler.lines
    assert "Traceback" not in stderr.getvalue() + "\n".join(handler.lines)
    return code


def _manifest(cohort):
    return json.loads((cohort / "manifest.json").read_text())


def _rewrite_manifest(cohort, manifest):
    (cohort / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _rehash(cohort, name):
    """Record the damaged file's SHA-256 in the manifest, as a tool that
    rewrote the file and its manifest together would."""
    manifest = _manifest(cohort)
    for entry in manifest["entries"]:
        if entry["file"] == name:
            entry["sha256"] = sha256_file(cohort / name)
    _rewrite_manifest(cohort, manifest)


def _series_files(cohort):
    return [e["file"] for e in _manifest(cohort)["entries"]]


FUZZ = settings(max_examples=40, deadline=None)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 1000), st.floats(allow_nan=False),
    st.text(max_size=8), st.lists(st.integers(-3, 100), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@FUZZ
@given(data=st.data(), rehash=st.booleans())
def test_fuzz_truncated_container(synth_out, data, rehash):
    name = data.draw(st.sampled_from(_series_files(synth_out)))
    size = (synth_out / name).stat().st_size
    cut = data.draw(st.integers(0, size - 1))

    def damage(cohort):
        (cohort / name).write_bytes((cohort / name).read_bytes()[:cut])
        if rehash:
            _rehash(cohort, name)

    run_damaged(synth_out, damage)


@FUZZ
@given(data=st.data(), rehash=st.booleans())
def test_fuzz_bit_flip_in_container(synth_out, data, rehash):
    """A flip anywhere fails the SHA-256 check; with the hash re-recorded, a
    flip in the length prefix or header is the reader's to catch, unless it
    lands on bytes the reader ignores."""
    name = data.draw(st.sampled_from(_series_files(synth_out)))
    blob = (synth_out / name).read_bytes()
    end = 8 + struct.unpack_from("<Q", blob)[0] if rehash else len(blob)
    bit = data.draw(st.integers(0, 8 * end - 1))

    def damage(cohort):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        (cohort / name).write_bytes(bytes(flipped))
        if rehash:
            _rehash(cohort, name)

    code = run_damaged(synth_out, damage, allow_unchanged=rehash)
    assert rehash or code == 2


@FUZZ
@given(
    data=st.data(),
    field=st.sampled_from(["format", "version", "shape", "dtype", "byte_order", "order",
                           "role", "subject", "session", "seed", "length"]),
)
def test_fuzz_lying_container_header(synth_out, data, field):
    """A header rewritten to lie about one field (or a length prefix that
    lies about the header), with the manifest hash re-recorded to match."""
    name = data.draw(st.sampled_from(_series_files(synth_out)))
    blob = (synth_out / name).read_bytes()
    length = struct.unpack_from("<Q", blob)[0]
    header = json.loads(blob[8 : 8 + length])
    if field == "length":
        lie = data.draw(st.integers(0, 2**64 - 1).filter(lambda v: v != length))
        damaged = struct.pack("<Q", lie) + blob[8:]
    else:
        truth = header.get(field)
        header[field] = data.draw(JSON_VALUES.filter(lambda v: v != truth))
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        damaged = struct.pack("<Q", len(text)) + text + blob[8 + length :]

    def damage(cohort):
        (cohort / name).write_bytes(damaged)
        _rehash(cohort, name)

    run_damaged(synth_out, damage)


@FUZZ
@given(data=st.data(), how=st.sampled_from(["truncate", "flip"]))
def test_fuzz_truncated_or_flipped_cohort_manifest(synth_out, data, how):
    blob = (synth_out / "manifest.json").read_bytes()
    if how == "truncate":
        cut = data.draw(st.integers(0, blob.rindex(b"}") - 1))
        damaged = blob[:cut]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
    run_damaged(synth_out, lambda cohort: (cohort / "manifest.json").write_bytes(bytes(damaged)))


@FUZZ
@given(data=st.data(), lie=st.booleans())
def test_fuzz_cohort_manifest_missing_or_lying_keys(synth_out, data, lie):
    """One key of the manifest or of one entry deleted, or its value replaced
    by a different JSON value."""
    manifest = _manifest(synth_out)
    target = manifest
    if data.draw(st.booleans()):
        target = data.draw(st.sampled_from(manifest["entries"]))
    key = data.draw(st.sampled_from(sorted(target)))
    if lie:
        truth = target[key]
        target[key] = data.draw(JSON_VALUES.filter(lambda v: v != truth))
    else:
        del target[key]
    run_damaged(synth_out, lambda cohort: _rewrite_manifest(cohort, manifest))


# ----------------------------------------------------------------- config


def test_example_config_round_trips():
    raw = example_config()
    cfg = config_from_dict(raw)
    assert (cfg.cohort.n_subjects, cfg.cohort.p_rois, cfg.cohort.n_timepoints) == (30, 32, 300)
    assert cfg.methods == ["finn_raw", "baseline_groupavg", "convae_sdl"]
    assert cfg.K_range == (2, 6) and cfg.cohort.sessions == ("rest", "motor")
    # the config is itself the pipeline options; "ae" splits into its two parts
    assert isinstance(cfg, PipelineOptions)
    assert cfg.arch == ArchitectureConfig() and cfg.train_cfg == TrainConfig()
    assert json.loads(json.dumps(raw)) == raw


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [key for key in example_config() if f"`{key}`" not in readme] == []


def test_load_config_reports_unreadable_path(tmp_path):
    with pytest.raises(ConfigurationError, match="config"):
        load_config(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"cohort": {"n_subjects": "ten"}}, "cohort.n_subjects"),
        ({"K": True}, "K"),
        ({"ae": {"channels": 8}}, "ae.channels"),
        ({"ae": {"epochs": 0}}, "ae"),
        ({"bandpass": [0.01, 0.2]}, "bandpass: unknown key"),
        ({"K": 4, "L": 5}, "L"),
        ({"K_range": [5, 2]}, "K_range"),
        ({"methods": ["magic"]}, "methods"),
        ({"train_session": "nap"}, "train_session"),
        ({"test_sessions": ["rest"]}, "test_sessions"),
        ({"n_perm": -1}, "n_perm"),
        ({"refine_target": "residual"}, "refine_target: unknown key"),
        ({"output_dir": 7}, "output_dir"),
        ({"ae": {"channels": ["x"]}}, "ae.channels"),
        ({"ae": {"channels": [8.7, 16]}}, "ae.channels"),
        ({"K_range": [2.9, 6]}, "K_range"),
        ({"cohort": {"n_subject": 10}}, "cohort.n_subject"),
        ({"ae": {"seed": 3}}, "ae.seed"),
        ({"methods": ["finn_raw", "finn_raw"]}, "methods"),
        ({"test_sessions": ["motor", "motor"]}, "test_sessions"),
        ({"ae": {"epsilon": 1e-50}}, "ae.epsilon: unknown key"),
        ({"ae": {"learning_rate": 1e39}}, "ae: learning_rate"),
        ({"ae": {"init_scale": 1e39}}, "ae.init_scale: unknown key"),
        ({"detrend": True}, "detrend: unknown key"),
        ({"sample_rate_hz": 1.0}, "sample_rate_hz: unknown key"),
        ({"fisher_z": False}, "fisher_z: unknown key"),
        ({"ae": {"beta1": 0.9}}, "ae.beta1: unknown key"),
        ({"ae": {"kernel_size": 3}}, "ae.kernel_size: unknown key"),
        ({"ae": {"stride": 2}}, "ae.stride: unknown key"),
        ({"ae": {"activation": "tanh"}}, "ae.activation: unknown key"),
    ],
)
def test_config_errors_name_the_dotted_field(patch, field):
    raw = example_config()
    for key, value in patch.items():
        if isinstance(value, dict):
            raw[key].update(value)
        else:
            raw[key] = value
    with pytest.raises(ConfigurationError, match=field.replace(".", r"\.")):
        config_from_dict(raw)
