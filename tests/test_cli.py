"""Command-line interface and config parsing.

CLI tests drive a real subprocess, exactly as a user would, and inspect only
the documented products: CSV tables, JSON summaries, and matrix containers.
Reruns of the same config must be byte-identical. The one exception calls
`main` in process so that it can make a write fail part way through a run.
"""

import builtins
import csv
import json
import logging
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from connfp import (
    ArchitectureConfig,
    CohortConfig,
    ConfigurationError,
    PipelineOptions,
    TrainConfig,
    generate_cohort,
)
from connfp import cli
from connfp.cli import load_cohort
from connfp.config import config_from_dict, example_config, load_config
from connfp.container import read_matrix, sha256_file


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


def test_run_rerun_is_byte_identical(run_out, tmp_path):
    out, cfg_path = run_out
    proc = run_cli("run", cfg_path, "--out", tmp_path / "again")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    names = [f["file"] for f in manifest["files"]] + ["manifest.json"]
    for name in names:
        assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes(), name


def test_run_from_cohort_dir_matches_inline_generation(run_out, synth_out, tmp_path):
    out, _ = run_out
    cfg = base_config(tmp_path / "fromdir")
    cfg["cohort_dir"] = str(synth_out)
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fromdir" / "accuracy.csv").read_bytes() == (
        out / "accuracy.csv"
    ).read_bytes()


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
    proc = run_cli(
        "run", write_config(tmp_path, cfg), "--refine-target", "original", "--fisher-z"
    )
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


def test_missing_and_malformed_config_exit_2(tmp_path):
    proc = run_cli("run", tmp_path / "nope.json")
    assert proc.returncode == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json]")
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


def test_runtime_failure_exits_3(tmp_path):
    cfg = base_config(tmp_path / "fail")
    cfg["methods"] = ["baseline_groupavg"]
    cfg["K"] = 32  # more atoms than subjects: coding degenerates downstream
    proc = run_cli("run", write_config(tmp_path, cfg))
    assert proc.returncode == 3
    assert "failed" in proc.stderr


# ----------------------------------------------------------------- config


def test_example_config_round_trips():
    raw = example_config()
    cfg = config_from_dict(raw)
    assert cfg.cohort.n_subjects == 10
    assert cfg.methods == ["finn_raw", "baseline_groupavg", "convae_sdl"]
    assert cfg.K_range == (2, 6) and cfg.cohort.sessions == ("rest", "motor")
    # the config is itself the pipeline options; "ae" splits into its two parts
    assert isinstance(cfg, PipelineOptions)
    assert cfg.arch == ArchitectureConfig() and cfg.train_cfg == TrainConfig()
    assert json.loads(json.dumps(raw)) == raw


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
        ({"bandpass": [0.3]}, "bandpass"),
        ({"K": 4, "L": 5}, "L"),
        ({"K_range": [5, 2]}, "K_range"),
        ({"methods": ["magic"]}, "methods"),
        ({"train_session": "nap"}, "train_session"),
        ({"test_sessions": ["rest"]}, "test_sessions"),
        ({"n_perm": -1}, "n_perm"),
        ({"refine_target": "everything"}, "refine_target"),
        ({"output_dir": 7}, "output_dir"),
        ({"ae": {"channels": ["x"]}}, "ae.channels"),
        ({"ae": {"channels": [8.7, 16]}}, "ae.channels"),
        ({"K_range": [2.9, 6]}, "K_range"),
        ({"cohort": {"n_subject": 10}}, "cohort.n_subject"),
        ({"ae": {"seed": 3}}, "ae.seed"),
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
