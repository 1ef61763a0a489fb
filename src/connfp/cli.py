"""Command-line entry points.

Subcommands: synth (write a cohort to disk), run (identification accuracy
with permutation tests), grid (K/L sweep), ablate (network exclusion sweep),
inspect (print a container header). All logs go to stderr; data products are
written only to files, byte-identically across reruns of the same config, and
each through a temporary file that replaces it whole.

Exit codes: 0 success, 2 configuration error, 3 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .container import (
    ContainerError,
    atomic_open,
    read_matrix,
    read_header,
    sha256_file,
    write_autoencoder,
    write_matrix,
)
from .errors import ConfigurationError
from .fingerprint import (
    REFINE_TARGETS,
    SimilarityMatrix,
    ablation,
    grid_search,
    identify,
    permutation_test,
    run_pipeline_with_artifacts,
)
from .rng import derive_seed
from .synth import TimeSeriesSet, default_partition, generate_cohort

log = logging.getLogger("connfp")

COHORT_MANIFEST_FORMAT = "connfp-cohort"
RUN_MANIFEST_FORMAT = "connfp-run"


def _write_json(path, obj) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _prepare_output(cfg: ExperimentConfig) -> Path:
    """Create the output directory and drop any manifest of an earlier run,
    which must not vouch for files this run is about to overwrite."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    return out


def _write_csv(path, header, rows) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return repr(float(x))


def cmd_synth(cfg: ExperimentConfig) -> int:
    cohort = generate_cohort(cfg.cohort)
    out = _prepare_output(cfg)
    entries = []
    for sid in cohort.subject_ids:
        for ses in cohort.session_labels:
            name = f"ts_{sid}_{ses}.bin"
            write_matrix(
                out / name,
                cohort.series(sid, ses),
                role="timeseries",
                subject=sid,
                session=ses,
                seed=cfg.cohort.seed,
            )
            entries.append(
                {
                    "file": name,
                    "subject": sid,
                    "session": ses,
                    "shape": list(cohort.shape),
                    "sha256": sha256_file(out / name),
                }
            )
    manifest = {
        "format": COHORT_MANIFEST_FORMAT,
        "version": 1,
        "subjects": cohort.subject_ids,
        "sessions": cohort.session_labels,
        "p_rois": cohort.shape[0],
        "n_timepoints": cohort.shape[1],
        "seed": cfg.cohort.seed,
        "entries": entries,
    }
    _write_json(out / "manifest.json", manifest)
    log.info("wrote %d series containers plus manifest to %s", len(entries), out)
    return 0


def load_cohort(directory) -> TimeSeriesSet:
    """Read back a cohort written by the synth subcommand."""
    root = Path(directory)
    manifest_path = root / "manifest.json"
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cohort_dir: cannot read {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"cohort_dir: {manifest_path} is not valid JSON: {exc}") from exc
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != COHORT_MANIFEST_FORMAT:
        raise ConfigurationError(
            f"cohort_dir: {manifest_path} has format {fmt!r}, "
            f"expected {COHORT_MANIFEST_FORMAT!r}"
        )
    data = {}
    try:
        for entry in manifest["entries"]:
            path = root / entry["file"]
            if sha256_file(path) != entry["sha256"]:
                raise ConfigurationError(
                    f"cohort_dir: {path} does not match the SHA-256 recorded in {manifest_path}"
                )
            arr, _ = read_matrix(path)
            if list(arr.shape) != entry["shape"]:
                raise ConfigurationError(
                    f"cohort_dir: {path} has shape {list(arr.shape)} but {manifest_path} "
                    f"records {entry['shape']}"
                )
            data[(entry["subject"], entry["session"])] = arr
        return TimeSeriesSet(data, list(manifest["subjects"]), list(manifest["sessions"]))
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"cohort_dir: {manifest_path} is malformed ({type(exc).__name__}: {exc})"
        ) from None


def _get_cohort(cfg: ExperimentConfig) -> TimeSeriesSet:
    if cfg.cohort_dir:
        return load_cohort(cfg.cohort_dir)
    return generate_cohort(cfg.cohort)


def cmd_run(cfg: ExperimentConfig) -> int:
    cohort = _get_cohort(cfg)
    out = _prepare_output(cfg)
    written: list[str] = []
    records = [
        {
            "train_session": cfg.train_session,
            "test_session": test,
            "accuracy": {},
            "p_value": {} if cfg.n_perm > 0 else None,
        }
        for test in cfg.test_sessions
    ]
    for method_idx, method in enumerate(cfg.methods):
        results, artifacts = run_pipeline_with_artifacts(
            cohort, cfg.train_session, cfg.test_sessions, method, cfg
        )
        for pair_idx, (test, record) in enumerate(zip(cfg.test_sessions, records)):
            result = results[test]
            record["accuracy"][method] = result.accuracy
            log.info(
                "%s -> %s [%s]: accuracy %.4f", cfg.train_session, test, method, result.accuracy
            )
            sim_name = f"simmat_{cfg.train_session}_{test}_{method}.bin"
            write_matrix(
                out / sim_name,
                result.simmat.values,
                role="similarity",
                seed=cfg.seed,
                extra={"train_session": cfg.train_session, "test_session": test,
                       "method": method},
            )
            written.append(sim_name)
            if cfg.n_perm > 0:
                report = permutation_test(
                    result.simmat,
                    cfg.n_perm,
                    seed=derive_seed(cfg.seed, 40, pair_idx, method_idx),
                )
                record["p_value"][method] = report.p_value
                n = result.simmat.n
                hist = np.bincount(
                    np.rint(report.null_accuracies * n).astype(int), minlength=n + 1
                )
                perm_name = f"perm_{cfg.train_session}_{test}_{method}.json"
                _write_json(
                    out / perm_name,
                    {
                        "train_session": cfg.train_session,
                        "test_session": test,
                        "method": method,
                        "n_perm": cfg.n_perm,
                        "observed_accuracy": report.observed_accuracy,
                        "p_value": report.p_value,
                        "null_mean": float(report.null_accuracies.mean()),
                        "null_hits_histogram": [int(c) for c in hist],
                    },
                )
                written.append(perm_name)
            if cfg.both_directions:
                reverse = identify(SimilarityMatrix(result.simmat.values.T))
                record.setdefault("reverse_accuracy", {})[method] = reverse.accuracy
                record.setdefault("mean_accuracy", {})[method] = (
                    result.accuracy + reverse.accuracy
                ) / 2.0
        for ses, dictionary in artifacts.dictionaries.items():
            dict_name = f"dictionary_{ses}_{method}.bin"
            codes_name = f"codes_{ses}_{method}.bin"
            write_matrix(
                out / dict_name,
                dictionary.atoms,
                role="dictionary",
                session=ses,
                seed=cfg.seed,
                extra={"K": cfg.K, "L": cfg.L, "method": method},
            )
            write_matrix(
                out / codes_name,
                artifacts.codes[ses].codes,
                role="codes",
                session=ses,
                seed=cfg.seed,
                extra={"K": cfg.K, "L": cfg.L, "method": method},
            )
            written.extend([dict_name, codes_name])
        if artifacts.ae_params is not None:
            ae_name = f"autoencoder_{cfg.train_session}.bin"
            write_autoencoder(out / ae_name, artifacts.ae_params, seed=cfg.seed)
            written.append(ae_name)

    header = ["train_session", "test_session"]
    header += [f"accuracy_{m}" for m in cfg.methods]
    if cfg.n_perm > 0:
        header += [f"p_value_{m}" for m in cfg.methods]
    rows = []
    for record in records:
        row = [record["train_session"], record["test_session"]]
        row += [_fmt(record["accuracy"][m]) for m in cfg.methods]
        if cfg.n_perm > 0:
            row += [_fmt(record["p_value"][m]) for m in cfg.methods]
        rows.append(row)
    _write_csv(out / "accuracy.csv", header, rows)
    written.append("accuracy.csv")
    _write_json(
        out / "summary.json",
        {"train_session": cfg.train_session, "methods": cfg.methods, "records": records},
    )
    written.append("summary.json")
    manifest = {
        "format": RUN_MANIFEST_FORMAT,
        "version": 1,
        "K": cfg.K,
        "L": cfg.L,
        "seed": cfg.seed,
        "files": [
            {"file": name, "sha256": sha256_file(out / name)} for name in sorted(set(written))
        ],
    }
    _write_json(out / "manifest.json", manifest)
    log.info("wrote results for %d session pairs to %s", len(records), out)
    return 0


def cmd_grid(cfg: ExperimentConfig) -> int:
    cohort = _get_cohort(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    test = cfg.test_sessions[0]
    K_values = range(cfg.K_range[0], cfg.K_range[1] + 1)
    L_values = range(cfg.L_range[0], cfg.L_range[1] + 1)
    for method in cfg.methods:
        cells = grid_search(cohort, cfg.train_session, test, method, K_values, L_values, cfg)
        rows = [[cell.K, cell.L, _fmt(cell.accuracy)] for cell in cells]
        _write_csv(out / f"grid_{method}.csv", ["K", "L", "accuracy"], rows)
        log.info("grid for %s: %d feasible cells", method, len(cells))
    return 0


def cmd_ablate(cfg: ExperimentConfig) -> int:
    cohort = _get_cohort(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    test = cfg.test_sessions[0]
    partition = default_partition(cohort.shape[0], cfg.n_networks)
    for method in cfg.methods:
        result = ablation(cohort, partition, cfg.train_session, test, method, cfg)
        rows = [["none", _fmt(result.baseline_accuracy), _fmt(0.0)]]
        for row in result.rows:
            if row.skipped:
                rows.append([row.name, "", ""])
            else:
                rows.append([row.name, _fmt(row.accuracy), _fmt(row.delta)])
        _write_csv(out / f"ablation_{method}.csv", ["network", "accuracy", "delta"], rows)
        log.info("ablation for %s: %d networks", method, len(result.rows))
    return 0


def cmd_inspect(path) -> int:
    header = read_header(path)
    print(json.dumps(header, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="connfp",
        description="Connectome fingerprinting: synthetic cohorts, identification, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "synth": "generate a synthetic cohort and write it to disk",
        "run": "run identification for each session pair and method",
        "grid": "sweep dictionary size K and sparsity L",
        "ablate": "rerun identification with each network excluded",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override both the experiment and cohort seeds")
        p.add_argument("--out", default=None, help="override output_dir")
        if name != "synth":
            p.add_argument("--refine-target", choices=list(REFINE_TARGETS), default=None,
                           help="subtract the coded part from the residual or the original")
            p.add_argument("--fisher-z", action="store_true", default=None,
                           help="apply the arctanh transform to connectome edges")
    insp = sub.add_parser("inspect", help="print a matrix container header")
    insp.add_argument("path", help="container file to inspect")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        cfg.cohort.seed = args.seed
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    if getattr(args, "refine_target", None):
        cfg.refine_target = args.refine_target
    if getattr(args, "fisher_z", None):
        cfg.fisher_z = True
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "inspect":
            return cmd_inspect(args.path)
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "grid":
            return cmd_grid(cfg)
        return cmd_ablate(cfg)
    except ConfigurationError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except (ContainerError, ValueError, RuntimeError, OSError) as exc:
        log.error("failed: %s", exc)
        return 3
    except Exception as exc:  # any other failure is a runtime failure too
        log.error("failed: %s: %s", type(exc).__name__, exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
