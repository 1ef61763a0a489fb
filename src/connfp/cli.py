"""Command-line entry points.

Subcommands: synth (write a cohort to disk), run (identification accuracy
with permutation tests), grid (K/L sweep), ablate (network exclusion sweep),
inspect (print a container header). All logs go to stderr; data products are
written only to files, byte-identically across reruns of the same config, and
each through a temporary file that replaces it whole. run, grid and ablate
compute every method's results before they touch the output directory, so a
run that fails in the pipeline leaves that directory as it was.

Exit codes: 0 success, 2 configuration error, 3 runtime failure (``failed: <Type>: ...``).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .container import (
    atomic_open,
    read_matrix,
    read_header,
    sha256_file,
    write_autoencoder,
    write_matrix,
)
from .errors import ConfigurationError
from .fingerprint import (
    METHODS,
    ablation,
    grid_search,
    permutation_test,
    run_pipeline_with_artifacts,
)
from .rng import derive_seed
from .synth import TimeSeriesSet, default_partition, generate_cohort

log = logging.getLogger("connfp")

COHORT_MANIFEST_FORMAT = "connfp-cohort"
RUN_MANIFEST_FORMAT = "connfp-run"
GRID_MANIFEST_FORMAT = "connfp-grid"
ABLATE_MANIFEST_FORMAT = "connfp-ablate"


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


def _write_manifest(out: Path, fmt: str, written, **fields) -> None:
    """Write manifest.json last: the SHA-256 of every file the run wrote."""
    files = [{"file": name, "sha256": sha256_file(out / name)} for name in sorted(set(written))]
    _write_json(out / "manifest.json", {"format": fmt, "version": 1, **fields, "files": files})


def _write_csv(path, header, rows) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    """A float's repr; None (an empty grid cell or ablation row) is blank."""
    return "" if x is None else repr(float(x))


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
    """Read back a cohort written by the synth subcommand.

    The manifest must hold every key synth writes and list each (subject,
    session) pair once; each file must match its recorded SHA-256, and its
    shape and header (role, subject, session, seed) must agree with the
    manifest. Any disagreement is a configuration error.
    """
    root = Path(directory)
    manifest_path = root / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cohort_dir: cannot read {manifest_path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cohort_dir: {manifest_path} is not valid JSON: {exc}") from exc
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != COHORT_MANIFEST_FORMAT:
        raise ConfigurationError(
            f"cohort_dir: {manifest_path} has format {fmt!r}, "
            f"expected {COHORT_MANIFEST_FORMAT!r}"
        )
    try:
        if manifest["version"] != 1:
            raise ConfigurationError(
                f"cohort_dir: {manifest_path} has unsupported version {manifest['version']!r}"
            )
        shape = [manifest["p_rois"], manifest["n_timepoints"]]
        data = {}
        for entry in manifest["entries"]:
            path = root / entry["file"]
            if sha256_file(path) != entry["sha256"]:
                raise ConfigurationError(
                    f"cohort_dir: {path} does not match the SHA-256 recorded in {manifest_path}"
                )
            arr, header = read_matrix(path)
            recorded = {"role": "timeseries", "subject": entry["subject"],
                        "session": entry["session"], "seed": manifest["seed"]}
            if list(arr.shape) != entry["shape"] or entry["shape"] != shape or any(
                header.get(key) != value for key, value in recorded.items()
            ):
                raise ConfigurationError(
                    f"cohort_dir: {path} (shape {list(arr.shape)}) disagrees with "
                    f"{manifest_path} on its shape, role, subject, session or seed"
                )
            data[(entry["subject"], entry["session"])] = arr
        subjects, sessions = list(manifest["subjects"]), list(manifest["sessions"])
        if len(data) != len(manifest["entries"]) or sorted(data) != sorted(
            itertools.product(subjects, sessions)
        ):
            raise ConfigurationError(
                f"cohort_dir: the entries of {manifest_path} do not list every subject "
                "and session once"
            )
        return TimeSeriesSet(data, subjects, sessions)
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
    train, tests = cfg.train_session, cfg.test_sessions
    runs = []
    for method in cfg.methods:
        results, artifacts = run_pipeline_with_artifacts(cohort, train, tests, method, cfg)
        reports = {}
        for test in tests:
            log.info("%s -> %s [%s]: accuracy %.4f", train, test, method, results[test].accuracy)
            if cfg.n_perm > 0:
                # keyed on the cohort's session order and METHODS, not on the
                # config's lists, so a pair's p-value ignores the other entries
                seed = derive_seed(cfg.seed, 40, cohort.session_labels.index(test),
                                   METHODS.index(method))
                reports[test] = permutation_test(results[test], cfg.n_perm, seed=seed)
        runs.append((method, results, artifacts, reports))

    out = _prepare_output(cfg)
    written: list[str] = []
    for method, results, artifacts, reports in runs:
        for test in tests:
            pair = {"train_session": train, "test_session": test, "method": method}
            result = results[test]
            written.append(f"simmat_{train}_{test}_{method}.bin")
            write_matrix(
                out / written[-1],
                result.simmat.values,
                role="similarity",
                seed=cfg.seed,
                extra=pair,
            )
            if test in reports:
                report = reports[test]
                n = result.predictions.size
                written.append(f"perm_{train}_{test}_{method}.json")
                _write_json(
                    out / written[-1],
                    {
                        **pair,
                        "n_perm": cfg.n_perm,
                        "observed_accuracy": result.accuracy,
                        "p_value": report.p_value,
                        "null_mean": float((report.null_hits / n).mean()),
                        "null_hits_histogram": np.bincount(
                            report.null_hits, minlength=n + 1).tolist(),
                    },
                )
        for ses, dictionary in artifacts.dictionaries.items():
            for role, values in (("dictionary", dictionary.atoms),
                                 ("codes", artifacts.codes[ses].codes)):
                written.append(f"{role}_{ses}_{method}.bin")
                write_matrix(
                    out / written[-1],
                    values,
                    role=role,
                    session=ses,
                    seed=cfg.seed,
                    extra={"K": cfg.K, "L": cfg.L, "method": method},
                )
        if artifacts.ae_params is not None:
            ae_name = f"autoencoder_{train}.bin"
            write_autoencoder(out / ae_name, artifacts.ae_params, seed=cfg.seed)
            loss_name = f"ae_loss_{train}.json"
            _write_json(
                out / loss_name,
                {
                    "train_session": train,
                    "epochs": cfg.train_cfg.epochs,
                    "batch_size": cfg.train_cfg.batch_size,
                    "seed": cfg.seed,
                    "ae_history": artifacts.ae_history.tolist(),
                },
            )
            written.extend([ae_name, loss_name])

    records = [
        {"train_session": train, "test_session": test,
         "accuracy": {method: results[test].accuracy for method, results, _, _ in runs},
         "p_value": ({method: reports[test].p_value for method, _, _, reports in runs}
                     if cfg.n_perm > 0 else None)}
        for test in tests
    ]
    # each record's dicts hold the methods in run order, which is cfg.methods
    keys = ["accuracy", "p_value"] if cfg.n_perm > 0 else ["accuracy"]
    header = ["train_session", "test_session"] + [f"{k}_{m}" for k in keys for m in cfg.methods]
    rows = [[train, r["test_session"]] + [_fmt(v) for k in keys for v in r[k].values()]
            for r in records]
    written.append("accuracy.csv")
    _write_csv(out / written[-1], header, rows)
    written.append("summary.json")
    _write_json(
        out / written[-1],
        {"train_session": train, "methods": cfg.methods, "records": records},
    )
    _write_manifest(out, RUN_MANIFEST_FORMAT, written, K=cfg.K, L=cfg.L, seed=cfg.seed)
    log.info("wrote results for %d session pairs to %s", len(records), out)
    return 0


def _write_tables(cfg: ExperimentConfig, fmt: str, header, tables, **fields) -> int:
    """Write each {csv name: rows} table under one header, then the manifest."""
    out = _prepare_output(cfg)
    for name, rows in tables.items():
        _write_csv(out / name, header, rows)
    _write_manifest(out, fmt, tables, seed=cfg.seed, **fields)
    return 0


def cmd_grid(cfg: ExperimentConfig) -> int:
    cohort = _get_cohort(cfg)
    K_values = range(cfg.K_range[0], cfg.K_range[1] + 1)
    L_values = range(cfg.L_range[0], cfg.L_range[1] + 1)
    tables = {}
    for method in cfg.methods:
        cells = grid_search(cohort, cfg.train_session, cfg.test_sessions[0], method,
                            K_values, L_values, cfg)
        tables[f"grid_{method}.csv"] = [[cell.K, cell.L, _fmt(cell.accuracy)] for cell in cells]
        log.info("grid for %s: %d feasible cells", method, len(cells))
    return _write_tables(cfg, GRID_MANIFEST_FORMAT, ["K", "L", "accuracy"], tables,
                         K_range=list(cfg.K_range), L_range=list(cfg.L_range))


def cmd_ablate(cfg: ExperimentConfig) -> int:
    cohort = _get_cohort(cfg)
    partition = default_partition(cohort.shape[0], cfg.n_networks)
    tables = {}
    for method in cfg.methods:
        result = ablation(cohort, partition, cfg.train_session, cfg.test_sessions[0], method, cfg)
        rows = [["none", _fmt(result.baseline_accuracy), _fmt(0.0)]]
        rows += [[row.name, _fmt(row.accuracy), _fmt(row.delta)] for row in result.rows]
        tables[f"ablation_{method}.csv"] = rows
        log.info("ablation for %s: %d networks", method, len(result.rows))
    return _write_tables(cfg, ABLATE_MANIFEST_FORMAT, ["network", "accuracy", "delta"], tables,
                         K=cfg.K, L=cfg.L, n_networks=cfg.n_networks)


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
    insp = sub.add_parser("inspect", help="print a matrix container header")
    insp.add_argument("path", help="container file to inspect")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        cfg.cohort.seed = args.seed
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # a library warning is one log line, without the source path and line
        warnings.showwarning = lambda message, *_: log.warning("warning: %s", message)
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
        except Exception as exc:  # every other failure is a runtime failure
            log.error("failed: %s: %s", type(exc).__name__, exc)
            return 3


if __name__ == "__main__":
    sys.exit(main())
