"""Command-line entry points.

Subcommands: synth (write a cohort to disk), run (identification accuracy
with permutation tests), grid (K/L sweep), ablate (network exclusion sweep),
inspect (print a container header). All logs go to stderr; data products are
written only to files, byte-identically across reruns of the same config, and
each by container.write_bytes, whose SHA-256 of the bytes written is the one
the manifest records. run, grid and ablate compute every method's results
before they touch the output directory, so a run that fails in the pipeline
leaves that directory as it was.

run, grid and ablate take their cohort from one stage (_cohort), which
checks the session labels (and L, for run and ablate) from the cohort's
manifest or config alone; ablate then checks its network count against the
cohort's shape, so a rejected config reads no series. Each command builds
the edge matrix of each session it uses once (session_connectomes), before
the first method runs; the methods share them, and no raw series is alive
while they run. Either source yields one series per call, and each is
turned into its connectome's edges and dropped before the next is asked
for, so one series is in memory at a time: a generated cohort (synth.SyntheticCohort)
draws it, and a cohort_dir (StoredCohort) reads its file once, checked
against its recorded SHA-256. Of a cohort_dir, the files of the other
sessions are only hashed. synth, too, writes one series at a time.

Exit codes: 0 success, 2 configuration error, 3 runtime failure (``failed: <Type>: ...``).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import logging
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .container import (
    ChecksumError,
    read_matrix,
    read_header,
    sha256_file,
    write_autoencoder,
    write_bytes,
    write_matrix,
)
from .errors import ConfigurationError
from .fingerprint import (
    METHODS,
    ablation,
    check_networks,
    check_sessions,
    check_sparsity,
    grid_cells,
    permutation_test,
    run_pipeline_with_artifacts,
    session_connectomes,
)
from .rng import derive_seed
from .synth import generate_cohort

log = logging.getLogger("connfp")

COHORT_MANIFEST_FORMAT = "connfp-cohort"
RUN_MANIFEST_FORMAT = "connfp-run"
GRID_MANIFEST_FORMAT = "connfp-grid"
ABLATE_MANIFEST_FORMAT = "connfp-ablate"


def _write_json(path, obj) -> str:
    return write_bytes(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def _prepare_output(cfg: ExperimentConfig) -> Path:
    """Create the output directory and drop any manifest of an earlier run,
    which must not vouch for files this run is about to overwrite."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    return out


def _write_manifest(out: Path, fmt: str, written: dict, **fields) -> None:
    """Write manifest.json last: the SHA-256 of every file the run wrote, as
    written maps each file name to the digest its writer returned."""
    files = [{"file": name, "sha256": written[name]} for name in sorted(written)]
    _write_json(out / "manifest.json", {"format": fmt, "version": 1, **fields, "files": files})


def _write_csv(path, header, rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return write_bytes(path, [text.getvalue().encode("utf-8")])


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
            sha256 = write_matrix(
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
                    "sha256": sha256,
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


class StoredCohort:
    """A cohort written by the synth subcommand, read one series at a time.

    Opening it reads the manifest alone. The manifest must hold every key
    synth writes, with p_rois and n_timepoints positive integers, give every
    entry the cohort's shape and a SHA-256, and list each (subject, session)
    pair once, as a bare file name inside the directory.
    ``series`` reads one file once: its bytes must match the SHA-256 the
    manifest records, and its shape and header (role, subject, session,
    seed) must agree with the manifest. ``verify`` checks files against their
    SHA-256 without parsing them. Any disagreement is a configuration error;
    a series with non-finite values is a runtime failure that names its file.
    """

    def __init__(self, directory):
        root = Path(directory)
        self.manifest_path = manifest_path = root / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigurationError(f"cohort_dir: cannot read {manifest_path}: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cohort_dir: {manifest_path} is not valid JSON: {exc}") from exc
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
            self.shape = (manifest["p_rois"], manifest["n_timepoints"])
            if not all(type(n) is int and n > 0 for n in self.shape):
                raise ConfigurationError(f"cohort_dir: {manifest_path} gives the shape "
                                         f"{list(self.shape)}, not two positive integers")
            self.seed = manifest["seed"]
            self.subject_ids = list(manifest["subjects"])
            self.session_labels = list(manifest["sessions"])
            self._files = {}
            for entry in manifest["entries"]:
                name = entry["file"]
                if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
                    raise ConfigurationError(
                        f"cohort_dir: {manifest_path} lists the file {name!r}, which is not "
                        f"a file name inside {root}"
                    )
                if entry["shape"] != list(self.shape):
                    raise ConfigurationError(
                        f"cohort_dir: {manifest_path} gives {name} the shape {entry['shape']}, "
                        f"not the cohort's {list(self.shape)}"
                    )
                if not isinstance(entry["sha256"], str):
                    raise ConfigurationError(
                        f"cohort_dir: {manifest_path} records no SHA-256 for {name}")
                self._files[(entry["subject"], entry["session"])] = (root / name, entry["sha256"])
            if (not self.subject_ids or not self.session_labels
                    or len(self._files) != len(manifest["entries"])
                    or sorted(self._files) != sorted(
                        itertools.product(self.subject_ids, self.session_labels))):
                raise ConfigurationError(
                    f"cohort_dir: the entries of {manifest_path} do not list every subject "
                    "and session once"
                )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"cohort_dir: {manifest_path} is malformed ({type(exc).__name__}: {exc})"
            ) from None

    def _mismatch(self, path) -> ConfigurationError:
        return ConfigurationError(
            f"cohort_dir: {path} does not match the SHA-256 recorded in {self.manifest_path}")

    def verify(self, sessions) -> None:
        """Check the files of these sessions against their SHA-256 only."""
        for (_, ses), (path, sha256) in self._files.items():
            if ses in sessions and sha256_file(path) != sha256:
                raise self._mismatch(path)

    def series(self, subject_id: str, session_label: str) -> np.ndarray:
        path, sha256 = self._files[(subject_id, session_label)]
        try:
            arr, header = read_matrix(path, sha256=sha256)
        except ChecksumError:
            raise self._mismatch(path) from None
        recorded = {"role": "timeseries", "subject": subject_id,
                    "session": session_label, "seed": self.seed}
        if arr.shape != self.shape or any(
            header.get(key) != value for key, value in recorded.items()
        ):
            raise ConfigurationError(
                f"cohort_dir: {path} (shape {list(arr.shape)}) disagrees with "
                f"{self.manifest_path} on its shape, role, subject, session or seed"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: series contains non-finite values")
        return arr


# No command reads load_cohort: perfbench/tracing.py patches it by name.
# Deleting it waits on the benchmark change of ROADMAP item 3.
def load_cohort(directory) -> StoredCohort:
    """The cohort written by the synth subcommand to ``directory``."""
    return StoredCohort(directory)


def _cohort(cfg: ExperimentConfig, tests, methods):
    """The cohort_dir or the generated cohort, checked before any series is
    read: every label of test_sessions must be the cohort's, the files of
    the sessions other than train_session and ``tests`` must match their
    SHA-256, and L must suit ``methods`` (check_sparsity)."""
    train = cfg.train_session
    if cfg.cohort_dir:
        cohort = StoredCohort(cfg.cohort_dir)
        check_sessions(cohort.session_labels, train, cfg.test_sessions)
        cohort.verify(set(cohort.session_labels) - {train, *tests})
    else:
        cohort = generate_cohort(cfg.cohort)
    check_sparsity(cfg.L, cohort.shape[0], methods)
    return cohort


def cmd_run(cfg: ExperimentConfig) -> int:
    train, tests = cfg.train_session, cfg.test_sessions
    connectomes = session_connectomes(_cohort(cfg, tests, cfg.methods), train, tests)
    runs = []
    for method in cfg.methods:
        results, artifacts = run_pipeline_with_artifacts(connectomes, train, tests, method, cfg)
        reports = {}
        for test in tests:
            log.info("%s -> %s [%s]: accuracy %.4f", train, test, method, results[test].accuracy)
            if cfg.n_perm > 0:
                # keyed on the cohort's session order and METHODS, not on the
                # config's lists, so a pair's p-value ignores the other entries
                seed = derive_seed(cfg.seed, 40, connectomes.session_labels.index(test),
                                   METHODS.index(method))
                reports[test] = permutation_test(results[test], cfg.n_perm, seed=seed)
        runs.append((method, results, artifacts, reports))

    out = _prepare_output(cfg)
    written: dict[str, str] = {}  # file name -> SHA-256 of its bytes
    for method, results, artifacts, reports in runs:
        for test in tests:
            pair = {"train_session": train, "test_session": test, "method": method}
            result = results[test]
            name = f"simmat_{train}_{test}_{method}.bin"
            written[name] = write_matrix(out / name, result.simmat.values, role="similarity",
                                         seed=cfg.seed, extra=pair)
            if test in reports:
                report = reports[test]
                n = result.predictions.size
                name = f"perm_{train}_{test}_{method}.json"
                written[name] = _write_json(out / name, {
                    **pair,
                    "n_perm": cfg.n_perm,
                    "observed_accuracy": result.accuracy,
                    "p_value": report.p_value,
                    "null_mean": float((report.null_hits / n).mean()),
                    "null_hits_histogram": np.bincount(report.null_hits, minlength=n + 1).tolist(),
                })
        for ses, dictionary in artifacts.dictionaries.items():
            for role, values in (("dictionary", dictionary.atoms),
                                 ("codes", artifacts.codes[ses].codes)):
                name = f"{role}_{ses}_{method}.bin"
                written[name] = write_matrix(out / name, values, role=role, session=ses,
                                             seed=cfg.seed,
                                             extra={"K": cfg.K, "L": cfg.L, "method": method})
        if artifacts.ae_params is not None:
            name = f"autoencoder_{train}.bin"
            written[name] = write_autoencoder(out / name, artifacts.ae_params, seed=cfg.seed)
            name = f"ae_loss_{train}.json"
            written[name] = _write_json(out / name, {
                "train_session": train,
                "epochs": cfg.train_cfg.epochs,
                "batch_size": cfg.train_cfg.batch_size,
                "seed": cfg.seed,
                "ae_history": artifacts.ae_history.tolist(),
            })

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
    written["accuracy.csv"] = _write_csv(out / "accuracy.csv", header, rows)
    written["summary.json"] = _write_json(
        out / "summary.json", {"train_session": train, "methods": cfg.methods, "records": records})
    _write_manifest(out, RUN_MANIFEST_FORMAT, written, K=cfg.K, L=cfg.L, seed=cfg.seed)
    log.info("wrote results for %d session pairs to %s", len(records), out)
    return 0


def _write_tables(cfg: ExperimentConfig, fmt: str, header, tables, **fields) -> int:
    """Write each {csv name: rows} table under one header, then the manifest."""
    out = _prepare_output(cfg)
    written = {name: _write_csv(out / name, header, rows) for name, rows in tables.items()}
    _write_manifest(out, fmt, written, seed=cfg.seed, **fields)
    return 0


def cmd_grid(cfg: ExperimentConfig) -> int:
    train, test = cfg.train_session, cfg.test_sessions[0]
    connectomes = session_connectomes(_cohort(cfg, [test], []), train, [test])
    K_values = range(cfg.K_range[0], cfg.K_range[1] + 1)
    L_values = range(cfg.L_range[0], cfg.L_range[1] + 1)
    tables = {}
    for method in cfg.methods:
        cells = grid_cells(connectomes, train, test, method, K_values, L_values, cfg)
        tables[f"grid_{method}.csv"] = [[cell.K, cell.L, _fmt(cell.accuracy)] for cell in cells]
        log.info("grid for %s: %d feasible cells", method, len(cells))
    return _write_tables(cfg, GRID_MANIFEST_FORMAT, ["K", "L", "accuracy"], tables,
                         K_range=list(cfg.K_range), L_range=list(cfg.L_range))


def cmd_ablate(cfg: ExperimentConfig) -> int:
    train, test = cfg.train_session, cfg.test_sessions[0]
    cohort = _cohort(cfg, [test], cfg.methods)
    check_networks(cfg.n_networks, cohort.shape[0])
    connectomes = session_connectomes(cohort, train, [test])
    tables = {}
    for method in cfg.methods:
        base, accuracies = ablation(connectomes, cfg.n_networks, train, test, method, cfg)
        rows = [["none", _fmt(base), _fmt(0.0)]]
        rows += [[f"net{g:02d}", _fmt(acc), _fmt(None if acc is None else acc - base)]
                 for g, acc in enumerate(accuracies)]
        tables[f"ablation_{method}.csv"] = rows
        log.info("ablation for %s: %d networks", method, len(accuracies))
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
        p.add_argument("--out", default=None, help="override output_dir")
    insp = sub.add_parser("inspect", help="print a matrix container header")
    insp.add_argument("path", help="container file to inspect")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # a library warning is one log line, without the source path and line
        # every occurrence, not once per call site as the default filter does
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: log.warning("warning: %s", message)
        try:
            if args.command == "inspect":
                return cmd_inspect(args.path)
            cfg = load_config(args.config)
            if args.out:
                cfg.output_dir = args.out
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
