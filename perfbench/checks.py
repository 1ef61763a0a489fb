"""Output checks computed apart from the package.

Each function returns a list of messages, one per violated property; an empty
list means the output passed. Only numpy, hashlib and json are used here, so
a fault in the package cannot hide itself by also breaking its checker.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

UNIT_NORM_TOL = 1e-10
FINN_TOL = 1e-10
DESCENT_TOL = 1e-9


def read_container(path):
    """(header, array) from a matrix container: 8-byte LE length, JSON header, <f8 payload."""
    blob = Path(path).read_bytes()
    (length,) = struct.unpack_from("<Q", blob, 0)
    header = json.loads(blob[8 : 8 + length].decode("utf-8"))
    payload = blob[8 + length :]
    shape = tuple(header["shape"])
    if len(payload) != 8 * int(np.prod(shape, dtype=np.int64)):
        raise ValueError(f"{path}: payload length does not match shape {shape}")
    return header, np.frombuffer(payload, dtype="<f8").reshape(shape)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def accuracy(S) -> float:
    """Share of rows whose largest entry is on the diagonal (lowest index wins ties)."""
    S = np.asarray(S)
    return float(np.mean(np.argmax(S, axis=1) == np.arange(S.shape[0])))


def idiff(S) -> float:
    """Differential identifiability: mean self-similarity minus mean other-similarity."""
    S = np.asarray(S)
    n = S.shape[0]
    self_sim = np.trace(S) / n
    return float(self_sim - (S.sum() - np.trace(S)) / (n * (n - 1)))


def _edges(series) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    t = np.arange(x.shape[1], dtype=float)
    slope, intercept = np.polyfit(t, x.T, 1)
    c = np.corrcoef(x - np.outer(slope, t) - intercept[:, None])
    return c[np.triu_indices(c.shape[0], k=1)]


def finn_similarity(series_one, series_two) -> np.ndarray:
    """Raw Finn-style similarity: polyfit detrend, ROI correlations, edge Pearson."""
    a = np.array([_edges(x) for x in series_one])
    b = np.array([_edges(x) for x in series_two])
    n = len(a)
    return np.corrcoef(a, b)[:n, n:]


def check_finn(S, series_one, series_two, label: str) -> list[str]:
    ref = finn_similarity(series_one, series_two)
    gap = float(np.max(np.abs(np.asarray(S) - ref)))
    if gap > FINN_TOL:
        return [f"{label}: finn_raw similarity differs from the recomputation by {gap:.3g}"]
    return []


def check_ksvd(Y, L: int, out, label: str) -> list[str]:
    """Monotone objective, unit-norm atoms, at most L nonzeros per code column."""
    dictionary, codes, report = out
    D, X = np.asarray(dictionary.atoms), np.asarray(codes.codes)
    hist = np.asarray(report.objective_history, dtype=float)
    errors = []
    rises = np.diff(hist) > DESCENT_TOL * np.maximum(np.abs(hist[:-1]), 1e-300)
    if rises.any():
        errors.append(f"{label}: objective rises at iteration {int(np.argmax(rises)) + 1}")
    final = float(np.sum((Y - D @ X) ** 2))
    if abs(final - hist[-1]) > DESCENT_TOL * max(final, 1e-300):
        errors.append(f"{label}: recorded final objective {hist[-1]} != recomputed {final}")
    errors += check_atoms_and_codes(D, X, L, label)
    return errors


def check_atoms_and_codes(D, X, L: int, label: str) -> list[str]:
    errors = []
    gap = float(np.max(np.abs(np.linalg.norm(D, axis=0) - 1.0)))
    if gap > UNIT_NORM_TOL:
        errors.append(f"{label}: an atom norm is off 1 by {gap:.3g}")
    nnz = int(np.max(np.count_nonzero(X, axis=0)))
    if nnz > L:
        errors.append(f"{label}: a code column has {nnz} nonzeros, more than L={L}")
    return errors


def check_loss_history(history, label: str) -> list[str]:
    h = np.asarray(history, dtype=float)
    if h.size == 0 or not np.all(np.isfinite(h)):
        return [f"{label}: autoencoder loss history is empty or not finite"]
    return []


def check_manifest(directory, entries_key: str) -> list[str]:
    """Every file the manifest lists exists and hashes to its recorded SHA-256."""
    root = Path(directory)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    entries = manifest[entries_key]
    if not entries:
        return [f"{root}: manifest lists no files"]
    return [
        f"{root / e['file']}: SHA-256 does not match the manifest"
        for e in entries
        if sha256(root / e["file"]) != e["sha256"]
    ]


def check_run_dir(out, cohort_dir, n_perm: int, L: int) -> tuple[list[str], dict]:
    """Check a ``connfp run`` output directory; return (errors, {(test, method): S})."""
    out = Path(out)
    errors = check_manifest(out, "files")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    with open(out / "accuracy.csv", newline="", encoding="utf-8") as fh:
        rows = {(r["train_session"], r["test_session"]): r for r in csv.DictReader(fh)}
    train = summary["train_session"]
    cohort = _read_cohort(cohort_dir)
    sims = {}
    for record in summary["records"]:
        test = record["test_session"]
        row = rows.get((train, test))
        if row is None:
            errors.append(f"{out}: accuracy.csv has no row for {train} -> {test}")
            continue
        for method in summary["methods"]:
            label = f"{out.name} {train}->{test} {method}"
            _, S = read_container(out / f"simmat_{train}_{test}_{method}.bin")
            sims[(test, method)] = S
            acc = accuracy(S)
            if not (acc == record["accuracy"][method] == float(row[f"accuracy_{method}"])):
                errors.append(f"{label}: accuracy disagrees between simmat, summary and csv")
            p = record["p_value"][method]
            if not (1.0 / (n_perm + 1) <= p <= 1.0) or p != float(row[f"p_value_{method}"]):
                errors.append(f"{label}: p-value {p} out of range or disagrees with the csv")
            if method == "finn_raw":
                errors += check_finn(S, cohort[train], cohort[test], label)
    for path in sorted(out.glob("dictionary_*.bin")):
        _, D = read_container(path)
        _, X = read_container(out / path.name.replace("dictionary_", "codes_", 1))
        errors += check_atoms_and_codes(D, X, L, path.name)
    return errors, sims


def _read_cohort(cohort_dir) -> dict:
    """session -> list of (p, T) series in subject order, read without the package."""
    root = Path(cohort_dir)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    data = {(e["subject"], e["session"]): read_container(root / e["file"])[1]
            for e in manifest["entries"]}
    return {ses: [data[(sid, ses)] for sid in manifest["subjects"]]
            for ses in manifest["sessions"]}
