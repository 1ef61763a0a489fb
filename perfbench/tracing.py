"""Spans and call records taken from outside the program.

The package binds names at import (``from .sparse import ksvd``), so each
wrapper replaces the name where the caller looks it up, for instance
``connfp.fingerprint.ksvd`` rather than ``connfp.sparse.ksvd``. Every
replacement is undone when the ``patched`` block ends, also on error.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1. Spans stay in memory; the run writes them to its record
when it ends. The work a hook does after a call (hashing inputs, reading
file sizes) runs inside its own ``trace.hooks`` span, so it is not charged to
the calling layer's self time.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def digest(*parts) -> str:
    """Content hash of arrays, sequences of arrays and plain values."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, (list, tuple)):
            h.update(digest(*part).encode())
        elif isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(repr((arr.dtype.str, arr.shape)).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _pearson_fc(a, out):
    return {"key": digest(a["series"])}


def _train(a, out):
    _, history = out
    return {
        "key": digest(list(a["dataset"]), repr(a["arch"]), repr(a["cfg"])),
        "samples": int(a["cfg"].epochs) * len(a["dataset"]),
        "history": history,
    }


def _ksvd(a, out):
    Y = np.asarray(a["Y"], dtype=float)
    return {
        "key": digest(Y, a["K"], a["L"], a["iters"], a["seed"]),
        "Y": Y,
        "L": int(a["L"]),
        "out": out,
        "column_iters": Y.shape[1] * int(a["iters"]),
    }


def _permutation_test(a, out):
    return {"n_perm": int(a["n_perm"])}


def _file_size(a, out):
    return {"key": os.fspath(a["path"]), "bytes": os.path.getsize(a["path"])}


def _pipeline(a, out):
    return {"method": a["method"], "out": out}


def _similarity(a, out):
    return {"out": out}


# span name -> (places the caller looks the function up, hook or None)
TARGETS = {
    "synth.generate_cohort": (("connfp.synth", "connfp.cli"), "generate_cohort", None),
    "connectome.detrend": (("connfp.fingerprint",), "detrend", None),
    "connectome.pearson_fc": (("connfp.fingerprint",), "pearson_fc", _pearson_fc),
    "convae.train": (("connfp.fingerprint",), "train", _train),
    "convae.residual": (("connfp.fingerprint",), "residual", None),
    "sparse.ksvd": (("connfp.fingerprint",), "ksvd", _ksvd),
    "fingerprint.similarity_matrix": (("connfp.fingerprint",), "similarity_matrix", _similarity),
    "fingerprint.permutation_test": (("connfp.cli",), "permutation_test", _permutation_test),
    "fingerprint.run_pipeline": (("connfp.fingerprint",), "run_pipeline", _pipeline),
    "fingerprint.run_pipeline_with_artifacts": (
        ("connfp.cli",), "run_pipeline_with_artifacts", _pipeline),
    "fingerprint.grid_search": (("connfp.fingerprint",), "grid_search", None),
    "container.write_matrix": (("connfp.cli", "connfp.container"), "write_matrix", _file_size),
    "container.read_matrix": (("connfp.cli",), "read_matrix", _file_size),
    "container.sha256_file": (("connfp.cli",), "sha256_file", None),
    "cli.load_cohort": (("connfp.cli",), "load_cohort", None),
    "cli.cmd_run": (("connfp.cli",), "cmd_run", None),
}

# Captured without timing in untraced runs too: the output checks need what
# these calls returned, and keeping a reference costs no measurable time.
CAPTURED = ("convae.train", "sparse.ksvd", "fingerprint.similarity_matrix")


class Recorder:
    """Wraps package functions; records spans (when timed) and call records."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[list] = []
        self.calls: dict[str, list[dict]] = {}
        self.unit = -1  # index of the work unit the calls belong to; -1 is set-up
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = self._open(name) if self.timed else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self._close(idx)
            hook_idx = self._open("trace.hooks") if self.timed and hook else None
            try:
                info = {"unit": self.unit}
                if idx is not None:
                    info["span"] = idx
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info.update(hook(bound.arguments, out))
                self.calls.setdefault(name, []).append(info)
            finally:
                if hook_idx is not None:
                    self._close(hook_idx)
            return out

        return wrapper

    @contextmanager
    def patched(self, names):
        """Replace each named function where its callers look it up; undo on exit."""
        saved = []
        try:
            for name in names:
                modules, attr, hook = TARGETS[name]
                for mod_name in modules:
                    module = importlib.import_module(mod_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def records(self, name: str, unit=None) -> list[dict]:
        rows = self.calls.get(name, [])
        return rows if unit is None else [r for r in rows if r["unit"] == unit]
