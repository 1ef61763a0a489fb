"""The benchmark workloads: inputs made from the seed, measured work units,
output checks, and the numbers each reports.

Every workload owns ``cohorts`` inputs made from the workload seed. Unit r
works on input ``r % cohorts``; a run always does one unit per input (so the
quality figures cover the same inputs on every run), then repeats units while
another one fits in the time given. A unit that repeats an input must give
byte-identical results, which checks that the pipeline is deterministic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import connfp.cli
import connfp.fingerprint
import connfp.synth
from connfp.config import example_config
from connfp.convae import TrainConfig
from connfp.fingerprint import PipelineOptions
from connfp.synth import CohortConfig

from . import checks
from .tracing import CAPTURED, TARGETS, Recorder

METHODS = ("finn_raw", "baseline_groupavg", "convae_sdl")
REFINED = METHODS[1:]
TRAIN, TEST = "rest", "motor"
CLI_SESSIONS = ("rest", "motor", "wm", "emotion")
# the mixed cohort of acceptance criterion 5: a weak subject signature under
# stronger task- and group-shared structure
MIXED = {"subject_strength": 1.0, "task_strength": 3.0, "group_strength": 2.0, "noise_std": 1.0}
SETUP_WARMUPS = 2  # set-ups before the first unit; one more runs before each unit
ORDER_GAP = 0.05
CHILD_TIMEOUT_S = 150

SMOKE_OPTS = {"K": 4, "L": 2, "sdl_iters": 5, "epochs": 20}
SIZES = {
    "full": {
        "pipeline-mixed": {"cohorts": 5, "n": 30, "p": 32, "T": 300, "opts": {}},
        "grid-sweep": {"cohorts": 3, "n": 30, "p": 32, "T": 300, "opts": {},
                       "K_values": (4, 8, 12, 16), "L_values": (2, 3)},
        "cli-run": {"cohorts": 2, "n": 30, "p": 32, "T": 300, "opts": {}, "n_perm": 1000},
    },
    "smoke": {
        "pipeline-mixed": {"cohorts": 2, "n": 16, "p": 12, "T": 100, "opts": SMOKE_OPTS},
        "grid-sweep": {"cohorts": 1, "n": 16, "p": 12, "T": 100, "opts": SMOKE_OPTS,
                       "K_values": (2, 4), "L_values": (2,)},
        "cli-run": {"cohorts": 1, "n": 16, "p": 12, "T": 100, "opts": SMOKE_OPTS, "n_perm": 20},
    },
}
PROBE_COHORT = {"n_subjects": 6, "p_rois": 8, "n_timepoints": 60, "seed": 0}


def derived_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def pipeline_options(seed: int, overrides: dict) -> PipelineOptions:
    opts = PipelineOptions(seed=seed)
    if overrides:
        opts = dataclasses.replace(
            opts, K=overrides["K"], L=overrides["L"], sdl_iters=overrides["sdl_iters"],
            train_cfg=TrainConfig(epochs=overrides["epochs"]))
    return opts


class Workload:
    name = ""

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.size = size
        self.cohorts = size["cohorts"]
        self.seeds = [derived_seed(self.name, seed, c) for c in range(self.cohorts)]
        self.opts = [pipeline_options(s, size["opts"]) for s in self.seeds]
        self.workdir = workdir
        self.recorder = Recorder(timed=False)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # distinct messages of failed operations
        self.errors: list[str] = []  # failed output checks

    def cohort_config(self, c: int, sessions=(TRAIN, TEST)) -> CohortConfig:
        return CohortConfig(n_subjects=self.size["n"], p_rois=self.size["p"],
                            n_timepoints=self.size["T"], sessions=tuple(sessions),
                            seed=self.seeds[c], **MIXED)

    def fail(self, message: str) -> None:
        self.failed += 1
        if message not in self.failures:
            self.failures.append(message)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def setup(self, in_process: bool = True) -> None:
        """Make the inputs; in process this is ``generate_cohort`` per cohort."""
        self.inputs = [connfp.synth.generate_cohort(self.cohort_config(c))
                       for c in range(self.cohorts)]

    def unit(self, r: int, in_process: bool = True) -> float:
        """Run work unit r and return its wall time as the user would see it."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def quality(self) -> dict:
        """method -> {"acc": [...], "idiff": [...]} over one pass of the inputs."""
        raise NotImplementedError


class PipelineMixed(Workload):
    """The paper's method comparison: three run_pipeline calls per cohort."""

    name = "pipeline-mixed"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.results: dict = {}

    def unit(self, r, in_process=True):
        c = r % self.cohorts
        wall = 0.0
        for method in METHODS:
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = connfp.fingerprint.run_pipeline(
                    self.inputs[c], TRAIN, TEST, method, self.opts[c])
            except Exception as exc:  # a failed operation is counted, not fatal
                self.fail(f"{method}: {exc!r}")
                continue
            wall += perf_counter() - t0
            first = self.results.setdefault((c, method), result)
            if not np.array_equal(first.simmat.values, result.simmat.values):
                self.errors.append(f"cohort {c} {method}: a rerun changed the similarity matrix")
        return wall

    def check(self):
        accs = self.quality()
        for (c, method), result in sorted(self.results.items()):
            S = result.simmat.values
            label = f"cohort {c} {method}"
            if checks.accuracy(S) != result.accuracy:
                self.errors.append(f"{label}: reported accuracy {result.accuracy} "
                                   f"!= recomputed {checks.accuracy(S)}")
            if method == "finn_raw":
                cohort = self.inputs[c]
                self.errors += checks.check_finn(
                    S, [cohort.series(s, TRAIN) for s in cohort.subject_ids],
                    [cohort.series(s, TEST) for s in cohort.subject_ids], label)
        check_captured(self)
        finn = statistics.fmean(accs["finn_raw"]["acc"] or [0.0])
        for method in REFINED:
            mean = statistics.fmean(accs[method]["acc"] or [0.0])
            if mean < finn + ORDER_GAP:
                self.errors.append(f"mean {method} accuracy {mean:.3f} does not beat "
                                   f"finn_raw {finn:.3f} by {ORDER_GAP:.2f}")

    def quality(self):
        out = {m: {"acc": [], "idiff": []} for m in METHODS}
        for (c, method), result in sorted(self.results.items()):
            out[method]["acc"].append(result.accuracy)
            out[method]["idiff"].append(checks.idiff(result.simmat.values))
        return out


class GridSweep(Workload):
    """grid_search for baseline_groupavg over the (K, L) grid, one cohort per unit."""

    name = "grid-sweep"
    method = "baseline_groupavg"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.cells: dict = {}
        self.sims: dict = {}

    def unit(self, r, in_process=True):
        c = r % self.cohorts
        self.attempted += 1
        t0 = perf_counter()
        try:
            cells = connfp.fingerprint.grid_search(
                self.inputs[c], TRAIN, TEST, self.method,
                self.size["K_values"], self.size["L_values"], self.opts[c])
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"grid_search: {exc!r}")
            return perf_counter() - t0
        wall = perf_counter() - t0
        table = [(cell.K, cell.L, cell.accuracy) for cell in cells]
        if self.cells.setdefault(c, table) != table:
            self.errors.append(f"cohort {c}: a rerun changed the grid accuracies")
        if c not in self.sims:
            self.sims[c] = [rec["out"].values for rec in
                            self.recorder.records("fingerprint.similarity_matrix", unit=r)]
        return wall

    def check(self):
        K_values, L_values = self.size["K_values"], self.size["L_values"]
        expected = [(K, L) for K in K_values for L in L_values if L <= K]
        K0, L0 = K_values[1 if len(K_values) > 1 else 0], L_values[-1]
        for c, table in sorted(self.cells.items()):
            sims = self.sims[c]
            if [(K, L) for K, L, _ in table] != expected or len(sims) != len(table):
                self.errors.append(f"cohort {c}: grid cells {table} do not cover {expected}")
                continue
            for (K, L, acc), S in zip(table, sims):
                if checks.accuracy(S) != acc:
                    self.errors.append(f"cohort {c} K={K} L={L}: accuracy {acc} "
                                       f"!= recomputed {checks.accuracy(S)}")
            alone = connfp.fingerprint.run_pipeline(
                self.inputs[c], TRAIN, TEST, self.method,
                dataclasses.replace(self.opts[c], K=K0, L=L0))
            i = expected.index((K0, L0))
            if alone.accuracy != table[i][2] or not np.array_equal(alone.simmat.values, sims[i]):
                self.errors.append(f"cohort {c}: grid cell K={K0} L={L0} differs from a "
                                   "standalone run_pipeline")
        check_captured(self)

    def quality(self):
        out = {m: {"acc": [], "idiff": []} for m in METHODS}
        for c, table in sorted(self.cells.items()):
            out[self.method]["acc"] += [acc for _, _, acc in table]
            out[self.method]["idiff"] += [checks.idiff(S) for S in self.sims[c]]
        return out


def check_captured(wl: Workload) -> None:
    """Method properties of every K-SVD and autoencoder call the run made."""
    for i, rec in enumerate(wl.recorder.records("sparse.ksvd")):
        wl.errors += checks.check_ksvd(rec["Y"], rec["L"], rec["out"], f"ksvd call {i}")
    for i, rec in enumerate(wl.recorder.records("convae.train")):
        wl.errors += checks.check_loss_history(rec["history"], f"train call {i}")


class CliRun(Workload):
    """``connfp synth`` then ``connfp run`` as subprocesses, plus two failure probes."""

    name = "cli-run"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.inputs_dir = workdir / "inputs"
        self.outputs: dict = {}
        self.runs = 0
        self.rss_mb = 0.0
        configs = workdir / "configs"
        configs.mkdir(parents=True, exist_ok=True)
        self.synth_cfgs, self.run_cfgs = [], []
        for c in range(self.cohorts):
            cohort = self.cohort_config(c, CLI_SESSIONS)
            cfg = self._config(dataclasses.asdict(cohort), self.inputs_dir / f"cohort{c}")
            self.synth_cfgs.append(self._write(configs / f"synth{c}.json", cfg))
            cfg.update(cohort_dir=str(self.inputs_dir / f"cohort{c}"),
                       test_sessions=list(CLI_SESSIONS[1:]), n_perm=size["n_perm"])
            self.run_cfgs.append(self._write(configs / f"run{c}.json", cfg))
        probe = dict(PROBE_COHORT, sessions=[TRAIN, TEST], **MIXED)
        cfg = self._config(probe, self.inputs_dir / "probe")
        self.probe_synth = self._write(configs / "probe_synth.json", cfg)
        self.probes = []
        for kind in ("no_entries", "flipped_byte"):
            cfg.update(cohort_dir=str(self.inputs_dir / f"probe_{kind}"),
                       methods=["finn_raw"], n_perm=10)
            self.probes.append((kind, self._write(configs / f"probe_{kind}.json", cfg)))
        self.env = dict(os.environ)
        src = str(Path(connfp.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def _config(self, cohort: dict, output_dir: Path) -> dict:
        cfg = example_config()
        cfg["cohort"] = {k: (list(v) if isinstance(v, tuple) else v)
                         for k, v in cohort.items()}
        cfg["output_dir"] = str(output_dir)
        cfg["seed"] = cfg["cohort"]["seed"]
        cfg["test_sessions"] = [TEST]
        opts = self.size["opts"]
        if opts:
            cfg.update(K=opts["K"], L=opts["L"], sdl_iters=opts["sdl_iters"])
            cfg["ae"]["epochs"] = opts["epochs"]
        return cfg

    @staticmethod
    def _write(path: Path, cfg: dict) -> Path:
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        return path

    def connfp(self, argv, in_process: bool):
        """Run the command line; return (exit code, wall s, peak RSS MB, stderr text).

        In process, an exception escaping ``main`` is reported as exit code None.
        """
        if in_process:
            t0 = perf_counter()
            try:
                rc = connfp.cli.main([str(a) for a in argv])
            except Exception:  # an escaping exception is the outcome being judged
                rc = None
            return rc, perf_counter() - t0, 0.0, ""
        log = self.workdir / "child.stderr"
        with open(log, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "connfp.cli", *map(str, argv)],
                                    stdout=subprocess.DEVNULL, stderr=err, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, log.read_text(errors="replace")

    def setup(self, in_process=False):
        shutil.rmtree(self.inputs_dir, ignore_errors=True)
        self.inputs_dir.mkdir(parents=True)
        for cfg in [*self.synth_cfgs, self.probe_synth]:
            rc, _, _, err = self.connfp(["synth", cfg], in_process)
            if rc != 0:
                raise RuntimeError(f"connfp synth {cfg.name} exited {rc}: {err[-2000:]}")
        probe = self.inputs_dir / "probe"
        no_entries = self.inputs_dir / "probe_no_entries"
        shutil.copytree(probe, no_entries)
        manifest = json.loads((probe / "manifest.json").read_text(encoding="utf-8"))
        first_file = manifest["entries"][0]["file"]
        del manifest["entries"]
        (no_entries / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        flipped = self.inputs_dir / "probe_flipped_byte"
        shutil.copytree(probe, flipped)
        blob = bytearray((flipped / first_file).read_bytes())
        (length,) = struct.unpack_from("<Q", blob, 0)
        blob[8 + length] ^= 0x01  # lowest mantissa byte of the first value: stays finite
        (flipped / first_file).write_bytes(bytes(blob))
        self.flipped_file = first_file

    def unit(self, r, in_process=False):
        c = r % self.cohorts
        out = self.workdir / f"out{self.runs}"
        self.runs += 1
        self.attempted += 1
        rc, wall, rss, err = self.connfp(["run", self.run_cfgs[c], "--out", out], in_process)
        self.rss_mb = max(self.rss_mb, rss)
        if rc != 0:
            self.fail(f"connfp run exited {rc}: {err.strip()[-300:]}")
        else:
            first = self.outputs.setdefault(c, out)
            if first != out:
                if (first / "manifest.json").read_bytes() != (out / "manifest.json").read_bytes():
                    self.errors.append(f"cohort {c}: a rerun of connfp run changed the manifest")
                shutil.rmtree(out)
        self.run_probes()
        return wall

    def run_probes(self) -> None:
        """Malformed cohorts must end in a documented exit code, with no traceback."""
        for kind, cfg in self.probes:
            self.attempted += 1
            rc, _, _, err = self.connfp(["run", cfg, "--out", self.workdir / "probe_out"], False)
            if kind == "no_entries":
                ok = rc == 2
                expect = "exit 2"
            else:
                ok = rc in (2, 3) and self.flipped_file in err
                expect = f"exit 2 or 3 naming {self.flipped_file}"
            if not ok or "Traceback" in err:
                tail = err.strip().splitlines()[-1:] or [""]
                self.fail(f"probe {kind}: exit {rc}, expected {expect}; stderr ends {tail[0]!r}")

    def peak_rss_mb(self):
        return self.rss_mb

    def check(self):
        self.sims = {}
        for c in range(self.cohorts):
            cohort_dir = self.inputs_dir / f"cohort{c}"
            self.errors += checks.check_manifest(cohort_dir, "entries")
            if c not in self.outputs:
                continue
            errors, self.sims[c] = checks.check_run_dir(
                self.outputs[c], cohort_dir, self.size["n_perm"],
                self.size["opts"].get("L", example_config()["L"]))
            self.errors += errors

    def quality(self):
        out = {m: {"acc": [], "idiff": []} for m in METHODS}
        for c, sims in sorted(self.sims.items()):
            for (test, method), S in sorted(sims.items()):
                out[method]["acc"].append(checks.accuracy(S))
                out[method]["idiff"].append(checks.idiff(S))
        return out


WORKLOADS = {wl.name: wl for wl in (PipelineMixed, GridSweep, CliRun)}


# ---------------------------------------------------------------------------
# measured and traced runs


def _run_units(wl: Workload, seconds: float, in_process: bool, before=None) -> list[float]:
    """One unit per input, then more while another is expected to fit in ``seconds``."""
    walls, durations = [], []
    start = perf_counter()
    r = 0
    while r < wl.cohorts or perf_counter() - start + max(durations) <= seconds:
        t0 = perf_counter()
        if before is not None:
            before()
        wl.recorder.unit = r
        walls.append(wl.unit(r, in_process))
        durations.append(perf_counter() - t0)
        r += 1
    return walls


def measure(wl: Workload, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the raw samples behind them.

    The machine's speed drifts by about 10% from one half-minute to the next,
    so set-up is repeated before every unit, and the unit figure is the
    mean over the whole window rather than the median of its few units (each
    unit is a different cohort, whose cost differs too).
    """
    setups = []

    def timed_setup():
        t0 = perf_counter()
        wl.setup(in_process=False)
        setups.append(perf_counter() - t0)

    for _ in range(SETUP_WARMUPS):
        timed_setup()
    with wl.recorder.patched(CAPTURED):
        walls = _run_units(wl, seconds, in_process=False, before=timed_setup)
    wl.check()
    quality = wl.quality()
    refined_acc = [a for m in REFINED for a in quality[m]["acc"]]
    refined_idiff = [d for m in REFINED for d in quality[m]["idiff"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "acc_mean": (statistics.fmean(refined_acc or [0.0]), "fraction"),
        "idiff_mean": (statistics.fmean(refined_idiff or [0.0]), "similarity"),
    }
    return metrics, {"setup_s": setups, "unit_wall_s": walls}


def trace(wl: Workload) -> tuple[dict, dict, Recorder]:
    """Traced run: one traced unit per input, for the per-layer metrics.

    Unit 0 also runs untraced first; the difference is the tracing overhead.
    """
    traced = Recorder(timed=True)
    wl.recorder = traced
    with traced.patched(TARGETS):
        wl.setup(in_process=True)
    setup_spans = len(traced.spans)
    traced.calls.clear()  # layer figures count the work units only
    wl.recorder = Recorder(timed=False)
    with wl.recorder.patched(CAPTURED):
        wl.recorder.unit = 0
        untraced_wall = wl.unit(0, in_process=True)
    wl.recorder = traced
    with traced.patched(TARGETS):
        walls = [None] * wl.cohorts
        for r in range(wl.cohorts):
            traced.unit = r
            walls[r] = wl.unit(r, in_process=True)
    wl.check()
    metrics = layer_metrics(wl, traced, setup_spans, walls, untraced_wall)
    return metrics, {"unit_wall_s": walls, "untraced_unit0_wall_s": untraced_wall}, traced


def _useful_ratio(rec: Recorder, name: str) -> float:
    rows = rec.records(name)
    if not rows:
        return 0.0
    distinct = sum(len({row["key"] for row in rec.records(name, u)})
                   for u in {row["unit"] for row in rows})
    return distinct / len(rows)


def layer_metrics(wl, rec: Recorder, first: int, walls, untraced_wall) -> dict:
    units = len(walls)
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    incl, self_time = {}, {}
    for i in range(first, len(spans)):
        name, start, end, _ = spans[i]
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
    covered = sum(end - start for name, start, end, parent in spans[first:]
                  if parent == -1 and name != "trace.hooks")

    def per_unit(name, table=incl):
        return table.get(name, 0.0) / units

    def rate(name, field):
        total = incl.get(name, 0.0)
        return sum(row[field] for row in rec.records(name)) / total if total else 0.0

    def calls(name):
        return len(rec.records(name)) / units

    def mean_of(values):
        return statistics.fmean(values) if values else 0.0

    ksvd = rec.records("sparse.ksvd")
    trains = rec.records("convae.train")
    pipelines = rec.records("fingerprint.run_pipeline") + rec.records(
        "fingerprint.run_pipeline_with_artifacts")
    setup_generate = [end - start for name, start, end, _ in spans[:first]
                      if name == "synth.generate_cohort"]
    quality = wl.quality()
    m = {
        "synth.generate_cohort_s": (statistics.median(setup_generate) if setup_generate
                                    else 0.0, "s"),
        "connectome.detrend_s": (per_unit("connectome.detrend"), "s"),
        "connectome.pearson_fc_s": (per_unit("connectome.pearson_fc"), "s"),
        "connectome.pearson_fc_calls": (calls("connectome.pearson_fc"), "count"),
        "connectome.pearson_fc_useful_ratio": (_useful_ratio(rec, "connectome.pearson_fc"),
                                               "fraction"),
        "convae.train_s": (per_unit("convae.train"), "s"),
        "convae.train_samples_per_s": (rate("convae.train", "samples"), "samples/s"),
        "convae.train_calls": (calls("convae.train"), "count"),
        "convae.train_useful_ratio": (_useful_ratio(rec, "convae.train"), "fraction"),
        "convae.residual_s": (per_unit("convae.residual"), "s"),
        "convae.residual_calls": (calls("convae.residual"), "count"),
        "convae.final_loss": (mean_of([float(r["history"][-1]) for r in trains]), "mse"),
        "sparse.ksvd_s": (per_unit("sparse.ksvd"), "s"),
        "sparse.ksvd_columns_per_s": (rate("sparse.ksvd", "column_iters"), "columns/s"),
        "sparse.ksvd_calls": (calls("sparse.ksvd"), "count"),
        "sparse.ksvd_useful_ratio": (_useful_ratio(rec, "sparse.ksvd"), "fraction"),
        "sparse.ksvd_rel_objective": (mean_of([
            float(r["out"][2].objective_history[-1] / np.sum(r["Y"] ** 2)) for r in ksvd]),
            "fraction"),
        "sparse.replaced_atoms": (mean_of([
            float(np.sum(r["out"][2].replaced_atoms)) for r in ksvd]), "count"),
        "fingerprint.similarity_matrix_s": (per_unit("fingerprint.similarity_matrix"), "s"),
        "fingerprint.run_pipeline_self_s": (sum(
            per_unit(n, self_time) for n in ("fingerprint.run_pipeline",
                                             "fingerprint.run_pipeline_with_artifacts",
                                             "fingerprint.grid_search")), "s"),
        "fingerprint.permutation_test_s": (per_unit("fingerprint.permutation_test"), "s"),
        "fingerprint.permutations_per_s": (rate("fingerprint.permutation_test", "n_perm"),
                                           "1/s"),
    }
    for method in METHODS:
        durations = [spans[r["span"]][2] - spans[r["span"]][1]
                     for r in pipelines if r["method"] == method]
        m[f"fingerprint.{method}_s"] = (mean_of(durations), "s")
        m[f"fingerprint.acc_{method}"] = (mean_of(quality[method]["acc"]), "fraction")
        m[f"fingerprint.idiff_{method}"] = (mean_of(quality[method]["idiff"]), "similarity")
    writes = rec.records("container.write_matrix")
    m.update({
        "container.write_matrix_s": (per_unit("container.write_matrix"), "s"),
        "container.write_matrix_calls": (calls("container.write_matrix"), "count"),
        "container.write_useful_ratio": (_useful_ratio(rec, "container.write_matrix"),
                                         "fraction"),
        "container.bytes_written": (sum(r["bytes"] for r in writes) / units, "B"),
        "container.read_matrix_s": (per_unit("container.read_matrix"), "s"),
        "container.bytes_read": (sum(r["bytes"] for r in rec.records("container.read_matrix"))
                                 / units, "B"),
        "container.sha256_file_s": (per_unit("container.sha256_file"), "s"),
        "cli.load_cohort_s": (per_unit("cli.load_cohort"), "s"),
        "cli.cmd_run_self_s": (per_unit("cli.cmd_run", self_time), "s"),
        "trace.overhead_s": (walls[0] - untraced_wall, "s"),
        "trace.hooks_s": (per_unit("trace.hooks"), "s"),
        "trace.coverage": (covered / sum(walls), "fraction"),
        "trace.uncovered_s": ((sum(walls) - covered) / units, "s"),
    })
    return m
