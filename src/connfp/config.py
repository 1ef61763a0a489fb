"""Experiment configuration: a single JSON file with nested sections.

Validation errors always name the offending field with its dotted path, so a
bad config fails fast with an actionable message (and exit code 2 from the
command line).
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .convae import ArchitectureConfig, TrainConfig
from .errors import ConfigurationError
from .fingerprint import METHODS, PipelineOptions, check_sessions
from .synth import CohortConfig

_HYPER_MIN, _HYPER_MAX = 2, 64


@dataclass
class ExperimentConfig(PipelineOptions):
    """PipelineOptions plus the cohort, the session pairs and the CLI settings.

    In JSON, ``arch`` and ``train_cfg`` share one ``ae`` object. It has no
    ``seed``: the autoencoder is always seeded from the top-level ``seed``.
    """

    cohort: CohortConfig = field(default_factory=CohortConfig)
    cohort_dir: str | None = None
    train_session: str = "rest"
    test_sessions: list[str] = field(default_factory=lambda: ["motor"])
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    K_range: tuple[int, int] = (2, 15)
    L_range: tuple[int, int] = (2, 15)
    n_perm: int = 1000
    n_networks: int = 12
    output_dir: str = "out"

    def validate(self) -> None:
        self.cohort.validate()
        if not self.test_sessions:
            raise ConfigurationError("test_sessions: must list at least one session")
        # cli checks a cohort_dir's labels against its manifest, before any read
        if not self.cohort_dir:
            check_sessions(self.cohort.sessions, self.train_session, self.test_sessions)
        if not self.methods:
            raise ConfigurationError("methods: must list at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigurationError(f"methods: unknown method {m!r}; choose from {METHODS}")
        for name in ("test_sessions", "methods"):
            values = list(getattr(self, name))
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{name}: contains duplicates: {values}")
        for name, value in (("K", self.K), ("L", self.L)):
            if not (_HYPER_MIN <= int(value) <= _HYPER_MAX):
                raise ConfigurationError(
                    f"{name}: must lie in [{_HYPER_MIN}, {_HYPER_MAX}], got {value}"
                )
        if self.L > self.K:
            raise ConfigurationError(f"L: must be <= K, got L={self.L} K={self.K}")
        for name, rng in (("K_range", self.K_range), ("L_range", self.L_range)):
            lo, hi = int(rng[0]), int(rng[1])
            if lo > hi:
                raise ConfigurationError(f"{name}: lower bound {lo} exceeds upper bound {hi}")
            if lo < _HYPER_MIN or hi > _HYPER_MAX:
                raise ConfigurationError(
                    f"{name}: bounds must lie in [{_HYPER_MIN}, {_HYPER_MAX}], got [{lo}, {hi}]"
                )
        super().validate()
        try:
            self.arch.validate()
            self.train_cfg.validate()
        except ConfigurationError as exc:
            raise ConfigurationError(f"ae: {exc}") from None
        if int(self.n_perm) < 0:
            raise ConfigurationError(f"n_perm: must be >= 0, got {self.n_perm}")
        if int(self.n_networks) < 1:
            raise ConfigurationError(f"n_networks: must be >= 1, got {self.n_networks}")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigurationError(f"seed: must be a 64-bit unsigned integer, got {self.seed}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _convert(value, hint, label: str):
    """Check one JSON value against a field's type hint and convert it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _convert(value, hint, label)
    if is_dataclass(hint):
        return hint(**_fields_from(hint, value, label))
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{label}: expected a list, got {value!r}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ConfigurationError(
                    f"{label}: expected a {len(args)}-element list, got {value!r}"
                )
            return tuple(_convert(v, a, label) for v, a in zip(value, args))
        return origin(_convert(v, args[0], label) for v in value)
    if hint is int:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif hint is float:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        ok, kind = isinstance(value, hint), f"a {hint.__name__}"
    if not ok:
        raise ConfigurationError(f"{label}: expected {kind}, got {value!r}")
    return float(value) if hint is float else value


def _fields_from(cls, raw, path: str, skip=()) -> dict:
    """Constructor arguments of dataclass ``cls`` for the keys ``raw`` sets."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: expected an object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls) if f.name not in skip]
    for key in raw:
        if key not in names:
            raise ConfigurationError(f"{_join(path, key)}: unknown key")
    return {key: _convert(raw[key], hints[key], _join(path, key)) for key in raw}


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config root must be an object, got {raw!r}")
    ae = raw.get("ae", {})
    if not isinstance(ae, dict):
        raise ConfigurationError(f"ae: expected an object, got {ae!r}")
    arch_keys = {f.name for f in fields(ArchitectureConfig)}
    top = {key: value for key, value in raw.items() if key != "ae"}
    cfg = ExperimentConfig(
        **_fields_from(ExperimentConfig, top, "", skip=("arch", "train_cfg")),
        arch=ArchitectureConfig(**_fields_from(
            ArchitectureConfig, {k: v for k, v in ae.items() if k in arch_keys}, "ae")),
        train_cfg=TrainConfig(**_fields_from(
            TrainConfig, {k: v for k, v in ae.items() if k not in arch_keys}, "ae")),
    )
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"config: cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"config: {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def example_config() -> dict:
    """A small, fast, fully explicit config dict (a starting point for edits)."""
    cfg = ExperimentConfig(
        cohort=CohortConfig(n_subjects=30, p_rois=32, n_timepoints=300,
                            sessions=("rest", "motor"), task_strength=3.0,
                            group_strength=2.0, seed=7),
        K_range=(2, 6),
        L_range=(2, 6),
        n_networks=4,
    )
    raw = json.loads(json.dumps(asdict(cfg)))
    raw["ae"] = {**raw.pop("arch"), **raw.pop("train_cfg")}
    return raw
