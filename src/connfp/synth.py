"""Synthetic multi-session ROI time-series cohorts with planted identity structure.

Each (subject, session) series mixes three low-rank latent components on top
of isotropic noise: a subject component whose spatial loadings are fixed
across sessions, a session component shared by all subjects within a session,
and a group component shared by everyone. The relative strengths control how
identifiable subjects are downstream, so pipeline claims can be exercised
without any real imaging data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .rng import substream

DEFAULT_SESSIONS = ("rest", "motor", "wm", "emotion")

# substream tags used by generate_cohort (see its docstring)
_SUBJECT_LOADINGS = 0
_SESSION_LOADINGS = 1
_GROUP_LOADINGS = 2
_SERIES = 3

_MAX_SEED = 2**64


def _check_int(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_strength(name: str, value) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(v) or v < 0.0:
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value!r}")
    return v


@dataclass
class CohortConfig:
    """Parameters of the synthetic generative model."""

    n_subjects: int = 10
    p_rois: int = 16
    n_timepoints: int = 200
    sessions: tuple[str, ...] = DEFAULT_SESSIONS
    subject_strength: float = 1.0
    group_strength: float = 1.0
    task_strength: float = 1.0
    noise_std: float = 1.0
    rank_subject: int = 3
    rank_group: int = 3
    rank_task: int = 3
    # Optional restriction of the subject component to a subset of ROIs;
    # rows outside the set carry no subject-specific signal.
    subject_rois: tuple[int, ...] | None = None
    seed: int = 0

    def validate(self) -> None:
        _check_int("cohort.n_subjects", self.n_subjects, 2)
        _check_int("cohort.p_rois", self.p_rois, 4)
        _check_int("cohort.n_timepoints", self.n_timepoints, 1)
        if self.n_timepoints < self.p_rois:
            raise ConfigurationError(
                f"cohort.n_timepoints must be >= p_rois ({self.p_rois}), got {self.n_timepoints}"
            )
        if not self.sessions:
            raise ConfigurationError("cohort.sessions must be a non-empty list of labels")
        labels = [str(s) for s in self.sessions]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"cohort.sessions contains duplicate labels: {labels}")
        for key in ("subject_strength", "group_strength", "task_strength", "noise_std"):
            _check_strength(f"cohort.{key}", getattr(self, key))
        for key in ("rank_subject", "rank_group", "rank_task"):
            _check_int(f"cohort.{key}", getattr(self, key), 0)
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ConfigurationError(f"cohort.seed must be an integer, got {self.seed!r}")
        if not (0 <= self.seed < _MAX_SEED):
            raise ConfigurationError(f"cohort.seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.subject_rois is not None:
            rois = [_check_int("cohort.subject_rois entry", r, 0) for r in self.subject_rois]
            if not rois:
                raise ConfigurationError("cohort.subject_rois must be non-empty when given")
            if len(set(rois)) != len(rois):
                raise ConfigurationError(f"cohort.subject_rois contains duplicates: {rois}")
            if max(rois) >= self.p_rois:
                raise ConfigurationError(
                    f"cohort.subject_rois references ROI {max(rois)} but p_rois is {self.p_rois}"
                )


@dataclass
class TimeSeriesSet:
    """All series of a cohort, keyed by (subject_id, session_label)."""

    data: dict[tuple[str, str], np.ndarray]
    subject_ids: list[str]
    session_labels: list[str]

    def __post_init__(self):
        if not self.subject_ids or not self.session_labels:
            raise ConfigurationError("TimeSeriesSet needs at least one subject and one session")
        shape = None
        for sid in self.subject_ids:
            for ses in self.session_labels:
                key = (sid, ses)
                if key not in self.data:
                    raise ConfigurationError(f"TimeSeriesSet is missing series for {key}")
                x = np.asarray(self.data[key], dtype=float)
                if x.ndim != 2:
                    raise DimensionError(f"series {key} must be 2-d, got shape {x.shape}")
                if shape is None:
                    shape = x.shape
                elif x.shape != shape:
                    raise DimensionError(
                        f"series {key} has shape {x.shape}, expected {shape} like the rest"
                    )
                if not np.all(np.isfinite(x)):
                    raise ValueError(f"series {key} contains non-finite values")
                self.data[key] = x

    @property
    def shape(self) -> tuple[int, int]:
        """(p_rois, n_timepoints) shared by every series."""
        first = (self.subject_ids[0], self.session_labels[0])
        return self.data[first].shape

    def series(self, subject_id: str, session_label: str) -> np.ndarray:
        key = (subject_id, session_label)
        if key not in self.data:
            raise KeyError(f"no series stored for {key}")
        return self.data[key]


@dataclass
class NetworkPartition:
    """Assignment of every ROI to exactly one named network."""

    assignment: np.ndarray
    names: list[str]

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        if a.ndim != 1 or a.size == 0:
            raise DimensionError("partition assignment must be a non-empty 1-d array")
        g = len(self.names)
        if g == 0:
            raise ConfigurationError("partition needs at least one network name")
        if a.min() < 0 or a.max() >= g:
            raise ConfigurationError(
                f"partition assignment references network {a.max()} but only {g} names given"
            )
        counts = np.bincount(a, minlength=g)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise ConfigurationError(f"network {empty[0]} ({self.names[empty[0]]}) has no ROIs")
        self.assignment = a

    @property
    def n_networks(self) -> int:
        return len(self.names)

    @property
    def p_rois(self) -> int:
        return self.assignment.size


def default_partition(p_rois: int, n_networks: int) -> NetworkPartition:
    """Contiguous near-equal blocks; the first (p mod g) networks get one extra ROI."""
    p = _check_int("p_rois", p_rois, 1)
    g = _check_int("n_networks", n_networks, 1)
    if g > p:
        raise ConfigurationError(f"cannot split {p} ROIs into {g} networks")
    base, rem = divmod(p, g)
    assignment = np.empty(p, dtype=int)
    start = 0
    for k in range(g):
        size = base + (1 if k < rem else 0)
        assignment[start : start + size] = k
        start += size
    names = [f"net{k:02d}" for k in range(g)]
    return NetworkPartition(assignment, names)


def generate_cohort(config: CohortConfig) -> TimeSeriesSet:
    """Draw a deterministic synthetic cohort.

    Stream layout (all derived from ``config.seed`` via ``rng.substream``):

    ==================  =====================================================
    tags                draws
    ==================  =====================================================
    (0, i)              subject loadings A_i, shape (p, rank_subject)
    (1, s)              session loadings B_s for session index s,
                        shape (p, rank_task)
    (2,)                group loadings G, shape (p, rank_group)
    (3, i, s)           per-(subject, session) time processes, in order:
                        u (rank_subject, T), v (rank_task, T),
                        w (rank_group, T), eps (p, T)
    ==================  =====================================================

    Series(i, s) = subject_strength * A_i @ u + task_strength * B_s @ v
                 + group_strength * G @ w + noise_std * eps

    A_i is fixed across sessions, B_s is shared by all subjects within a
    session, G is global, and u, v, w, eps are redrawn per (subject, session).
    """
    config.validate()
    p, T = config.p_rois, config.n_timepoints
    seed = config.seed
    subject_ids = [f"sub{i:03d}" for i in range(config.n_subjects)]
    session_labels = [str(s) for s in config.sessions]

    roi_mask = None
    if config.subject_rois is not None:
        roi_mask = np.zeros(p)
        roi_mask[list(config.subject_rois)] = 1.0

    group_loadings = substream(seed, _GROUP_LOADINGS).standard_normal((p, config.rank_group))
    session_loadings = {
        s: substream(seed, _SESSION_LOADINGS, si).standard_normal((p, config.rank_task))
        for si, s in enumerate(session_labels)
    }

    data: dict[tuple[str, str], np.ndarray] = {}
    for i, sid in enumerate(subject_ids):
        subject_loadings = substream(seed, _SUBJECT_LOADINGS, i).standard_normal(
            (p, config.rank_subject)
        )
        if roi_mask is not None:
            subject_loadings = subject_loadings * roi_mask[:, None]
        for si, ses in enumerate(session_labels):
            g = substream(seed, _SERIES, i, si)
            u = g.standard_normal((config.rank_subject, T))
            v = g.standard_normal((config.rank_task, T))
            w = g.standard_normal((config.rank_group, T))
            eps = g.standard_normal((p, T))
            x = (
                config.subject_strength * (subject_loadings @ u)
                + config.task_strength * (session_loadings[ses] @ v)
                + config.group_strength * (group_loadings @ w)
                + config.noise_std * eps
            )
            data[(sid, ses)] = x
    return TimeSeriesSet(data, subject_ids, session_labels)
