"""Synthetic multi-session ROI time-series cohorts with planted identity structure.

Each (subject, session) series mixes three low-rank latent components on top
of isotropic noise: a subject component whose spatial loadings are fixed
across sessions, a session component shared by all subjects within a session,
and a group component shared by everyone. The relative strengths control how
identifiable subjects are downstream, so pipeline claims can be exercised
without any real imaging data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .rng import substream

DEFAULT_SESSIONS = ("rest", "motor", "wm", "emotion")

# substream tags used by SyntheticCohort (see its docstring)
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


def generate_cohort(config: CohortConfig) -> SyntheticCohort:
    """The deterministic synthetic cohort of ``config`` (see SyntheticCohort)."""
    return SyntheticCohort(config)


class SyntheticCohort:
    """A generated cohort that draws each series when it is asked for.

    It holds the config, the subject ids and session labels, the shape, the
    group loadings and the subject ROI mask; ``series`` draws the rest, so a
    caller that drops each series before asking for the next holds one at a
    time. An unknown subject or session raises KeyError.

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
    Every draw of series (i, s) comes from its own substreams, so its bytes
    depend neither on the number of subjects nor on the order of the calls.
    """

    def __init__(self, config: CohortConfig):
        config.validate()
        self.config = replace(config)  # a later edit of the caller's config moves no draw
        self.subject_ids = [f"sub{i:03d}" for i in range(config.n_subjects)]
        self.session_labels = [str(s) for s in config.sessions]
        self.shape = (config.p_rois, config.n_timepoints)
        self._group_loadings = substream(config.seed, _GROUP_LOADINGS).standard_normal(
            (config.p_rois, config.rank_group))
        self._roi_mask = None
        if config.subject_rois is not None:
            self._roi_mask = np.zeros(config.p_rois)
            self._roi_mask[list(config.subject_rois)] = 1.0

    def series(self, subject_id: str, session_label: str) -> np.ndarray:
        if subject_id not in self.subject_ids or session_label not in self.session_labels:
            raise KeyError(f"no series for {(subject_id, session_label)}")
        i, s = self.subject_ids.index(subject_id), self.session_labels.index(session_label)
        cfg, (p, T) = self.config, self.shape
        subject_loadings = substream(cfg.seed, _SUBJECT_LOADINGS, i).standard_normal(
            (p, cfg.rank_subject))
        if self._roi_mask is not None:
            subject_loadings = subject_loadings * self._roi_mask[:, None]
        session_loadings = substream(cfg.seed, _SESSION_LOADINGS, s).standard_normal(
            (p, cfg.rank_task))
        g = substream(cfg.seed, _SERIES, i, s)
        u = g.standard_normal((cfg.rank_subject, T))
        v = g.standard_normal((cfg.rank_task, T))
        w = g.standard_normal((cfg.rank_group, T))
        eps = g.standard_normal((p, T))
        x = (
            cfg.subject_strength * (subject_loadings @ u)
            + cfg.task_strength * (session_loadings @ v)
            + cfg.group_strength * (self._group_loadings @ w)
            + cfg.noise_std * eps
        )
        if not np.all(np.isfinite(x)):
            raise ValueError(f"series {(subject_id, session_label)} contains non-finite values")
        return x
