"""Cross-session subject identification: similarity, permutation testing,
method pipelines, hyperparameter grids, and network ablation.

Outside the autoencoder a session is one C-contiguous n x m edge matrix,
row i the edge vector (connectome.vectorize_upper) of subject i's
connectome: that is what session_connectomes builds and every stage reads as
it is, the autoencoder (which scatters the rows into p x p inputs of its
own), the group mean and similarity_matrix. Only the dictionary stage reads
columns, through transposed views.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .connectome import (detrend, n_edges, n_rois, pearson_fc, pearson_rows, upper_pairs,
                         vectorize_upper)
from .convae import ArchitectureConfig, TrainConfig, residual, train
from .errors import ConfigurationError, DegenerateInputError, DimensionError
from .rng import derive_seed, substream
from .sparse import ksvd, map_atoms

METHODS = ("finn_raw", "baseline_groupavg", "convae_sdl")

# tags for seeds derived from PipelineOptions.seed
_AE_SEED = 10
_KSVD_SEED = 20
_PERM_STREAM = 30
# permutations drawn per block in permutation_test
_PERM_BLOCK = 1024


@dataclass
class SimilarityMatrix:
    """n x n Pearson similarity between two sets' edge vectors, as
    similarity_matrix returns it; rows index set one."""

    values: np.ndarray


@dataclass
class IdentificationResult:
    predictions: np.ndarray
    accuracy: float
    simmat: SimilarityMatrix


@dataclass
class PermutationReport:
    null_hits: np.ndarray
    p_value: float


@dataclass
class PipelineOptions:
    """Everything a method run needs besides the cohort and session labels.

    ``seed`` drives every stochastic stage: the autoencoder is trained with
    seed derive_seed(seed, 10), the per-session dictionary learning uses
    derive_seed(seed, 20, session_index), so reruns are exactly reproducible.
    """

    K: int = 8
    L: int = 3
    sdl_iters: int = 30
    arch: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def validate(self) -> None:
        if int(self.K) < 1 or int(self.L) < 1:
            raise ConfigurationError(f"K and L must be >= 1, got K={self.K}, L={self.L}")
        if int(self.sdl_iters) < 1:
            raise ConfigurationError(f"sdl_iters must be >= 1, got {self.sdl_iters}")


def similarity_matrix(edges_one, edges_two) -> SimilarityMatrix:
    """Pearson correlation between the subjects' edge vectors of two sets.

    Each set is an n x m edge matrix, row i holding subject i's edges;
    entry (i, j) correlates row i of the first set with row j of the second.
    Both sets must hold the same subjects in the same order. A row length m
    that is no edge count p(p - 1)/2 raises DimensionError, which refuses
    most sets held one column per subject.
    """
    one = np.asarray(edges_one, dtype=float)
    two = np.asarray(edges_two, dtype=float)
    if one.ndim != 2 or two.ndim != 2:
        raise DimensionError(f"edge sets must be 2-d, got shapes {one.shape} and {two.shape}")
    if one.shape[0] != two.shape[0]:
        raise ValueError(f"sets must have equal length, got {one.shape[0]} and {two.shape[0]}")
    if one.shape[0] < 2:
        raise ValueError("similarity needs at least 2 subjects per set")
    if n_rois(one.shape[1]) != n_rois(two.shape[1]):  # rows are edge vectors, not an m x n set
        raise DimensionError(
            f"sets have different matrix sizes ({one.shape[1]} vs {two.shape[1]} edges)")
    if not (np.all(np.isfinite(one)) and np.all(np.isfinite(two))):
        raise ValueError("edge sets contain non-finite values")

    # numpy sums a contiguous axis pairwise; one C-contiguous row per subject
    # keeps each subject's mean on that path (no copy for the pipeline's sets)
    values = pearson_rows(np.ascontiguousarray(one), np.ascontiguousarray(two),
                          "edge vector {row} of the {side} set has zero variance")
    np.clip(values, -1.0, 1.0, out=values)
    return SimilarityMatrix(values)


def identify(simmat: SimilarityMatrix) -> IdentificationResult:
    """Row-wise argmax identification; ties break toward the lowest index."""
    v = simmat.values
    n = v.shape[0]
    predictions = np.argmax(v, axis=1)
    hits = int(np.sum(predictions == np.arange(n)))
    return IdentificationResult(predictions, hits / n, simmat)


def permutation_test(
    result: IdentificationResult, n_perm: int, seed: int = 0
) -> PermutationReport:
    """Null distribution of hits under random relabeling of the second set.

    One stream per test, substream(seed, 30): draw t is the t-th
    permutation(n) of that stream, and row i counts as a hit when
    result.predictions[i] equals pi_t(i). The draws are taken in blocks of at
    most 1024 permutations, one row each, so memory stays flat in n_perm;
    the null does not depend on the block size, and a shorter test's null is
    a prefix of a longer one's. The p-value uses the add-one rule:
    (1 + #{null hits >= observed hits}) / (1 + n_perm).
    """
    if isinstance(n_perm, bool) or not isinstance(n_perm, (int, np.integer)) or n_perm < 1:
        raise ValueError(f"n_perm must be a positive integer, got {n_perm!r}")
    predictions = result.predictions
    n = predictions.size
    labels = np.arange(n)
    observed_hits = int(np.sum(predictions == labels))
    rng = substream(seed, _PERM_STREAM)
    null_hits = np.empty(n_perm, dtype=int)
    for start in range(0, n_perm, _PERM_BLOCK):
        rows = min(_PERM_BLOCK, n_perm - start)
        # row r of permuted(...) is the stream's next permutation(n)
        draws = rng.permuted(np.broadcast_to(labels, (rows, n)), axis=1)
        null_hits[start : start + rows] = np.count_nonzero(draws == predictions, axis=1)
    p_value = (1 + int(np.sum(null_hits >= observed_hits))) / (1 + n_perm)
    return PermutationReport(null_hits, p_value)


# ---------------------------------------------------------------------------
# method pipelines


def check_sessions(available, train_session, test_sessions) -> None:
    """The train and test sessions must be among ``available`` and differ."""
    labelled = [("train_session", train_session)]
    labelled += [("test_sessions", ses) for ses in test_sessions]
    for label, ses in labelled:
        if ses not in available:
            raise ConfigurationError(f"{label} {ses!r} is not one of the sessions {available}")
    if train_session in test_sessions:
        raise ConfigurationError("test_sessions must not list train_session; sessions must differ")


def check_sparsity(L, p, methods) -> None:
    """A refined method codes each edge vector with L of its m = p(p - 1)/2
    edges at most: L > m is a configuration error if any method refines."""
    m = n_edges(p)
    if int(L) > m and any(method != "finn_raw" for method in methods):
        raise ConfigurationError(f"L: must be <= the number of edges m={m}, got L={L}")


@dataclass
class SessionConnectomes:
    """The Pearson connectomes every method starts from, as
    session_connectomes builds them.

    ``edges`` maps each built session to its C-contiguous n x m edge matrix,
    row i the edge vector of subject i's p x p connectome; ``session_labels``
    are the cohort's, whose order keys each session's K-SVD seed.
    """

    edges: dict[str, np.ndarray]
    session_labels: list[str]
    p: int


def session_connectomes(cohort, train_session: str, test_sessions) -> SessionConnectomes:
    """Edge matrices of the Pearson connectomes of the detrended series of
    the train and test sessions, one build per session.

    ``cohort`` is any source with the four members subject_ids,
    session_labels, shape and series(subject, session): synth.SyntheticCohort
    draws a series when asked, cli.StoredCohort reads one from disk. Each
    session's matrix is allocated once and filled row by row, so one
    series and one connectome are alive at a time, and nothing built keeps a
    reference to the cohort. A connectome that cannot be built raises its
    ValueError again, of the same type, prefixed with the subject and session.
    """
    check_sessions(cohort.session_labels, train_session, test_sessions)
    edges = {ses: np.empty((len(cohort.subject_ids), n_edges(cohort.shape[0])))
             for ses in dict.fromkeys([train_session, *test_sessions])}
    for ses, E in edges.items():
        for i, sid in enumerate(cohort.subject_ids):
            series = cohort.series(sid, ses)
            try:
                E[i] = vectorize_upper(pearson_fc(detrend(series)))
            except ValueError as exc:
                raise type(exc)(f"{sid}, session {ses}: {exc}") from exc
            del series  # before the next series is read
    return SessionConnectomes(edges, list(cohort.session_labels), cohort.shape[0])


@dataclass
class PipelineArtifacts:
    """Intermediate products kept around for persistence and inspection."""

    ae_params: object | None = None
    ae_history: np.ndarray | None = None
    dictionaries: dict = field(default_factory=dict)
    codes: dict = field(default_factory=dict)


def _prepare_stage(connectomes, train_session, test_sessions, method, opts):
    """Everything that does not depend on (K, L), as (finish, artifacts).

    ``connectomes`` is the SessionConnectomes of the train and test sessions;
    the stage reads their edge matrices and never the series. Each session's
    E is the n x m edge matrix the method matches: the raw edges for
    finn_raw; for the refined methods, the residual edges once the shared
    structure fitted on the train session (group-mean edge vector or
    autoencoder) is removed, with the thin QR factorization of E^T when
    2 <= n < m.

    finish(K, L) is the (K, L)-dependent tail: for the refined methods, one
    dictionary per session, learned on the m x n E^T (in its column space
    when K <= n < m, see _learn_dictionary), whose coded part (D X)^T is
    subtracted from E; then {test_session: IdentificationResult} of every
    test session against train. Each call records its dictionaries and codes
    in artifacts.
    """
    check_sessions(list(connectomes.edges), train_session, test_sessions)
    if method not in METHODS:
        raise ConfigurationError(f"method must be one of {METHODS}, got {method!r}")
    opts.validate()

    edges = {ses: connectomes.edges[ses] for ses in dict.fromkeys([train_session, *test_sessions])}
    artifacts = PipelineArtifacts()
    if method == "convae_sdl":
        artifacts.ae_params, artifacts.ae_history = train(
            edges[train_session], opts.arch, opts.train_cfg, derive_seed(opts.seed, _AE_SEED)
        )
        edges = {ses: residual(E, artifacts.ae_params, opts.train_cfg.batch_size)
                 for ses, E in edges.items()}
    if method == "baseline_groupavg":
        # summed subject by subject, in order, so that it equals the upper
        # triangle of the group-mean connectome bit for bit
        group_mean = edges[train_session].mean(axis=0)
        edges = {ses: E - group_mean for ses, E in edges.items()}
    refine = method != "finn_raw"
    qrs = {ses: np.linalg.qr(E.T) for ses, E in edges.items()
           if refine and 2 <= E.shape[0] < E.shape[1]}

    def finish(K, L):
        refined = dict(edges)
        if refine:
            for ses, E in edges.items():
                seed = derive_seed(opts.seed, _KSVD_SEED,
                                   connectomes.session_labels.index(ses))
                dictionary, codes, _ = _learn_dictionary(
                    E, qrs.get(ses), K, L, iters=opts.sdl_iters, seed=seed
                )
                refined[ses] = E - (dictionary.atoms @ codes.codes).T
                artifacts.dictionaries[ses] = dictionary
                artifacts.codes[ses] = codes
        return {
            ses: identify(similarity_matrix(refined[train_session], refined[ses]))
            for ses in test_sessions
        }

    return finish, artifacts


def _learn_dictionary(E, qr, K, L, iters, seed):
    """K-SVD of the m x n matrix Y = E^T, one column per subject of the n x m
    edge matrix E, run in its column space when K <= n.

    Every atom K-SVD holds lies in span(Y): initial atoms and re-seeds are
    normalized data columns, and each atom update is a normalized image of an
    error matrix built from Y and atoms already in the span. So with the thin
    QR factorization Y = Q R (qr, present when 2 <= n < m) the same K-SVD runs
    on the n x n matrix R, and sparse.map_atoms maps its atoms back as
    D = Q D~ (a double-sparsity dictionary with base Q; Rubinstein,
    Zibulevsky & Elad 2010) and checks the result against Y. Pursuit and
    column errors do not change under Q, so supports and codes are those of
    ksvd(Y) up to roundoff. With K > n the initialization's random atoms
    would be drawn in R^n, so ksvd runs on Y itself, copied C-contiguous: its
    column-error sums take another order on a transposed view. The report is
    that of the call made.
    """
    if qr is None or K > E.shape[0]:
        return ksvd(np.ascontiguousarray(E.T), K, L, iters=iters, seed=seed)
    Q, R = qr
    return map_atoms(E.T, Q, ksvd(R, K, L, iters=iters, seed=seed))


def run_pipeline_with_artifacts(
    connectomes: SessionConnectomes,
    train_session: str,
    test_sessions,
    method: str,
    opts: PipelineOptions | None = None,
):
    """Like run_pipeline, for several test sessions matched against one train
    session whose shared structure is fitted once.

    Takes the sessions' connectomes (session_connectomes) rather than the
    cohort, so that every method a command runs shares one build and no raw
    series need stay alive while they run. Returns ({test_session:
    IdentificationResult}, PipelineArtifacts), the artifacts holding the
    trained params and every session's dictionary and codes.
    """
    opts = opts if opts is not None else PipelineOptions()
    check_sparsity(opts.L, connectomes.p, [method])
    finish, artifacts = _prepare_stage(connectomes, train_session, test_sessions, method, opts)
    return finish(int(opts.K), int(opts.L)), artifacts


def run_pipeline(
    cohort,
    train_session: str,
    test_session: str,
    method: str,
    opts: PipelineOptions | None = None,
) -> IdentificationResult:
    """End-to-end identification between two sessions with one method.

    finn_raw: similarity between raw connectome edge vectors.
    baseline_groupavg: subtract the train-session group-mean edge vector from
        both sessions' edge matrices, then per-session dictionary refinement.
    convae_sdl: train the autoencoder on the train session, residualize both
        sessions, then per-session dictionary refinement.
    """
    connectomes = session_connectomes(cohort, train_session, [test_session])
    results, _ = run_pipeline_with_artifacts(
        connectomes, train_session, [test_session], method, opts
    )
    return results[test_session]


@dataclass
class GridCell:
    K: int
    L: int
    accuracy: float | None


def grid_search(cohort, train_session: str, test_session: str, method: str,
                K_values, L_values, opts: PipelineOptions | None = None) -> list[GridCell]:
    """grid_cells on the two sessions' connectomes (session_connectomes)."""
    connectomes = session_connectomes(cohort, train_session, [test_session])
    return grid_cells(connectomes, train_session, test_session, method, K_values, L_values, opts)


def grid_cells(connectomes: SessionConnectomes, train_session: str, test_session: str,
               method: str, K_values, L_values, opts: PipelineOptions | None = None):
    """Accuracy over the (K, L) grid on the sessions' connectomes; cells with
    L > min(K, m), m the number of edges, are infeasible and skipped.

    The trained autoencoder (for convae_sdl) and each session's residual edge
    matrix with its thin QR factorization are shared across cells, since none
    of them depends on K or L. A refined method's cell whose refined edges are
    degenerate (DegenerateInputError, as when K > n lets an atom absorb a
    subject's whole residual) warns and gets accuracy None; a degenerate input
    still raises, from the stage shared by every cell.
    """
    opts = opts if opts is not None else PipelineOptions()
    K_list = [int(k) for k in K_values]
    L_list = [int(l) for l in L_values]
    if not K_list or not L_list:
        raise ConfigurationError("K and L ranges must be non-empty")
    finish, _ = _prepare_stage(connectomes, train_session, [test_session], method, opts)
    m = n_edges(connectomes.p)
    cells = []
    for K, L in [(K, L) for K in K_list for L in L_list if L <= min(K, m)]:
        try:
            accuracy = finish(K, L)[test_session].accuracy
        except DegenerateInputError as exc:
            if method == "finn_raw":
                raise
            warnings.warn(f"grid cell K={K}, L={L} of {method}: {exc}; skipped", stacklevel=2)
            accuracy = None
        cells.append(GridCell(K, L, accuracy))
    return cells


def check_networks(n_networks, p) -> None:
    """Ablation cuts the p ROIs into n_networks non-empty contiguous blocks."""
    if not 1 <= int(n_networks) <= p:
        raise ConfigurationError(f"cannot split {p} ROIs into {n_networks} networks")


def ablation(
    connectomes: SessionConnectomes,
    n_networks: int,
    train_session: str,
    test_session: str,
    method: str,
    opts: PipelineOptions | None = None,
) -> tuple[float, list[float | None]]:
    """Rerun the method once per network on the sessions' connectomes
    (session_connectomes) cut down to the ROIs outside that network.

    Network g is the g-th of n_networks contiguous blocks of ROIs,
    np.array_split(np.arange(p), n_networks): the first p mod n_networks
    blocks hold one ROI more. Detrending and correlation act row by row, so
    keeping the edges whose two ROIs both stay, in their row-major order,
    equals rebuilding the connectomes from the series' other rows (up to
    roundoff). Returns (baseline_accuracy, accuracies): the no-exclusion
    run's accuracy, then one accuracy per network. A network whose removal
    would leave fewer than 3 ROIs (a single edge), or, for a refined method,
    fewer edges than L, or whose rerun of a refined method is degenerate
    (DegenerateInputError), is skipped with a warning and gets None.
    """
    opts = opts if opts is not None else PipelineOptions()
    p = connectomes.p
    check_networks(n_networks, p)

    def accuracy(conns):
        results, _ = run_pipeline_with_artifacts(conns, train_session, [test_session], method, opts)
        return results[test_session].accuracy

    base = accuracy(connectomes)
    accuracies = [None] * int(n_networks)
    for g, block in enumerate(np.array_split(np.arange(p), n_networks)):
        # the edges whose two ROIs both stay, in row-major order
        kept = ~np.isin(upper_pairs(p), block).any(axis=0)
        left, m = p - block.size, int(kept.sum())
        if left < 3 or (method != "finn_raw" and opts.L > m):
            short = "fewer than 3 ROIs" if left < 3 else f"{m} edges, fewer than L={opts.L}"
            warnings.warn(f"excluding network {g} (net{g:02d}) leaves {short}; skipped",
                          stacklevel=2)
            continue
        # compress keeps the cut C-contiguous, and so each mean's summation order
        cut = {ses: E.compress(kept, axis=1) for ses, E in connectomes.edges.items()}
        try:
            accuracies[g] = accuracy(SessionConnectomes(cut, connectomes.session_labels, left))
        except DegenerateInputError as exc:
            if method == "finn_raw":
                raise
            warnings.warn(f"excluding network {g} (net{g:02d}): {exc}; skipped", stacklevel=2)
    return base, accuracies
