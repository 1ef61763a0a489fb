"""Functional connectome fingerprinting toolkit.

Synthetic cohorts with planted identity structure, Pearson connectome
construction, autoencoder residualization, sparse dictionary refinement, and
cross-session subject identification with permutation testing.
"""

from .connectome import detrend, edge_matrix, mat, pearson_fc, vectorize_upper
from .convae import (
    ArchitectureConfig,
    AutoencoderParams,
    Layer,
    TrainConfig,
    build_params,
    forward,
    loss_and_grad,
    residual,
    train,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    TrainingDivergenceError,
)
from .fingerprint import (
    GridCell,
    IdentificationResult,
    PermutationReport,
    PipelineOptions,
    SessionConnectomes,
    SimilarityMatrix,
    ablation,
    grid_search,
    identify,
    permutation_test,
    run_pipeline,
    run_pipeline_with_artifacts,
    session_connectomes,
    similarity_matrix,
)
from .sparse import Dictionary, KsvdReport, SparseCodes, encode_all, ksvd
from .synth import CohortConfig, SyntheticCohort, generate_cohort

__version__ = "0.1.0"
