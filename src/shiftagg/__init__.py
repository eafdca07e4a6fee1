"""Importance-weighted model aggregation for unsupervised domain adaptation.

Instead of selecting one model from a trained sequence, shiftagg solves for
the linear combination of all models that minimizes target risk under
covariate shift, using a density-ratio-weighted source estimate of the
target moments. It ships two ratio estimators, selection baselines, a
seeded synthetic benchmark with analytic ground truth, and a probe for
layer-embedding domain invariance.
"""

import os

# One BLAS thread unless the environment names a count, because the last bits
# of the BLAS products, and so of the outputs, follow the BLAS thread count:
# by default they then do not depend on the machine's core count. This takes
# effect only if numpy has not been imported yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .aggregation import (
    AggregationResult,
    RiskReport,
    aggregate_predict,
    compute_g_vector,
    compute_gram,
    empirical_risk,
    importance_weighted_risk,
    oracle_aggregate,
    run_aggregation,
    solve_coefficients,
)
from .data import (
    LayerEmbeddings,
    LayerEmbeddingSet,
    PredictionBundle,
    SourceDataset,
    TargetDataset,
    load_bundle,
    load_embeddings,
    load_samples,
    write_bundle,
    write_embeddings,
)
from .probe import (
    ProbeReport,
    argmax_agreement,
    epsilon_close,
    lipschitz_propagated_bound,
    semantic_distance,
)
from .ratio import (
    RatioFitConfig,
    RatioModel,
    analytic_gaussian_ratio,
    evaluate_ratio,
    fit_logistic_ratio,
    fit_ratio,
    fit_ulsif,
    self_normalize,
)
from .selection import (
    ComparisonReport,
    SelectionOutcome,
    compare_methods,
    select_iwv,
    select_source_risk,
)
from .synth import (
    SuiteConfig,
    SuiteReport,
    SynthTask,
    SynthTaskConfig,
    fit_model_family,
    generate_task,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationResult",
    "ComparisonReport",
    "LayerEmbeddings",
    "LayerEmbeddingSet",
    "PredictionBundle",
    "ProbeReport",
    "RatioFitConfig",
    "RatioModel",
    "RiskReport",
    "SelectionOutcome",
    "SourceDataset",
    "SuiteConfig",
    "SuiteReport",
    "SynthTask",
    "SynthTaskConfig",
    "TargetDataset",
    "aggregate_predict",
    "analytic_gaussian_ratio",
    "argmax_agreement",
    "compare_methods",
    "compute_g_vector",
    "compute_gram",
    "empirical_risk",
    "epsilon_close",
    "evaluate_ratio",
    "fit_logistic_ratio",
    "fit_model_family",
    "fit_ratio",
    "fit_ulsif",
    "generate_task",
    "importance_weighted_risk",
    "lipschitz_propagated_bound",
    "load_bundle",
    "load_embeddings",
    "load_samples",
    "oracle_aggregate",
    "run_aggregation",
    "run_suite",
    "select_iwv",
    "select_source_risk",
    "self_normalize",
    "semantic_distance",
    "solve_coefficients",
    "write_bundle",
    "write_embeddings",
]
