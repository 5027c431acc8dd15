"""Functional PCA via the Kendall's tau operator, with a covariance
baseline, simulation generators, and evaluation tooling."""

from .core import (
    Curve,
    FunctionalSample,
    Grid,
    derive_rng,
    inner_product,
    make_regular_grid,
)
from .eigen import eigen_decompose, project_scores
from .errors import (
    ConfigurationError,
    DimensionError,
    EstimationError,
    InputError,
    KfpcaError,
    ParseError,
)
from .estimators import (
    DiscretizedKernel,
    MeanBand,
    bootstrap_mean_band,
    covariance_hat,
    kendall_tau_hat,
    mean_hat,
)
from .metrics import (
    RateDiagnostic,
    RunMetrics,
    aggregate,
    alignment_sign,
    convergence_rate,
    evaluate_run,
    imse,
    run_scenario,
    score_mse,
)
from .model import (
    FitConfig,
    FpcaModel,
    deserialize_model,
    fit,
    load_model,
    reconstruct,
    save_model,
    serialize_model,
)
from .simgen import (
    SimulationScenario,
    TruthBundle,
    draw_scores,
    generate,
    true_eigenfunctions,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "Curve",
    "DimensionError",
    "DiscretizedKernel",
    "EstimationError",
    "FitConfig",
    "FpcaModel",
    "FunctionalSample",
    "Grid",
    "InputError",
    "KfpcaError",
    "MeanBand",
    "ParseError",
    "RateDiagnostic",
    "RunMetrics",
    "SimulationScenario",
    "TruthBundle",
    "aggregate",
    "alignment_sign",
    "bootstrap_mean_band",
    "convergence_rate",
    "covariance_hat",
    "derive_rng",
    "deserialize_model",
    "draw_scores",
    "eigen_decompose",
    "evaluate_run",
    "fit",
    "generate",
    "imse",
    "inner_product",
    "kendall_tau_hat",
    "load_model",
    "make_regular_grid",
    "mean_hat",
    "project_scores",
    "reconstruct",
    "run_scenario",
    "save_model",
    "score_mse",
    "serialize_model",
    "true_eigenfunctions",
]
