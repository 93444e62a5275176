"""Synthetic-sample Monte Carlo inference.

Generate synthetic samples from fitted invertible transports - with
multivariate rank matching against an inference sample and
distribution-preserving perturbation - and use them to estimate null
distributions of arbitrary statistics, run hypothesis tests with
finite-sample valid p-values, perform exact pivotal inference, and build
conditional prediction intervals.

Importing pai loads numpy only: each scipy subpackage is imported inside the
functions that call it, so a process pays for it at its first such call.
"""

from .empirical import Correction, EmpiricalDistribution, Sidedness, p_value
from .errors import InputError, NumericError, PaiError
from .generators import (
    CopulaTransport,
    GaussianTransport,
    LocationScaleTransport,
    PassConfig,
    fit_copula,
    fit_gaussian,
    fit_location_scale,
    gaussian_from_params,
    load_model,
    pass_synthesize,
    sample_statistic_null,
    save_model,
)
from .inference import (
    PivotalReport,
    TestReport,
    pivotal_inference,
    test_conditional_coherence,
    test_feature_significance,
    test_two_sample_fid,
)
from .metrics import fid, gaussian_summary
from .perturb import PerturbationSpec, perturb
from .predict import (
    conditional_sample,
    conformal_fit,
    conformal_interval,
    pai_interval,
    run_prediction_study,
    simulate_regression_data,
)

__version__ = "0.1.0"

__all__ = [
    "CopulaTransport",
    "Correction",
    "EmpiricalDistribution",
    "GaussianTransport",
    "InputError",
    "LocationScaleTransport",
    "NumericError",
    "PaiError",
    "PassConfig",
    "PerturbationSpec",
    "PivotalReport",
    "Sidedness",
    "TestReport",
    "conditional_sample",
    "conformal_fit",
    "conformal_interval",
    "fid",
    "fit_copula",
    "fit_gaussian",
    "fit_location_scale",
    "gaussian_from_params",
    "gaussian_summary",
    "load_model",
    "p_value",
    "pai_interval",
    "pass_synthesize",
    "perturb",
    "pivotal_inference",
    "run_prediction_study",
    "sample_statistic_null",
    "save_model",
    "simulate_regression_data",
    "test_conditional_coherence",
    "test_feature_significance",
    "test_two_sample_fid",
]
