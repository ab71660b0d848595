"""Dirichlet meta-distributions over ensemble predictions.

Fits a Dirichlet to the simplex points an ensemble of classifiers emits
for each input, turning member disagreement into closed-form uncertainty:
predictive means, per-class and total variance, evidential losses, and a
variance threshold calibrated to a target selective risk.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationReport,
    LabeledPrediction,
    ReliabilityBin,
    calibration_report,
    confidence,
    confidence_histograms,
    correctness,
    ece,
    metrics,
    reliability_bins,
)
from .dirichlet import (
    DirichletParams,
    ProbabilityVector,
    class_variance,
    kl_to_uniform,
    log_density,
    log_likelihood,
    predictive_mean,
    sample,
    total_variance,
)
from .estimators import EnsembleSample, FitResult, fit_batch, fit_mle, fit_mom, moments
from .evidential import (
    EvidentialConfig,
    LogitVector,
    OneHotLabel,
    alphas_from_evidence,
    annealed_lambda,
    ce_gradient,
    ce_loss,
    digamma_loss,
    evidence,
    log_evidence_penalty,
    losses,
    mse_kl_loss,
    mse_loss,
    softmax,
    warmup_lambda,
)
from .fileio import ValidationError
from .selective import (
    RiskCoveragePoint,
    ScoredSample,
    SelectiveReport,
    ThresholdCalibration,
    calibrate_threshold,
    decide,
    risk_coverage_curve,
    score,
    selective_report,
    variance_histograms,
)
from .simulate import SimulationConfig, generate
from .specfun import digamma, inverse_digamma, log_gamma, log_multivariate_beta

__all__ = [
    "__version__",
    "CalibrationReport",
    "DirichletParams",
    "EnsembleSample",
    "EvidentialConfig",
    "FitResult",
    "LabeledPrediction",
    "LogitVector",
    "OneHotLabel",
    "ProbabilityVector",
    "ReliabilityBin",
    "RiskCoveragePoint",
    "ScoredSample",
    "SelectiveReport",
    "SimulationConfig",
    "ThresholdCalibration",
    "ValidationError",
    "alphas_from_evidence",
    "annealed_lambda",
    "calibrate_threshold",
    "calibration_report",
    "ce_gradient",
    "ce_loss",
    "class_variance",
    "confidence",
    "confidence_histograms",
    "correctness",
    "decide",
    "digamma",
    "digamma_loss",
    "ece",
    "evidence",
    "fit_batch",
    "fit_mle",
    "fit_mom",
    "generate",
    "inverse_digamma",
    "kl_to_uniform",
    "log_density",
    "log_evidence_penalty",
    "log_gamma",
    "log_likelihood",
    "log_multivariate_beta",
    "losses",
    "metrics",
    "moments",
    "mse_kl_loss",
    "mse_loss",
    "predictive_mean",
    "reliability_bins",
    "risk_coverage_curve",
    "sample",
    "score",
    "selective_report",
    "softmax",
    "total_variance",
    "variance_histograms",
    "warmup_lambda",
]
