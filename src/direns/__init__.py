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
    correctness,
    ece,
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
from .estimators import EnsembleSample, FitResult, fit_batch, fit_mle, fit_mom
from .evidential import (
    annealed_lambda,
    ce_gradient,
    ce_loss,
    digamma_loss,
    losses,
    mse_kl_loss,
    mse_loss,
    softmax,
)
from .fileio import ValidationError
from .selective import (
    RiskCoveragePoint,
    ScoredSample,
    ThresholdCalibration,
    calibrate_threshold,
    risk_coverage_curve,
)
from .simulate import SimulationConfig, generate
from .specfun import digamma, inverse_digamma, log_gamma
