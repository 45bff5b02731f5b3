"""Track-to-track fusion of Gaussian and Gaussian-mixture track estimates.

The package provides conservative fusion rules for estimates with unknown
correlation (geometric, arithmetic, and harmonic mean density pooling, plus a
pseudo-Chernoff rule for mixtures), the Gaussian/mixture algebra they are
built on, EKF and IMM local trackers, and a Monte Carlo harness that scores
the rules on two reference scenarios.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    MeasurementSingular,
    ModeLikelihoodDegenerate,
    NonPositiveDefiniteResult,
    NotPositiveDefinite,
    NotSymmetric,
    QuadratureError,
    SingularInnovation,
    TrackfuseError,
)
from .gaussians import (
    GaussianDensity,
    GaussianMixture,
    ScaledGaussian,
    assert_spd,
    density_from_dict,
    density_to_dict,
    gaussian_division,
    gaussian_product,
    moment_match,
    scaled_power,
    spd_inv,
    symmetrize,
)
from .fusion import (
    fuse_amd,
    fuse_gmd,
    fuse_hmd,
    fuse_hmd_mixture,
    fuse_hmd_recursive,
    fuse_many,
    fuse_naive,
    fuse_pair,
    fuse_pcf,
    hmd_diagnostics,
    hmd_norm_const,
)
from .models import (
    MeasurementModel,
    MotionModel,
    bearing_sensor,
    nca_matrices,
    ncv_matrices,
    range_az_el_sensor,
    wrap_angle,
)
from .filters import (
    ImmState,
    apply_feedback,
    ekf_predict,
    ekf_update,
    ekf_update_with_loglik,
    imm_output,
    imm_step,
    prune_mixture,
    route_feedback,
    truncate_state,
    zero_pad,
)
from .scenarios import (
    EkfTracker,
    ImmTracker,
    KNOT_MPS,
    NcvTruth,
    ScenarioConfig,
    SineTruth,
    ncv_truth_states,
    sine_truth_states,
)
from .simulation import (
    MetricsReport,
    StrategyMetrics,
    compute_nees,
    nees_bounds,
    run_scenario,
    track_loss_rate,
)
from .config import load_config, load_preset, loads_config
from .validation import CheckResult, run_suite

__all__ = [
    "__version__",
    # errors
    "TrackfuseError", "NotSymmetric", "NotPositiveDefinite",
    "NonPositiveDefiniteResult", "MeasurementSingular", "SingularInnovation",
    "ModeLikelihoodDegenerate", "QuadratureError", "ConfigError",
    # gaussians
    "GaussianDensity", "GaussianMixture", "ScaledGaussian", "assert_spd",
    "symmetrize", "spd_inv", "gaussian_product",
    "gaussian_division", "scaled_power", "moment_match", "density_to_dict",
    "density_from_dict",
    # fusion
    "fuse_naive", "fuse_gmd", "fuse_amd", "fuse_pcf", "fuse_hmd",
    "fuse_hmd_mixture", "fuse_hmd_recursive", "hmd_diagnostics", "hmd_norm_const",
    "fuse_pair", "fuse_many",
    # models and filters
    "MotionModel", "MeasurementModel", "ncv_matrices", "nca_matrices",
    "range_az_el_sensor", "bearing_sensor", "wrap_angle", "ekf_predict",
    "ekf_update", "ekf_update_with_loglik", "ImmState", "imm_step", "imm_output", "zero_pad",
    "truncate_state", "prune_mixture", "route_feedback", "apply_feedback",
    # scenarios and simulation
    "KNOT_MPS", "NcvTruth", "SineTruth", "EkfTracker", "ImmTracker", "ScenarioConfig",
    "ncv_truth_states", "sine_truth_states", "MetricsReport",
    "StrategyMetrics", "compute_nees", "nees_bounds", "track_loss_rate",
    "run_scenario",
    "load_config", "loads_config", "load_preset",
    # validation
    "run_suite", "CheckResult",
]
