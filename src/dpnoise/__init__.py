"""Noise mechanisms for differential privacy.

Calibrated truncated-Laplacian noise with matching lower bounds on what any
(epsilon, delta) mechanism must cost, Gaussian/Laplace/uniform baselines, a
discretized brute-force privacy verifier, parameter sweeps, and a small
private CSV query pipeline.
"""

from .analysis import (
    LimitRegime,
    SweepConfig,
    SweepRow,
    TightnessRow,
    emit,
    run_sweep,
    tightness_curve,
)
from .baselines import (
    BoundedUniform,
    Gaussian,
    Laplace,
    analytic_gaussian_sigma,
    gaussian_privacy_profile,
    laplace_mechanism,
    uniform_limit_mechanism,
)
from .bounds import (
    BoundPair,
    LowerBoundParams,
    amplitude_lower_bound,
    bound_pair,
    lower_bound_params,
    power_lower_bound,
)
from .core import (
    ConvergenceError,
    CostKind,
    DomainError,
    InvariantError,
    NoiseMechanism,
    PrivacyParams,
    Sensitivity,
    as_sensitivity,
)
from .query import (
    AggregateKind,
    BudgetError,
    BudgetLedger,
    LedgerEntry,
    QuerySpec,
    make_mechanism,
    make_rng,
    run_query,
)
from .trunclap import TruncatedLaplace, TruncLapParams, calibrate
from .verifier import (
    DiscretizedDist,
    ViolationReport,
    discretize,
    dp_check,
    max_violation,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateKind",
    "BoundPair",
    "BoundedUniform",
    "BudgetError",
    "BudgetLedger",
    "ConvergenceError",
    "CostKind",
    "DiscretizedDist",
    "DomainError",
    "Gaussian",
    "InvariantError",
    "Laplace",
    "LedgerEntry",
    "LimitRegime",
    "LowerBoundParams",
    "NoiseMechanism",
    "PrivacyParams",
    "QuerySpec",
    "Sensitivity",
    "SweepConfig",
    "SweepRow",
    "TightnessRow",
    "TruncLapParams",
    "TruncatedLaplace",
    "ViolationReport",
    "amplitude_lower_bound",
    "analytic_gaussian_sigma",
    "as_sensitivity",
    "bound_pair",
    "calibrate",
    "discretize",
    "dp_check",
    "emit",
    "gaussian_privacy_profile",
    "laplace_mechanism",
    "lower_bound_params",
    "make_mechanism",
    "make_rng",
    "max_violation",
    "power_lower_bound",
    "run_query",
    "run_sweep",
    "tightness_curve",
    "uniform_limit_mechanism",
    "__version__",
]
