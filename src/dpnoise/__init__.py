"""Noise mechanisms for differential privacy.

Calibrated truncated-Laplacian noise with matching lower bounds on what any
(epsilon, delta) mechanism must cost, Gaussian/Laplace/uniform baselines, a
discretized brute-force privacy verifier, parameter sweeps, and a small
private CSV query pipeline.
"""

from .analysis import SweepConfig, emit, run_sweep
from .baselines import (
    BoundedUniform,
    Gaussian,
    Laplace,
    analytic_gaussian_sigma,
)
from .bounds import BoundPair, bound_pair
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
    run_query,
)
from .trunclap import TruncatedLaplace
from .verifier import (
    DiscretizedDist,
    ViolationReport,
    discretize,
    dp_check,
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
    "NoiseMechanism",
    "PrivacyParams",
    "QuerySpec",
    "Sensitivity",
    "SweepConfig",
    "TruncatedLaplace",
    "ViolationReport",
    "analytic_gaussian_sigma",
    "as_sensitivity",
    "bound_pair",
    "discretize",
    "dp_check",
    "emit",
    "make_mechanism",
    "run_query",
    "run_sweep",
    "__version__",
]
