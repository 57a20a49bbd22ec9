"""Noise mechanisms for differential privacy.

Calibrated truncated-Laplacian noise with matching lower bounds on what any
(epsilon, delta) mechanism must cost, Gaussian/Laplace/uniform baselines, a
discretized brute-force privacy verifier, parameter sweeps, and a small
private CSV query pipeline.

``import dpnoise`` loads no submodule: each name below is imported from its
module on first access (PEP 562), so a caller that needs only the query
pipeline never compiles the verifier or the sweep.
"""

import importlib

__version__ = "0.1.0"

# The submodule each name of `__all__` lives in.
_HOMES = {
    "AggregateKind": "core",
    "BoundPair": "bounds",
    "BoundedUniform": "baselines",
    "BudgetError": "core",
    "BudgetLedger": "query",
    "ConvergenceError": "core",
    "CostKind": "core",
    "DiscretizedDist": "verifier",
    "DomainError": "core",
    "Gaussian": "baselines",
    "InvariantError": "core",
    "Laplace": "baselines",
    "LedgerEntry": "query",
    "NoiseMechanism": "core",
    "PrivacyParams": "core",
    "QuerySpec": "query",
    "SweepConfig": "analysis",
    "TruncatedLaplace": "trunclap",
    "ViolationReport": "verifier",
    "analytic_gaussian_sigma": "baselines",
    "bound_pair": "bounds",
    "discretize": "verifier",
    "dp_check": "verifier",
    "emit": "analysis",
    "make_mechanism": "core",
    "run_query": "query",
    "run_sweep": "analysis",
}

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
    "SweepConfig",
    "TruncatedLaplace",
    "ViolationReport",
    "analytic_gaussian_sigma",
    "bound_pair",
    "discretize",
    "dp_check",
    "emit",
    "make_mechanism",
    "run_query",
    "run_sweep",
    "__version__",
]


def __getattr__(name: str):
    """A public name, imported from its home and kept; or a submodule, so
    ``dpnoise.verifier`` resolves after a bare ``import dpnoise``."""
    home = _HOMES.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f".{home}", __name__), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise  # a dependency of the submodule is missing
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
