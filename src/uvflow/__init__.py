"""Small-distance harmonic reductions and running couplings for 1D systems.

The pipeline: pick a potential family (``potentials``), Taylor-expand it at
the point 1/Lambda set by a short-distance cutoff and complete the square
(``reduction``), demand cutoff independence of the reduced oscillator level
to obtain a running coupling (``flow``), and compare the infinite-cutoff
level against an independent eigensolver (``eigensolver``).  The dressed
driven-atom application lives in ``kh``; ``suite`` bundles the acceptance
checks the CLI exposes as ``uvflow paper-suite``.  Of these, only
``eigensolver`` and ``suite`` need scipy (``scipy.linalg``), so neither is
imported until it is used.
"""

from .errors import (ConfigError, DegenerateExpansionError, DomainError,
                     DomainTooSmallError, FitDegenerateError,
                     FlowUndefinedError, IntegrationAbortError,
                     IterationLimitError, NoBoundStateError,
                     NoFixedPointError, NoUVLimitError, SingularPointError,
                     UVFlowError)
from .potentials import (PotentialSpec, coulomb, custom,
                         kramers_henneberger, morse, quartic, soft_coulomb,
                         with_coupling_and_cutoff)
from .reduction import (GaussianState, GroundStateEstimate,
                        QuadraticReduction, expand_at_cutoff,
                        ho_ground_energy, ho_ground_wavefunction)
from .flow import (LAMBDA_FLOOR, LogFlow, PointwiseFlow, PowerLawFlow,
                   Trajectory, beta_closed_form, beta_numeric, integrate_flow,
                   pipeline_ground_energy, solve_fixed_point, uv_energy_law,
                   uv_limit_energy)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DegenerateExpansionError", "DomainError",
    "DomainTooSmallError", "FitDegenerateError", "FlowUndefinedError",
    "GaussianState", "Grid", "GroundStateEstimate", "IntegrationAbortError",
    "IterationLimitError", "LAMBDA_FLOOR", "LogFlow", "NoBoundStateError",
    "NoFixedPointError", "NoUVLimitError", "OracleResult", "Parity",
    "PointwiseFlow", "PotentialSpec", "PowerLawFlow", "QuadraticReduction",
    "SingularPointError", "Trajectory", "UVFlowError",
    "beta_closed_form", "beta_numeric", "coulomb", "custom",
    "eigenvalue_by_index",
    "expand_at_cutoff", "ground_state", "ho_ground_energy",
    "ho_ground_wavefunction", "integrate_flow", "kramers_henneberger",
    "morse", "pipeline_ground_energy", "quartic", "shooting_ground_energy",
    "soft_coulomb", "solve_fixed_point", "uv_energy_law", "uv_limit_energy",
    "with_coupling_and_cutoff",
]

# the grid oracle needs scipy.linalg, so its names load it on first use
# and every other import stays on numpy alone
_EIGENSOLVER_NAMES = ("Grid", "OracleResult", "Parity", "eigenvalue_by_index",
                      "ground_state", "shooting_ground_energy")


def __getattr__(name):
    if name in _EIGENSOLVER_NAMES:
        from . import eigensolver

        return getattr(eigensolver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
