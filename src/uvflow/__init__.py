"""Small-distance harmonic reductions and running couplings for 1D systems.

The pipeline: pick a potential family (``potentials``), Taylor-expand it at
the point 1/Lambda set by a short-distance cutoff and complete the square
(``reduction``), demand cutoff independence of the reduced oscillator level
to obtain a running coupling (``flow``), and compare the infinite-cutoff
level against two independent oracles: a finite-difference grid
(``eigensolver``) and Numerov shooting (``shooting``).  The dressed
driven-atom application lives in ``kh``; ``suite`` bundles the acceptance
checks the CLI exposes as ``uvflow paper-suite``.  Of these, only
``eigensolver`` and ``suite`` need scipy, and of scipy only its LAPACK
extension (``scipy.linalg._flapack``, loaded without the ``scipy.linalg``
package), so neither is imported until it is used.
"""

from .errors import (ConfigError, DegenerateExpansionError, DomainError,
                     DomainTooSmallError, FitDegenerateError,
                     FlowUndefinedError, IntegrationAbortError,
                     IterationLimitError, NoBoundStateError,
                     NoFixedPointError, NoUVLimitError, SingularPointError,
                     UVFlowError)
from .potentials import (Parity, PotentialSpec, coulomb, custom,
                         kramers_henneberger, morse, quartic, soft_coulomb,
                         with_coupling_and_cutoff)
from .reduction import (GaussianState, GroundStateEstimate,
                        QuadraticReduction, expand_at_cutoff,
                        ho_ground_energy, ho_ground_wavefunction)
from .flow import (LAMBDA_FLOOR, LogFlow, PointwiseFlow, PowerLawFlow,
                   Trajectory, beta_closed_form, beta_numeric, integrate_flow,
                   pipeline_ground_energy, solve_fixed_point, uv_energy_law,
                   uv_limit_energy)
from .shooting import shooting_ground_energy

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

# the grid oracle needs scipy's LAPACK extension, so its names load it on
# first use and every other import stays on numpy alone
_EIGENSOLVER_NAMES = ("Grid", "OracleResult", "eigenvalue_by_index", "ground_state")


def __getattr__(name):
    if name in _EIGENSOLVER_NAMES:
        from . import eigensolver

        return getattr(eigensolver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
