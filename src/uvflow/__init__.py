"""Small-distance harmonic reductions and running couplings for 1D systems.

The pipeline: pick a potential family (``potentials``), Taylor-expand it at
the point 1/Lambda set by a short-distance cutoff and complete the square
(``reduction``), demand cutoff independence of the reduced oscillator level
to obtain a running coupling (``flow``), and compare the infinite-cutoff
level against an independent eigensolver (``eigensolver``).  The dressed
driven-atom application lives in ``kh``; ``suite`` bundles the acceptance
checks the CLI exposes as ``uvflow paper-suite``.
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
                        QuadraticReduction, SignBranch, expand_at_cutoff,
                        ho_ground_energy, ho_ground_wavefunction)
from .flow import (LAMBDA_FLOOR, LogFlow, PowerLawFlow, SignPolicy,
                   TabulatedFlow, beta_closed_form, beta_numeric,
                   default_sign_policy, integrate_flow,
                   pipeline_ground_energy, solve_fixed_point, uv_energy_law,
                   uv_limit_energy)
from .eigensolver import (Grid, OracleResult, Parity, eigenvalue_by_index,
                          ground_state, shooting_ground_energy)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DegenerateExpansionError", "DomainError",
    "DomainTooSmallError", "FitDegenerateError", "FlowUndefinedError",
    "GaussianState", "Grid", "GroundStateEstimate", "IntegrationAbortError",
    "IterationLimitError", "LAMBDA_FLOOR", "LogFlow", "NoBoundStateError",
    "NoFixedPointError", "NoUVLimitError", "OracleResult", "Parity",
    "PotentialSpec", "PowerLawFlow", "QuadraticReduction", "SignBranch",
    "SignPolicy", "SingularPointError", "TabulatedFlow", "UVFlowError",
    "beta_closed_form", "beta_numeric", "coulomb", "custom",
    "default_sign_policy", "eigenvalue_by_index",
    "expand_at_cutoff", "ground_state", "ho_ground_energy",
    "ho_ground_wavefunction", "integrate_flow", "kramers_henneberger",
    "morse", "pipeline_ground_energy", "quartic", "shooting_ground_energy",
    "soft_coulomb", "solve_fixed_point", "uv_energy_law", "uv_limit_energy",
    "with_coupling_and_cutoff",
]
