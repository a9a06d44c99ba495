"""Flat (planar) self-gravitating steady states and their stability.

Constructs axisymmetric razor-thin equilibria as fixed points of the
energy-Casimir variational condition f0 = q(E0 - E), evaluates the
associated energy and Casimir functionals, and probes dynamical
stability with a weighted particle ensemble.  Units: G = 1 throughout.
"""

__version__ = "0.1.0"

from .casimir import CasimirModel, InverseQ, validate_assumptions
from .elliptic import elliptic_k
from .grids import RadialGrid, RadialProfile
from .potential import (
    FlatPotentialOperator,
    potential_from_density,
    outer_potential_energy,
    lp_norm,
)
from .functionals import (
    FunctionalReport,
    ScalingParams,
    evaluate_steady,
    evaluate_ensemble,
    rescale_steady,
    scaling_inequality_check,
    split_diagnostic,
    stability_distance,
)
from .steady import SteadyState, SolverOptions, solve, density_from_potential, regularity_report
from .simulate import ParticleEnsemble, SimConfig, sample, accelerations, step, run

__all__ = [
    "CasimirModel",
    "InverseQ",
    "validate_assumptions",
    "elliptic_k",
    "RadialGrid",
    "RadialProfile",
    "FlatPotentialOperator",
    "potential_from_density",
    "outer_potential_energy",
    "lp_norm",
    "FunctionalReport",
    "ScalingParams",
    "evaluate_steady",
    "evaluate_ensemble",
    "rescale_steady",
    "scaling_inequality_check",
    "split_diagnostic",
    "stability_distance",
    "SteadyState",
    "SolverOptions",
    "solve",
    "density_from_potential",
    "regularity_report",
    "ParticleEnsemble",
    "SimConfig",
    "sample",
    "accelerations",
    "step",
    "run",
]
