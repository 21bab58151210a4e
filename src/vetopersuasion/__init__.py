"""Solvers for optimal proposals and information design in veto bargaining."""

from .accept import (
    BinaryTypeEnv,
    best_acceptable_proposal,
    phi_threshold,
    psi_cap,
)
from .dist import (
    ExponentialTilt,
    FiniteAtoms,
    TypeDistribution,
    UniformInterval,
    from_literal as dist_from_literal,
    lr_tilt,
)
from .errors import (
    AssumptionViolatedError,
    DomainError,
    FullMassBelowError,
    NoRootError,
    UnsupportedCombinationError,
    VetoPersuasionError,
)
from .lsolve import (
    BinarySolveOutcome,
    ThreeTypeValues,
    solve_persuasion_first_binary,
    solve_proposal_first_binary,
    three_type_values,
    uhat,
    utilde,
)
from .prefs import (
    Exponential,
    Linear,
    Power,
    ProposerPreferences,
    from_literal as prefs_from_literal,
)
from .qsolve import (
    Regime,
    SolveOutcome,
    indirect_u,
    no_info_optimal,
    solve_cutoff,
    solve_persuasion_first,
    solve_proposal_first,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolatedError",
    "BinarySolveOutcome",
    "BinaryTypeEnv",
    "DomainError",
    "Exponential",
    "ExponentialTilt",
    "FiniteAtoms",
    "FullMassBelowError",
    "Linear",
    "NoRootError",
    "Power",
    "ProposerPreferences",
    "Regime",
    "SolveOutcome",
    "ThreeTypeValues",
    "TypeDistribution",
    "UniformInterval",
    "UnsupportedCombinationError",
    "VetoPersuasionError",
    "best_acceptable_proposal",
    "dist_from_literal",
    "indirect_u",
    "lr_tilt",
    "no_info_optimal",
    "phi_threshold",
    "prefs_from_literal",
    "psi_cap",
    "solve_cutoff",
    "solve_persuasion_first",
    "solve_persuasion_first_binary",
    "solve_proposal_first",
    "solve_proposal_first_binary",
    "three_type_values",
    "uhat",
    "utilde",
]
