"""Solvers for optimal proposals and information design in veto bargaining.

Submodules load on first use: ``from vetopersuasion import solve_cutoff``
imports ``qsolve`` and what it needs, and ``import vetopersuasion`` alone
imports none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(["BinaryTypeEnv", "acceptance_root", "best_acceptable_proposal",
                     "phi_threshold", "psi_cap"], "accept"),
    **dict.fromkeys(["ExponentialTilt", "FiniteAtoms", "TypeDistribution", "UniformInterval",
                     "dist_from_literal", "lr_tilt"], "dist"),
    **dict.fromkeys(["AssumptionViolatedError", "DomainError", "FullMassBelowError",
                     "NoRootError", "UnsupportedCombinationError", "VetoPersuasionError"],
                    "errors"),
    **dict.fromkeys(["BinarySolveOutcome", "ThreeTypeValues", "solve_persuasion_first_binary",
                     "solve_proposal_first_binary", "three_type_values", "uhat", "utilde"],
                    "lsolve"),
    **dict.fromkeys(["Exponential", "Linear", "Power", "ProposerPreferences",
                     "prefs_from_literal"], "prefs"),
    **dict.fromkeys(["Regime", "SolveOutcome", "indirect_u", "no_info_optimal", "solve_cutoff",
                     "solve_persuasion_first", "solve_proposal_first"], "qsolve"),
}
# Exported under another name than the submodule's.
_RENAMED = {"dist_from_literal": "from_literal", "prefs_from_literal": "from_literal"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), _RENAMED.get(name, name))
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
