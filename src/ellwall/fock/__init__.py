"""Exact Fock-space model over the four-class curve cohomology.

Submodules: labels (basis classes, pairing, star-product table), states
(Nakajima monomial states), operators (the doubly graded generators as
normal-ordered term sums), fastapply (their integer action rows),
monodromy (the two mapping-class actions), verify (bracket reports and
sweeps).
"""

from .labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_NAMES
from .monodromy import monodromy_f, monodromy_s
from .operators import ExtendedModeError, FockConfig, OperatorExpr, w_general, w_small
from .states import FockState, basis_monomials
from .verify import BracketReport, bracket_sweep, bracket_verify

__all__ = [
    "COH_E",
    "COH_PT",
    "COH_SM",
    "COH_SP",
    "LABEL_NAMES",
    "monodromy_f",
    "monodromy_s",
    "ExtendedModeError",
    "FockConfig",
    "OperatorExpr",
    "w_general",
    "w_small",
    "FockState",
    "basis_monomials",
    "BracketReport",
    "bracket_sweep",
    "bracket_verify",
]
