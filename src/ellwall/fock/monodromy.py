"""The two mapping-class actions on states.

The fiber-type action flips each mode by (-1)^(k+1) and reflects the
vacuum charge through -n (n the weight); with that charge reading it is
an involution on every weight space.  The section-type action replaces
each creation mode by the corresponding slope-one generator, applied in
the monomial's canonical order; it composes the generators' integer
index rows (see fastapply) on a basis numbered as the images are
reached, and divides back to exact rationals once per monomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .fastapply import BasisIndex, IndexRow, RowTable, compose_rows
from .operators import FockConfig, w_general
from .states import FockState, Monomial

def monodromy_f(state: FockState) -> FockState:
    """Fiber-type action: sign (-1)^(k+1) per mode, charge c -> -n - c
    for a state of weight n.  The state must be weight-homogeneous."""
    if state.is_zero():
        return state.copy()
    if not state.is_homogeneous():
        raise ValueError("mixed-weight input: apply weight-by-weight")
    weight = state.weight()
    out: dict = {}
    for mono, coeff in state.terms.items():
        sign = 1
        for k, _ in mono:
            if k % 2 == 0:
                sign = -sign
        out[mono] = coeff * sign
    return FockState(-weight - state.charge, out)


def monodromy_s(
    state: FockState, N: int, config: Optional[FockConfig] = None
) -> FockState:
    """Section-type action: each creation mode alpha_{-k}(gamma) is
    replaced by the slope-one generator w^{1,-k}_gamma; linear; exact on
    states of energy <= N, and a ValueError when an intermediate image
    leaves that window.  pt labels need the extended configuration."""
    if state.charge != 0:
        raise ValueError("the section-type action is defined on charge-0 states")
    # the vacuum is index 0; every other monomial is numbered on first sight
    basis = BasisIndex(0)
    # per mode (k, label): the generator's rows, built as they are read
    tables: dict[tuple[int, int], RowTable] = {}
    out: dict[Monomial, Fraction] = {}
    charge = 0
    for mono, coeff in state.terms.items():
        row: IndexRow = {0: 1}
        denom = 1
        shift = 0
        for mode in reversed(mono):
            rows = tables.get(mode)
            if rows is None:
                rows = tables[mode] = RowTable(
                    w_general(1, -mode[0], mode[1], N, config), basis
                )
            row = compose_rows(rows, row)
            denom *= rows.op.denom
            shift += rows.op.charge_shift
        if not row:
            continue
        if out and shift != charge:
            raise ValueError(
                "image spans several charges; apply to single monomials instead"
            )
        charge = shift
        scale = coeff / denom
        for u, v in basis.monomials(row).items():
            total = out.get(u, 0) + v * scale
            if total:
                out[u] = total
            else:
                del out[u]
    return FockState(charge, out)
