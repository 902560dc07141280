"""The two mapping-class actions on states.

The fiber-type action flips each mode by (-1)^(k+1) and reflects the
vacuum charge through -n (n the weight); with that charge reading it is
an involution on every weight space.  The section-type action replaces
each creation mode by the corresponding slope-one generator, applied in
the monomial's canonical order; it composes the generators' integer
index rows (see fastapply) on a basis numbered as the images are
reached, and divides back to exact rationals once per monomial.  The
generators act right to left from the vacuum, so each one's input has
a single energy e, the sum of the energy shifts applied before it; the
generator is built at window e (capped at the truncation), which holds
every term that acts on that input.
"""

from __future__ import annotations

from fractions import Fraction

from .fastapply import BasisIndex, IndexRow, RowTable, compose_rows
from .operators import w_general
from .states import FockState, Monomial

def monodromy_f(state: FockState) -> FockState:
    """Fiber-type action: sign (-1)^(k+1) per mode, charge c -> -n - c
    for a state of weight n.  The state must be weight-homogeneous.  A
    monomial of energy e with l modes takes the sign (-1)^(e + l)."""
    terms: dict[Monomial, Fraction] = {}
    weight = None
    for mono, coeff in state.terms.items():
        energy = sum(k for k, _ in mono)
        if weight is None:
            weight = energy
        elif energy != weight:
            raise ValueError("mixed-weight input: apply weight-by-weight")
        terms[mono] = -coeff if (energy + len(mono)) & 1 else coeff
    if weight is None:
        return state.copy()
    image = FockState(-weight - state.charge)
    image.terms = terms
    return image


def monodromy_s(state: FockState, N: int) -> FockState:
    """Section-type action: each creation mode alpha_{-k}(gamma) is
    replaced by the slope-one generator w^{1,-k}_gamma; linear; exact on
    states of energy <= N, and a ValueError when a nonzero intermediate
    image leaves that window.  A pt mode takes the pt slope field, whose
    one convention no criterion checks (see ``operators``).

    Each generator is built at the window min(e, N), e the energy of the
    image it acts on: exact there, and at e > N its RowTable refuses the
    read of a nonzero image with the window-N error."""
    if state.charge != 0:
        raise ValueError("the section-type action is defined on charge-0 states")
    # the vacuum is index 0; every other monomial is numbered on first sight
    basis = BasisIndex(0)
    # per (mode (k, label), window): the generator's rows, built as read
    tables: dict[tuple[tuple[int, int], int], RowTable] = {}
    out: dict[Monomial, Fraction] = {}
    charge = 0
    for mono, coeff in state.terms.items():
        row: IndexRow = {0: 1}
        denom = 1
        shift = 0
        energy = 0
        for mode in reversed(mono):
            window = min(energy, N)
            rows = tables.get((mode, window))
            if rows is None:
                rows = tables[mode, window] = RowTable(
                    w_general(1, -mode[0], mode[1], window), basis
                )
            row = compose_rows(rows, row)
            denom *= rows.op.denom
            shift += rows.op.charge_shift
            energy += rows.op.energy_shift
        if not row:
            continue
        if out and shift != charge:
            raise ValueError(
                "image spans several charges; apply to single monomials instead"
            )
        charge = shift
        for u, v in basis.monomials(row, denom).items():
            total = out.get(u, 0) + coeff * v
            if total:
                out[u] = total
            else:
                del out[u]
    return FockState(charge, out)
