from fractions import Fraction

import ellwall.fock.verify as verify
from ellwall.fock.fastapply import BasisIndex, mode_tables
from ellwall.fock.labels import COH_PT
from ellwall.fock.operators import OperatorExpr, w_small
from ellwall.fock.states import FockState

from fock_reference import apply


def factor_of(op: OperatorExpr) -> Fraction:
    """The factor of a one-term slope-zero generator over its bare mode,
    read as the sweep reads it."""
    (term,) = op.terms
    return Fraction(term.coeff, op.denom)


def test_sweep_rows_are_w_small():
    """The slope-zero sweep represents w^{0,n}_g as the factor of
    operators.w_small times the bare Heisenberg mode's table; that must
    be w_small applied by the reference on every monomial of energy <= 3
    (the basis is numbered to depth 6, which holds every creation
    image)."""
    basis = BasisIndex(6)
    tables = mode_tables(basis, 3)
    for n in (-3, -2, -1, 1, 2, 3):
        for li in range(4):
            op = w_small(n, li)
            factor = factor_of(op)
            target, alpha = tables[n, li]
            for i in range(basis.count(3)):
                mono = basis.monos[i]
                got = {basis.monos[target[i]]: factor * alpha[i]} if alpha[i] else {}
                want = apply(op, FockState.from_monomial(mono))
                assert FockState(0, got) == want, (n, li, mono)


def test_central_witness_is_exact(monkeypatch):
    """A doubled pt factor in w_small breaks the pt normalization and the
    pairing of E with pt; the witness carries the rescaled commutator,
    not the bare alpha row."""
    true_w_small = verify.w_small

    def doubled(n, li):
        op = true_w_small(n, li)
        if li != COH_PT:
            return op
        (term,) = op.terms
        return OperatorExpr(
            (term._replace(coeff=2 * term.coeff),), op.truncation,
            op.charge_shift, op.energy_shift, op.parity, op.name, op.denom,
        )

    monkeypatch.setattr(verify, "w_small", doubled)
    result = verify.small_mode_sweep(3, 2)
    central = [f for f in result["failures"] if "central" in f["identity"]]
    assert central
    for f in central:
        assert set(f["labels"]) == {"E", "pt"}
        # the patched generators give twice the pairing n <E, pt>
        (term,) = f["state"]["terms"]
        twice = str(2 * int(f["expected"]))
        assert f["got"]["terms"] == [dict(term, coeff=twice)]
    normalization = [f for f in result["failures"] if "normalization" in f["identity"]]
    assert normalization and all(f["label"] == "pt" for f in normalization)
