from fractions import Fraction

import ellwall.fock.verify as verify
from ellwall.fock import operators
from ellwall.fock.labels import COH_PT, label_index, pairing_scalar
from ellwall.fock.operators import OperatorExpr, w_small
from ellwall.fock.states import FockState
from ellwall.serialize import to_json

from fock_reference import apply
from test_fock_spectators import FullWindowEngine


def test_sweep_rows_are_w_small():
    """The slope-zero sweep reads w^{0,n}_g from its bracket engine's
    row tables; they must be w_small applied by the reference on every
    monomial of energy <= 3 (the engine's basis, of depth 6, holds every
    creation image)."""
    engine = verify._BracketEngine(6)
    basis = engine.basis
    for n in (-3, -2, -1, 1, 2, 3):
        for li in range(4):
            op = w_small(n, li)
            rows = engine.rows(0, n, li)
            denom = rows.op.denom
            for i in range(basis.count(3)):
                mono = basis.monos[i]
                got = {basis.monos[u]: Fraction(c, denom) for u, c in rows[i].items()}
                want = apply(op, FockState.from_monomial(mono))
                assert FockState(0, got) == want, (n, li, mono)


def doubled_pt(monkeypatch):
    """Double the factor of every pt slope-zero generator."""
    true_w_small = operators.w_small

    def doubled(n, li):
        op = true_w_small(n, li)
        if li != COH_PT:
            return op
        ((part, [(a, creations)]),) = op.groups.items()
        return OperatorExpr(
            ((2 * a, creations, part),), op.truncation,
            op.charge_shift, op.energy_shift, op.parity, op.denom,
        )

    monkeypatch.setattr(operators, "w_small", doubled)


def test_central_witness_is_exact(monkeypatch):
    """A doubled pt factor in w_small breaks the pt normalization and the
    pairing of E with pt; the witness carries the rescaled commutator,
    not the bare alpha row."""
    doubled_pt(monkeypatch)
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


def test_sweep_equals_the_full_window_pass(monkeypatch):
    """The sweep's report, witnesses included, is byte-equal to one from
    the engine's pass over every window monomial without the spectator
    reduction or the super-commuting skip, clean and with the pt
    generators doubled."""
    for mutate in (False, True):
        if mutate:
            doubled_pt(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(verify, "_BracketEngine", FullWindowEngine)
            full = to_json(verify.small_mode_sweep(6, 4))
        fast = to_json(verify.small_mode_sweep(6, 4))
        assert fast == full
        assert ('"ok": true' in fast) is not mutate


def test_only_the_dual_pairs_reach_the_commutator_pass(monkeypatch):
    """Per n, the four label pairs of nonzero pairing reach
    ``commutator_rows``; the other twelve super-commute."""
    calls = []
    true_rows = verify.commutator_rows

    def counting(*args):
        calls.append(args)
        return true_rows(*args)

    monkeypatch.setattr(verify, "commutator_rows", counting)
    assert verify.small_mode_sweep(8, 6)["ok"]
    assert len(calls) == 24


def test_modes_above_the_truncation_skip_the_empty_pairing():
    """For n > N the pairing's window N - n is empty: the sweep checks
    the normalizations alone and counts no pairing instance."""
    result = verify.small_mode_sweep(3, 5)
    assert result["ok"] and result["checked"] == 858


def test_a_non_uniform_pairing_has_the_engine_witness(monkeypatch):
    """Where the commutator is not one scalar on the window, the witness
    is the engine's: the first monomial whose row breaks the vacuum's
    scalar, here the window's last, whose row is dropped."""
    true_rows = verify.commutator_rows

    def last_dropped(rows_a, rows_b, indices, eps):
        return true_rows(rows_a, rows_b, indices, eps)[:-1] + [{}]

    monkeypatch.setattr(verify, "commutator_rows", last_dropped)
    result = verify.small_mode_sweep(4, 2)
    assert len(result["failures"]) == 8
    for f in result["failures"]:
        n = int(f["identity"][len("[w[0,")])
        value = n * pairing_scalar(*map(label_index, f["labels"]))
        assert f["expected"] == f"uniform scalar {value}"
        assert f["state"]["terms"][0]["modes"] and f["got"]["terms"] == []
