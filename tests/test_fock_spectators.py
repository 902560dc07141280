"""Spectator reduction in the bracket engine, against the full pass.

A mode that no annihilation group of an operator contracts is a
spectator: it super-commutes with the operator, so the operator's row on
a monomial is its row on the monomial's contracted modes (the active
part), spread with the spectators and a sign.  ``RowTable`` builds only
active-part rows from the terms, and ``_BracketEngine.scan_pair`` runs
the commutator pass and the comparison only on the window monomials
whose modes the operands or a target contract.

``FullWindowEngine`` keeps the pass before that reduction: every
monomial of the window, with every row built from the terms, and each
order scanned on its own target.  The reports that ``_report`` builds
from its step, witnesses included, must be byte-equal to those built
from the engine's.  The signed spread is checked against the reference
``apply`` on monomials with odd spectators.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import ellwall.fock.verify as verify
from ellwall.fock.fastapply import (
    BasisIndex,
    RowTable,
    _grouped_terms,
    apply_to_monomial,
    commutator_rows,
)
from ellwall.fock.labels import (
    COH_E, COH_PT, COH_SM, COH_SP, LABEL_NAMES, LABEL_PARITY,
)
from ellwall.fock.operators import w_general
from ellwall.fock.states import FockState
from ellwall.serialize import to_json

from fock_reference import apply


class UnfactoredRows(dict):
    """Rows of ``op`` each built from its terms on first read, with the
    RowTable window check and no spectator factorization."""

    def __init__(self, op, basis):
        super().__init__()
        self.op = op
        self.basis = basis
        self.grouped = _grouped_terms(op)
        self.contracted = self.grouped[1]

    def __missing__(self, i):
        energy = self.basis.energy[i]
        if self.op.truncation is not None and energy > self.op.truncation:
            raise ValueError(f"operator window {self.op.truncation} below {energy}")
        row = self[i] = apply_to_monomial(self.grouped, self.basis, i)
        return row


class FullWindowEngine(verify._BracketEngine):
    """The bracket engine's pass over every monomial of the evaluation
    window, on unfactored rows, with each order scanned on its own
    target."""

    def rows(self, a, b, li):
        key = (a, b, li)
        cached = self._rows.get(key)
        if cached is None:
            op = w_general(a, b, li, self.N - max(0, -b))
            cached = self._rows[key] = UnfactoredRows(op, self.basis)
        return cached

    def scan_pair(self, a, b, gi, c, d, hi):
        w = verify._eval_window(self.N, b, d)
        rows_a = self.rows(a, b, gi)
        rows_b = self.rows(c, d, hi)
        denom = rows_a.op.denom * rows_b.op.denom
        eps = 1 if (LABEL_PARITY[gi] and LABEL_PARITY[hi]) else -1
        indices = range(self.basis.count(w))
        lhs = commutator_rows(rows_a, rows_b, indices, eps)
        fwd = self._target(a, b, gi, c, d, hi)
        rev = self._target(c, d, hi, a, b, gi)
        central = (a + c, b + d) == (0, 0)
        scan = verify._scan(central, fwd, indices, lhs)
        # the reverse order, scanned on its own target, meets the same scan
        assert verify._scan(central, rev, indices, lhs) == scan
        return scan, (fwd, denom), (rev, eps * denom)


def pair_reports(engine, x, y):
    """The reports of [x, y} and [y, x} from one ``scan_pair`` step."""
    scan, fwd, rev = engine.scan_pair(*x, *y)
    return engine._report(x, y, fwd, scan), engine._report(y, x, rev, scan)


# E, sigma+- with |a| <= 1, |b| <= 2, and the slope-0 pt generators
OPERANDS = [
    (a, b, li)
    for a in (-1, 0, 1)
    for b in range(-2, 3)
    if (a, b) != (0, 0)
    for li in (COH_E, COH_SP, COH_SM)
] + [(0, b, COH_PT) for b in (-2, -1, 1, 2)]
PAIRS = list(combinations_with_replacement(OPERANDS, 2))


def report_bytes(engine, N):
    """Both orders' report JSON for every pair that fits the window."""
    out = {}
    for x, y in PAIRS:
        if verify._eval_window(N, x[1], y[1]) >= 0:
            out[x, y] = [to_json(r.to_json_dict()) for r in pair_reports(engine, x, y)]
    return out


@pytest.mark.parametrize("N", (3, 4, 5))
def test_reduced_engine_matches_full_window_pass(N):
    got = report_bytes(verify._BracketEngine(N), N)
    want = report_bytes(FullWindowEngine(N), N)
    assert got.keys() == want.keys() and len(got) > 100
    for key, reports in want.items():
        assert got[key] == reports, key


def test_reduced_witnesses_match_full_window_pass(monkeypatch):
    """With every target sent to the E label most instances fail; the
    witness is the first failing monomial of the window, and the reduced
    pass must find the same one with the same rows."""
    monkeypatch.setattr(verify, "star_label", lambda i, j: (COH_E, 1))
    N = 4
    got = report_bytes(verify._BracketEngine(N), N)
    want = report_bytes(FullWindowEngine(N), N)
    failed = sum('"mismatch"' in r for reports in want.values() for r in reports)
    assert failed > 1000
    for key, reports in want.items():
        assert got[key] == reports, key


def test_targets_contracting_modes_outside_the_operands(monkeypatch):
    """With every target sent to the sigma+ label, many pairs have a
    target that contracts a window mode neither operand contracts, so the
    first failing monomial can hold that mode.  The reduced pass must
    still find the full pass's witnesses, which it does only when the
    targets' modes belong to the monomial set it checks."""
    monkeypatch.setattr(verify, "star_label", lambda i, j: (COH_SP, 1))
    N = 3
    engine = verify._BracketEngine(N)
    outside = 0
    for x, y in PAIRS:
        if verify._eval_window(N, x[1], y[1]) < 0:
            continue
        target = engine._target(*x, *y)
        operands = engine.rows(*x).contracted | engine.rows(*y).contracted
        outside += target is not None and not target[1].contracted <= operands
    assert outside > 100
    got = report_bytes(engine, N)
    want = report_bytes(FullWindowEngine(N), N)
    assert sum('"mismatch"' in r for reports in want.values() for r in reports) > 100
    for key, reports in want.items():
        assert got[key] == reports, key


SPREAD_OPS = [
    (a, b, li) for li in (COH_SP, COH_SM, COH_E) for a in (-1, 1) for b in (-1, 0, 2)
]


@pytest.mark.parametrize(
    "a,b,li",
    SPREAD_OPS,
    ids=[f"w[{a},{b};{LABEL_NAMES[li]}]" for a, b, li in SPREAD_OPS],
)
def test_spread_rows_with_odd_spectators_match_reference(a, b, li):
    """Rows of monomials holding an odd mode the operator does not
    contract come from the active part's row, spread with the merge signs
    and the operator's parity sign; they must equal the reference."""
    N = 4
    op = w_general(a, b, li, N)
    basis = BasisIndex(N)
    table = RowTable(op, basis)
    checked = 0
    for i in range(basis.count(N)):
        mono = basis.monos[i]
        if not any(LABEL_PARITY[m[1]] and m not in table.contracted for m in mono):
            continue
        want = apply(op, FockState.from_monomial(mono))
        got = basis.monomials(table[i])
        assert {u: Fraction(c, op.denom) for u, c in got.items()} == want.terms, mono
        checked += 1
    assert checked > 20


@pytest.mark.parametrize("N", (3, 4, 5))
def test_skipped_pairs_commute_on_the_whole_window(N, monkeypatch):
    """Every pair whose commutator pass the engine skips, its terms
    super-commuting, gives only zero rows in the full pass over every
    monomial of the window, on unfactored rows."""
    kernel_calls = []
    real = verify.commutator_rows

    def counting(*args):
        kernel_calls.append(None)
        return real(*args)

    monkeypatch.setattr(verify, "commutator_rows", counting)
    engine = verify._BracketEngine(N)
    full = FullWindowEngine(N)
    skipped, reached = [], []
    for x, y in PAIRS:
        w = verify._eval_window(N, x[1], y[1])
        if w < 0:
            continue
        before = len(kernel_calls)
        engine.scan_pair(*x, *y)
        if len(kernel_calls) > before:
            reached.append((x, y))
            continue
        skipped.append((x, y))
        eps = 1 if LABEL_PARITY[x[2]] and LABEL_PARITY[y[2]] else -1
        rows = commutator_rows(
            full.rows(*x), full.rows(*y), range(full.basis.count(w)), eps
        )
        assert not any(rows), (x, y)
    assert len(skipped) > 500 and len(reached) > 100
    # slope-0 pt takes part on both sides of the shortcut
    assert any(COH_PT in (x[2], y[2]) for x, y in skipped)
    assert any(COH_PT in (x[2], y[2]) for x, y in reached)
