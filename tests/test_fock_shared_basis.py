"""Operator tables that share one ``BasisIndex`` share its contraction work.

``BasisIndex`` caches each annihilation chain per (monomial, part)
(``contract``), each creation merge per (monomial, creation part)
(``merge``) and each split of a monomial into its active part and
spectators per contracted mode set (``split``), and every ``RowTable``
on the basis reads them.  These tests check that a row does not depend on
which tables filled the caches before it, that each chain runs once per
basis, and that the caches go with the basis.
"""

import random
import sys
import weakref
from fractions import Fraction
from itertools import product

import pytest

import ellwall.fock.fastapply as fastapply
import ellwall.fock.monodromy as monodromy
import ellwall.fock.verify as verify
from ellwall.fock.fastapply import BasisIndex, RowTable
from ellwall.fock.labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_NAMES, star_label
from ellwall.fock.states import FockState

from fock_reference import apply

N = 4

# the c04 grid: E and sigma+- with |a| <= 1, |b| <= 2, and the slope-0 pt generators
OPERANDS = [
    (a, b, li)
    for a in (-1, 0, 1)
    for b in range(-2, 3)
    if (a, b) != (0, 0)
    for li in (COH_E, COH_SP, COH_SM)
] + [(0, b, COH_PT) for b in (-2, -1, 1, 2)]


def _targets(operands):
    """The generator term's table of every pair with one (see
    ``_BracketEngine._target``)."""
    out = set()
    for (a, b, gi), (c, d, hi) in product(operands, repeat=2):
        slope = (a + c, b + d)
        product_label = star_label(gi, hi)
        if slope != (0, 0) and a * d - b * c and product_label is not None:
            out.add((*slope, product_label[0]))
    return out


TABLES = OPERANDS + sorted(_targets(OPERANDS) - set(OPERANDS))


def _window(op) -> int:
    return N if op.truncation is None else min(op.truncation, N)


def _rows_by_monomial(table: RowTable, indices) -> dict:
    basis = table.basis
    return {basis.monos[i]: basis.monomials(table[i]) for i in indices}


@pytest.fixture(scope="module")
def alone():
    """Every table built on a basis of its own, all its rows read."""
    engine = verify._BracketEngine(N)
    out = {}
    for key in TABLES:
        op = engine.rows(*key).op
        table = RowTable(op, BasisIndex(N))
        out[key] = (op, _rows_by_monomial(table, range(table.basis.count(_window(op)))))
    return out


def test_grid_holds_sigma_targets_off_the_operands():
    extra = set(TABLES) - set(OPERANDS)
    assert {li for _, _, li in extra} == {COH_E, COH_SP, COH_SM}
    assert len(TABLES) > 80


@pytest.mark.parametrize("order", ("forward", "reversed"))
def test_shared_basis_rows_equal_rows_built_alone(alone, order):
    """On one shared basis, read in either order (rows ascending, then
    descending), every row keyed by monomials equals the row of the same
    operator's table on a fresh basis."""
    basis = BasisIndex(N)
    keys = TABLES if order == "forward" else TABLES[::-1]
    for key in keys:
        op, want = alone[key]
        table = RowTable(op, basis)
        indices = range(basis.count(_window(op)))
        got = _rows_by_monomial(table, indices if order == "forward" else indices[::-1])
        assert got == want, (LABEL_NAMES[key[2]], key[:2])
    assert basis._contractions and basis._merges and basis._splits


def test_rows_equal_the_reference_below_energy_three(alone):
    checked = 0
    for key, (op, rows) in alone.items():
        for mono, row in rows.items():
            if sum(k for k, _ in mono) > 3:
                continue
            want = apply(op, FockState.from_monomial(mono)).terms
            assert {u: Fraction(c, op.denom) for u, c in row.items()} == want, (key, mono)
            checked += 1
    assert checked > 2000


def test_each_chain_runs_once_per_basis(monkeypatch):
    """Over a seeded stream of point queries at one truncation, the
    annihilation chain runs once per (monomial, annihilation part) and
    the creation chain once per (monomial, creation part)."""
    calls: dict[str, dict] = {"annihilation": {}, "creation": {}}

    def counted(kind, chain):
        def wrapper(mono, part):
            seen = calls[kind]
            seen[mono, part] = seen.get((mono, part), 0) + 1
            return chain(mono, part)
        return wrapper

    monkeypatch.setattr(
        fastapply, "annihilation_chain", counted("annihilation", fastapply.annihilation_chain)
    )
    monkeypatch.setattr(
        fastapply, "creation_chain", counted("creation", fastapply.creation_chain)
    )
    verify._engine.cache_clear()
    rng = random.Random(7)
    for _ in range(10):
        x, y = rng.sample(OPERANDS, 2)
        assert verify.bracket_verify(*x, *y, 5).match
    assert len(calls["annihilation"]) > 100 and len(calls["creation"]) > 500
    for kind, seen in calls.items():
        assert set(seen.values()) == {1}, kind


class TestCacheScope:
    """The caches live on the basis, so they go when it goes."""

    @pytest.fixture
    def bases(self, monkeypatch):
        refs: list[weakref.ref] = []

        class Recorded(BasisIndex):
            def __init__(self, depth):
                super().__init__(depth)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(verify, "BasisIndex", Recorded)
        monkeypatch.setattr(monodromy, "BasisIndex", Recorded)
        verify._engine.cache_clear()
        return refs

    def test_sweep_frees_its_basis_on_return(self, bases):
        summary = verify.bracket_sweep(N)
        assert summary.matches == summary.instances
        (ref,) = bases
        assert ref() is None

    def test_point_queries_free_the_basis_of_the_last_truncation(self, bases):
        verify.bracket_verify(1, 0, "sigma+", 0, 1, "sigma-", 4)
        verify.bracket_verify(0, 1, "E", 1, -1, "sigma+", 4)
        (first,) = bases
        assert first()._contractions
        verify.bracket_verify(1, 0, "sigma+", 0, 1, "sigma-", 3)
        assert first() is None
        assert bases[1]() is verify._engine(3).basis

    def test_monodromy_calls_leave_no_cache_behind(self, bases):
        """Each call's basis goes on return, and no unbounded container
        of an ``ellwall.fock`` module grows over calls on new states."""
        warm = FockState.from_monomial(((2, COH_PT), (1, COH_E)))
        states = [
            FockState.from_monomial(((1, COH_PT), (1, COH_SP), (1, COH_SM))),
            FockState.from_monomial(((2, COH_E), (1, COH_PT))),
            FockState.from_monomial(((3, COH_PT),)),
        ]
        monodromy.monodromy_s(warm, 4)
        before = _module_cache_sizes()
        for state in states:
            assert not monodromy.monodromy_s(state, 4).is_zero()
        assert len(bases) == 4
        assert all(ref() is None for ref in bases)
        assert _module_cache_sizes() == before


def _size(value) -> int:
    """The entries of a container and of the containers it maps to."""
    inner = value.values() if isinstance(value, dict) else ()
    return len(value) + sum(len(v) for v in inner if isinstance(v, (dict, list, set)))


def _module_cache_sizes() -> dict:
    """The size of every container held by a module of ``ellwall.fock``,
    and of every lru cache without a size bound."""
    sizes = {}
    for name, module in sys.modules.items():
        if not name.startswith("ellwall.fock"):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[name, attr] = _size(value)
            elif hasattr(value, "cache_info") and value.cache_info().maxsize is None:
                sizes[name, attr] = value.cache_info().currsize
    return sizes
