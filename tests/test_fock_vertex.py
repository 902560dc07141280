import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import ellwall.fock.verify as verify
from ellwall.fock.fastapply import (
    BasisIndex,
    ChargedField,
    _sub_monomials,
    add_scaled,
    annihilation_chain,
    creation_chain,
    mode_tables,
)
from ellwall.fock.labels import COH_E, COH_PT, LABEL_NAMES, label_index
from ellwall.fock.operators import FieldTable
from ellwall.fock.states import FockState, Monomial, basis_monomials, monomial_energy
from ellwall.verify import check_vertex_commutator

from fock_reference import alpha_apply, apply, scale, sub, vertex_mode

DATA = Path(__file__).parent / "data"

# a monomial-keyed integer row
IntRow = dict[Monomial, int]

# ---------------------------------------------------------------------------
# reference oracle: the monomial-keyed engine the index engine replaced


def alpha_row(mono: Monomial, n: int, label: int) -> IntRow:
    """alpha_n(label) on one monomial by the reference path
    (fock_reference.alpha_apply); its coefficients are integers."""
    terms = alpha_apply(n, label, FockState.from_monomial(mono)).terms
    assert all(c.denominator == 1 for c in terms.values())
    return {t: int(c) for t, c in terms.items()}


def apply_single_mode(
    row: IntRow, n: int, label: int, cache: dict[Monomial, IntRow]
) -> IntRow:
    """alpha_n(label) applied to a monomial-keyed row, memoizing the
    single-monomial rows in ``cache``."""
    out: IntRow = {}
    for mono, coeff in row.items():
        hit = cache.get(mono)
        if hit is None:
            hit = cache[mono] = alpha_row(mono, n, label)
        for target, c in hit.items():
            out[target] = coeff * c
    return out


class MonomialField:
    """The slope-m field's modes n_lo..n_hi on the energy window
    ``depth`` as monomial-keyed rows, built and cached per monomial."""

    def __init__(self, m: int, n_lo: int, n_hi: int, depth: int):
        self.m, self.n_lo, self.n_hi, self.depth = m, n_lo, n_hi, depth
        table = FieldTable(m, depth, depth)
        self._create = table.create
        self._annihilate = dict(pair for level in table.annihilate for pair in level)
        self.denom = table.denom
        self._slices: dict[Monomial, dict[int, IntRow]] = {}

    def slices(self, mono: Monomial) -> dict[int, IntRow]:
        cached = self._slices.get(mono)
        if cached is not None:
            return cached
        e = monomial_energy(mono)
        assert e <= self.depth
        n_lo = max(self.n_lo, e - self.depth)
        slices: dict[int, IntRow] = {n: {} for n in range(n_lo, self.n_hi + 1)}
        for sub in _sub_monomials(tuple(md for md in mono if md[1] == COH_PT)):
            part = tuple((k, COH_E) for k, _ in sub)
            ann = annihilation_chain(mono, part)
            if ann is None:
                continue
            factor, reduced = ann
            a_coeff = self._annihilate[part] * factor
            q = monomial_energy(part)
            for n in range(n_lo, min(self.n_hi, q) + 1):
                for lam, c_coeff in self._create[q - n]:
                    final = creation_chain(reduced, lam)[1]
                    add_scaled(slices[n], {final: c_coeff * a_coeff}, 1)
        self._slices[mono] = slices
        return slices


def oracle_sweep(N, m_values, k_max, n_max, zero_labels, zero_window) -> list[dict]:
    """The witnesses of the monomial-keyed vertex sweep, in sweep order."""
    monos = basis_monomials(N)
    failures = []
    ks = [k for k in range(-k_max, k_max + 1) if k != 0]
    zero_idx = [label_index(g) for g in zero_labels]
    mode_caches: dict[tuple[int, int], dict[Monomial, IntRow]] = {}
    for m in m_values:
        field = MonomialField(m, -n_max - k_max, n_max + k_max, N + n_max)
        for k in ks:
            window = N - max(0, -k)
            small_cap = min(window, zero_window)
            for mono in monos:
                e = monomial_energy(mono)
                if e > window:
                    continue
                slices = field.slices(mono)
                for gi in (COH_PT, *zero_idx) if e <= small_cap else (COH_PT,):
                    cache = mode_caches.setdefault((k, gi), {})
                    ak = apply_single_mode({mono: 1}, k, gi, cache)
                    for n in range(-n_max, n_max + 1):
                        diff = apply_single_mode(slices[n], k, gi, cache)
                        for t, c in ak.items():
                            add_scaled(diff, field.slices(t)[n], -c)
                        pair = verify.pairing_scalar(gi, COH_E) * m
                        if pair:
                            add_scaled(diff, slices[n + k], -pair)
                        if diff:
                            failures.append(
                                {
                                    "m": m,
                                    "k": k,
                                    "label": LABEL_NAMES[gi],
                                    "mode": n,
                                    "state": FockState.from_monomial(
                                        mono
                                    ).to_json_dict(),
                                    "difference": FockState(
                                        m,
                                        {
                                            u: Fraction(v, field.denom)
                                            for u, v in diff.items()
                                        },
                                    ).to_json_dict(),
                                }
                            )
    return failures


def corrupt_pairing(monkeypatch):
    """Put the sweep's pairing factor off by one, so that checks fail."""
    true_pairing = verify.pairing_scalar
    monkeypatch.setattr(
        verify, "pairing_scalar", lambda i, j: true_pairing(i, j) + 1
    )
    return true_pairing


# ---------------------------------------------------------------------------
# the index engine against the oracles


def test_mode_tables_match_single_mode_row():
    """Every single-mode row of the tables against the reference
    alpha_apply, exactly: the image and its coefficient where the image
    lies in the basis, and a zero factor otherwise."""
    basis = BasisIndex(8)
    tables = mode_tables(basis, 4)
    assert len(tables) == 32
    for (n, label), (target, factor) in tables.items():
        assert len(target) == len(factor) == basis.size
        for i, mono in enumerate(basis.monos):
            want = alpha_apply(n, label, FockState.from_monomial(mono)).terms
            if want and monomial_energy(mono) - n <= basis.depth:
                assert {basis.monos[target[i]]: Fraction(factor[i])} == want
            else:
                assert factor[i] == 0


def test_index_slices_match_monomial_oracle():
    # the sweep's shape at truncation 5 with n_max = k_max = 2
    basis = BasisIndex(7)
    top = basis.count(5)
    for m in (-2, -1, 1, 2):
        field = ChargedField(m, -4, 4, basis, 5)
        oracle = MonomialField(m, -4, 4, 7)
        assert field.denom == oracle.denom and len(field.slices) == top
        for i in range(top):
            got = {n: basis.monomials(row) for n, row in field.slices[i].items()}
            assert got == oracle.slices(basis.monos[i])


def test_sweep_matches_monomial_oracle(monkeypatch):
    corrupt_pairing(monkeypatch)
    args = (3, (1, -2), 3, 3, ("E", "sigma-"), 1)
    result = verify.vertex_commutator_sweep(*args)
    assert result["failures"] == oracle_sweep(*args)
    assert len(result["failures"]) > 100


def test_corrupted_pairing_witnesses_match_golden(monkeypatch):
    """The full witness list of the corrupted-pairing sweep, byte for
    byte as the monomial-keyed engine reported it."""
    corrupt_pairing(monkeypatch)
    result = verify.vertex_commutator_sweep(
        3, m_values=(-1, 2), k_max=2, n_max=2, zero_window=2
    )
    assert result["checked"] == 2880
    lines = (DATA / "vertex_corrupt_pairing_witnesses.jsonl").read_text().splitlines()
    assert [json.dumps(w, separators=(",", ":")) for w in result["failures"]] == lines


def test_checked_count_at_truncation_4():
    result = check_vertex_commutator(4)
    assert result["pass"] and result["checked"] == 82368


def test_witness_difference_matches_reference(monkeypatch):
    """With the pairing off by one every pt check fails; each witness
    must carry the exact rational difference that the reference path
    (fock_reference.apply / alpha_apply) gives for the patched identity."""
    true_pairing = corrupt_pairing(monkeypatch)
    N, n_max, k_max = 3, 2, 2
    result = verify.vertex_commutator_sweep(
        N, m_values=(-1, 2), k_max=k_max, n_max=n_max, zero_window=2
    )
    failures = result["failures"]
    assert failures and not result["ok"]

    @lru_cache(maxsize=None)
    def field(m, n):
        return vertex_mode(m, n, N)

    for w in failures:
        m, k, n, gi = w["m"], w["k"], w["mode"], label_index(w["label"])
        (term,) = w["state"]["terms"]
        mono = tuple((j, label_index(name)) for j, name in term["modes"])
        v = FockState.from_monomial(mono)
        pair = (true_pairing(gi, COH_E) + 1) * m
        want = sub(
            sub(
                alpha_apply(k, gi, apply(field(m, n), v)),
                apply(field(m, n), alpha_apply(k, gi, v)),
            ),
            scale(apply(field(m, n + k), v), pair),
        )
        assert w["difference"] == want.to_json_dict()
    # the unscaling is exercised: some coefficients are not integers
    assert any(
        "/" in t["coeff"] for w in failures for t in w["difference"]["terms"]
    )
