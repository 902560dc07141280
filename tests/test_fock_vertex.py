import gc
import json
import weakref
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import ellwall.fock.verify as verify
from ellwall.fock import fastapply
from ellwall.fock.fastapply import (
    BasisIndex,
    ChargedField,
    ModeTable,
    RowTable,
    _sub_monomials,
    add_scaled,
)
from ellwall.fock.labels import (
    COH_E,
    COH_PT,
    COH_SM,
    COH_SP,
    LABEL_NAMES,
    LABEL_PARITY,
    label_index,
)
from ellwall.fock.operators import FieldTable, w_small
from ellwall.fock.states import (
    FockState,
    Monomial,
    annihilation_chain,
    basis_monomials,
    creation_chain,
    monomial_energy,
)
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
        self._annihilate = {
            part: c for level in table.annihilate for c, part in level
        }
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
                for c_coeff, lam in self._create[q - n]:
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
                        pair = verify.cup_pairing(gi, COH_E) * m
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
    """Put the sweep's expected pairing off by one, so that checks fail."""
    true_pairing = verify.cup_pairing
    monkeypatch.setattr(
        verify, "cup_pairing", lambda i, j: true_pairing(i, j) + 1
    )
    return true_pairing


# ---------------------------------------------------------------------------
# the index engine against the oracles


def _mode_entry(basis: BasisIndex, table, i: int) -> dict[Monomial, Fraction]:
    """The image of monomial i under a mode table, whose entry is
    (target, factor), or None for a zero image."""
    hit = table[i]
    return {basis.monos[hit[0]]: Fraction(hit[1])} if hit else {}


def _lazy_tables(basis: BasisIndex) -> dict:
    """Every per-monomial mode table with |n| <= 4 on the basis."""
    return {
        (n, label): ModeTable(basis, n, label)
        for k in range(1, 5)
        for n in (-k, k)
        for label in range(4)
    }


def test_mode_tables_match_single_mode_row():
    """Every single-mode row of the tables with |n| <= 4 on the depth-8
    basis whose image lies within the depth against the reference
    alpha_apply, exactly: the image and its coefficient, and a zero
    factor where the mode vanishes."""
    basis = BasisIndex(8)
    lazy = _lazy_tables(basis)
    assert len(lazy) == 32
    for (n, label), table in lazy.items():
        for i, mono in enumerate(basis.monos[: basis.size]):
            if basis.energy[i] - n <= basis.depth:
                want = alpha_apply(n, label, FockState.from_monomial(mono)).terms
                assert _mode_entry(basis, table, i) == want


def test_mode_table_matches_mode_tables():
    """Every per-monomial table with |n| <= 4, read on its own basis,
    against the same table among all 32 filled on one shared depth-8
    basis, keyed by monomials; where the image is a creation image above
    the depth, against the reference alpha_apply as well."""
    shared = BasisIndex(8)
    tables = _lazy_tables(shared)
    above = 0
    for (n, label), table in tables.items():
        alone = BasisIndex(8)
        single = ModeTable(alone, n, label)
        for i, mono in enumerate(shared.monos[: shared.size]):
            got = _mode_entry(shared, table, i)
            assert _mode_entry(alone, single, alone.index[mono]) == got
            if shared.energy[i] - n > shared.depth:
                want = alpha_apply(n, label, FockState.from_monomial(mono)).terms
                assert got == want
                above += bool(want)
    assert above > 1000


def test_mode_table_above_the_depth_matches_reference():
    """The monomials that the reads of every enumerated entry number
    above the depth (creation images), each read on every table with
    |n| <= 4, against the reference alpha_apply."""
    basis = BasisIndex(6)
    lazy = _lazy_tables(basis)
    for table in lazy.values():
        for i in range(basis.size):
            table[i]
    numbered = range(basis.size, len(basis.monos))
    assert len(numbered) > 1000 and min(basis.energy[i] for i in numbered) == 7
    for i in numbered:
        state = FockState.from_monomial(basis.monos[i])
        for (n, label), table in lazy.items():
            want = alpha_apply(n, label, state).terms
            assert _mode_entry(basis, table, i) == want


def test_mode_table_roles_match_the_row_table_of_the_mode():
    """A mode table's ``contracted`` and ``created`` sets are those that a
    RowTable reads off the terms of the bare mode (w_small, one term)."""
    basis = BasisIndex(4)
    for (n, label), table in _lazy_tables(basis).items():
        rows = RowTable(w_small(n, label), basis)
        assert (table.contracted, table.created) == (rows.contracted, rows.created)
        assert len(table.contracted | table.created) == 1


def test_sweep_numbers_the_window_and_the_images_it_reads(monkeypatch):
    """The sweep enumerates its window alone and numbers fewer monomials
    than the image bound's basis holds."""
    made = []

    class Recording(BasisIndex):
        def __init__(self, depth):
            super().__init__(depth)
            made.append(self)

    monkeypatch.setattr(verify, "BasisIndex", Recording)
    assert verify.vertex_commutator_sweep(4)["ok"]
    (basis,) = made
    assert basis.depth == 4
    assert basis.size < len(basis.monos) < BasisIndex(8).size


def test_sweep_and_fields_split_each_window_monomial_once(monkeypatch):
    """The sweep's pt-part reduction and the four fields' non-pt branch
    read ``BasisIndex.split`` on one cache key, the fields' ``contracted``
    set: each window monomial is split once, and the fields' reads, of
    monomials with spectators among them, hit that cache."""
    made, fields, computed = [], [], []

    class Recording(BasisIndex):
        def __init__(self, depth):
            super().__init__(depth)
            made.append(self)

        def split(self, i, contracted):
            computed.append(i)
            return super().split(i, contracted)

    class Recorded(ChargedField):
        def __init__(self, *args):
            super().__init__(*args)
            fields.append(self)

    monkeypatch.setattr(verify, "BasisIndex", Recording)
    monkeypatch.setattr(verify, "ChargedField", Recorded)
    assert verify.vertex_commutator_sweep(4)["ok"]
    (basis,) = made
    assert len(fields) == 4 and list(basis._splits) == [fields[0].contracted]
    (cache,) = basis._splits.values()
    assert all(field._splits is cache for field in fields)
    assert computed == list(range(basis.count(4))) and len(cache) == len(computed)
    # the fields read every monomial they build through that cache; on a
    # passing sweep only the pt label runs, on pt-only monomials
    built = {i for field in fields for i in field}
    assert built <= cache.keys()
    assert all(l == COH_PT for i in built for _, l in basis.monos[i])
    # a read of a monomial with spectators takes the field's spread branch
    # through the same cache, splitting nothing again
    field = fields[0]
    mixed = [
        i for i in range(basis.count(4)) if any(l != COH_PT for _, l in basis.monos[i])
    ]
    oracle = MonomialField(field.m, field.n_lo, field.n_hi, field.bound)
    for i in mixed:
        got = {n: basis.monomials(row) for n, row in field[i].items()}
        assert got == oracle.slices(basis.monos[i])
    assert len(mixed) > 50 and computed == list(range(basis.count(4)))


def test_index_slices_match_monomial_oracle():
    # the sweep's shape at truncation 5 with n_max = k_max = 2
    basis = BasisIndex(7)
    top = basis.count(5)
    for m in (-2, -1, 1, 2):
        field = ChargedField(m, -4, 4, basis, 5, 7)
        oracle = MonomialField(m, -4, 4, 7)
        assert field.denom == oracle.denom
        for i in range(top):
            got = {n: basis.monomials(row) for n, row in field[i].items()}
            assert got == oracle.slices(basis.monos[i])
        # every read, the pt parts' included, stays below the top
        assert sorted(field) == list(range(top))


def test_field_read_above_top_raises():
    basis = BasisIndex(7)
    field = ChargedField(1, -4, 4, basis, 5, 7)
    top = basis.count(5)
    assert field[top - 1]
    with pytest.raises(ValueError, match="field top 5 below basis energy 6"):
        field[top]
    assert top not in field


def test_field_holds_no_reference_cycle():
    """Dropping the last reference frees a field and its slices at once,
    with the cycle collector off."""
    basis = BasisIndex(6)
    field = ChargedField(2, -4, 4, basis, 4, 6)
    # a pt-only monomial and one with spectators, built through its pt part
    pt_only = basis.index[((1, COH_PT),)]
    mixed = basis.index[((2, COH_E), (1, COH_SP), (1, COH_PT))]
    assert field[pt_only] and field[mixed] and len(field) == 2
    ref = weakref.ref(field)
    gc.disable()
    try:
        del field
        assert ref() is None
    finally:
        gc.enable()


def test_sweep_matches_monomial_oracle(monkeypatch):
    corrupt_pairing(monkeypatch)
    args = (3, (1, -2), 3, 3, ("E", "sigma-"), 1)
    result = verify.vertex_commutator_sweep(*args)
    assert result["failures"] == oracle_sweep(*args)
    assert len(result["failures"]) > 100


def _state_monomial(state: dict) -> Monomial:
    """The monomial of a one-term witness state."""
    (term,) = state["terms"]
    return tuple((j, label_index(name)) for j, name in term["modes"])


def _recorded_checks(monkeypatch) -> list[tuple[int, int, int, int]]:
    """Record (m, k, label, monomial index) of every _check_modes call."""
    calls = []
    check = verify._check_modes

    def recording(field, table, k, gamma, i, ns, failures):
        calls.append((field.m, k, gamma, i))
        check(field, table, k, gamma, i, ns, failures)

    monkeypatch.setattr(verify, "_check_modes", recording)
    return calls


@pytest.mark.parametrize("N", [3, 4])
def test_reduced_sweep_matches_oracle_on_every_zero_label(monkeypatch, N):
    """The pt-part reduction reports the full pass's witnesses, in order,
    with every zero label on the whole window, so that monomials with an
    odd number of odd spectators meet both fallbacks: a pt part that
    failed, and a sigma label whose corrupted pairing is nonzero."""
    corrupt_pairing(monkeypatch)
    calls = _recorded_checks(monkeypatch)
    args = (N, (1, -2), 4, 2, ("E", "sigma+", "sigma-"), N)
    result = verify.vertex_commutator_sweep(*args)
    assert result["failures"] == oracle_sweep(*args)
    failed = {
        (w["m"], w["k"], label_index(w["label"]), _state_monomial(w["state"]))
        for w in result["failures"]
    }
    basis = BasisIndex(N + 2)
    by_fallback = {"act failed": 0, "odd spectators": 0}
    for m, k, gi, i in calls:
        mono = basis.monos[i]
        pt = tuple(md for md in mono if md[1] == COH_PT)
        if pt == mono:
            continue
        if (m, k, gi, pt) in failed:
            by_fallback["act failed"] += 1
        else:
            # only a sigma label on an odd spectator count is unguarded
            assert LABEL_PARITY[gi] and sum(LABEL_PARITY[l] for _, l in mono) % 2
            by_fallback["odd spectators"] += 1
    assert all(by_fallback.values()), by_fallback


def _full_pass(N, m_values, k_max, n_max, zero_labels, zero_window) -> list[dict]:
    """The sweep's checks on every monomial of its window, with no pt-part
    reduction, in the sweep's order; it reads the tables that
    ``verify.ModeTable`` gives and the pairing of ``verify``."""
    basis = BasisIndex(N)
    ks = [k for k in range(-k_max, k_max + 1) if k != 0]
    ns = range(-n_max, n_max + 1)
    labels = (COH_PT, *(label_index(g) for g in zero_labels))
    tables = {(k, gi): verify.ModeTable(basis, k, gi) for k in ks for gi in labels}
    failures: list[dict] = []
    for m in m_values:
        field = ChargedField(m, -n_max - k_max, n_max + k_max, basis, N, N + n_max)
        for k in ks:
            window = N - max(0, -k)
            small = basis.count(min(window, zero_window))
            for i in range(basis.count(window)):
                for gi in labels if i < small else (COH_PT,):
                    verify._check_modes(field, tables[k, gi], k, gi, i, ns, failures)
    return failures


def test_rho_guard_checks_odd_spectators_of_an_odd_mode(monkeypatch):
    """The rho guard is the only reason for a check under this mutation:
    the sigma+ mode is replaced by a copy of the pt mode signed by the
    parity of the odd modes of the monomial it acts on (a Klein factor),
    and sigma+ pairs with E as pt does.  The copy passes every odd mode
    with a sign, as an odd mode does, and commutes with the field up to
    the pt pairing, so the identity holds on every pt-only monomial and
    on every monomial with an even number of odd modes, and fails where
    the copy passes an odd number of odd spectators, rho = -1.  No pt
    part fails, so only the guard sends the sweep to those monomials;
    it must report the full pass's witnesses."""
    true_table = verify.ModeTable
    true_pairing = verify.cup_pairing

    def klein_pt_copy(basis, n, label):
        if label != COH_SP:
            return true_table(basis, n, label)
        pt = true_table(basis, n, COH_PT)

        class Signed(dict):
            def __missing__(self, i):
                hit = pt[i]
                if hit and sum(LABEL_PARITY[l] for _, l in basis.monos[i]) & 1:
                    hit = (hit[0], -hit[1])
                self[i] = hit
                return hit

        return Signed()

    monkeypatch.setattr(verify, "ModeTable", klein_pt_copy)
    monkeypatch.setattr(
        verify,
        "cup_pairing",
        lambda i, j: true_pairing(COH_PT if i == COH_SP else i, j),
    )
    args = (3, (1, -2), 2, 2, ("E", "sigma+"), 3)
    result = verify.vertex_commutator_sweep(*args)
    want = _full_pass(*args)
    assert result["failures"] == want and len(want) > 20
    for w in want:
        mono = _state_monomial(w["state"])
        assert w["label"] == "sigma+"
        assert sum(LABEL_PARITY[l] for _, l in mono) % 2


def test_passing_sweep_checks_only_pt_only_monomials(monkeypatch):
    """On a passing sweep every check is of the pt label on a pt-only
    monomial, each such (monomial, k, m) instance once: the modes of the
    zero-pairing labels super-commute with the field and are skipped.
    ``checked`` still counts every instance of the window."""
    calls = _recorded_checks(monkeypatch)
    result = verify.vertex_commutator_sweep(4)
    assert result["ok"] and result["checked"] == 82368
    basis = BasisIndex(8)
    pt_only = [
        i for i in range(basis.count(4))
        if all(l == COH_PT for _, l in basis.monos[i])
    ]
    assert len(pt_only) == 12
    want = [
        (m, k, COH_PT, i)
        for m in (-2, -1, 1, 2)
        for k in (-4, -3, -2, -1, 1, 2, 3, 4)
        for i in pt_only
        if basis.energy[i] <= 4 - max(0, -k)
    ]
    assert calls == want and len(want) == 248


def _skipped(calls, args) -> set[tuple[int, int, int]]:
    """The (m, k, label) of a sweep with ``args`` that no check reached;
    with N >= k_max every other one checks at least the vacuum."""
    N, m_values, k_max, _, zero_labels, _ = args
    assert N >= k_max
    labels = (COH_PT, *(label_index(g) for g in zero_labels))
    every = {
        (m, k, gi)
        for m in m_values
        for k in range(-k_max, k_max + 1)
        if k
        for gi in labels
    }
    return every - {call[:3] for call in calls}


@pytest.mark.parametrize("corrupt_pt", [False, True])
@pytest.mark.parametrize(
    "args",
    [
        (3, (1, -2), 3, 3, ("E", "sigma+", "sigma-"), 3),
        (4, (-1, 2), 2, 4, ("sigma-", "E"), 2),
        (5, (2,), 4, 2, ("E", "sigma+", "sigma-"), 4),
    ],
)
def test_skipped_labels_match_the_full_pass(monkeypatch, args, corrupt_pt):
    """Every (m, k, label) that the sweep skips has no failure in the full
    pass, which checks every monomial of every label, and the sweep's
    failures are the full pass's, in order.  With the pt pairing off by
    one the pt checks fail and the zero-pairing labels are still skipped."""
    if corrupt_pt:
        true_pairing = verify.cup_pairing
        monkeypatch.setattr(
            verify,
            "cup_pairing",
            lambda i, j: true_pairing(i, j) + (i == COH_PT and j == COH_E),
        )
    calls = _recorded_checks(monkeypatch)
    result = verify.vertex_commutator_sweep(*args)
    skipped = _skipped(calls, args)
    want = _full_pass(*args)
    assert result["failures"] == want
    assert bool(want) == corrupt_pt
    assert skipped and all(gi != COH_PT for _, _, gi in skipped)
    assert not [w for w in want if (w["m"], w["k"], label_index(w["label"])) in skipped]


def test_skip_census_per_slope(monkeypatch):
    """At truncation 4 each slope skips every (k, label) of the three
    zero-pairing labels, 24 of its 32, and checks every pt one."""
    calls = _recorded_checks(monkeypatch)
    args = (4, (-2, -1, 1, 2), 4, 4, ("E", "sigma+", "sigma-"), 4)
    assert verify.vertex_commutator_sweep(*args)["ok"]
    skipped = _skipped(calls, args)
    for m in args[1]:
        census = sorted((k, gi) for mm, k, gi in skipped if mm == m)
        assert census == [
            (k, gi) for k in (-4, -3, -2, -1, 1, 2, 3, 4) for gi in (COH_E, COH_SP, COH_SM)
        ]


@pytest.mark.parametrize("created, victim", [(COH_PT, COH_E), (COH_SP, COH_SM)])
def test_skip_reads_the_field_terms_not_the_labels(monkeypatch, created, victim):
    """Give every field one real term creating the mode (1, created): the
    level-1 creation monomials of its table gain that mode.  alpha_1(victim)
    contracts it, so the sweep runs the victim label's checks at k = 1,
    and they fail on the vacuum, as in the full pass; at every other k
    the victim's mode still super-commutes with the field and is skipped.
    A skip read off the labels would pass this sweep."""
    real_table = fastapply.FieldTable

    class Creating(real_table):
        __slots__ = ()

        def __init__(self, m, ann_depth, cre_depth):
            super().__init__(m, ann_depth, cre_depth)
            first, level, *rest = self.create
            self.create = (first, (*level, (m, ((1, created),))), *rest)

    monkeypatch.setattr(fastapply, "FieldTable", Creating)
    calls = _recorded_checks(monkeypatch)
    args = (3, (1, -2), 2, 2, ("E", "sigma+", "sigma-"), 3)
    result = verify.vertex_commutator_sweep(*args)
    assert not result["ok"]
    ran = {(m, k) for m, k, gi, _ in calls if gi == victim}
    assert ran == {(1, 1), (-2, 1)}
    hits = [w for w in result["failures"] if w["label"] == LABEL_NAMES[victim]]
    assert {(w["m"], w["k"]) for w in hits} == ran
    assert () in {_state_monomial(w["state"]) for w in hits}
    assert result["failures"] == _full_pass(*args)


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
