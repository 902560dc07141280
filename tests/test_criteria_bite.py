"""Criteria fail on a broken production path.

Each test breaks one function the criterion reads, with ``monkeypatch``,
and checks that the criterion's runner returns ``pass: False`` with a
report that still serializes.
"""

import pytest

from ellwall import lattices, localmodel, verify, walls
from ellwall.fock import labels as fock_labels
from ellwall.fock import operators
from ellwall.fock import verify as fock_verify
from ellwall.fock.labels import COH_E, COH_PT
from ellwall.fock.operators import OperatorExpr
from ellwall.fock.states import FockState
from ellwall.serialize import to_json
from ellwall.weyl import ExtendedElement


def test_c01_fails_when_a_table_entry_is_changed(monkeypatch):
    monkeypatch.setitem(localmodel.HH0_TABLE, 4, 8)
    result = verify.check_hh0_table()
    assert result["pass"] is False
    assert result["got"]["4"] == 8
    assert result["orbit_audit"]["4"] == 9  # the audit recounts the orbits
    to_json(result)


def test_c02_fails_when_the_commutator_rows_are_empty(monkeypatch):
    # the twelve label pairs of zero pairing still pass; the four dual
    # pairs, one witness per n <= 4, do not
    monkeypatch.setattr(
        fock_verify, "commutator_rows", lambda a, b, indices, eps: [{}] * len(indices)
    )
    result = verify.check_small_modes(6, 4)
    assert result["pass"] is False
    assert len(result["failures"]) == 16
    pairs = {tuple(f["labels"]) for f in result["failures"]}
    assert pairs == {("E", "pt"), ("pt", "E"), ("sigma+", "sigma-"), ("sigma-", "sigma+")}
    to_json(result)


# the pairing matrix the mode contractions read, mutated; c02 and c03
# take their expected pairings from the cup product, which stays right
DOUBLED_E_PT = ((0, 0, 0, 2), (0, 0, 1, 0), (0, -1, 0, 0), (2, 0, 0, 0))
SYMMETRIC_ODD = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))


def test_c02_fails_when_the_e_pt_pairing_is_doubled(monkeypatch):
    # one central witness per (n, g, h), n <= 4
    monkeypatch.setattr(fock_labels, "_PAIR", DOUBLED_E_PT)
    result = verify.check_small_modes(6, 4)
    assert result["pass"] is False
    assert len(result["failures"]) == 8
    assert {tuple(f["labels"]) for f in result["failures"]} == {("E", "pt"), ("pt", "E")}
    to_json(result)


def test_c02_fails_when_the_odd_pairing_is_symmetric(monkeypatch):
    monkeypatch.setattr(fock_labels, "_PAIR", SYMMETRIC_ODD)
    result = verify.check_small_modes(6, 4)
    assert result["pass"] is False
    assert len(result["failures"]) == 4
    assert {tuple(f["labels"]) for f in result["failures"]} == {("sigma-", "sigma+")}
    to_json(result)


def test_c03_fails_when_the_e_pt_pairing_is_doubled(monkeypatch):
    # the commutator doubles; only the pt label pairs with the field
    monkeypatch.setattr(fock_labels, "_PAIR", DOUBLED_E_PT)
    result = verify.check_vertex_commutator(3)
    assert result["pass"] is False
    assert len(result["failures"]) == 3152
    assert {w["label"] for w in result["failures"]} == {"pt"}
    to_json(result)


def test_c04_fails_when_the_target_label_is_shifted(monkeypatch):
    # truncation 4 is the least the sweep's modes |b|, |d| <= 2 allow
    real = fock_verify.star_label

    def shifted(i, j):
        product = real(i, j)
        return None if product is None else ((product[0] + 1) % 4, product[1])

    monkeypatch.setattr(fock_verify, "star_label", shifted)
    result = verify.check_bracket_table(4)
    assert result["pass"] is False
    assert len(result["mismatches"]) == 320
    to_json(result)


def test_c04_fails_when_odd_pairs_take_the_commutator(monkeypatch):
    # every label even: the engine's eps is -1 for sigma x sigma pairs too
    monkeypatch.setattr(fock_verify, "LABEL_PARITY", (0, 0, 0, 0))
    result = verify.check_bracket_table(4)
    assert result["pass"] is False and result["mismatches"]
    odd = {"sigma+", "sigma-"}
    for report in result["mismatches"]:
        assert {report["lhs_params"]["label"], report["rhs_params"]["label"]} <= odd
        assert "witness" in report
    to_json(result)


def test_c04_sends_pairs_to_the_kernel_by_their_terms_not_labels(monkeypatch):
    """Every E generator also gets a chunk creating a pt mode, which E
    fields contract.  A shortcut read off the labels would still skip
    every pair with an E operand, as the unmutated sweep does (E creates
    E and contracts pt); the engine reads the built terms, so those pairs
    reach ``commutator_rows`` and c04 fails."""
    real_generator = fock_verify.w_general
    real_kernel = fock_verify.commutator_rows
    labels = {}  # id of each generator the engine built -> its label
    e_pair_calls = []

    def generators(mutate):
        def build(a, b, li, N):
            op = real_generator(a, b, li, N)
            if mutate and li == COH_E:
                k = max(1, 1 - b)  # creates energy k, annihilates k + b >= 1
                chunks = [
                    (a, clist, part)
                    for part, group in op.groups.items()
                    for a, clist in group
                ]
                extra = (op.denom, ((1, ((k, COH_PT),)),), ((k + b, COH_E),))
                op = OperatorExpr(
                    [*chunks, extra], op.truncation, op.charge_shift,
                    op.energy_shift, op.parity, op.denom,
                )
            labels[id(op)] = li
            return op

        return build

    def counting(rows_a, rows_b, indices, eps):
        if COH_E in (labels[id(rows_a.op)], labels[id(rows_b.op)]):
            e_pair_calls.append((rows_a.op, rows_b.op))
        return real_kernel(rows_a, rows_b, indices, eps)

    monkeypatch.setattr(fock_verify, "commutator_rows", counting)
    monkeypatch.setattr(fock_verify, "w_general", generators(False))
    assert verify.check_bracket_table(4)["pass"] is True
    assert not e_pair_calls
    monkeypatch.setattr(fock_verify, "w_general", generators(True))
    result = verify.check_bracket_table(4)
    assert result["pass"] is False
    assert len(e_pair_calls) == 364
    to_json(result)


def test_c05_fails_when_two_part_field_coefficients_are_doubled(monkeypatch):
    # the section-type action composes slope-one generators, whose fields
    # read these coefficients; partitions of two parts first occur at p = 2
    real = operators._coefficient_table

    def doubled(slope, depth):
        base, levels = real(slope, depth)
        return base, tuple(
            tuple((2 * c if len(lam) == 2 else c, lam) for c, lam in level)
            for level in levels
        )

    monkeypatch.setattr(operators, "_coefficient_table", doubled)
    result = verify.check_monodromy(3, 4)
    assert result["pass"] is False
    to_json(result)


def test_c05_fails_when_the_fiber_action_keeps_the_charge(monkeypatch):
    # still an involution with the right per-mode signs
    real = verify.monodromy_f

    def kept(state):
        image = real(state)
        return FockState(state.charge, image.terms)

    monkeypatch.setattr(verify, "monodromy_f", kept)
    result = verify.check_monodromy(3, 4)
    assert result["pass"] is False
    to_json(result)


def test_c06_fails_when_a_wall_is_listed_twice(monkeypatch):
    real = walls.WallChart.walls

    def doubled(self, n):
        found = real(self, n)
        return found[:1] + found

    monkeypatch.setattr(walls.WallChart, "walls", doubled)
    result = verify.check_wall_sets(3)
    assert result["pass"] is False
    # the repeated position bounds an empty chamber, which is not counted
    assert result["chamber_counts"] == result["wall_counts"]
    to_json(result)


def test_c06_fails_when_the_lattice_pairing_is_doubled(monkeypatch):
    # each run builds its own wall chart, so a mutation installed after a
    # passing run reaches the next one
    assert verify.check_wall_sets(3)["pass"] is True
    real = lattices.BilinearLattice.pair
    monkeypatch.setattr(
        lattices.BilinearLattice, "pair", lambda self, u, v: 2 * real(self, u, v)
    )
    result = verify.check_wall_sets(3)
    assert result["pass"] is False
    to_json(result)


def test_c07_fails_when_the_real_charge_is_shifted(monkeypatch):
    # the shift reaches the wall loci through ``walls``; c07's pointwise
    # charges come from the Mukai vectors, so every side test disagrees.
    # The run before it fills no cache that would keep the shift out.
    assert verify.check_wall_sign_flip(4, 10, seed=3)["pass"] is True
    real = walls.central_charge_sym

    def shifted(x, ns):
        re, im = real(x, ns)
        return re + walls.TriPoly.var("d"), im

    monkeypatch.setattr(walls, "central_charge_sym", shifted)
    result = verify.check_wall_sign_flip(4, 10, seed=3)
    assert result["pass"] is False
    assert result["failures"] == 130
    to_json(result)


def _drop_bc_products(self, other):
    """``TriPoly.__mul__`` without the products of a b-term and a c-term."""
    other = walls._coerce(other)
    out = {}
    for (i1, j1, k1), v1 in self.nums.items():
        for (i2, j2, k2), v2 in other.nums.items():
            if (i1 and j2) or (j1 and i2):
                continue
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + v1 * v2
    return walls.TriPoly(out, self.den * other.den)


def test_c07_fails_when_polynomial_products_drop_bc_terms(monkeypatch):
    # the wall loci are products of the symbolic charges; c07 takes its
    # signs from the pointwise charges, so the moved roots show.  c06 still
    # passes under this mutation: its wall sets do not read the loci.
    monkeypatch.setattr(walls.TriPoly, "__mul__", _drop_bc_products)
    monkeypatch.setattr(walls.TriPoly, "__rmul__", _drop_bc_products)
    result = verify.check_wall_sign_flip(4, 10, seed=3)
    assert result["pass"] is False
    assert (result["checked"], result["failures"]) == (130, 128)
    to_json(result)


def _sign_flipped_rank(mat):
    """``localmodel.matrix_rank`` with the update r <- p r + c prow."""
    rows = [list(r) for r in mat]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next(
            (i for i in range(rank, len(rows)) if not rows[i][col].is_zero()), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for row in rows[rank + 1 :]:
            c = row[col]
            for j in range(col + 1, len(row)):
                row[j] = p * row[j] + c * prow[j]
        rank += 1
    return rank


def test_c08_fails_when_the_rank_update_is_sign_flipped(monkeypatch):
    # c08 conjugates each jet matrix by I + e_{1,0}, so its eliminations
    # meet entries right of their pivots: 440 of the 500 samples of seed 7
    # get a wrong rank sequence, and the first one already has no Jordan type
    monkeypatch.setattr(localmodel, "matrix_rank", _sign_flipped_rank)
    with pytest.raises(ArithmeticError, match="has no Jordan type"):
        verify.check_jet_splitting(24, seed=7)
    # verify_all reports the raise as c08's failure; the other checks pass
    for name in ("check_hh0_table", "check_small_modes", "check_vertex_commutator",
                 "check_bracket_table", "check_monodromy", "check_wall_sets",
                 "check_wall_sign_flip", "check_tensor_table", "check_weyl_relations"):
        monkeypatch.setattr(verify, name, lambda **kw: {"pass": True})
    report, _ = verify.verify_all(42)
    assert report["all_pass"] is False
    (c08,) = [c for c in report["criteria"] if not c["pass"]]
    assert c08["criterion"] == "jet-splitting"
    assert c08["error"].startswith("ArithmeticError: rank sequence")
    to_json(report)


def test_c10_fails_when_a_gram_entry_is_changed(monkeypatch):
    # only the word loop reads the Gram matrix: every word of length 1 is
    # checked against it, so one changed finite entry must show
    real = verify.full_gram

    def changed(system):
        gram = [list(row) for row in real(system)]
        gram[0][0] += 1
        return tuple(map(tuple, gram))

    monkeypatch.setattr(verify, "full_gram", changed)
    result = verify.check_weyl_relations(2)
    assert result["pass"] is False
    assert result["stabilizer"]["flip_involution"] is True
    assert result["stabilizer"]["dihedral_relation"] is True
    to_json(result)


def test_c10_fails_when_the_flip_is_not_an_involution(monkeypatch):
    real = verify.marking_stabilizer_generators

    def shear_as_flip(system):
        shear, flip = real(system)
        return [shear, ExtendedElement(shear.weyl_part, flip.gl2_part)]

    monkeypatch.setattr(verify, "marking_stabilizer_generators", shear_as_flip)
    result = verify.check_weyl_relations(2)
    assert result["pass"] is False
    assert result["stabilizer"]["flip_involution"] is False
    assert '"flip_involution": false' in to_json(result)


def test_c10_fails_when_a_generator_moves_the_marking(monkeypatch):
    real = verify.marking_stabilizer_generators

    def transposed_flip(system):
        shear, flip = real(system)
        return [shear, ExtendedElement(flip.weyl_part, ((1, 0), (1, -1)))]

    monkeypatch.setattr(verify, "marking_stabilizer_generators", transposed_flip)
    result = verify.check_weyl_relations(2)
    assert result["pass"] is False
    assert result["stabilizer"]["flip_involution"] is True
    to_json(result)
