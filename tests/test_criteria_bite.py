"""Criteria fail on a broken production path.

Each test breaks one function the criterion reads, with ``monkeypatch``,
and checks that the criterion's runner returns ``pass: False`` with a
report that still serializes.
"""

import dataclasses

from ellwall import lattices, verify, walls
from ellwall.fock import verify as fock_verify
from ellwall.serialize import to_json


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


def test_c06_fails_when_a_wall_is_listed_twice(monkeypatch):
    real = walls.enumerate_v_walls

    def doubled(v, type_name):
        found = real(v, type_name)
        return found[:1] + found

    monkeypatch.setattr(walls, "enumerate_v_walls", doubled)
    result = verify.check_wall_sets(3)
    assert result["pass"] is False
    # the repeated position bounds an empty chamber, which is not counted
    assert result["chamber_counts"] == result["wall_counts"]
    to_json(result)


def test_c06_fails_when_the_lattice_pairing_is_doubled(monkeypatch):
    real = lattices.BilinearLattice.pair
    monkeypatch.setattr(
        lattices.BilinearLattice, "pair", lambda self, u, v: 2 * real(self, u, v)
    )
    result = verify.check_wall_sets(3)
    assert result["pass"] is False
    to_json(result)


def test_c07_fails_when_the_real_charge_is_shifted(monkeypatch):
    # the shift reaches the wall loci through ``walls``; c07's own cross
    # product reads the charge it imported, so every side test disagrees
    real = walls.central_charge_sym

    def shifted(x, ns):
        re, im = real(x, ns)
        return re + walls.TriPoly.var("d"), im

    monkeypatch.setattr(walls, "central_charge_sym", shifted)
    result = verify.check_wall_sign_flip(4, 10, seed=3)
    assert result["pass"] is False
    assert result["failures"] == 130
    to_json(result)


def test_c10_fails_when_the_flip_is_not_an_involution(monkeypatch):
    real = verify.marking_stabilizer_generators

    def shear_as_flip(system):
        shear, flip = real(system)
        return [shear, dataclasses.replace(flip, weyl_part=shear.weyl_part)]

    monkeypatch.setattr(verify, "marking_stabilizer_generators", shear_as_flip)
    result = verify.check_weyl_relations(2)
    assert result["pass"] is False
    assert result["stabilizer"]["flip_involution"] is False
    assert '"flip_involution": false' in to_json(result)


def test_c10_fails_when_a_generator_moves_the_marking(monkeypatch):
    real = verify.marking_stabilizer_generators

    def transposed_flip(system):
        shear, flip = real(system)
        return [shear, dataclasses.replace(flip, gl2_part=((1, 0), (1, -1)))]

    monkeypatch.setattr(verify, "marking_stabilizer_generators", transposed_flip)
    result = verify.check_weyl_relations(2)
    assert result["pass"] is False
    assert result["stabilizer"]["flip_involution"] is True
    to_json(result)
