"""The eight value records keep their contract as plain classes: equality
and hash over the same fields, immutability, the repr text and the
validation of their constructors."""

from fractions import Fraction

import pytest

from ellwall.cyclotomic import Cyclotomic
from ellwall.lattices import BilinearLattice, MukaiVector, surface_lattice
from ellwall.localmodel import BimoduleParam
from ellwall.roots import EllipticRoot
from ellwall.walls import ChamberDecomposition, TriPoly, WallSpec
from ellwall.weyl import ExtendedElement, WeylElement

FLIP = ((1, 0), (0, -1))
SHEAR = ((1, 1), (0, 1))


def _wall(m):
    root = EllipticRoot((), m, 1)
    return WallSpec(root, MukaiVector(0, (1, 0), m), TriPoly.const(m), (m, -3), Fraction(1, m))


# name -> (build, build with one compared field changed); build() called
# twice gives two equal records that are not the same object
RECORDS = {
    "EllipticRoot": (lambda: EllipticRoot((1, 0), 2, -1), lambda: EllipticRoot((1, 0), 2, 0)),
    "MukaiVector": (
        lambda: MukaiVector(1, (0, 2), Fraction(-3, 2)),
        lambda: MukaiVector(1, (0, 2), -1),
    ),
    "BilinearLattice": (
        lambda: BilinearLattice(("E", "P"), ((0, 1), (1, 0))),
        lambda: BilinearLattice(("E", "P"), ((0, -1), (-1, 0))),
    ),
    "BimoduleParam": (
        lambda: BimoduleParam.make(3, [1, 0, 2]),
        lambda: BimoduleParam.make(3, [1, 0, 1]),
    ),
    "WallSpec": (lambda: _wall(1), lambda: _wall(2)),
    "ChamberDecomposition": (
        lambda: ChamberDecomposition("A-1", 2, (_wall(1), _wall(2))),
        lambda: ChamberDecomposition("A-1", 2, (_wall(1),)),
    ),
    "WeylElement": (lambda: WeylElement(FLIP), lambda: WeylElement(SHEAR)),
    "ExtendedElement": (
        lambda: ExtendedElement(WeylElement(FLIP), FLIP),
        lambda: ExtendedElement(WeylElement(FLIP), SHEAR),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_read_the_fields(name):
    build, changed = RECORDS[name]
    x, y = build(), build()
    assert type(x).__name__ == name and x is not y
    assert x == y and not x != y and hash(x) == hash(y)
    assert x != changed() and len({x, y, changed()}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_added(name):
    x = RECORDS[name][0]()
    before = repr(x)
    with pytest.raises(AttributeError):
        setattr(x, x._fields[0], None)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == before


def test_derived_and_provenance_fields_take_no_part_in_equality():
    lattice, other = (BilinearLattice(("E", "P"), ((0, 1), (1, 0))) for _ in range(2))
    object.__setattr__(other, "entries", ())
    assert lattice == other and hash(lattice) == hash(other)
    assert lattice.entries == ((0, 1, 1), (1, 0, 1))

    param, other = (BimoduleParam.make(2, [1, 1]) for _ in range(2))
    object.__setattr__(other, "chars", ())
    assert param == other and hash(param) == hash(other)

    # no record keeps a provenance field: a Weyl element is its matrix
    assert WeylElement._fields == ("matrix",)
    assert ExtendedElement._fields == ("weyl_part", "gl2_part")


def test_repr_text():
    root = EllipticRoot((1, 0), 2, -1)
    assert repr(root) == str(root) == "EllipticRoot(finite=(1, 0), m=2, n=-1)"
    assert repr(MukaiVector(1, (0, 2), Fraction(-3, 2))) == (
        "MukaiVector(rank=1, c1=(0, 2), twice_ch2=-3)"
    )
    assert repr(WeylElement(FLIP)) == "WeylElement(matrix=((1, 0), (0, -1)))"
    assert repr(ExtendedElement(WeylElement(SHEAR), SHEAR)) == (
        "ExtendedElement(weyl_part=WeylElement(matrix=((1, 1), (0, 1))), "
        "gl2_part=((1, 1), (0, 1)))"
    )


def test_keyword_construction():
    lattice = surface_lattice("A-1")
    assert BilinearLattice(labels=lattice.labels, gram=lattice.gram) == lattice
    assert MukaiVector(rank=1, c1=(0, 0), ch2=-2).twice_ch2 == -4
    assert WeylElement(matrix=FLIP).matrix == FLIP


def test_validation_errors_still_fire():
    with pytest.raises(ValueError, match="symmetric"):
        BilinearLattice(("E", "P"), ((0, 1), (2, 0)))
    with pytest.raises(ValueError, match="det=2"):
        ExtendedElement(WeylElement(FLIP), ((1, 0), (0, 2)))
    with pytest.raises(ValueError, match="integral"):
        MukaiVector(0, (Fraction(1, 2), 0), 0)
    with pytest.raises(ValueError, match="need 3 coefficients for order 3, got 2"):
        BimoduleParam(3, (Cyclotomic(3, 1), Cyclotomic(3, 0)))
