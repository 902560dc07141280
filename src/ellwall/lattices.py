"""Numerical lattices: bilinear forms, Mukai-type vectors and their
pairing, and the embedding of elliptic roots as K-classes of the surface.

The two surface lattices in play:

* a rank-2 hyperbolic plane with basis (E, P) for the rank-0 type, and
* a rank-10 lattice with basis (Theta, E, exceptional curve classes) for
  the four types that admit an equivariant surface model; the curve-class
  block is the negative of the Cartan matrix of the type together with
  its complementary type.

Everything here is integral: basis vectors and divisor classes are
``int`` tuples, the half-integral point part of a Mukai vector is stored
doubled, and the pairing is one integer sum over the nonzero Gram
entries, which each lattice lists once.  A ``Fraction`` appears only at
the boundary: the point part ``ch2``, the Mukai pairing and the JSON
form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .roots import EllipticRoot, build_elliptic, finite_gram

Scalar = Union[int, Fraction]

# types with a surface model, and the complementary finite type whose
# curve classes complete the rank-10 lattice
SURFACE_TYPES = ("A-1", "D4", "E6", "E7", "E8")
_COMPLEMENT = {"D4": "D4", "E6": "A2", "E7": "A1", "E8": None}


@dataclass(frozen=True)
class BilinearLattice:
    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    # (i, j, gram[i][j]) for every nonzero entry, listed once per lattice
    entries: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        r = len(self.labels)
        if len(set(self.labels)) != r:
            raise ValueError("basis labels must be distinct")
        if len(self.gram) != r or any(len(row) != r for row in self.gram):
            raise ValueError("gram shape does not match label count")
        for i in range(r):
            for j in range(r):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        entries = tuple(
            (i, j, g) for i, row in enumerate(self.gram) for j, g in enumerate(row) if g
        )
        object.__setattr__(self, "entries", entries)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def pair(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
        """u . v as one sum over the nonzero Gram entries: an int for
        integer vectors."""
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        return sum(u[i] * v[j] * g for i, j, g in self.entries)

    def basis_vector(self, label: str) -> tuple[int, ...]:
        i = self.labels.index(label)
        return tuple(int(j == i) for j in range(self.rank))

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "gram": [list(row) for row in self.gram],
        }


@dataclass(frozen=True, init=False)
class MukaiVector:
    """(rank, divisor class, point part).  The divisor class is integral;
    the point part may be half-integral, so it is stored doubled, as the
    integer ``twice_ch2``."""

    rank: int
    c1: tuple[int, ...]
    twice_ch2: int

    def __init__(self, rank: int, c1: Sequence[Scalar], ch2: Scalar):
        if any(c.denominator != 1 for c in c1):
            raise ValueError("divisor class must be integral")
        num, den = ch2.numerator, ch2.denominator
        if den not in (1, 2):
            raise ValueError(f"point part must be half-integral, got {ch2}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "c1", tuple(c.numerator for c in c1))
        object.__setattr__(self, "twice_ch2", num * (2 // den))

    @property
    def ch2(self) -> Fraction:
        return Fraction(self.twice_ch2, 2)

    def to_json_dict(self) -> dict:
        from .serialize import frac_str

        return {
            "rank": self.rank,
            "c1": [str(c) for c in self.c1],
            "ch2": frac_str(self.ch2),
        }


def hilbert_vector(n: int, ns: BilinearLattice) -> MukaiVector:
    """The ideal-sheaf class (1, 0, -n) for n points."""
    if n < 1:
        raise ValueError("point count must be >= 1")
    return MukaiVector(1, (0,) * ns.rank, -n)


def mukai_pair(v: MukaiVector, w: MukaiVector, ns: BilinearLattice) -> Fraction:
    """c1.c1' - r s' - r' s; symmetric, bilinear, half-integral when a
    point part is."""
    twice = 2 * ns.pair(v.c1, w.c1) - v.rank * w.twice_ch2 - w.rank * v.twice_ch2
    return Fraction(twice, 2)


# ---------------------------------------------------------------------------
# surface lattices
# ---------------------------------------------------------------------------


def surface_labels(type_name: str) -> tuple[str, ...]:
    """The basis labels of ``surface_lattice(type_name)``, without its
    Gram matrix."""
    if type_name == "A-1":
        return ("E", "P")
    if type_name not in SURFACE_TYPES:
        raise ValueError(
            f"no surface lattice for type {type_name!r}; supported: {SURFACE_TYPES}"
        )
    comp = _COMPLEMENT[type_name]
    r_main = len(finite_gram(type_name))
    r_comp = len(finite_gram(comp)) if comp else 0
    return (
        ("Theta", "E")
        + tuple(f"C{i+1}" for i in range(r_main))
        + tuple(f"C'{i+1}" for i in range(r_comp))
    )


def surface_lattice(type_name: str) -> BilinearLattice:
    labels = surface_labels(type_name)
    if type_name == "A-1":
        return BilinearLattice(labels=labels, gram=((0, 1), (1, 0)))
    comp = _COMPLEMENT[type_name]
    g_main = finite_gram(type_name)
    g_comp = finite_gram(comp) if comp else ()
    r_main, r_comp = len(g_main), len(g_comp)
    rank = len(labels)
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = -1
    gram[0][1] = gram[1][0] = 1
    for i in range(r_main):
        for j in range(r_main):
            gram[2 + i][2 + j] = -g_main[i][j]
    for i in range(r_comp):
        for j in range(r_comp):
            gram[2 + r_main + i][2 + r_main + j] = -g_comp[i][j]
    return BilinearLattice(labels=labels, gram=tuple(tuple(row) for row in gram))


def root_to_kclass(beta: EllipticRoot, type_name: str) -> MukaiVector:
    """Rank-0 K-class of an elliptic root: the finite part lands on the
    exceptional curve classes, the fiber coefficient on E, the point
    coefficient on the point part."""
    system = build_elliptic(type_name)
    if not system.contains(beta):
        raise ValueError(f"{beta} is not a root of type {type_name}")
    labels = surface_labels(type_name)
    c1 = [0] * len(labels)
    c1[labels.index("E")] = beta.n
    if not beta.is_delta_only():
        for i, coeff in enumerate(beta.finite):
            c1[labels.index(f"C{i+1}")] = coeff
    return MukaiVector(0, c1, beta.m)
