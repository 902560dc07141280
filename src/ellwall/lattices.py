"""Numerical lattices: bilinear forms, Mukai-type vectors and their
pairing, and the embedding of elliptic roots as K-classes of the surface.

The two surface lattices in play:

* a rank-2 hyperbolic plane with basis (E, P) for the rank-0 type, and
* a rank-10 lattice with basis (Theta, E, exceptional curve classes) for
  the four types that admit an equivariant surface model; the curve-class
  block is the negative of the Cartan matrix of the type together with
  its complementary type.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def rank(self) -> int:
        return len(self.labels)

    def pair(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Fraction:
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        total = Fraction(0)
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, vj in enumerate(v):
                if vj:
                    total += Fraction(ui) * Fraction(vj) * self.gram[i][j]
        return total

    def basis_vector(self, label: str) -> tuple[Fraction, ...]:
        i = self.labels.index(label)
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.rank))

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "gram": [list(row) for row in self.gram],
        }


@dataclass(frozen=True)
class MukaiVector:
    """(rank, divisor class, point part); the point part may be half-integral."""

    rank: int
    c1: tuple[Fraction, ...]
    ch2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c1", tuple(Fraction(c) for c in self.c1))
        ch2 = Fraction(self.ch2)
        if ch2.denominator not in (1, 2):
            raise ValueError(f"point part must be half-integral, got {ch2}")
        object.__setattr__(self, "ch2", ch2)

    def to_json_dict(self) -> dict:
        from .serialize import frac_str

        return {
            "rank": self.rank,
            "c1": [frac_str(c) for c in self.c1],
            "ch2": frac_str(self.ch2),
        }


def hilbert_vector(n: int, ns: BilinearLattice) -> MukaiVector:
    """The ideal-sheaf class (1, 0, -n) for n points."""
    if n < 1:
        raise ValueError("point count must be >= 1")
    return MukaiVector(1, (Fraction(0),) * ns.rank, Fraction(-n))


def mukai_pair(v: MukaiVector, w: MukaiVector, ns: BilinearLattice) -> Fraction:
    """c1.c1' - r s' - r' s; symmetric, bilinear."""
    return ns.pair(v.c1, w.c1) - v.rank * w.ch2 - w.rank * v.ch2


# ---------------------------------------------------------------------------
# surface lattices
# ---------------------------------------------------------------------------


def surface_lattice(type_name: str) -> BilinearLattice:
    if type_name == "A-1":
        return BilinearLattice(labels=("E", "P"), gram=((0, 1), (1, 0)))
    if type_name not in SURFACE_TYPES:
        raise ValueError(
            f"no surface lattice for type {type_name!r}; supported: {SURFACE_TYPES}"
        )
    comp = _COMPLEMENT[type_name]
    g_main = finite_gram(type_name)
    g_comp = finite_gram(comp) if comp else ()
    r_main, r_comp = len(g_main), len(g_comp)
    rank = 2 + r_main + r_comp
    labels = (
        ("Theta", "E")
        + tuple(f"C{i+1}" for i in range(r_main))
        + tuple(f"C'{i+1}" for i in range(r_comp))
    )
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
    ns = surface_lattice(type_name)
    c1 = [Fraction(0)] * ns.rank
    e_index = ns.labels.index("E")
    c1[e_index] = Fraction(beta.n)
    if not beta.is_delta_only():
        for i, coeff in enumerate(beta.finite):
            c1[ns.labels.index(f"C{i+1}")] = Fraction(coeff)
    return MukaiVector(0, tuple(c1), Fraction(beta.m))
