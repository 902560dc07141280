"""Reflection groups of elliptic root systems.

Elements act on F = h + Q*delta1 + Q*delta2 and are stored as integer
matrices: a reflection's coefficients 2<e_j,b>/<b,b> are Cartan
integers, and the stabilizer generators lift GL(2,Z) blocks, so every
product stays integral.
Reflections exist for real roots only and fix the radical pointwise, so
the induced action on the delta-plane is trivial for the reflection
subgroup; the interesting delta-plane action comes from the
marking-stabilizer generators, which act trivially on h instead.

Matrix convention: vectors are columns over the ordered basis
(simple roots of h, delta1, delta2); w acts on x as M @ x.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .roots import EllipticRoot, EllipticRootSystem, Record

Matrix = tuple[tuple[int, ...], ...]


def _identity(size: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def full_gram(system: EllipticRootSystem) -> Matrix:
    """Gram of F: the finite block extended by the two radical directions."""
    rows = [tuple(row) + (0, 0) for row in system.gram]
    rows += [(0,) * (system.rank + 2)] * 2
    return tuple(rows)


def root_vector(beta: EllipticRoot) -> tuple[int, ...]:
    return tuple(beta.finite) + (beta.m, beta.n)


class WeylElement(NamedTuple):
    """An integer matrix acting on F, in the module's matrix convention."""

    matrix: Matrix

    @property
    def size(self) -> int:
        return len(self.matrix)

    def compose(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(_mat_mul(self.matrix, other.matrix))

    def is_identity(self) -> bool:
        return self.matrix == _identity(self.size)

    def preserves_form(self, gram: Matrix) -> bool:
        """M^T G M == G, checked entry by entry in integer arithmetic."""
        mt = tuple(zip(*self.matrix))
        return _mat_mul(_mat_mul(mt, gram), self.matrix) == gram


def identity_element(system: EllipticRootSystem) -> WeylElement:
    return WeylElement(_identity(system.rank + 2))


def reflect(system: EllipticRootSystem, beta: EllipticRoot) -> WeylElement:
    """Reflection through a real root: x -> x - 2<x,b>/<b,b> * b.

    Column j is e_j - c_j b with c_j = 2<e_j,b>/<b,b> a Cartan integer;
    a form for which it is not one raises ValueError."""
    if not system.is_real(beta):
        raise ValueError(f"no reflection through imaginary root {beta}")
    size = system.rank + 2
    bvec = root_vector(beta)
    # pairings of the basis vectors e_j with beta; deltas pair to zero
    pairings = [sum(map(mul, row, beta.finite)) for row in system.gram] + [0, 0]
    bb = sum(map(mul, beta.finite, pairings))
    coefs = []
    for pj in pairings:
        coef, rem = divmod(2 * pj, bb)
        if rem:
            raise ValueError(
                f"reflection coefficient 2*{pj}/{bb} through {beta} is not an integer"
            )
        coefs.append(coef)
    matrix = tuple(
        tuple(int(i == j) - coefs[j] * bvec[i] for j in range(size))
        for i in range(size)
    )
    return WeylElement(matrix)


# ---------------------------------------------------------------------------
# marking stabilizer
# ---------------------------------------------------------------------------


class ExtendedElement(Record):
    """Form-preserving operator together with its delta-plane action.

    gl2_part is written over the ordered basis (marking direction,
    complementary delta direction), so stabilizing the marking line means
    gl2_part is upper triangular.
    """

    __slots__ = _fields = ("weyl_part", "gl2_part")

    def __init__(
        self, weyl_part: WeylElement, gl2_part: tuple[tuple[int, int], tuple[int, int]]
    ):
        a, b = gl2_part
        det = a[0] * b[1] - a[1] * b[0]
        if det not in (1, -1):
            raise ValueError(f"delta-plane block must lie in GL(2,Z), det={det}")
        object.__setattr__(self, "weyl_part", weyl_part)
        object.__setattr__(self, "gl2_part", gl2_part)

    def stabilizes_marking(self) -> bool:
        return self.gl2_part[1][0] == 0


def _delta_plane_element(
    system: EllipticRootSystem, gl2: tuple[tuple[int, int], tuple[int, int]]
) -> ExtendedElement:
    """Lift a delta-plane matrix to F, acting as the identity on h.

    gl2 is over (marking, complement) = (delta2, delta1); on F the
    coordinates are stored as (h..., delta1, delta2), so the embedding
    swaps the two.
    """
    r = system.rank
    m = [list(row) for row in _identity(r + 2)]
    idx = (r + 1, r)  # (marking, complement) -> storage rows
    for i in range(2):
        for j in range(2):
            m[idx[i]][idx[j]] = gl2[i][j]
    return ExtendedElement(WeylElement(tuple(tuple(row) for row in m)), gl2)


def marking_stabilizer_generators(system: EllipticRootSystem) -> list[ExtendedElement]:
    """Generators of the subgroup preserving the marking line delta2,
    rank-0 part only: the unipotent shear and the orientation flip of the
    complementary direction (infinite dihedral), each acting as the
    identity on h.  No reflection generator is built for positive rank.
    """
    shear = ((1, 1), (0, 1))
    flip = ((1, 0), (0, -1))
    return [_delta_plane_element(system, shear), _delta_plane_element(system, flip)]
