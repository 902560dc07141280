"""Reflection groups of elliptic root systems.

Elements act on F = h + Q*delta1 + Q*delta2 and are stored as integer
matrices (optionally with the generating word for provenance): a
reflection's coefficients 2<e_j,b>/<b,b> are Cartan integers, and the
stabilizer generators lift GL(2,Z) blocks, so every product stays
integral.  Only the translation vectors, solved through the Gram form,
are rational.
Reflections exist for real roots only and fix the radical pointwise, so
the induced action on the delta-plane is trivial for the reflection
subgroup; the interesting delta-plane action comes from the
marking-stabilizer generators, which act trivially on h instead.

Matrix convention: vectors are columns over the ordered basis
(simple roots of h, delta1, delta2); w.apply(x) = M @ x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from .roots import EllipticRoot, EllipticRootSystem

Matrix = tuple[tuple[int, ...], ...]


def _identity(size: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _mat_vec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def full_gram(system: EllipticRootSystem) -> Matrix:
    """Gram of F: the finite block extended by the two radical directions."""
    rows = [tuple(row) + (0, 0) for row in system.gram]
    rows += [(0,) * (system.rank + 2)] * 2
    return tuple(rows)


def root_vector(system: EllipticRootSystem, beta: EllipticRoot) -> tuple[int, ...]:
    return tuple(beta.finite) + (beta.m, beta.n)


@dataclass(frozen=True)
class WeylElement:
    matrix: Matrix
    word: tuple[str, ...] = field(default_factory=tuple, compare=False)

    @property
    def size(self) -> int:
        return len(self.matrix)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        return _mat_vec(self.matrix, v)

    def apply_root(self, system: EllipticRootSystem, beta: EllipticRoot) -> EllipticRoot:
        img = self.apply(root_vector(system, beta))
        finite = img[: system.rank]
        if any(x.denominator != 1 for x in img):
            raise ValueError("image is not an integral root vector")
        return EllipticRoot(
            tuple(int(x) for x in finite), int(img[system.rank]), int(img[system.rank + 1])
        )

    def compose(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(_mat_mul(self.matrix, other.matrix), self.word + other.word)

    def is_identity(self) -> bool:
        return self.matrix == _identity(self.size)

    def preserves_form(self, gram: Matrix) -> bool:
        """M^T G M == G, checked entry by entry in integer arithmetic."""
        mt = tuple(zip(*self.matrix))
        return _mat_mul(_mat_mul(mt, gram), self.matrix) == gram

    def to_json_dict(self) -> dict:
        from .serialize import frac_str

        return {"matrix": [[frac_str(x) for x in row] for row in self.matrix]}


def identity_element(system: EllipticRootSystem) -> WeylElement:
    return WeylElement(_identity(system.rank + 2))


def reflect(system: EllipticRootSystem, beta: EllipticRoot) -> WeylElement:
    """Reflection through a real root: x -> x - 2<x,b>/<b,b> * b.

    Column j is e_j - c_j b with c_j = 2<e_j,b>/<b,b> a Cartan integer;
    a form for which it is not one raises ValueError."""
    if not system.is_real(beta):
        raise ValueError(f"no reflection through imaginary root {beta}")
    size = system.rank + 2
    bvec = root_vector(system, beta)
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
    label = f"w[{','.join(map(str, beta.finite))};{beta.m},{beta.n}]"
    return WeylElement(matrix, (label,))


def _solve_gram(system: EllipticRootSystem, rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Solve G t = rhs on the finite part (G nondegenerate there)."""
    r = system.rank
    aug = [
        [Fraction(system.gram[i][j]) for j in range(r)] + [Fraction(rhs[i])]
        for i in range(r)
    ]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(aug[i][r] for i in range(r))


def finite_block(w: WeylElement, system: EllipticRootSystem) -> Matrix:
    r = system.rank
    return tuple(tuple(w.matrix[i][j] for j in range(r)) for i in range(r))


def is_translation(w: WeylElement, system: EllipticRootSystem) -> bool:
    """True when the action on h and on the delta-plane is the identity,
    so only the two delta-valued functionals are nonzero."""
    r = system.rank
    ident = _identity(r + 2)
    for i in range(r):
        if w.matrix[i] != ident[i]:
            return False
    for i in (r, r + 1):
        for j in (r, r + 1):
            if w.matrix[i][j] != ident[i][j]:
                return False
    return True


def translation_part(
    w: WeylElement, system: EllipticRootSystem
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The two translation vectors of a reflection-group element.

    Writing w(x) = u(x) + t_aff-functional(x) delta1 + t_ell-functional(x) delta2
    for x in h, the functionals are the delta-rows of the matrix; they are
    converted to vectors of h through the Gram form.  For pure translations
    (finite block the identity) these are the translation vectors of the two
    quotient descriptions; they add under composition of translations.
    """
    gram_f = full_gram(system)
    if not w.preserves_form(gram_f):
        raise ValueError("element does not preserve the bilinear form")
    r = system.rank
    row_aff = [w.matrix[r][j] for j in range(r)]
    row_ell = [w.matrix[r + 1][j] for j in range(r)]
    if r == 0:
        return ((), ())
    return (_solve_gram(system, row_aff), _solve_gram(system, row_ell))


# ---------------------------------------------------------------------------
# marking stabilizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedElement:
    """Form-preserving operator together with its delta-plane action.

    gl2_part is written over the ordered basis (marking direction,
    complementary delta direction), so stabilizing the marking line means
    gl2_part is upper triangular.
    """

    weyl_part: WeylElement
    gl2_part: tuple[tuple[int, int], tuple[int, int]]
    label: str = ""

    def __post_init__(self):
        a, b = self.gl2_part
        det = a[0] * b[1] - a[1] * b[0]
        if det not in (1, -1):
            raise ValueError(f"delta-plane block must lie in GL(2,Z), det={det}")

    def stabilizes_marking(self) -> bool:
        return self.gl2_part[1][0] == 0


def _delta_plane_element(
    system: EllipticRootSystem,
    gl2: tuple[tuple[int, int], tuple[int, int]],
    label: str,
    marking: str,
) -> ExtendedElement:
    """Lift a delta-plane matrix to F, acting as the identity on h.

    gl2 is over (marking, complement); on F the coordinates are stored as
    (h..., delta1, delta2), so the embedding permutes accordingly.
    """
    r = system.rank
    size = r + 2
    m = [list(row) for row in _identity(size)]
    if marking == "delta2":
        idx = (r + 1, r)  # (marking, complement) -> storage rows
    elif marking == "delta1":
        idx = (r, r + 1)
    else:
        raise ValueError("marking must be 'delta1' or 'delta2'")
    for i in range(2):
        for j in range(2):
            m[idx[i]][idx[j]] = gl2[i][j]
    return ExtendedElement(
        WeylElement(tuple(tuple(row) for row in m), (label,)), gl2, label
    )


def marking_stabilizer_generators(
    system: EllipticRootSystem, marking: str = "delta2"
) -> list[ExtendedElement]:
    """Generators of the subgroup preserving the marking line.

    The delta-plane part is generated by the unipotent shear and the
    orientation flip of the complementary direction (infinite dihedral);
    for positive rank the simple reflections at delta-offsets 0 and 1 in
    each radical direction are included to generate the reflection part.
    """
    gens: list[ExtendedElement] = []
    shear = ((1, 1), (0, 1))
    flip = ((1, 0), (0, -1))
    gens.append(_delta_plane_element(system, shear, "shear", marking))
    gens.append(_delta_plane_element(system, flip, "flip", marking))
    ident2 = ((1, 0), (0, 1))
    for i in range(system.rank):
        for (dm, dn) in ((0, 0), (1, 0), (0, 1)):
            beta = system.simple_root(i, dm, dn)
            w = reflect(system, beta)
            gens.append(ExtendedElement(w, ident2, w.word[0]))
    return gens
