"""Local calculus for a cyclic-orbifold disc.

Covers, in exact arithmetic over Q(zeta_k) with no floating point:

* zeroth-Hochschild dimensions of the orbifold elliptic curve for the
  cyclic symmetry orders 1, 2, 3, 4, 6, with an independent audit that
  recounts the fixed-point summands as orbits under the full group;
* character values A_r of a bimodule parameter (a_g)_g, all k of them
  computed once per parameter in one integer pass and read from its
  table;
* the action matrix of the local coordinate on a rank-2(n+1) jet
  extension, the trace splitting criterion, and an exact Jordan-type
  oracle for nilpotent matrices;
* tensor decomposition of the simple torsion sheaves against the
  bimodule (split pair versus indecomposable extension).

Matrix conventions: matrices are tuples of row tuples; the jet action
matrix is written against the column of basis symbols, so the nilpotent
Jordan block J has its ones on the superdiagonal.  Jordan types, ranks
and traces are invariant under that choice.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from . import weyl
from .cyclotomic import Cyclotomic, _element, _power_table
from .roots import Record

Scalar = Union[int, Fraction, Cyclotomic]
Matrix = tuple[tuple[Cyclotomic, ...], ...]

HH0_TABLE = {1: 2, 2: 6, 3: 8, 4: 9, 6: 10}

#: order-k integer rotations of the plane lattice (none exists for k=5)
_PLANE_ROTATION = {
    1: ((1, 0), (0, 1)),
    2: ((-1, 0), (0, -1)),
    3: ((0, -1), (1, -1)),
    4: ((0, -1), (1, 0)),
    6: ((0, -1), (1, 1)),
}


def _check_order(order: int) -> None:
    if order not in HH0_TABLE:
        raise ValueError(
            f"no elliptic symmetry of order {order}; supported: "
            f"{', '.join(map(str, HH0_TABLE))}"
        )


def hh0_dim(order: int) -> int:
    """Dimension of the zeroth Hochschild homology of the order-k
    orbifold curve; constant-time table lookup."""
    _check_order(order)
    return HH0_TABLE[order]


def _fixed_points(power) -> list[tuple[int, int]]:
    """Torsion points fixed by the given lattice rotation, as pairs
    y/d with d = |det(rotation - 1)|; returned as residues mod d."""
    a = ((power[0][0] - 1, power[0][1]), (power[1][0], power[1][1] - 1))
    d = abs(a[0][0] * a[1][1] - a[0][1] * a[1][0])
    pts = [
        (x, y)
        for x in range(d)
        for y in range(d)
        if (a[0][0] * x + a[0][1] * y) % d == 0
        and (a[1][0] * x + a[1][1] * y) % d == 0
    ]
    if len(pts) != d:
        raise ArithmeticError("fixed-point count must equal the index")
    return pts


def _orbit_count(points: Sequence[tuple[int, int]], rot, d: int) -> int:
    remaining = set(points)
    orbits = 0
    while remaining:
        v = next(iter(remaining))
        orbits += 1
        while v in remaining:
            remaining.remove(v)
            v = (
                (rot[0][0] * v[0] + rot[0][1] * v[1]) % d,
                (rot[1][0] * v[0] + rot[1][1] * v[1]) % d,
            )
    return orbits


def hh0_audit(order: int) -> dict:
    """Recount each fixed-point summand as orbits under the full cyclic
    group (the invariant functions on a fixed set are spanned by its
    orbit indicators).  The orbit total reproduces the dimension table
    for every supported order; the naive total does not for 4 and 6."""
    _check_order(order)
    rot = _PLANE_ROTATION[order]
    naive = [2]
    orbit = [2]
    power = ((1, 0), (0, 1))
    for _ in range(1, order):
        power = weyl._mat_mul(power, rot)
        pts = _fixed_points(power)
        d = len(pts)
        naive.append(d)
        orbit.append(_orbit_count(pts, rot, d))
    return {
        "order": order,
        "naive_summands": naive,
        "orbit_summands": orbit,
        "naive_total": sum(naive),
        "orbit_total": sum(orbit),
        "table_value": HH0_TABLE[order],
    }


# ---------------------------------------------------------------------------
# bimodule parameters and character values
# ---------------------------------------------------------------------------


class BimoduleParam(Record):
    """An extension parameter: one coefficient per group element of the
    order-k cyclic group, indexed 0..k-1 by the exponent of the chosen
    generator; coefficients live in Q(zeta_k).

    ``chars`` holds A_0..A_{k-1}, A_r = sum_g a_g zeta^(r g) (the trace
    of the parameter on the weight-r isotypic line; a weight r >= k reads
    A_(r mod k)), computed once from the coefficients; it takes no part
    in equality, hashing or repr."""

    _fields = ("k", "a")
    __slots__ = (*_fields, "chars")

    def __init__(self, k: int, a: tuple[Cyclotomic, ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)
        if self.k < 1:
            raise ValueError("group order must be >= 1")
        if len(self.a) != self.k:
            raise ValueError(
                f"need {self.k} coefficients for order {self.k}, got {len(self.a)}"
            )
        for x in self.a:
            if not isinstance(x, Cyclotomic) or x.k != self.k:
                raise ValueError("coefficients must be order-k cyclotomic values")
        object.__setattr__(self, "chars", _char_table(self.k, self.a))

    @classmethod
    def make(cls, k: int, values: Sequence[Scalar]) -> "BimoduleParam":
        lift = (v if isinstance(v, Cyclotomic) else Cyclotomic(k, v) for v in values)
        return cls(k, tuple(lift))


def _char_table(k: int, a: Sequence[Cyclotomic]) -> tuple[Cyclotomic, ...]:
    """A_0..A_{k-1} in one integer pass over the numerators of the a_g,
    taken over their common denominator: the term n zeta^i of a_g adds n
    to the coefficient of zeta^((i + r g) mod k) in A_r, and each power
    of zeta at or above deg Phi_k is then folded back through its row of
    the power table."""
    rows = _power_table(k)
    deg = len(rows[0])
    den = lcm(*(x.den for x in a))
    terms = [
        (i, g, n * (den // x.den))
        for g, x in enumerate(a)
        for i, n in enumerate(x.nums)
        if n
    ]
    chars = []
    for r in range(k):
        powers = [0] * k
        for i, g, n in terms:
            powers[(i + r * g) % k] += n
        nums = powers[:deg]
        for e in range(deg, k):
            c = powers[e]
            if c:
                for t, v in enumerate(rows[e]):
                    nums[t] += c * v
        chars.append(_element(k, nums, den))
    return tuple(chars)


# ---------------------------------------------------------------------------
# jet action matrix, splitting criterion, Jordan oracle
# ---------------------------------------------------------------------------


def y_matrix(n: int, p: BimoduleParam) -> Matrix:
    """Action of the local coordinate on the order-n jet extension:
    block upper-triangular [[J, diag(A_0..A_n)], [0, J]] with J the
    (n+1)-step nilpotent Jordan block, entries in Q(zeta_k)."""
    if n < 0:
        raise ValueError("jet order must be >= 0")
    size = n + 1
    zero = Cyclotomic(p.k, 0)
    rows = []
    for i in range(2 * size):
        row = [zero] * (2 * size)
        if i % size != size - 1:
            row[i + 1] = Cyclotomic(p.k, 1)
        if i < size:
            row[size + i] = p.chars[i % p.k]
        rows.append(tuple(row))
    return tuple(rows)


def jet_trace(n: int, p: BimoduleParam) -> Cyclotomic:
    """Sum of the first n+1 character values (the trace of the coupling
    block of the jet action matrix)."""
    acc = Cyclotomic(p.k, 0)
    for r in range(n + 1):
        acc = acc + p.chars[r % p.k]
    return acc


def splits(n: int, p: BimoduleParam) -> bool:
    """The order-n jet extension splits exactly when the coupling-block
    trace vanishes."""
    return jet_trace(n, p).is_zero()


def matrix_rank(mat: Matrix) -> int:
    """Exact rank by fraction-free elimination over the cyclotomic field:
    each pivot p clears its column from the rows below it by the update
    r <- p r - r[col] prow, a ring operation that keeps the rank.  It
    divides by nothing, so it is not Bareiss's update, which divides
    exactly by the previous pivot to keep the entries from growing."""
    rows = [list(r) for r in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
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
            if not c.is_zero():
                for j in range(col + 1, ncols):
                    row[j] = p * row[j] - c * prow[j]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _mat_mul(x: Matrix, y: Matrix) -> Matrix:
    """x y, skipping the zero entries of both factors."""
    ncols = len(y[0])
    zero = Cyclotomic(y[0][0].k, 0) if ncols else None
    sparse_y = [[(j, v) for j, v in enumerate(row) if not v.is_zero()] for row in y]
    out = []
    for x_row in x:
        acc = [zero] * ncols
        for a, y_row in zip(x_row, sparse_y):
            if not a.is_zero():
                for j, v in y_row:
                    acc[j] = acc[j] + a * v
        out.append(tuple(acc))
    return tuple(out)


def nilpotent_jordan_type(mat: Matrix) -> tuple[int, ...]:
    """Jordan block sizes (descending) of a nilpotent matrix, from the
    exact rank sequence of its powers; rejects non-nilpotent input."""
    size = len(mat)
    ranks = [size]
    power = mat
    while ranks[-1] > 0:
        ranks.append(matrix_rank(power))
        if len(ranks) > size + 1:
            raise ValueError("matrix is not nilpotent")
        if ranks[-1] > 0:
            power = _mat_mul(power, mat)
    # counts[j-1] = number of blocks of size >= j
    sizes: list[int] = []
    counts = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    for j in range(len(counts), 0, -1):
        exactly_j = counts[j - 1] - (counts[j] if j < len(counts) else 0)
        sizes.extend([j] * exactly_j)
    if sum(sizes) != size:
        raise ArithmeticError(f"rank sequence {ranks} has no Jordan type of size {size}")
    return tuple(sizes)


# ---------------------------------------------------------------------------
# tensor decomposition of the simple torsion sheaves
# ---------------------------------------------------------------------------


def tensor_table_rows(p: BimoduleParam) -> list[tuple[int, Cyclotomic, str]]:
    """Rows (i, A_i, split|ext): s_i tensored with the bimodule is the
    split pair (s_i, s_{i-1}) when A_i vanishes, else the indecomposable
    extension of s_{i-1} by s_i."""
    return [(i, x, "split" if x.is_zero() else "ext") for i, x in enumerate(p.chars)]
