"""Local calculus for a cyclic-orbifold disc.

Covers, in exact arithmetic over Q(zeta_k) with no floating point:

* zeroth-Hochschild dimensions of the orbifold elliptic curve for the
  cyclic symmetry orders 1, 2, 3, 4, 6, with an independent audit that
  recounts the fixed-point summands as orbits under the full group;
* character values A_r of a bimodule parameter (a_g)_g;
* the action matrix of the local coordinate on a rank-2(n+1) jet
  extension, the trace splitting criterion, and an exact Jordan-type
  oracle for nilpotent matrices;
* tensor decomposition of the simple torsion sheaves against the
  bimodule (split pair versus indecomposable extension);
* the deformed-preprojective relation checker for cyclic-quiver
  representations, with per-node exact residuals.

Matrix conventions: matrices are tuples of row tuples; the jet action
matrix is written against the column of basis symbols, so the nilpotent
Jordan block J has its ones on the superdiagonal.  Jordan types, ranks
and traces are invariant under that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .cyclotomic import Cyclotomic
from .serialize import PREPROJ_SIGN_CONVENTION, cyclo_str
from .walls import UnsupportedTypeError

Scalar = Union[int, Fraction, Cyclotomic]
Matrix = tuple[tuple[Cyclotomic, ...], ...]

SUPPORTED_ORDERS = (1, 2, 3, 4, 6)

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
    if order not in SUPPORTED_ORDERS:
        raise UnsupportedTypeError(
            f"no elliptic symmetry of order {order}; supported: "
            f"{', '.join(map(str, SUPPORTED_ORDERS))}"
        )


def hh0_dim(order: int) -> int:
    """Dimension of the zeroth Hochschild homology of the order-k
    orbifold curve; constant-time table lookup."""
    _check_order(order)
    return HH0_TABLE[order]


def _mat2_mul(x, y):
    return tuple(
        tuple(sum(x[i][t] * y[t][j] for t in range(2)) for j in range(2))
        for i in range(2)
    )


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
    assert len(pts) == d, "fixed-point count must equal the index"
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
        power = _mat2_mul(power, rot)
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


def _coerce(k: int, x: Scalar) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        if x.k != k:
            raise ValueError(f"expected an order-{k} value, got order {x.k}")
        return x
    return Cyclotomic(k, x)


@dataclass(frozen=True)
class BimoduleParam:
    """An extension parameter: one coefficient per group element of the
    order-k cyclic group, indexed 0..k-1 by the exponent of the chosen
    generator; coefficients live in Q(zeta_k)."""

    k: int
    a: tuple[Cyclotomic, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("group order must be >= 1")
        if len(self.a) != self.k:
            raise ValueError(f"need {self.k} coefficients, got {len(self.a)}")
        for x in self.a:
            if not isinstance(x, Cyclotomic) or x.k != self.k:
                raise ValueError("coefficients must be order-k cyclotomic values")

    @classmethod
    def make(cls, k: int, values: Sequence[Scalar]) -> "BimoduleParam":
        return cls(k, tuple(_coerce(k, v) for v in values))


def char_value(p: BimoduleParam, r: int) -> Cyclotomic:
    """A_r: the weight-r character evaluated on the parameter, i.e. the
    trace of the parameter acting through the r-th isotypic line."""
    acc = Cyclotomic(p.k, 0)
    for g, coeff in enumerate(p.a):
        acc = acc + coeff * Cyclotomic.zeta(p.k, (r * g) % p.k)
    return acc


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
            row[size + i] = char_value(p, i)
        rows.append(tuple(row))
    return tuple(rows)


def jet_trace(n: int, p: BimoduleParam) -> Cyclotomic:
    """Sum of the first n+1 character values (the trace of the coupling
    block of the jet action matrix)."""
    acc = Cyclotomic(p.k, 0)
    for r in range(n + 1):
        acc = acc + char_value(p, r)
    return acc


def splits(n: int, p: BimoduleParam) -> bool:
    """The order-n jet extension splits exactly when the coupling-block
    trace vanishes."""
    return jet_trace(n, p).is_zero()


def matrix_rank(mat: Matrix) -> int:
    """Exact rank by Gaussian elimination over the cyclotomic field."""
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
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
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
    assert sum(sizes) == size
    return tuple(sizes)


# ---------------------------------------------------------------------------
# tensor decomposition of the simple torsion sheaves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorDecomposition:
    """How the i-th simple torsion sheaf tensors against the bimodule:
    either the split pair (s_i, s_{i-1}) or the indecomposable
    extension of s_{i-1} by s_i, decided by the exact vanishing of the
    character value A_i."""

    i: int
    value: Cyclotomic
    split: bool

    @property
    def tag(self) -> str:
        return "split" if self.split else "ext"

    @property
    def summands(self) -> Optional[tuple[str, str]]:
        if not self.split:
            return None
        k = self.value.k
        return (f"s{self.i}", f"s{(self.i - 1) % k}")

    @property
    def extension(self) -> Optional[str]:
        if self.split:
            return None
        k = self.value.k
        return f"e[{self.i},{(self.i - 1) % k}]"

    def to_json_dict(self) -> dict:
        out = {"i": self.i, "value": cyclo_str(self.value), "kind": self.tag}
        if self.split:
            out["summands"] = list(self.summands)
        else:
            out["extension"] = self.extension
        return out


def tensor_simple(i: int, p: BimoduleParam) -> TensorDecomposition:
    r = i % p.k
    value = char_value(p, r)
    return TensorDecomposition(r, value, value.is_zero())


def tensor_table(p: BimoduleParam) -> list[TensorDecomposition]:
    return [tensor_simple(i, p) for i in range(p.k)]


def tensor_table_rows(p: BimoduleParam) -> list[tuple[int, str, str]]:
    """CSV-ready rows (i, A_i, split|ext)."""
    return [(t.i, cyclo_str(t.value), t.tag) for t in tensor_table(p)]


# ---------------------------------------------------------------------------
# deformed-preprojective relation checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreprojRep:
    """Cyclic-quiver representation data: per-node dimensions, the
    clockwise arrow maps cw[i]: node i -> node i-1, the counterclockwise
    maps ccw[i]: node i -> node i+1 (indices mod k), and the node
    scalars of the deformed relation."""

    k: int
    dims: tuple[int, ...]
    cw: tuple[Matrix, ...]
    ccw: tuple[Matrix, ...]
    lam: tuple[Cyclotomic, ...]

    @classmethod
    def make(cls, k, dims, cw, ccw, lam) -> "PreprojRep":
        def conv(mat):
            return tuple(tuple(_coerce(k, x) for x in row) for row in mat)

        return cls(
            k,
            tuple(dims),
            tuple(conv(m) for m in cw),
            tuple(conv(m) for m in ccw),
            tuple(_coerce(k, x) for x in lam),
        )


@dataclass(frozen=True)
class PreprojReport:
    passes: bool
    relation_holds: bool
    lambda_matches: tuple[bool, ...]
    seminilpotent: bool
    residuals: tuple[Matrix, ...]
    sign_convention: str = PREPROJ_SIGN_CONVENTION

    def to_json_dict(self) -> dict:
        return {
            "passes": self.passes,
            "relation_holds": self.relation_holds,
            "lambda_matches": list(self.lambda_matches),
            "seminilpotent": self.seminilpotent,
            "sign_convention": self.sign_convention,
            "residuals": [
                [[cyclo_str(x) for x in row] for row in mat]
                for mat in self.residuals
            ],
        }


def _shape_ok(mat: Matrix, rows: int, cols: int) -> bool:
    return len(mat) == rows and all(len(r) == cols for r in mat)


def _identity(k: int, n: int) -> Matrix:
    one, zero = Cyclotomic(k, 1), Cyclotomic(k, 0)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def _zeros(k: int, rows: int, cols: int) -> Matrix:
    zero = Cyclotomic(k, 0)
    return tuple(tuple(zero for _ in range(cols)) for _ in range(rows))


def _mat_sub(x: Matrix, y: Matrix) -> Matrix:
    return tuple(
        tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(x, y)
    )


def _mat_scale(mat: Matrix, c: Cyclotomic) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in mat)


def _mat_is_zero(mat: Matrix) -> bool:
    return all(x.is_zero() for row in mat for x in row)


def _cw_nilpotent(rep: PreprojRep) -> bool:
    """Nilpotency of the total clockwise endomorphism of the node sum."""
    total = sum(rep.dims)
    if total == 0:
        return True
    k = rep.k
    zero = Cyclotomic(k, 0)
    offsets = [sum(rep.dims[:i]) for i in range(rep.k)]
    big = [[zero] * total for _ in range(total)]
    for i in range(rep.k):
        tgt = (i - 1) % rep.k
        mat = rep.cw[i]
        for r in range(rep.dims[tgt]):
            for c in range(rep.dims[i]):
                big[offsets[tgt] + r][offsets[i] + c] = mat[r][c]
    power: Matrix = tuple(tuple(row) for row in big)
    base = power
    for _ in range(total):
        if _mat_is_zero(power):
            return True
        power = _mat_mul(power, base)
    return _mat_is_zero(power)


def preproj_check(rep: PreprojRep, p: BimoduleParam) -> PreprojReport:
    """Check the deformed relation at every node (exact residual
    matrices, sign per PREPROJ_SIGN_CONVENTION), that the node scalars
    equal the character values of the parameter, and that the clockwise
    maps are nilpotent."""
    k = rep.k
    if p.k != k:
        raise ValueError("representation and parameter have different orders")
    if not (
        len(rep.dims) == k and len(rep.cw) == k and len(rep.ccw) == k
        and len(rep.lam) == k
    ):
        raise ValueError("per-node data must have one entry per node")
    for i in range(k):
        if not _shape_ok(rep.cw[i], rep.dims[(i - 1) % k], rep.dims[i]):
            raise ValueError(f"clockwise map at node {i}: dimension mismatch")
        if not _shape_ok(rep.ccw[i], rep.dims[(i + 1) % k], rep.dims[i]):
            raise ValueError(f"counterclockwise map at node {i}: dimension mismatch")
    residuals = []
    relation_holds = True
    for i in range(k):
        d = rep.dims[i]
        if d == 0:
            residuals.append(_zeros(k, 0, 0))
            continue
        # the round trip through a zero-dimensional neighbour is zero
        before, after = (i - 1) % k, (i + 1) % k
        empty = _zeros(k, d, d)
        back = _mat_mul(rep.ccw[before], rep.cw[i]) if rep.dims[before] else empty
        forth = _mat_mul(rep.cw[after], rep.ccw[i]) if rep.dims[after] else empty
        res = _mat_sub(
            _mat_sub(back, forth), _mat_scale(_identity(k, d), rep.lam[i])
        )
        residuals.append(res)
        if not _mat_is_zero(res):
            relation_holds = False
    lambda_matches = tuple(
        rep.lam[i] == char_value(p, i) for i in range(k)
    )
    seminilpotent = _cw_nilpotent(rep)
    passes = relation_holds and all(lambda_matches)
    return PreprojReport(
        passes=passes,
        relation_holds=relation_holds,
        lambda_matches=lambda_matches,
        seminilpotent=seminilpotent,
        residuals=tuple(residuals),
    )


def jet_module_rep(n: int, p: BimoduleParam) -> PreprojRep:
    """The one-node representation carried by the order-n jet sheaf
    (group order 1 only): the coordinate acts by the nilpotent Jordan
    block, the returning map is zero, and the node scalar is A_0.  The
    relation then holds exactly when A_0 = 0 (for nonzero A_0 no
    finite-dimensional representation exists: the commutator is
    traceless while lambda.id is not)."""
    if p.k != 1:
        raise ValueError("jet module construction is given for group order 1")
    size = n + 1
    zero, one = Cyclotomic(1, 0), Cyclotomic(1, 1)
    jordan = tuple(
        tuple(one if j == i + 1 else zero for j in range(size))
        for i in range(size)
    )
    return PreprojRep(
        1,
        (size,),
        (jordan,),
        (_zeros(1, size, size),),
        (char_value(p, 0),),
    )
