"""Elliptic root systems for the ten surface types.

A root is ``finite_part + m*delta1 + n*delta2`` where the two deltas span
the radical of the pairing.  The finite part ranges over a finite root
system (possibly empty: the first two types in the series have rank 0,
and then every root is imaginary).

The finite root sets are generated once per type by closing the simple
roots under simple reflections; the resulting counts (24 for the
triality type, 240 for the largest) double as oracle values in tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

DELIGNE_TYPES = ("A-1", "A0", "A1", "A2", "G2", "D4", "F4", "E6", "E7", "E8")

# Symmetrized Gram matrices on the finite part, short roots squared-length 2
# for the two non-simply-laced members, length 2 throughout otherwise.
_SIMPLY_LACED_EDGES = {
    "A1": (1, ()),
    "A2": (2, ((0, 1),)),
    "D4": (4, ((0, 1), (2, 1), (3, 1))),
    "E6": (6, ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3))),
    "E7": (7, ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3))),
    "E8": (8, ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))),
}

_GRAM_SPECIAL = {
    "G2": ((2, -3), (-3, 6)),
    "F4": ((4, -2, 0, 0), (-2, 4, -2, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
}


def finite_gram(type_name: str) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the finite part (empty for the rank-0 types)."""
    if type_name in ("A-1", "A0"):
        return ()
    if type_name in _GRAM_SPECIAL:
        return _GRAM_SPECIAL[type_name]
    rank, edges = _SIMPLY_LACED_EDGES[type_name]
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = 2
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return tuple(tuple(row) for row in g)


def cartan_matrix(type_name: str) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix C[i][j] = 2<a_i,a_j>/<a_j,a_j> derived from the Gram."""
    g = finite_gram(type_name)
    rank = len(g)
    return tuple(
        tuple(2 * g[i][j] // g[j][j] for j in range(rank)) for i in range(rank)
    )


class UnsupportedTypeError(ValueError):
    """Raised for surface types and symmetry orders that are not modeled."""


class Record:
    """An immutable value over ``__slots__``, for the records that derive
    or validate a field; the others are ``NamedTuple``s.  ``__init__``
    sets each slot once, through ``object.__setattr__``.  The repr,
    equality and hash read the ``_fields``; a derived slot outside them
    takes no part."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class EllipticRoot(NamedTuple):
    """finite_part + m*delta1 + n*delta2 (delta1 = point direction,
    delta2 = fiber direction carrying the marking)."""

    finite: tuple[int, ...]
    m: int
    n: int

    def is_delta_only(self) -> bool:
        return all(c == 0 for c in self.finite)

    def __neg__(self) -> "EllipticRoot":
        return EllipticRoot(tuple(-c for c in self.finite), -self.m, -self.n)

    def to_json_dict(self) -> dict:
        return {
            "finite": list(self.finite),
            "m": self.m,
            "n": self.n,
        }


def _close_under_reflections(
    gram: tuple[tuple[int, ...], ...]
) -> frozenset[tuple[int, ...]]:
    """All finite roots, as coefficient vectors over the simple roots."""
    rank = len(gram)
    if rank == 0:
        return frozenset()
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen: set[tuple[int, ...]] = set(simple) | {tuple(-c for c in s) for s in simple}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                # s_i(v) = v - (2<v,a_i>/<a_i,a_i>) e_i
                pair = sum(v[j] * gram[j][i] for j in range(rank))
                coef = 2 * pair // gram[i][i]
                w = list(v)
                w[i] -= coef
                wt = tuple(w)
                if wt not in seen:
                    seen.add(wt)
                    nxt.append(wt)
        frontier = nxt
    return frozenset(seen)


class EllipticRootSystem:
    """Handle exposing membership, classification and boxed enumeration."""

    def __init__(self, type_name: str):
        if type_name not in DELIGNE_TYPES:
            raise ValueError(
                f"unknown type {type_name!r}; expected one of {DELIGNE_TYPES}"
            )
        self.type_name = type_name
        self.gram = finite_gram(type_name)
        self.cartan = cartan_matrix(type_name)
        self.rank = len(self.gram)
        self.finite_roots = _close_under_reflections(self.gram)

    # -- membership and classification --------------------------------

    def contains(self, beta: EllipticRoot) -> bool:
        if len(beta.finite) != self.rank:
            return False
        if beta.is_delta_only():
            return (beta.m, beta.n) != (0, 0)
        return beta.finite in self.finite_roots

    def is_real(self, beta: EllipticRoot) -> bool:
        if not self.contains(beta):
            raise ValueError(f"{beta} is not a root of type {self.type_name}")
        return not beta.is_delta_only()

    def simple_root(self, i: int, m: int = 0, n: int = 0) -> EllipticRoot:
        return EllipticRoot(
            tuple(1 if j == i else 0 for j in range(self.rank)), m, n
        )

    # -- enumeration --------------------------------------------------

    def roots_in_box(
        self,
        m_max: int,
        n_max: int,
        finite_height_max: Optional[int] = None,
    ) -> list[EllipticRoot]:
        """All roots with |m| <= m_max, |n| <= n_max and bounded finite height,
        in lexicographic order on (m, n, finite coefficients)."""
        if m_max < 0 or n_max < 0:
            raise ValueError("box bounds must be >= 0")
        zero = (0,) * self.rank
        finites: list[tuple[int, ...]] = [zero]
        for f in self.finite_roots:
            if finite_height_max is None or abs(sum(f)) <= finite_height_max:
                finites.append(f)
        out = []
        for m in range(-m_max, m_max + 1):
            for n in range(-n_max, n_max + 1):
                for f in sorted(finites):
                    if f == zero and (m, n) == (0, 0):
                        continue
                    out.append(EllipticRoot(f, m, n))
        out.sort(key=lambda b: (b.m, b.n, b.finite))
        return out

    def __repr__(self) -> str:
        return f"EllipticRootSystem({self.type_name!r})"


# Keyed by the surface type: one of the ten DELIGNE_TYPES, since the
# constructor rejects any other name and a raised call is not cached.
@lru_cache(maxsize=None)
def build_elliptic(type_name: str) -> EllipticRootSystem:
    return EllipticRootSystem(type_name)
