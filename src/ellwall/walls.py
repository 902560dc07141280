"""Stability walls for n points on an equivariant elliptic surface.

Coordinates: the polarization is section + b*fiber and the twist divisor
is c*section + d*fiber, so every wall locus is a polynomial in (b, c, d)
with exact rational coefficients, held as integer numerators over one
denominator (``TriPoly``).  The locus is *computed* from the central
charge (real/imaginary parts expanded symbolically) rather than typed
in, so the phase-alignment property is true by construction; the tests
compare the closed form as usually printed against it.  The locus is
bilinear in (v, w), so ``WallChart`` builds every locus from the loci
between coordinate Mukai vectors.

Wall set for the rank-0 type: primitive pairs (r, s) with r >= 0,
s >= 1 and depth r + s <= n (the point-contraction wall is (0, 1)).
The depth bound is the pairing bound |<section-twisted class, v>| <= n
evaluated on normalized representatives; it is non-strict at equality
and the normalization choices are flagged in the emitted assumptions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .lattices import (
    BilinearLattice,
    MukaiVector,
    hilbert_vector,
    root_to_kclass,
    surface_lattice,
)
from .roots import EllipticRoot, UnsupportedTypeError, build_elliptic
from .serialize import WALL_TYPES

Scalar = Union[int, Fraction]
Key = tuple[int, int, int]

WILD_TYPES = ("A0", "A1", "A2")

ASSUMPTIONS = (
    "wall representatives normalized to the quadrant r >= 0, s >= 1 (sign pairs identified)",
    "depth bound r + s <= n, non-strict at equality",
    "level-1 positions reported in the r/s coordinate; point-contraction wall at 0",
)


# ---------------------------------------------------------------------------
# exact polynomials in (b, c, d)
# ---------------------------------------------------------------------------


class TriPoly:
    """Polynomial in three variables over Q, stored sparsely as integer
    numerators over one positive denominator, in lowest terms: every
    polynomial has one representation, so equality is a dict compare.
    ``nums`` is never mutated after construction: ``secant_root`` keeps a
    term table built from it on the polynomial, which equality, hashing
    and printing skip."""

    __slots__ = ("nums", "den", "_table")
    VARS = ("b", "c", "d")

    def __init__(self, nums: Optional[dict[Key, int]] = None, den: int = 1):
        nums = {k: v for k, v in nums.items() if v} if nums else {}
        g = math.gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {k: v // g for k, v in nums.items()}
            den //= g
        self.nums: dict[Key, int] = nums
        self.den = den
        self._table = None

    @staticmethod
    def const(x: Scalar) -> "TriPoly":
        return TriPoly({(0, 0, 0): x.numerator}, x.denominator)

    @staticmethod
    def var(name: str) -> "TriPoly":
        i = TriPoly.VARS.index(name)
        key = tuple(1 if j == i else 0 for j in range(3))
        return TriPoly({key: 1})

    def __add__(self, other: Union["TriPoly", Scalar]) -> "TriPoly":
        other = _coerce(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {k: v * fa for k, v in self.nums.items()}
        for k, v in other.nums.items():
            out[k] = out.get(k, 0) + v * fb
        return TriPoly(out, den)

    __radd__ = __add__

    def __neg__(self) -> "TriPoly":
        return TriPoly({k: -v for k, v in self.nums.items()}, self.den)

    def __sub__(self, other: Union["TriPoly", Scalar]) -> "TriPoly":
        return self + (-_coerce(other))

    def __mul__(self, other: Union["TriPoly", Scalar]) -> "TriPoly":
        other = _coerce(other)
        out: dict[Key, int] = {}
        for (i1, j1, k1), v1 in self.nums.items():
            for (i2, j2, k2), v2 in other.nums.items():
                k = (i1 + i2, j1 + j2, k1 + k2)
                out[k] = out.get(k, 0) + v1 * v2
        return TriPoly(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, k: int) -> "TriPoly":
        if not k:
            raise ZeroDivisionError("TriPoly division by zero")
        return TriPoly(self.nums, self.den * k)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TriPoly.const(other)
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((frozenset(self.nums.items()), self.den))

    def secant_root(
        self, b: tuple[int, int], c: tuple[int, int]
    ) -> Optional[Fraction]:
        """Root -n0/n1 of the secant of d -> p(b, c, d) through d = 0, 1
        (None if n1 = 0), for b = pb/qb and c = pc/qc given as integer
        pairs (pb, qb) and (pc, qc), qb, qc > 0, not necessarily reduced:
        n0 sums the d-free terms, n1 the rest at d = 1, both times
        den qb^tb qc^tc (tb, tc the top degrees in b, c), so a common
        factor of a pair scales both alike and the root is the same."""
        table = self._table
        if table is None:
            terms = self.nums.items()
            table = self._table = (
                tuple((i, j, v) for (i, j, k), v in terms if not k),
                tuple((i, j, v) for (i, j, k), v in terms if k),
                max((key[0] for key in self.nums), default=0),
                max((key[1] for key in self.nums), default=0),
            )
        free_terms, rest_terms, tb, tc = table
        # sb[e] = pb^e * qb^(tb - e) for b = pb/qb, sc likewise
        pb, qb = b
        pc, qc = c
        sb = [pb**e * qb ** (tb - e) for e in range(tb + 1)]
        sc = [pc**e * qc ** (tc - e) for e in range(tc + 1)]
        n1 = sum(v * sb[i] * sc[j] for i, j, v in rest_terms)
        if not n1:
            return None
        return Fraction(-sum(v * sb[i] * sc[j] for i, j, v in free_terms), n1)

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for key in sorted(self.nums):
            num = self.nums[key]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.VARS, key)
                if e
            )
            if not mono:
                parts.append(str(Fraction(num, self.den)))
            elif num == self.den:
                parts.append(mono)
            elif num == -self.den:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{Fraction(num, self.den)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"TriPoly({self})"


def _coerce(x: Union[TriPoly, Scalar]) -> TriPoly:
    return x if isinstance(x, TriPoly) else TriPoly.const(x)


# ---------------------------------------------------------------------------
# symbolic central charge in the (b, c, d) chart
# ---------------------------------------------------------------------------


def central_charge_sym(
    x: MukaiVector, ns: BilinearLattice
) -> tuple[TriPoly, TriPoly]:
    """(Re Z, Im Z) of the charge integral against exp(i(S + bE)) after
    twisting by c*S + d*E, as exact polynomials in (b, c, d)."""
    svec = ns.basis_vector("P" if "P" in ns.labels else "Theta")
    evec = ns.basis_vector("E")
    s2 = ns.pair(svec, svec)
    gs = ns.pair(x.c1, svec)
    ge = ns.pair(x.c1, evec)
    r = x.rank
    b, c, d = TriPoly.var("b"), TriPoly.var("c"), TriPoly.var("d")
    # B.gamma, H.gamma, B^2, H^2, H.B with H = S + bE, B = cS + dE
    b_dot_g = c * gs + d * ge
    h_dot_g = TriPoly.const(gs) + b * ge
    b_sq = c * c * s2 + 2 * c * d
    h_sq = TriPoly.const(s2) + 2 * b
    h_dot_b = c * s2 + d + b * c
    re = (x.twice_ch2 + r * (b_sq - h_sq)) / 2 - b_dot_g
    im = h_dot_g - r * h_dot_b
    return re, im


def phase_equal_locus(
    charge_v: tuple[TriPoly, TriPoly], charge_w: tuple[TriPoly, TriPoly]
) -> TriPoly:
    """Phase-alignment locus of v and w, given their charges
    ``central_charge_sym``: Im(w)Re(v) - Re(w)Im(v).  Vanishes exactly
    where the two phases coincide."""
    re_v, im_v = charge_v
    re_w, im_w = charge_w
    return im_w * re_v - re_w * im_v


# ---------------------------------------------------------------------------
# wall enumeration
# ---------------------------------------------------------------------------


class WallSpec(NamedTuple):
    root: EllipticRoot
    kclass: MukaiVector
    locus: TriPoly
    n1_ray: Optional[tuple[int, int]]
    level1_pos: Optional[Fraction]

    def to_json_dict(self) -> dict:
        return {
            "root": self.root.to_json_dict(),
            "kclass": self.kclass.to_json_dict(),
            "locus": str(self.locus),
            "n1_ray": list(self.n1_ray) if self.n1_ray else None,
            "level1_pos": str(self.level1_pos)
            if self.level1_pos is not None
            else None,
        }


def _wall_pairs(n: int) -> list[tuple[int, int]]:
    """Primitive (r, s), r >= 0, s >= 1, r + s <= n, ordered by position r/s."""
    pairs = [
        (r, s)
        for s in range(1, n + 1)
        for r in range(0, n - s + 1)
        if math.gcd(r, s) == 1
    ]
    pairs.sort(key=lambda p: Fraction(p[0], p[1]))
    return pairs


def _combine(x: MukaiVector, polys: tuple[TriPoly, ...]) -> TriPoly:
    """Sum of ``polys`` weighted by x's coordinates (rank, *c1,
    twice_ch2), over their common denominator."""
    coords = (x.rank, *x.c1, x.twice_ch2)
    terms = [(k, p) for k, p in zip(coords, polys) if k and p.nums]
    den = math.lcm(*(p.den for _, p in terms))
    out: dict[Key, int] = {}
    for k, p in terms:
        f = k * (den // p.den)
        for key, num in p.nums.items():
            out[key] = out.get(key, 0) + f * num
    return TriPoly(out, den)


class WallChart:
    """Walls of one type for any point count.  The locus of (v, w) is
    bilinear, so it combines the loci between the rank + 2 units
    (1, 0, 0), (0, e_i, 0), (0, 0, 1/2), expanded once per chart; each
    caller builds its own chart for its run."""

    def __init__(self, type_name: str):
        # reject the wild types explicitly; surface_lattice refuses the rest
        if type_name in WILD_TYPES:
            raise UnsupportedTypeError(
                f"type {type_name} is wild: its point-counting moduli do not admit "
                "the wall description; choose one of "
                f"{WALL_TYPES}"
            )
        self.type_name = type_name
        self.ns = ns = surface_lattice(type_name)
        zero = (0,) * ns.rank
        units = [MukaiVector(1, zero, 0)]
        units += [MukaiVector(0, ns.basis_vector(label), 0) for label in ns.labels]
        units.append(MukaiVector(0, zero, Fraction(1, 2)))
        charges = [central_charge_sym(u, ns) for u in units]
        # table[a][b]: the locus of unit a against unit b
        self._table = [[phase_equal_locus(za, zb) for zb in charges] for za in charges]

    def walls(self, n: int) -> list[WallSpec]:
        """The walls for n points: one wall per root class satisfying the
        depth bound, deduplicated to normalized representatives;
        deterministic order (by position for the rank-0 type, then by root
        data)."""
        type_name, v = self.type_name, hilbert_vector(n, self.ns)
        if type_name == "A-1":
            # point coefficient s, fiber coefficient r
            candidates = [EllipticRoot((), s, r) for r, s in _wall_pairs(n)]
        else:
            candidates = _root_candidates(type_name, n)
        # v's locus against each unit
        loci = tuple(_combine(v, column) for column in zip(*self._table))
        walls: list[WallSpec] = []
        for beta in candidates:
            kc = root_to_kclass(beta, type_name)
            degenerate = beta.m == 0 and beta.n == 0
            ray = None if degenerate else _primitive_ray(beta.m, (1 - n * n) * beta.n)
            pos = None if degenerate else Fraction(beta.n, beta.m) if beta.m else None
            walls.append(WallSpec(beta, kc, _combine(kc, loci), ray, pos))
        if type_name != "A-1":
            walls.sort(key=lambda w: (w.root.m, w.root.n, w.root.finite))
        return walls

    def decomposition(self, n: int) -> ChamberDecomposition:
        if self.type_name != "A-1":
            raise UnsupportedTypeError(
                "chamber positions on the level-1 line are modeled for type A-1 "
                "only; other types expose wall lists via WallChart.walls"
            )
        return ChamberDecomposition(self.type_name, n, tuple(self.walls(n)))


def _root_candidates(type_name: str, n: int) -> list[EllipticRoot]:
    """Roots of layers (point m, fiber nf) with m + nf <= n: the positive
    finite roots at layer (0, 0), every finite root above it, and the pure
    imaginary class where m >= 1."""
    system = build_elliptic(type_name)
    zero = (0,) * system.rank
    positives = sorted(f for f in system.finite_roots if sum(f) > 0)
    candidates: list[EllipticRoot] = []
    for m in range(0, n + 1):
        for nf in range(0, n + 1 - m):
            if (m, nf) == (0, 0):
                for f in positives:
                    candidates.append(EllipticRoot(f, 0, 0))
            else:
                if m >= 1:
                    candidates.append(EllipticRoot(zero, m, nf))
                for f in sorted(system.finite_roots):
                    candidates.append(EllipticRoot(f, m, nf))
    return candidates


def _primitive_ray(y: int, x: int) -> tuple[int, int]:
    g = math.gcd(y, x)
    return (y // g, x // g) if g else (0, 0)


# ---------------------------------------------------------------------------
# chamber structure on the level-1 line
# ---------------------------------------------------------------------------


class ChamberDecomposition(NamedTuple):
    type_name: str
    n: int
    walls: tuple[WallSpec, ...]

    @property
    def degenerate(self) -> bool:
        return self.n == 1

    @property
    def chamber_count(self) -> int:
        """The nonempty chambers: one more than the wall count exactly
        when the wall positions are distinct and in increasing order."""
        return sum(lo is None or hi is None or lo < hi for lo, hi in self.chambers())

    def chambers(self) -> list[tuple[Optional[Fraction], Optional[Fraction]]]:
        """Open intervals between consecutive wall positions, with None for
        the two unbounded ends."""
        cuts = [None, *(w.level1_pos for w in self.walls), None]
        return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_name,
            "n": self.n,
            "walls": [w.to_json_dict() for w in self.walls],
            "chambers": self.chamber_count,
            "degenerate": self.degenerate,
            "assumptions": list(ASSUMPTIONS),
        }


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 360, 32
SVG_WALL_COLOR = "#B03A2E"
SVG_CHAMBER_COLORS = ("#FDF2E9", "#EBF5FB")
SVG_AXIS_COLOR = "#1B2631"
SVG_FONT_SIZE = 11


def emit_chamber_svg(dec: ChamberDecomposition) -> str:
    """Deterministic SVG chart of the level-1 line: position u is drawn at
    x = 320 + 288 u / (1 + |u|), rounded to an integer, so the unbounded
    ends of the outer chambers sit at the margins 32 and 608.  Each wall
    is a vertical line labeled n/m, each chamber a band between its two
    walls, shaded alternately.  Every coordinate is an exact integer.
    Raises ValueError when two walls round to one x, as from n = 19 on,
    rather than draw a chamber of zero width."""
    w, h, mg = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    cx, half = w // 2, w // 2 - mg
    top, bottom = 2 * mg, h - mg
    xs = [cx + round(half * s.level1_pos / (1 + abs(s.level1_pos))) for s in dec.walls]
    for i in range(1, len(xs)):
        if xs[i] == xs[i - 1]:
            a, b = dec.walls[i - 1].root, dec.walls[i].root
            raise ValueError(
                f"walls {a.n}/{a.m} and {b.n}/{b.m} both fall at x = {xs[i]}: "
                f"the chart cannot separate the walls of n = {dec.n}"
            )
    edges = [cx - half, *xs, cx + half]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" version="1.1">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#FFFFFF"/>',
    ]
    # one band per interval of dec.chambers(), between consecutive edges
    for i in range(len(edges) - 1):
        lines.append(
            f'<path d="M {edges[i]} {top} H {edges[i + 1]} V {bottom} H {edges[i]} Z" '
            f'fill="{SVG_CHAMBER_COLORS[i % 2]}" stroke="none"/>'
        )
    for x, spec in zip(xs, dec.walls):
        lines.append(
            f'<line x1="{x}" y1="{top}" x2="{x}" y2="{bottom}" '
            f'stroke="{SVG_WALL_COLOR}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{x}" y="{top - 10}" font-size="{SVG_FONT_SIZE}" '
            f'text-anchor="middle" fill="{SVG_AXIS_COLOR}">'
            f"{spec.root.n}/{spec.root.m}</text>"
        )
    axis = (top + bottom) // 2
    lines.append(
        f'<line x1="{edges[0]}" y1="{axis}" x2="{edges[-1]}" y2="{axis}" '
        f'stroke="{SVG_AXIS_COLOR}" stroke-width="1.0"/>'
    )
    title = f"walls: type {dec.type_name}, n = {dec.n}"
    if dec.degenerate:
        title += " (degenerate)"
    lines.append(
        f'<text x="{mg}" y="{mg}" font-size="{SVG_FONT_SIZE + 2}" '
        f'fill="{SVG_AXIS_COLOR}">{title}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
