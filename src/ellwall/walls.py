"""Stability walls for n points on an equivariant elliptic surface.

Coordinates: the polarization is section + b*fiber and the twist divisor
is c*section + d*fiber, so every wall locus is a polynomial in (b, c, d)
with exact rational coefficients, held as integer numerators over one
denominator (``TriPoly``).  The locus is *computed* from the central
charge (real/imaginary parts expanded symbolically) rather than typed
in, so the phase-alignment property is true by construction; the tests
compare the closed form as usually printed against it.  The charge of
v is expanded once per enumeration and crossed with each wall's.

Wall set for the rank-0 type: primitive pairs (r, s) with r >= 0,
s >= 1 and depth r + s <= n (the point-contraction wall is (0, 1)).
The depth bound is the pairing bound |<section-twisted class, v>| <= n
evaluated on normalized representatives; it is non-strict at equality
and the normalization choices are flagged in the emitted assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .lattices import (
    BilinearLattice,
    MukaiVector,
    hilbert_vector,
    root_to_kclass,
    surface_lattice,
)
from .roots import EllipticRoot, build_elliptic
from .serialize import frac_str

Scalar = Union[int, Fraction]
Key = tuple[int, int, int]

WALL_TYPES = ("A-1", "D4", "E6", "E7", "E8")
WILD_TYPES = ("A0", "A1", "A2")

ASSUMPTIONS = (
    "wall representatives normalized to the quadrant r >= 0, s >= 1 (sign pairs identified)",
    "depth bound r + s <= n, non-strict at equality",
    "level-1 positions reported in the r/s coordinate; point-contraction wall at 0",
)


class UnsupportedTypeError(ValueError):
    """Raised for surface types whose wall structure is not modeled."""


# ---------------------------------------------------------------------------
# exact polynomials in (b, c, d)
# ---------------------------------------------------------------------------


class TriPoly:
    """Polynomial in three variables over Q, stored sparsely as integer
    numerators over one positive denominator, in lowest terms: every
    polynomial has one representation, so equality is a dict compare."""

    __slots__ = ("nums", "den")
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

    def __rsub__(self, other: Scalar) -> "TriPoly":
        return _coerce(other) - self

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

    def is_zero(self) -> bool:
        return not self.nums

    def evaluate(self, b: Scalar, c: Scalar, d: Scalar) -> Fraction:
        """Value at a rational point, as one integer sum over the common
        denominator: the polynomial's denominator times each coordinate's
        denominator raised to the top degree in it."""
        nums = self.nums
        if not nums:
            return Fraction(0)
        den = self.den
        # scaled[axis][e] = p^e * q^(top - e) for the coordinate p/q
        scaled = []
        for top, x in zip(map(max, zip(*nums)), (b, c, d)):
            p, q = x.numerator, x.denominator
            scaled.append([p**e * q ** (top - e) for e in range(top + 1)])
            den *= q**top
        sb, sc, sd = scaled
        total = sum(v * sb[i] * sc[j] * sd[k] for (i, j, k), v in nums.items())
        return Fraction(total, den)

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
                parts.append(frac_str(Fraction(num, self.den)))
            elif num == self.den:
                parts.append(mono)
            elif num == -self.den:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{frac_str(Fraction(num, self.den))}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"TriPoly({self})"


def _coerce(x: Union[TriPoly, Scalar]) -> TriPoly:
    return x if isinstance(x, TriPoly) else TriPoly.const(x)


# ---------------------------------------------------------------------------
# symbolic central charge in the (b, c, d) chart
# ---------------------------------------------------------------------------


def _section_label(ns: BilinearLattice) -> str:
    return "P" if "P" in ns.labels else "Theta"


def central_charge_sym(
    x: MukaiVector, ns: BilinearLattice
) -> tuple[TriPoly, TriPoly]:
    """(Re Z, Im Z) of the charge integral against exp(i(S + bE)) after
    twisting by c*S + d*E, as exact polynomials in (b, c, d)."""
    s_label = _section_label(ns)
    svec = ns.basis_vector(s_label)
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


def _check_hilbert_shape(v: MukaiVector) -> int:
    if v.rank != 1 or any(v.c1) or v.twice_ch2 >= 0:
        raise ValueError(
            "expected a point-count vector (1, 0, -n); normalize v first"
        )
    if v.twice_ch2 % 2:
        raise ValueError("point count must be integral")
    return -v.twice_ch2 // 2


def phase_equal_locus(
    charge_v: tuple[TriPoly, TriPoly], w: MukaiVector, ns: BilinearLattice
) -> TriPoly:
    """Phase-alignment locus of v and w, given v's charge
    ``central_charge_sym(v, ns)``: Im(w)Re(v) - Re(w)Im(v) expanded from
    the symbolic central charges.  Vanishes exactly where the two phases
    coincide."""
    re_v, im_v = charge_v
    re_w, im_w = central_charge_sym(w, ns)
    return im_w * re_v - re_w * im_v


# ---------------------------------------------------------------------------
# wall enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WallSpec:
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
            "level1_pos": frac_str(self.level1_pos)
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


def check_wall_type(type_name: str) -> None:
    """Reject types outside the wall description, wild cases explicitly."""
    if type_name in WILD_TYPES:
        raise UnsupportedTypeError(
            f"type {type_name} is wild: its point-counting moduli do not admit "
            "the wall description; choose one of "
            f"{WALL_TYPES}"
        )
    if type_name not in WALL_TYPES:
        raise UnsupportedTypeError(
            f"type {type_name} has no equivariant surface model; choose one of "
            f"{WALL_TYPES}"
        )


def enumerate_v_walls(v: MukaiVector, type_name: str) -> list[WallSpec]:
    """One wall per root class satisfying the depth bound, deduplicated to
    normalized representatives; deterministic order (by position for the
    rank-0 type, then by root data)."""
    check_wall_type(type_name)
    ns = surface_lattice(type_name)
    n = _check_hilbert_shape(v)
    charge_v = central_charge_sym(v, ns)
    walls: list[WallSpec] = []
    if type_name == "A-1":
        for r, s in _wall_pairs(n):
            beta = EllipticRoot((), s, r)  # point coefficient s, fiber coefficient r
            kc = root_to_kclass(beta, "A-1")
            locus = phase_equal_locus(charge_v, kc, ns)
            ray = _primitive_ray(s, (1 - n * n) * r)
            walls.append(
                WallSpec(beta, kc, locus, ray, Fraction(r, s))
            )
        return walls
    system = build_elliptic(type_name)
    zero = (0,) * system.rank
    positives = _positive_roots(type_name)
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
    for beta in candidates:
        kc = root_to_kclass(beta, type_name)
        locus = phase_equal_locus(charge_v, kc, ns)
        degenerate = beta.m == 0 and beta.n == 0
        ray = None if degenerate else _primitive_ray(beta.m, (1 - n * n) * beta.n)
        pos = None if degenerate else Fraction(beta.n, beta.m) if beta.m else None
        walls.append(WallSpec(beta, kc, locus, ray, pos))
    walls.sort(key=lambda w: (w.root.m, w.root.n, w.root.finite))
    return walls


def _primitive_ray(y: int, x: int) -> tuple[int, int]:
    g = math.gcd(y, x)
    return (y // g, x // g) if g else (0, 0)


def _positive_roots(type_name: str) -> list[tuple[int, ...]]:
    system = build_elliptic(type_name)
    return sorted(f for f in system.finite_roots if sum(f) > 0)


# ---------------------------------------------------------------------------
# chamber structure on the level-1 line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChamberDecomposition:
    type_name: str
    n: int
    walls: tuple[WallSpec, ...]
    degenerate: bool = False
    assumptions: tuple[str, ...] = field(default=ASSUMPTIONS)

    @property
    def level1_positions(self) -> list[Fraction]:
        return [w.level1_pos for w in self.walls]

    @property
    def chamber_count(self) -> int:
        """The nonempty chambers: one more than the wall count exactly
        when the wall positions are distinct and in increasing order."""
        return sum(lo is None or hi is None or lo < hi for lo, hi in self.chambers())

    def chambers(self) -> list[tuple[Optional[Fraction], Optional[Fraction]]]:
        """Open intervals between consecutive wall positions, with None for
        the two unbounded ends."""
        cuts: list[Optional[Fraction]] = [None, *self.level1_positions, None]
        return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_name,
            "n": self.n,
            "walls": [w.to_json_dict() for w in self.walls],
            "chambers": self.chamber_count,
            "degenerate": self.degenerate,
            "assumptions": list(self.assumptions),
        }


def chamber_decomposition(n: int, type_name: str = "A-1") -> ChamberDecomposition:
    if n < 1:
        raise ValueError("point count must be >= 1")
    if type_name != "A-1":
        raise UnsupportedTypeError(
            "chamber positions on the level-1 line are modeled for type A-1 "
            "only; other types expose wall lists via enumerate_v_walls"
        )
    ns = surface_lattice(type_name)
    v = hilbert_vector(n, ns)
    walls = tuple(enumerate_v_walls(v, type_name))
    return ChamberDecomposition(type_name, n, walls, degenerate=(n == 1))


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 360, 32
SVG_WALL_COLOR = "#B03A2E"
SVG_CHAMBER_COLORS = ("#FDF2E9", "#EBF5FB")
SVG_AXIS_COLOR = "#1B2631"
SVG_FONT_SIZE = 11


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def emit_chamber_svg(dec: ChamberDecomposition) -> str:
    """Deterministic SVG: wall rays fanned from the origin of the positive
    half-space, chambers shaded alternately, positions labeled.  Bit-stable
    for a fixed decomposition."""
    w, h, mg = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    cx, cy = w / 2.0, h - float(mg)
    radius = min(w / 2.0 - mg, h - 2.0 * mg)
    # ray angles: boundary at 0 and pi, walls mapped into (0, pi) by
    # arctan in the (position-coordinate) plane; the point-contraction
    # wall (position 0) goes to pi/2
    rays: list[tuple[float, str]] = []
    for spec in dec.walls:
        u = spec.level1_pos
        angle = math.pi / 2 - math.atan(float(u)) if u is not None else math.pi / 2
        rays.append((angle, f"{spec.root.n}/{spec.root.m}"))
    rays.sort(key=lambda p: p[0])
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" version="1.1">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#FFFFFF"/>',
    ]
    # chambers: wedges between consecutive rays (plus the two boundaries)
    bounds = [math.pi] + [a for a, _ in sorted(rays, reverse=True)] + [0.0]
    for i in range(len(bounds) - 1):
        a0, a1 = bounds[i], bounds[i + 1]
        color = SVG_CHAMBER_COLORS[i % 2]
        x0 = cx + radius * math.cos(a0)
        y0 = cy - radius * math.sin(a0)
        x1 = cx + radius * math.cos(a1)
        y1 = cy - radius * math.sin(a1)
        lines.append(
            f'<path d="M {_fmt(cx)} {_fmt(cy)} L {_fmt(x0)} {_fmt(y0)} '
            f'A {_fmt(radius)} {_fmt(radius)} 0 0 1 {_fmt(x1)} {_fmt(y1)} Z" '
            f'fill="{color}" stroke="none"/>'
        )
    for angle, label in rays:
        x1 = cx + radius * math.cos(angle)
        y1 = cy - radius * math.sin(angle)
        lines.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{SVG_WALL_COLOR}" stroke-width="1.5"/>'
        )
        lx = cx + (radius + 10) * math.cos(angle)
        ly = cy - (radius + 10) * math.sin(angle)
        lines.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="{SVG_FONT_SIZE}" '
            f'text-anchor="middle" fill="{SVG_AXIS_COLOR}">{label}</text>'
        )
    lines.append(
        f'<line x1="{_fmt(cx - radius)}" y1="{_fmt(cy)}" x2="{_fmt(cx + radius)}" '
        f'y2="{_fmt(cy)}" stroke="{SVG_AXIS_COLOR}" stroke-width="1.0"/>'
    )
    title = f"walls: type {dec.type_name}, n = {dec.n}"
    if dec.degenerate:
        title += " (degenerate)"
    lines.append(
        f'<text x="{_fmt(float(mg))}" y="{_fmt(float(mg))}" '
        f'font-size="{SVG_FONT_SIZE + 2}" fill="{SVG_AXIS_COLOR}">{title}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
