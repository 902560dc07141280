"""States: exact linear combinations of creation-mode monomials.

A monomial is a tuple of (k, label) pairs, k >= 1, meaning the product
of the corresponding creation modes applied to a charged vacuum.
Canonical order: k descending, then label ascending.  Odd labels
(sigma+/sigma-) square to zero per mode index and anticommute; all
reordering signs are absorbed into coefficients at insertion time.

Coefficients are exact rationals (``Fraction``).  ``FockState`` is the
input and output value of the operators, which act through the integer
rows of ``fastapply``; the Fraction reference oracle that applies them
to states directly lives in ``tests/fock_reference.py``.

The monomial rules every row is built from live here too:
``annihilation_chain`` contracts a canonical part against a monomial,
and ``creation_chain``, the package's one merge, merges a canonical
part into it in a single linear pass, with its reordering sign.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .labels import (
    COH_E, COH_PT, COH_SM, COH_SP, LABEL_NAMES, LABEL_PARITY, pairing_scalar,
)

Monomial = tuple[tuple[int, int], ...]
Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def monomial_energy(mono: Monomial) -> int:
    return sum(k for k, _ in mono)


def _mode_key(mode: tuple[int, int]) -> tuple[int, int]:
    k, label = mode
    return (-k, label)


class FockState:
    """Finite combination of monomials at a single vacuum charge."""

    __slots__ = ("charge", "terms")

    def __init__(self, charge: int = 0, terms: Optional[dict[Monomial, Scalar]] = None):
        self.charge = charge
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff:
                    self.terms[mono] = coeff

    @staticmethod
    def from_monomial(
        mono: Monomial, coeff: Scalar = 1, charge: int = 0
    ) -> "FockState":
        return FockState(charge, {mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.charge == other.charge and self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero():
            return "FockState(0)"
        bits = []
        for mono in sorted(self.terms):
            modes = " ".join(f"a[-{k}]({LABEL_NAMES[l]})" for k, l in mono)
            bits.append(f"({self.terms[mono]})*{modes or '1'}")
        return f"FockState(charge={self.charge}, {' + '.join(bits)})"

    def to_json_dict(self) -> dict:
        return {
            "charge": self.charge,
            "terms": [
                {
                    "modes": [[k, LABEL_NAMES[l]] for k, l in mono],
                    "coeff": str(self.terms[mono]),
                }
                for mono in sorted(self.terms)
            ],
        }


def basis_monomials(max_energy: int) -> list[Monomial]:
    """All canonical monomials of energy <= max_energy, deterministically
    ordered by (energy, monomial)."""
    if max_energy < 0:
        raise ValueError("energy bound must be >= 0")
    inner: list[Monomial] = []

    def walk(prefix: list[tuple[int, int]], budget: int, k_min: tuple[int, int]):
        inner.append(tuple(prefix))
        for k2 in range(min(budget, max_energy), 0, -1):
            for l2 in range(4):
                if (-k2, l2) < k_min:
                    continue
                mode = (k2, l2)
                if LABEL_PARITY[l2] and prefix and prefix[-1] == mode:
                    continue
                prefix.append(mode)
                walk(prefix, budget - k2, (-k2, l2))
                prefix.pop()

    walk([], max_energy, (-max_energy, 0))
    inner.sort(key=lambda m: (monomial_energy(m), m))
    return inner


# label paired nontrivially against each basis label
_DUAL = (COH_PT, COH_SM, COH_SP, COH_E)


def annihilation_chain(
    mono: Monomial, part: Monomial
) -> Optional[tuple[int, Monomial]]:
    """Apply the annihilation modes of ``part`` (stored canonically, k
    descending; applied in reversed order, exactly as the reference
    ``apply`` in ``tests/fock_reference.py`` does) to a single monomial.
    Returns (integer factor, reduced monomial) or None when the
    contraction vanishes."""
    factor = 1
    cur = mono
    for k, label in reversed(part):
        partner = _DUAL[label]
        odd = LABEL_PARITY[label]
        sign = 1
        total = 0
        reduced: Optional[Monomial] = None
        for i, (ki, li) in enumerate(cur):
            if ki == k and li == partner:
                total += sign * k * pairing_scalar(label, li)
                if reduced is None:
                    reduced = cur[:i] + cur[i + 1 :]
            if odd and LABEL_PARITY[li]:
                sign = -sign
        if not total or reduced is None:
            return None
        factor *= total
        cur = reduced
    return factor, cur


def creation_chain(
    mono: Monomial, part: Monomial
) -> Optional[tuple[int, Monomial]]:
    """Apply the creation modes of a canonical ``part`` (rightmost first,
    as the reference ``apply`` in ``tests/fock_reference.py`` does) to a
    canonical monomial in one merge pass: each odd mode of the part
    passes the odd modes of ``mono`` before it, a sign each.  Returns
    (sign, monomial), or None when an odd mode repeats, within the part
    or against the monomial."""
    out: list[tuple[int, int]] = []
    sign = 1
    odd_passed = 0
    i = 0
    size = len(mono)
    for mode in part:
        k, label = mode
        while i < size:
            cur = mono[i]
            if cur[0] > k or (cur[0] == k and cur[1] < label):
                out.append(cur)
                odd_passed += LABEL_PARITY[cur[1]]
                i += 1
            else:
                break
        if LABEL_PARITY[label]:
            # a repeat sits just before (within the part) or just after
            if (out and out[-1] == mode) or (i < size and mono[i] == mode):
                return None
            if odd_passed & 1:
                sign = -sign
        out.append(mode)
    out.extend(mono[i:])
    return sign, tuple(out)
