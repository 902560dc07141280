"""Verification engines for the operator algebra.

Bracket verification: the target relation is

    [w^{a,b}_g, w^{c,d}_h} = -(ad - bc) w^{a+c,b+d}_{g*h}
                             + delta_{a+c,0} delta_{b+d,0} (a c_s + b c_t)

with the star product (unit pt) on labels.  Each instance is checked on
every monomial of the evaluation window (truncation minus the worst
intermediate energy raise), through the monomials whose modes the
operands or the target contract (see _BracketEngine), per the
comparison policy: exact match, match up to one recorded nonzero
rational rescale per root space ((a+c, b+d), target label), or mismatch
with a witness state.  Central scalars are solved per ordered label
pair from the sweep's central instances and reported with their label
dependence; they are never asserted to be label-independent.

Vertex-commutator verification: the Heisenberg mode alpha_k(g) commutes
past the slope-m charged exponential field up to the pairing factor
<g, mE> and a mode shift by k; checked state-by-state on every basis
monomial of the valid window.  The sweep numbers its basis once
(fastapply.BasisIndex) and works on index rows: each Heisenberg mode is
a pair of lookup lists filled in one pass over the basis, each field's
slices are built once per pt part, and a check compares the mode's
image of a slice against the expected row by dict equality, building
the difference only for a failure witness.

All engines work on sparse integer rows keyed by basis index (see
fastapply) so the full mandatory sweeps run in seconds rather than
hours: one denominator per operator table for the bracket, per charged
field for the vertex commutator, and the bare mode tables for the
slope-zero checks, where alpha_n(g) alpha_{-n}(h) is two table lookups
and the generator factors come in once per identity.  Rows are divided
back to exact rationals only for the reported rescales and central
scalars and when a failure witness is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from ..serialize import frac_str
from .fastapply import (
    BasisIndex,
    ChargedField,
    IndexRow,
    ModeTable,
    RowTable,
    add_scaled,
    commutator_rows,
    mode_tables,
)
from .labels import (
    COH_E,
    COH_PT,
    LABEL_NAMES,
    LABEL_PARITY,
    label_index,
    pairing_scalar,
    star_label,
)
from .operators import w_general, w_small
from .states import FockState, Monomial


def _eval_window(N: int, b: int, d: int) -> int:
    """Energy cap so every intermediate application stays within N."""
    slack = max(0, -b, -d, -(b + d))
    return N - slack


@dataclass(frozen=True)
class BracketReport:
    lhs_params: tuple[int, int, str]
    rhs_params: tuple[int, int, str]
    truncation: int
    match: bool
    kind: str  # "exact" | "rescaled" | "central" | "mismatch"
    rescale: Optional[Fraction] = None
    central_value: Optional[Fraction] = None
    witness: Optional[dict] = None

    def to_json_dict(self) -> dict:
        a, b, g = self.lhs_params
        c, d, h = self.rhs_params
        out = {
            "lhs_params": {"a": a, "b": b, "label": g},
            "rhs_params": {"a": c, "b": d, "label": h},
            "match": self.match,
            "kind": self.kind,
            "rescale_factors": (
                {} if self.rescale is None else {"factor": frac_str(self.rescale)}
            ),
            "central": (
                {}
                if self.central_value is None
                else {"value": frac_str(self.central_value)}
            ),
            "truncation": self.truncation,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class _BracketEngine:
    """Per-truncation action tables for bracket verification, shared by
    the instances of one sweep or one stream of point queries.

    Each table is stored as (denominator, integer rows): the operator's
    denom and its RowTable on the engine's one BasisIndex, so a row is
    built only when a composition or the target comparison reads it.  A
    pair's commutator rows come from one fastapply.commutator_rows pass
    over the window and are over the product of the two denominators;
    exact rationals are built only for the reported rescale and central
    scalar and for witnesses.

    Spectator reduction: let U be the modes that A, B or the target of
    either order contracts (``RowTable.contracted``).  A window monomial
    m = sigma S act, with act its modes in U and S the rest, is acted on
    by A, B, [A, B} and the target through act alone: each one's row on
    m is its row on act spread with S, times a sign set by S, act and
    the operator's parity (``fastapply.RowTable``).  Spreading keeps
    equal image sets equal and unequal ones unequal, and two operators
    whose rows on act share an image have the same parity, so the same
    sign.  So when the relation fails on m it fails on act, which has a
    lower energy and so a smaller index, and the commutator pass and the
    comparison run only on the monomials within U (``BasisIndex.within``):
    the first failing monomial, its witness, the first nonzero ratio, the
    rescale and the central scalar are those of a pass over the whole
    window.

    The generator w^{a,b} is built at the window N - max(0, -b): it
    raises the energy by -b, and every row read from it (an operand or
    target on the evaluation window, or an operand on an intermediate
    image) is on a monomial whose image stays within N.  A read above
    that window is a RowTable error, never a truncated row."""

    def __init__(self, N: int):
        self.N = N
        self.basis = BasisIndex(N)
        self._rows: dict[tuple[int, int, int], tuple[int, RowTable]] = {}

    def rows(self, a: int, b: int, li: int) -> tuple[int, RowTable]:
        key = (a, b, li)
        cached = self._rows.get(key)
        if cached is None:
            op = w_general(a, b, li, self.N - max(0, -b))
            cached = self._rows[key] = (op.denom, RowTable(op, self.basis))
        return cached

    def pair_reports(
        self, a: int, b: int, gi: int, c: int, d: int, hi: int
    ) -> tuple[BracketReport, BracketReport]:
        """Reports for [A, B} and [B, A} from one commutator pass: the
        rows of [A, B} over the denominator D serve [B, A} = eps [A, B}
        over eps * D.  The pass and the comparisons run on the window
        monomials whose modes A, B or a target contracts; see the class
        docstring."""
        w = _eval_window(self.N, b, d)
        if w < 0:
            raise ValueError(
                f"truncation {self.N} too small for modes {b}, {d}"
            )
        denom_a, rows_a = self.rows(a, b, gi)
        denom_b, rows_b = self.rows(c, d, hi)
        denom = denom_a * denom_b
        eps = 1 if (LABEL_PARITY[gi] and LABEL_PARITY[hi]) else -1
        target_fwd = self._target(a, b, gi, c, d, hi)
        target_rev = self._target(c, d, hi, a, b, gi)
        modes = rows_a.contracted | rows_b.contracted
        for target in (target_fwd, target_rev):
            if target is not None:
                modes = modes | target[2].contracted
        indices = self.basis.within(w, modes)
        lhs = commutator_rows(rows_a, rows_b, indices, eps)
        rep_fwd = self._evaluate(a, b, gi, c, d, hi, target_fwd, indices, lhs, denom)
        # exact: _evaluate divides by the denominator only through Fraction
        rep_rev = self._evaluate(
            c, d, hi, a, b, gi, target_rev, indices, lhs, eps * denom
        )
        return rep_fwd, rep_rev

    def _target(
        self, a: int, b: int, gi: int, c: int, d: int, hi: int
    ) -> Optional[tuple[Fraction, int, RowTable]]:
        """(scale, denominator, rows) of the relation's generator term
        scale * w^{a+c,b+d}_{g*h} for [A, B}, or None when it has none: a
        central pair, a zero coefficient or a vanishing star product."""
        if (a + c, b + d) == (0, 0):
            return None
        coef = -(a * d - b * c)
        product = star_label(gi, hi)
        if coef == 0 or product is None:
            return None
        lbl, sign = product
        denom_t, target_rows = self.rows(a + c, b + d, lbl)
        return Fraction(coef * sign), denom_t, target_rows

    def _evaluate(
        self,
        a: int,
        b: int,
        gi: int,
        c: int,
        d: int,
        hi: int,
        target: Optional[tuple[Fraction, int, RowTable]],
        indices: Sequence[int],
        lhs: list[IndexRow],
        denom: int,
    ) -> BracketReport:
        """Compare the integer rows ``lhs`` (over ``denom``) of [A, B} on
        the basis monomials ``indices``, in order, against the target
        relation, whose generator term is ``target`` (``_target``)."""
        lp = (a, b, LABEL_NAMES[gi])
        rp = (c, d, LABEL_NAMES[hi])
        basis = self.basis

        def mismatch(i: int, got: IndexRow, expected) -> BracketReport:
            return BracketReport(
                lp, rp, self.N, False, "mismatch",
                witness={
                    "state": FockState.from_monomial(basis.monos[i]).to_json_dict(),
                    "got": FockState(a + c, _unscale(basis, got, denom)).to_json_dict(),
                    "expected": expected,
                },
            )

        if (a + c, b + d) == (0, 0):
            scalar: Optional[int] = None
            for i, row in zip(indices, lhs):
                val = row.get(i, 0) if len(row) <= 1 else None
                if val is None or (row and i not in row):
                    return mismatch(i, row, "scalar multiple of the state")
                if scalar is None:
                    scalar = val
                elif scalar != val:
                    return mismatch(
                        i, row, f"uniform scalar {Fraction(scalar, denom)}"
                    )
            return BracketReport(
                lp, rp, self.N, True, "central",
                central_value=Fraction(scalar or 0, denom),
            )
        if target is None:
            for i, row in zip(indices, lhs):
                if row:
                    return mismatch(i, row, "0")
            return BracketReport(lp, rp, self.N, True, "exact", rescale=Fraction(1))
        scale, denom_t, target_rows = target

        def expected(want: IndexRow) -> dict:
            """Witness form of ``scale`` times a target row."""
            terms = {u: v * scale for u, v in _unscale(basis, want, denom_t).items()}
            return FockState(a + c, terms).to_json_dict()
        # got = factor * scale * want as rationals; the integer ratio
        # gv / wv is then the same on every entry, compared as g0 / w0
        g0 = w0 = 0
        for i, got in zip(indices, lhs):
            want = target_rows[i]
            if not got and not want:
                continue
            if got.keys() != want.keys():
                return mismatch(i, got, expected(want))
            for u, gv in got.items():
                wv = want[u]
                if not w0:
                    g0, w0 = gv, wv
                elif gv * w0 != g0 * wv:
                    return mismatch(i, got, expected(want))
        factor = Fraction(g0 * denom_t, w0 * denom) / scale if w0 else Fraction(1)
        if factor == 1:
            return BracketReport(lp, rp, self.N, True, "exact", rescale=factor)
        return BracketReport(lp, rp, self.N, True, "rescaled", rescale=factor)


def _unscale(basis: BasisIndex, row: IndexRow, denom: int) -> dict[Monomial, Fraction]:
    """The exact rational row, keyed by monomials, that an integer index
    row over ``denom`` stands for."""
    return {basis.monos[u]: Fraction(v, denom) for u, v in row.items()}


def _combine(first: IndexRow, second: IndexRow, eps: int) -> IndexRow:
    """first + eps * second."""
    out = dict(first)
    add_scaled(out, second, eps)
    return out


# The engine of the last truncation bracket_verify saw: a stream of point
# queries at one truncation shares its tables, and at most one is held.
_last_engine: Optional[_BracketEngine] = None


def bracket_verify(
    a: int,
    b: int,
    gamma: Union[int, str],
    c: int,
    d: int,
    eta: Union[int, str],
    N: int,
) -> BracketReport:
    """Verify one bracket instance on the evaluation window; see the
    module docstring for the comparison policy."""
    global _last_engine
    gi, hi = label_index(gamma), label_index(eta)
    if _last_engine is None or _last_engine.N != N:
        _last_engine = _BracketEngine(N)
    report, _ = _last_engine.pair_reports(a, b, gi, c, d, hi)
    return report


@dataclass
class SweepSummary:
    truncation: int
    instances: int = 0
    matches: int = 0
    mismatches: list[BracketReport] = field(default_factory=list)
    rescales: dict[tuple[int, int, str], Fraction] = field(default_factory=dict)
    central: dict[tuple[str, str], dict] = field(default_factory=dict)
    rescale_conflicts: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "truncation": self.truncation,
            "instances": self.instances,
            "matches": self.matches,
            "mismatches": [r.to_json_dict() for r in self.mismatches],
            "rescale_factors": {
                f"({k[0]},{k[1]});{k[2]}": frac_str(v)
                for k, v in sorted(self.rescales.items())
            },
            "rescale_conflicts": list(self.rescale_conflicts),
            "central": {
                f"{g},{h}": info for (g, h), info in sorted(self.central.items())
            },
        }


def _solve_central(instances: list[tuple[int, int, Fraction]]) -> dict:
    """Fit value = a*c_s + b*c_t exactly over the collected central
    instances; report the fit or the inconsistency."""
    c_t: Optional[Fraction] = None
    c_s: Optional[Fraction] = None
    for a, b, v in instances:
        if a == 0 and b != 0:
            cand = v / b
            if c_t is None:
                c_t = cand
            elif c_t != cand:
                return {"consistent": False, "instances": len(instances)}
    for a, b, v in instances:
        if a != 0:
            if b != 0 and c_t is None:
                continue
            residual = v - (c_t or Fraction(0)) * b
            cand = residual / a
            if c_s is None:
                c_s = cand
            elif c_s != cand:
                return {"consistent": False, "instances": len(instances)}
    return {
        "consistent": True,
        "c_s": frac_str(c_s if c_s is not None else Fraction(0)),
        "c_t": frac_str(c_t if c_t is not None else Fraction(0)),
        "instances": len(instances),
    }


def bracket_sweep(
    N: int,
    labels: Sequence[Union[int, str]] = ("E", "sigma+", "sigma-"),
    a_range: int = 1,
    b_range: int = 2,
) -> SweepSummary:
    """Verify every ordered bracket instance with |a|,|c| <= a_range,
    |b|,|d| <= b_range, (a,b) != (0,0) != (c,d), over the given labels.
    The two orders of each unordered pair share their compositions.
    Rescale factors are recorded per root space and checked for
    consistency; central scalars are solved per ordered label pair.  The
    sweep's engine is its own and is dropped when it returns."""
    engine = _BracketEngine(N)
    slopes = [
        (a, b)
        for a in range(-a_range, a_range + 1)
        for b in range(-b_range, b_range + 1)
        if (a, b) != (0, 0)
    ]
    operands = [
        (a, b, label_index(g)) for a, b in slopes for g in labels
    ]
    jobs = [(x, y) for x in operands for y in operands]
    pairs: list[tuple[tuple, tuple]] = []
    seen = set()
    for x, y in jobs:
        key = frozenset((x, y)) if x != y else (x,)
        if key in seen:
            continue
        seen.add(key)
        pairs.append((x, y))
    by_job: dict[tuple[tuple, tuple], BracketReport] = {}
    for x, y in pairs:
        by_job[(x, y)], by_job[(y, x)] = engine.pair_reports(*x, *y)

    summary = SweepSummary(truncation=N)
    central_instances: dict[tuple[str, str], list[tuple[int, int, Fraction]]] = {}
    for x, y in jobs:
        report = by_job[(x, y)]
        (a, b, gi), (c, d, hi) = x, y
        summary.instances += 1
        if not report.match:
            summary.mismatches.append(report)
            continue
        summary.matches += 1
        if report.kind == "central":
            key = (LABEL_NAMES[gi], LABEL_NAMES[hi])
            central_instances.setdefault(key, []).append(
                (a, b, report.central_value)
            )
        elif report.rescale is not None and report.rescale != 1:
            product = star_label(gi, hi)
            target_label = LABEL_NAMES[product[0]] if product else "0"
            key = (a + c, b + d, target_label)
            prev = summary.rescales.get(key)
            if prev is None:
                summary.rescales[key] = report.rescale
            elif prev != report.rescale:
                summary.rescale_conflicts.append(
                    f"root space ({key[0]},{key[1]});{key[2]}: "
                    f"{prev} vs {report.rescale}"
                )
    for key, inst in central_instances.items():
        summary.central[key] = _solve_central(inst)
    return summary


# ---------------------------------------------------------------------------
# vertex-field commutator with a single Heisenberg mode


def _check_modes(
    field: ChargedField,
    table: ModeTable,
    k: int,
    gamma: int,
    i: int,
    ns: Sequence[int],
    failures: list[dict],
) -> None:
    """Check [alpha_k(gamma), field-mode n] = <gamma, mE> field-mode n+k
    on basis monomial i for each n of ``ns``, with ``table`` the mode
    table of alpha_k(gamma); append a witness for each n where it fails.
    Both sides are index rows over ``field.denom``; the field's slices
    must cover monomial i and its alpha_k(gamma) image at every mode
    read, and the basis every image, of energy up to e - min(n, n + k)."""
    slices = field.slices
    own = slices[i]
    target, factor = table
    f = factor[i]
    image = slices[target[i]] if f else None
    pair = pairing_scalar(gamma, COH_E) * field.m
    for n in ns:
        # a single mode sends distinct monomials to distinct monomials
        got = {target[u]: c * factor[u] for u, c in own[n].items() if factor[u]}
        want = {u: f * c for u, c in image[n].items()} if f else {}
        if pair:
            add_scaled(want, own[n + k], pair)
        if got != want:
            add_scaled(got, want, -1)
            failures.append(_vertex_witness(field, k, gamma, n, i, got))


def _vertex_witness(
    field: ChargedField, k: int, gamma: int, n: int, i: int, diff: IndexRow
) -> dict:
    """Failure witness: the state and the exact rational difference."""
    basis = field.basis
    return {
        "m": field.m,
        "k": k,
        "label": LABEL_NAMES[gamma],
        "mode": n,
        "state": FockState.from_monomial(basis.monos[i]).to_json_dict(),
        "difference": FockState(
            field.m, _unscale(basis, diff, field.denom)
        ).to_json_dict(),
    }


def vertex_commutator_sweep(
    N: int = 8,
    m_values: Sequence[int] = (-2, -1, 1, 2),
    k_max: int = 4,
    n_max: int = 4,
    zero_labels: Sequence[Union[int, str]] = ("E", "sigma+", "sigma-"),
    zero_window: int = 4,
) -> dict:
    """Mode-by-mode commutator sweep.  The pairing-coupled label (pt)
    runs over every basis monomial of the window N - (energy raised by
    the Heisenberg mode); the zero-pairing labels run over the smaller
    window, where the statement is that the commutator vanishes.  The
    basis is numbered once, to the depth N + n_max that holds every image
    read, and all arithmetic is on its index rows, over each field's one
    denominator."""
    basis = BasisIndex(N + n_max)
    tables = mode_tables(basis, k_max)
    checked = 0
    failures: list[dict] = []
    ks = [k for k in range(-k_max, k_max + 1) if k != 0]
    ns = list(range(-n_max, n_max + 1))
    zero_idx = [label_index(g) for g in zero_labels]
    for m in m_values:
        # alpha_k(gamma) images of the window have energy <= N
        field = ChargedField(m, -n_max - k_max, n_max + k_max, basis, N)
        for k in ks:
            window = N - max(0, -k)
            small = basis.count(min(window, zero_window))
            for i in range(basis.count(window)):
                for gi in (COH_PT, *zero_idx) if i < small else (COH_PT,):
                    checked += len(ns)
                    _check_modes(field, tables[k, gi], k, gi, i, ns, failures)
        del field  # free one slope's slices before the next is built
    return {
        "truncation": N,
        "checked": checked,
        "failures": failures,
        "ok": not failures,
    }


# ---------------------------------------------------------------------------
# slope-zero generators against bare Heisenberg modes


def small_mode_sweep(N: int = 8, n_max: int = 6) -> dict:
    """Criteria for the slope-zero generators: the E and pt
    normalizations against bare Heisenberg modes on the full basis, and
    the central pairing [w^{0,n}_g, w^{0,-n}_h} = n <g,h> for every
    ordered label pair and 1 <= n <= n_max.

    The generator w^{0,n}_g is one term, a factor times the bare mode
    alpha_n(g); the sweep reads that factor off ``w_small``, works on the
    integer mode tables of the basis and brings the factors in once per
    identity; a failure divides back to exact rationals."""
    basis = BasisIndex(N)
    monos = basis.monos
    tables = mode_tables(basis, n_max)
    failures: list[dict] = []
    checked = 0
    for n in range(1, n_max + 1):
        factors = {}
        for mode in (n, -n):
            for li in range(4):
                op = w_small(mode, li)
                (term,) = op.terms
                factors[mode, li] = Fraction(term.coeff, op.denom)
        # w^{0,n}_E = alpha_n(E)/n and w^{0,n}_pt = n alpha_n(pt); the
        # generator's row differs from the scaled mode only where the
        # factors differ and the alpha row does not vanish
        for li, factor in ((COH_E, Fraction(1, n)), (COH_PT, Fraction(n))):
            same = factors[n, li] == factor
            for mono, alpha in zip(monos, tables[n, li][1]):
                checked += 1
                if not same and alpha:
                    failures.append(
                        {
                            "identity": f"w[0,{n}] normalization",
                            "label": LABEL_NAMES[li],
                            "state": FockState.from_monomial(mono).to_json_dict(),
                        }
                    )
        # central pairing on all ordered label pairs
        for gi in range(4):
            for hi in range(4):
                expected = Fraction(n * pairing_scalar(gi, hi))
                # both orders carry f(n, g) f(-n, h): the bare alpha
                # commutator must be expected over that factor
                scale = factors[n, gi] * factors[-n, hi]
                want = expected / scale
                if want.denominator == 1:
                    want = want.numerator
                eps = 1 if (LABEL_PARITY[gi] and LABEL_PARITY[hi]) else -1
                up, down = tables[n, gi], tables[-n, hi]
                for i, mono in enumerate(monos[: basis.count(N - n)]):
                    checked += 1
                    diff = _combine(
                        _mode_pair(up, down, i), _mode_pair(down, up, i), eps
                    )
                    if diff != ({i: want} if want else {}):
                        failures.append(
                            {
                                "identity": f"[w[0,{n}],w[0,{-n}]] central",
                                "labels": [LABEL_NAMES[gi], LABEL_NAMES[hi]],
                                "state": FockState.from_monomial(mono).to_json_dict(),
                                "got": FockState(
                                    0, {monos[u]: v * scale for u, v in diff.items()}
                                ).to_json_dict(),
                                "expected": frac_str(expected),
                            }
                        )
    return {"truncation": N, "checked": checked, "failures": failures, "ok": not failures}


def _mode_pair(outer: ModeTable, inner: ModeTable, i: int) -> IndexRow:
    """Row of the product of two single modes on basis monomial i, the
    ``inner`` mode first.  Each mode sends a monomial to one monomial or
    to zero, so the product does too."""
    target, factor = inner
    c = factor[i]
    if not c:
        return {}
    j = target[i]
    target, factor = outer
    c *= factor[j]
    return {target[j]: c} if c else {}
