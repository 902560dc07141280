"""Verification engines for the operator algebra.

Bracket verification: the target relation is

    [w^{a,b}_g, w^{c,d}_h} = -(ad - bc) w^{a+c,b+d}_{g*h}
                             + delta_{a+c,0} delta_{b+d,0} (a c_s + b c_t)

with the star product (unit pt) on labels.  Each instance is checked on
every monomial of the evaluation window (truncation minus the worst
intermediate energy raise), through the monomials whose modes the
operands or the target contract (see _BracketEngine); a pair whose
terms super-commute, term by term, skips the commutator pass.  Per the
comparison policy: exact match, match up to one recorded nonzero
rational rescale per root space ((a+c, b+d), target label), or mismatch
with a witness state.  Central scalars are solved per ordered label
pair from the sweep's central instances and reported with their label
dependence; they are never asserted to be label-independent.

Vertex-commutator verification: the Heisenberg mode alpha_k(g) commutes
past the slope-m charged exponential field up to the pairing factor
<g, mE> and a mode shift by k; it holds on every basis monomial of the
valid window.  A (k, g) is skipped whole when the mode contracts no
mode the field's terms create, the field contracts no mode the mode
creates (read off the built terms, never off the labels) and the
pairing factor is 0: the two then super-commute, and the identity holds.
A monomial's modes other than pt commute with the field (it is even,
contracts pt alone and creates only E modes), so the identity on a
monomial follows from the identity on its pt part whenever the sign of
passing the Heisenberg mode over those modes is 1 or the pairing factor
is 0: the sweep checks state-by-state every pt-only monomial, and any
other one only where its pt part failed or that guard does not hold
(see vertex_commutator_sweep).  It numbers the window
(fastapply.BasisIndex) and every image on first sight, and works on
index rows: each Heisenberg mode fills its (target, factor) entry per
monomial on first read (fastapply.ModeTable), each field builds a
monomial's slices the first time a check reads them, the sweep and the
fields read one pt-part split per monomial (BasisIndex.split), and a
check compares the mode's image of a slice against the expected row by
dict equality, building the difference only for a failure witness.

The expected pairings, n <g, h> of the slope-zero central values and
<g, mE> here, are the integral of the cup product (``cup_pairing``),
not the pairing matrix the mode contractions read.

All engines work on sparse integer rows keyed by basis index (see
fastapply) so the full mandatory sweeps run in seconds rather than
hours: one denominator per operator table for the bracket, and per
charged field for the vertex commutator.  The slope-zero checks run on
the bracket engine, whose central instances (a+c, b+d) = (0, 0) are
their pairing.  Rows are divided back to exact rationals only for the
reported rescales and central scalars and when a failure witness is
built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Optional, Sequence, Union

from .fastapply import (
    BasisIndex,
    ChargedField,
    IndexRow,
    ModeTable,
    RowTable,
    add_scaled,
    commutator_rows,
)
from .labels import (
    COH_E,
    COH_PT,
    COH_SM,
    COH_SP,
    LABEL_NAMES,
    LABEL_PARITY,
    label_index,
    star_label,
)
from .operators import w_general
from .states import FockState, Monomial


# The cup product of basis classes as (label, sign), None where it
# vanishes: E, the fundamental class, is its unit, and
# sigma+ sigma- = pt = -sigma- sigma+.
_CUP = (
    ((COH_E, 1), (COH_SP, 1), (COH_SM, 1), (COH_PT, 1)),
    ((COH_SP, 1), None, (COH_PT, 1), None),
    ((COH_SM, 1), (COH_PT, -1), None, None),
    ((COH_PT, 1), None, None, None),
)


def cup_pairing(g: int, h: int) -> int:
    """<g, h> = the integral of g cup h over the curve, for basis classes
    g and h: the integral of pt is 1 and that of any other basis class 0."""
    product = _CUP[g][h]
    return product[1] if product and product[0] == COH_PT else 0


def _eval_window(N: int, b: int, d: int) -> int:
    """Energy cap so every intermediate application stays within N."""
    slack = max(0, -b, -d, -(b + d))
    return N - slack


class BracketReport(NamedTuple):
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
                {} if self.rescale is None else {"factor": str(self.rescale)}
            ),
            "central": (
                {}
                if self.central_value is None
                else {"value": str(self.central_value)}
            ),
            "truncation": self.truncation,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class _BracketEngine:
    """Per-truncation action tables for bracket verification, shared by
    the instances of one sweep (the bracket table's, or the slope-zero
    one's) or one stream of point queries.

    Each table is the operator's RowTable on the engine's one
    BasisIndex, over the operator's denom, so a row is built only when a
    composition or the target comparison reads it, and the tables share
    the basis's cached contractions and merges.  A pair's commutator
    rows come from one fastapply.commutator_rows pass over the window
    and are over the product of the two denominators;
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

    Super-commuting pairs: a mode pairs only with a mode of dual label
    and opposite energy, so when no mode that A contracts
    (``RowTable.contracted``) is one that B's terms create
    (``RowTable.created``), nor the other way round, each term of A
    super-commutes with each term of B, and [A, B} is zero on every
    state (rows are keyed by monomials, so the charge shift adds no
    sign).  Such a pair skips the commutator pass; its empty rows meet
    the target as any others, and with no generator term it reads no
    row: [A, B} = 0 is then its relation (central scalar 0 at (0, 0)).

    The generator w^{a,b} is built at the window N - max(0, -b): it
    raises the energy by -b, and every row read from it (an operand or
    target on the evaluation window, or an operand on an intermediate
    image) is on a monomial whose image stays within N.  A read above
    that window is a RowTable error, never a truncated row."""

    def __init__(self, N: int):
        self.N = N
        self.basis = BasisIndex(N)
        self._rows: dict[tuple[int, int, int], RowTable] = {}

    def rows(self, a: int, b: int, li: int) -> RowTable:
        key = (a, b, li)
        cached = self._rows.get(key)
        if cached is None:
            if li == COH_PT and a:
                raise ValueError(
                    "pt-label slope fields are an extended mode: no bracket "
                    "relation is checked for them"
                )
            op = w_general(a, b, li, self.N - max(0, -b))
            cached = self._rows[key] = RowTable(op, self.basis)
        return cached

    def pair_reports(
        self, a: int, b: int, gi: int, c: int, d: int, hi: int
    ) -> tuple[BracketReport, BracketReport]:
        """Reports for [A, B} and [B, A} from one commutator pass and one
        ``_scan``: the rows of [A, B} over the denominator D serve
        [B, A} = eps [A, B} over eps * D.  Both run on the window
        monomials whose modes A, B or a target contracts; see the class
        docstring."""
        w = _eval_window(self.N, b, d)
        if w < 0:
            raise ValueError(
                f"truncation {self.N} too small for modes {b}, {d}"
            )
        rows_a = self.rows(a, b, gi)
        rows_b = self.rows(c, d, hi)
        denom = rows_a.op.denom * rows_b.op.denom
        eps = 1 if (LABEL_PARITY[gi] and LABEL_PARITY[hi]) else -1
        target_fwd = self._target(a, b, gi, c, d, hi)
        target_rev = self._target(c, d, hi, a, b, gi)
        modes = rows_a.contracted | rows_b.contracted
        if target_fwd is not None:  # both orders' targets are one RowTable
            modes = modes | target_fwd[1].contracted
        # the terms super-commute; see the class docstring
        commute = not (
            rows_a.contracted & rows_b.created or rows_b.contracted & rows_a.created
        )
        skip = commute and target_fwd is None  # [A, B} = 0 is the relation
        indices = () if skip else self.basis.within(w, modes)
        if commute:
            lhs = [{}] * len(indices)
        else:
            lhs = commutator_rows(rows_a, rows_b, indices, eps)
        scan = _scan((a + c, b + d) == (0, 0), target_fwd, indices, lhs)
        x, y = (a, b, gi), (c, d, hi)
        # exact: _report divides by the denominator only through Fraction
        return (
            self._report(x, y, target_fwd, scan, denom),
            self._report(y, x, target_rev, scan, eps * denom),
        )

    def _target(
        self, a: int, b: int, gi: int, c: int, d: int, hi: int
    ) -> Optional[tuple[int, RowTable]]:
        """(scale, rows) of the relation's generator term
        scale * w^{a+c,b+d}_{g*h} for [A, B}, or None when it has none: a
        central pair, a zero coefficient or a vanishing star product."""
        if (a + c, b + d) == (0, 0):
            return None
        coef = -(a * d - b * c)
        product = star_label(gi, hi)
        if coef == 0 or product is None:
            return None
        lbl, sign = product
        return coef * sign, self.rows(a + c, b + d, lbl)

    def _report(
        self, x: tuple, y: tuple, target: Optional[tuple], scan: tuple, denom: int
    ) -> BracketReport:
        """The report of [x, y}, with generator term ``target``, from the
        ``_scan`` of its rows over ``denom``."""
        (a, b, gi), (c, d, hi) = x, y
        lp, rp = (a, b, LABEL_NAMES[gi]), (c, d, LABEL_NAMES[hi])
        basis = self.basis
        i, row, detail = scan
        central = (a + c, b + d) == (0, 0)
        if i is None and central:
            return BracketReport(
                lp, rp, self.N, True, "central",
                central_value=Fraction(detail or 0, denom),
            )
        if i is None:
            factor = Fraction(1)
            if detail[1]:  # got = factor * scale * want
                (g0, w0), (scale, target_rows) = detail, target
                factor = Fraction(g0 * target_rows.op.denom, w0 * denom) / scale
            kind = "exact" if factor == 1 else "rescaled"
            return BracketReport(lp, rp, self.N, True, kind, rescale=factor)
        if central:
            expected = "scalar multiple of the state" if detail is None else (
                f"uniform scalar {Fraction(detail, denom)}"
            )
        elif target is None:
            expected = "0"
        else:
            scale, target_rows = target
            want = basis.monomials(detail, target_rows.op.denom)
            expected = FockState(
                a + c, {u: v * scale for u, v in want.items()}
            ).to_json_dict()
        return BracketReport(
            lp, rp, self.N, False, "mismatch",
            witness={
                "state": FockState.from_monomial(basis.monos[i]).to_json_dict(),
                "got": FockState(a + c, basis.monomials(row, denom)).to_json_dict(),
                "expected": expected,
            },
        )


def _scan(
    central: bool, target: Optional[tuple], indices: Sequence[int], lhs: list[IndexRow]
) -> tuple:
    """Compare the integer rows ``lhs`` of [A, B} on the basis monomials
    ``indices``, in order, against the relation with generator term
    ``target``: (None, None, value) when it holds, value the uniform
    central scalar or the first nonzero entries (g0, w0) of the rows and
    the target's, and (i, row, detail) at the first failing monomial i,
    detail the central scalar its row broke or the target's row.  No
    rescale moves the failing monomial, the key sets or the ratio test,
    so one scan serves both orders."""
    if central:
        scalar: Optional[int] = None
        for i, row in zip(indices, lhs):
            val = row.get(i, 0) if len(row) <= 1 else None
            if val is None or (row and i not in row):
                return i, row, None
            if scalar is None:
                scalar = val
            elif scalar != val:
                return i, row, scalar
        return None, None, scalar
    g0 = w0 = 0
    for i, got in zip(indices, lhs):
        want = target[1][i] if target else {}
        if not got and not want:
            continue
        if got.keys() != want.keys():
            return i, got, want
        # the integer ratio gv / wv is the same on every entry: g0 / w0
        for u, gv in got.items():
            wv = want[u]
            if not w0:
                g0, w0 = gv, wv
            elif gv * w0 != g0 * wv:
                return i, got, want
    return None, None, (g0, w0)


# The engine of the last truncation bracket_verify saw: a stream of point
# queries at one truncation shares its tables, and at most one is held.
_engine = lru_cache(maxsize=1)(_BracketEngine)


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
    gi, hi = label_index(gamma), label_index(eta)
    report, _ = _engine(N).pair_reports(a, b, gi, c, d, hi)
    return report


class SweepSummary:
    def __init__(self, truncation: int):
        self.truncation = truncation
        self.instances = 0
        self.matches = 0
        self.mismatches: list[BracketReport] = []
        self.rescales: dict[tuple[int, int, str], Fraction] = {}
        self.central: dict[tuple[str, str], dict] = {}
        self.rescale_conflicts: list[str] = []

    def to_json_dict(self) -> dict:
        return {
            "truncation": self.truncation,
            "instances": self.instances,
            "matches": self.matches,
            "mismatches": [r.to_json_dict() for r in self.mismatches],
            "rescale_factors": {
                f"({k[0]},{k[1]});{k[2]}": str(v)
                for k, v in sorted(self.rescales.items())
            },
            "rescale_conflicts": list(self.rescale_conflicts),
            "central": {
                f"{g},{h}": info for (g, h), info in sorted(self.central.items())
            },
        }


def _solve_central(instances: list[tuple[int, int, Fraction]]) -> dict:
    """Fit value = a*c_s + b*c_t exactly over the collected central
    instances: c_t from a = 0, c_s from a != 0 where b = 0 or c_t is set.
    Each is read with ``min``, never in set order (0 when empty)."""
    c_t = {v / b for a, b, v in instances if a == 0}
    t = min(c_t, default=Fraction(0))
    c_s = {(v - t * b) / a for a, b, v in instances if a and (c_t or not b)}
    if len(c_t) > 1 or len(c_s) > 1:
        return {"consistent": False, "instances": len(instances)}
    return {
        "consistent": True,
        "c_s": str(min(c_s, default=Fraction(0))),
        "c_t": str(t),
        "instances": len(instances),
    }


def bracket_sweep(N: int, a_range: int = 1, b_range: int = 2) -> SweepSummary:
    """Verify every ordered bracket instance with |a|,|c| <= a_range,
    |b|,|d| <= b_range, (a,b) != (0,0) != (c,d), over the labels E, sigma+
    and sigma-.  The two orders of each unordered pair share their
    compositions.  Rescale factors are recorded per root space and
    checked for consistency; central scalars are solved per ordered label
    pair.  The sweep's engine is its own and is dropped when it returns."""
    engine = _BracketEngine(N)
    operands = [
        (a, b, g)
        for a in range(-a_range, a_range + 1)
        for b in range(-b_range, b_range + 1)
        if (a, b) != (0, 0)
        for g in (COH_E, COH_SP, COH_SM)
    ]
    by_job: dict[tuple[tuple, tuple], BracketReport] = {}
    for i, x in enumerate(operands):
        for y in operands[i:]:
            by_job[(x, y)], by_job[(y, x)] = engine.pair_reports(*x, *y)

    summary = SweepSummary(truncation=N)
    central_instances: dict[tuple[str, str], list[tuple[int, int, Fraction]]] = {}
    for x, y in product(operands, repeat=2):
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
            star = star_label(gi, hi)
            target_label = LABEL_NAMES[star[0]] if star else "0"
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
    Both sides are index rows over ``field.denom``; the field's top must
    reach monomial i and its alpha_k(gamma) image, whose slices it builds
    on this read, and its image bound every image, of energy up to
    e - min(n, n + k)."""
    own = field[i]
    hit = table[i]
    image = field[hit[0]] if hit else None
    pair = cup_pairing(gamma, COH_E) * field.m
    for n in ns:
        # a single mode sends distinct monomials to distinct monomials
        got = {h[0]: c * h[1] for u, c in own[n].items() if (h := table[u])}
        want = {u: hit[1] * c for u, c in image[n].items()} if hit else {}
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
            field.m, basis.monomials(diff, field.denom)
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
    basis enumerates the window, to the depth N, and numbers each image
    above it, of energy up to the field's image bound N + n_max, on first
    sight; all arithmetic is on its index rows, over each field's one
    denominator.  The Heisenberg modes fill their entries per monomial
    as read (``ModeTable``), and the four slopes' fields share the
    basis's image merges and pt-part splits.

    Super-commuting modes: a mode pairs only with a mode of dual label
    and opposite energy, so a (k, gamma) is skipped whole when no mode
    alpha_k(gamma) contracts (``ModeTable.contracted``) is one the
    field's terms create (``ChargedField.created``), no mode the field
    contracts is one alpha_k(gamma) creates, and the expected pairing
    <gamma, mE> (``cup_pairing``) is 0.  Each term of the mode then
    super-commutes with each term of the field, so the commutator is 0,
    the pairing times F_{n+k}, on every state.

    Pt-part reduction: a window monomial is m = sigma S act, with act its
    pt modes and S the rest, non-pt creation modes (``BasisIndex.split``
    on the field's ``contracted`` set).  The field F is even, its
    annihilators contract pt alone and it creates only E modes, so S
    commutes with F_n; [alpha_k(gamma), S} is a number times a non-pt
    monomial, so it commutes with F_n too.  With
    rho = (-1)^(parity(gamma) #odd(S)), the difference
    D = [alpha_k(gamma), F_n] - pair F_{n+k}, pair = <gamma, mE>, is

        D(m) = sigma S (rho [alpha_k(gamma), F_n](act) - pair F_{n+k}(act)),

    which is sigma rho S D(act) when rho = 1 or pair = 0: the identity then
    holds on m whenever it holds on act.  act has a lower energy than m,
    so a smaller index, and is checked first.  So every check of a
    (k, gamma) that is not skipped runs on each pt-only monomial, and on
    any other monomial only when its act failed for that (k, gamma) or
    rho = -1 and pair != 0; the failures are those of a check on every
    monomial, in the same order.  ``checked`` counts every (monomial,
    label, mode) instance of the window, skipped or not.  Each field
    builds only the slices that the checks read (``ChargedField``)."""
    basis = BasisIndex(N)
    checked = 0
    failures: list[dict] = []
    splits: list[tuple[int, Monomial, int, int]] = []
    ks = [k for k in range(-k_max, k_max + 1) if k != 0]
    ns = list(range(-n_max, n_max + 1))
    zero_idx = [label_index(g) for g in zero_labels]
    labels = (COH_PT, *zero_idx)
    tables = {(k, gi): ModeTable(basis, k, gi) for k in ks for gi in labels}
    for m in m_values:
        # alpha_k(gamma) images of the window have energy <= N
        field = ChargedField(m, -n_max - k_max, n_max + k_max, basis, N, N + n_max)
        # the pt-part split of each window monomial, on the fields' one
        # contracted set (one image bound), which the fields read too
        splits = splits or [
            basis.split(i, field.contracted) for i in range(basis.count(N))
        ]
        # labels whose rho = -1 on an odd S meets a nonzero pairing
        unguarded = {
            gi for gi in labels if LABEL_PARITY[gi] and cup_pairing(gi, COH_E) * m
        }
        for k in ks:
            window = N - max(0, -k)
            small = basis.count(min(window, zero_window))
            checked += len(ns) * (basis.count(window) + len(zero_idx) * small)
            # the labels that are not skipped, in sweep order
            run = [
                gi
                for gi in labels
                if cup_pairing(gi, COH_E) * m
                or tables[k, gi].contracted & field.created
                or field.contracted & tables[k, gi].created
            ]
            above = run[:1] if run[:1] == [COH_PT] else []
            failed: set[tuple[int, int]] = set()
            for i in range(basis.count(window)):
                act, _, _, odd = splits[i]
                for gi in run if i < small else above:
                    if (
                        act != i
                        and (act, gi) not in failed
                        and not (odd and gi in unguarded)
                    ):
                        continue
                    before = len(failures)
                    _check_modes(field, tables[k, gi], k, gi, i, ns, failures)
                    if len(failures) > before:
                        failed.add((i, gi))
        del field  # free one slope's slices before the next is built
    return {
        "truncation": N,
        "checked": checked,
        "failures": failures,
        "ok": not failures,
    }


# ---------------------------------------------------------------------------
# slope-zero generators: normalization and the central pairing


def small_mode_sweep(N: int = 8, n_max: int = 6) -> dict:
    """Criteria for the slope-zero generators: the E and pt
    normalizations against bare Heisenberg modes on the full basis, and
    the central pairing [w^{0,n}_g, w^{0,-n}_h} = n <g,h> for every
    ordered label pair and 1 <= n <= n_max.

    The sweep reads both through its own bracket engine, dropped when it
    returns.  The generator w^{0,n}_g is one term, a factor times the
    bare mode alpha_n(g); a factor other than 1/n for E or n for pt
    fails on every monomial holding the mode alpha_n(g) contracts
    (``RowTable.contracted``), one witness each.  The pairing is the
    central instance (a+c, b+d) = (0, 0) of the bracket relation, checked
    on the window N - n with the engine's spectator reduction and
    super-commuting skip; a failing pairing gives one witness, the
    engine's (the first monomial whose row breaks the uniform scalar) or
    the vacuum for a wrong uniform scalar.  For n > N that window is
    empty and the pairing is skipped.  ``checked`` counts every
    instance: each basis monomial per normalization, and each window
    monomial per label pair."""
    engine = _BracketEngine(N)
    basis = engine.basis
    monos = basis.monos[: basis.size]
    pairs = list(product(range(4), repeat=2))
    failures: list[dict] = []
    checked = 0
    for n in range(1, n_max + 1):
        for li, want in ((COH_E, Fraction(1, n)), (COH_PT, Fraction(n))):
            checked += len(monos)
            rows = engine.rows(0, n, li)
            # one term: one part, one chunk, one creation entry
            ((_, [(a, ((c, _),))]),) = rows.op.groups.items()
            if Fraction(a * c, rows.op.denom) == want:
                continue
            for mono in monos:
                if not rows.contracted.isdisjoint(mono):
                    failures.append(
                        {
                            "identity": f"w[0,{n}] normalization",
                            "label": LABEL_NAMES[li],
                            "state": FockState.from_monomial(mono).to_json_dict(),
                        }
                    )
        checked += len(pairs) * basis.count(N - n)
        if n > N:
            continue
        for gi, hi in pairs:
            expected = Fraction(n * cup_pairing(gi, hi))
            report, _ = engine.pair_reports(0, n, gi, 0, -n, hi)
            if report.kind == "central" and report.central_value == expected:
                continue
            witness = report.witness or {
                "state": FockState.from_monomial(()).to_json_dict(),
                "got": FockState.from_monomial((), report.central_value).to_json_dict(),
                "expected": str(expected),
            }
            failures.append(
                {
                    "identity": f"[w[0,{n}],w[0,{-n}]] central",
                    "labels": [LABEL_NAMES[gi], LABEL_NAMES[hi]],
                    **witness,
                }
            )
    return {"truncation": N, "checked": checked, "failures": failures, "ok": not failures}
