"""End-to-end verification runners, one per acceptance check.

Each runner returns a JSON-serializable dict that depends only on its
parameters (and, for the randomized sweeps, the seed) — no timestamps,
machine info or wall-clock data — so two runs with the same seed emit
byte-identical reports.  ``verify_all`` chains every runner, deriving
per-check sub-seeds from the master seed, and returns the combined
report together with a separate (non-deterministic) timing table that
callers may print to stderr but must keep out of the report body.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from .cyclotomic import Cyclotomic, cyclotomic_polynomial
from .fock.labels import COH_E
from .fock.monodromy import monodromy_f, monodromy_s
from .fock.states import FockState, basis_monomials
from .fock.verify import bracket_sweep, small_mode_sweep, vertex_commutator_sweep
from .lattices import MukaiVector, hilbert_vector, mukai_pair, root_to_kclass
from .localmodel import (
    BimoduleParam,
    hh0_audit,
    hh0_dim,
    nilpotent_jordan_type,
    splits,
    tensor_table_rows,
    y_matrix,
)
from .roots import EllipticRoot, UnsupportedTypeError, build_elliptic
from .serialize import DEFAULT_SEED
from .walls import WallChart
from .weyl import _mat_mul, full_gram, identity_element, marking_stabilizer_generators, reflect


# ---------------------------------------------------------------------------
# criterion runners
# ---------------------------------------------------------------------------


def check_hh0_table() -> dict:
    """Dimension table lookups plus the orbit-count audit."""
    expected = {1: 2, 2: 6, 3: 8, 4: 9, 6: 10}
    got = {}
    audits = {}
    for order in sorted(expected):
        got[order] = hh0_dim(order)
        audits[order] = hh0_audit(order)["orbit_total"]
    try:
        hh0_dim(5)
        rejects_bad_order = False
    except UnsupportedTypeError:
        rejects_bad_order = True
    ok = got == expected and audits == expected and rejects_bad_order
    return {
        "criterion": "hh0-table",
        "pass": ok,
        "expected": {str(k): v for k, v in expected.items()},
        "got": {str(k): v for k, v in got.items()},
        "orbit_audit": {str(k): v for k, v in audits.items()},
        "rejects_unsupported_order": rejects_bad_order,
    }


def check_small_modes(truncation: int = 8, n_max: int = 6) -> dict:
    """Slope-0 generators versus scaled single modes on the full basis,
    and their pairing-valued commutators for every label pair, as
    central instances of the bracket engine."""
    sweep = small_mode_sweep(truncation, n_max)
    return {
        "criterion": "nakajima-normalization",
        "pass": sweep["ok"],
        "truncation": truncation,
        "mode_max": n_max,
        "checked": sweep["checked"],
        "failures": sweep["failures"],
    }


def check_vertex_commutator(truncation: int = 8) -> dict:
    """Heisenberg mode past the charged exponential field, mode by mode
    on every monomial of the valid window."""
    sweep = vertex_commutator_sweep(truncation)
    return {
        "criterion": "vertex-heisenberg-commutator",
        "pass": sweep["ok"],
        "truncation": truncation,
        "checked": sweep["checked"],
        "failures": sweep["failures"],
    }


def check_bracket_table(truncation: int = 6) -> dict:
    """Full ordered bracket sweep |a|,|c| <= 1, |b|,|d| <= 2 over the
    three compact labels, with rescales and central scalars reported."""
    summary = bracket_sweep(truncation)
    d = summary.to_json_dict()
    ok = (
        summary.matches == summary.instances
        and not summary.rescale_conflicts
        and all(info.get("consistent") for info in summary.central.values())
    )
    return {"criterion": "bracket-table", "pass": ok, **d}


def _homogeneous_table(top: int) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """Complete homogeneous elements in the commuting creation modes via
    the Newton recurrence; independent of the operator machinery."""
    table: dict[int, dict[tuple[int, ...], Fraction]] = {0: {(): Fraction(1)}}
    for k in range(1, top + 1):
        acc: dict[tuple[int, ...], Fraction] = {}
        for i in range(1, k + 1):
            for parts, c in table[k - i].items():
                key = tuple(sorted(parts + (i,), reverse=True))
                acc[key] = acc.get(key, Fraction(0)) + c
        table[k] = {parts: c / k for parts, c in acc.items()}
    return table


def _partition_product(
    x: dict[tuple[int, ...], Fraction], y: dict[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            key = tuple(sorted(a + b, reverse=True))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def check_monodromy(weight_max: int = 5, truncation: int = 6) -> dict:
    """Fiber-type action: involution, charge reflection c -> -n - c and
    per-mode sign pattern on all monomials of bounded weight n.
    Section-type action: agreement with an independent symmetric-function
    expansion on fiber-labeled states."""
    involution = signs = 0
    ok = True
    for mono in basis_monomials(weight_max):
        energy = sum(k for k, _ in mono)
        sign = math.prod((-1) ** (k + 1) for k, _ in mono)
        for charge in range(-2, 3):
            s = FockState.from_monomial(mono, charge=charge)
            img = monodromy_f(s)
            if img.charge != -energy - charge or monodromy_f(img) != s:
                ok = False
            involution += 1
            if charge == 0:
                if img.terms.get(mono) != sign:
                    ok = False
                signs += 1

    table = _homogeneous_table(truncation)
    section = 0
    for mono in basis_monomials(truncation):
        if any(label != COH_E for _, label in mono):
            continue
        got = monodromy_s(FockState.from_monomial(mono), truncation)
        acc = {(): Fraction(1)}
        for k, _ in mono:
            acc = _partition_product(acc, table[k])
        expected = FockState(
            len(mono), {tuple((j, COH_E) for j in parts): c for parts, c in acc.items()}
        )
        if got != expected:
            ok = False
        section += 1
    return {
        "criterion": "monodromy",
        "pass": ok,
        "weight_max": weight_max,
        "truncation": truncation,
        "involution_checked": involution,
        "sign_checked": signs,
        "section_checked": section,
    }


def _brute_force_wall_sets(n_max: int, ns) -> list[set[tuple[int, int]]]:
    """Independent wall oracle for n = 1..n_max: scan the normalized
    primitive roots of the largest root box (bound n_max + 2) once,
    keeping each one's section-twisted class; the set for n holds the
    roots that pass the twisted pairing depth bound.  No per-n box bound
    is needed: for the rank-0 type |<twisted, v_n>| = m + nf, so the
    depth bound already forces max(m, nf) <= n."""
    p_vec = ns.basis_vector("P")
    bound = n_max + 2
    roots = []
    # each sign pair's normalized representative has m >= 0, and nf > 0
    # when m = 0; the oracle keeps those with m >= 1 and nf >= 0
    for m in range(1, bound + 1):
        for nf in range(bound + 1):
            if math.gcd(m, nf) != 1:
                continue
            kc = root_to_kclass(EllipticRoot((), m, nf), "A-1")
            twisted = MukaiVector(kc.rank, kc.c1, kc.ch2 + ns.pair(kc.c1, p_vec))
            roots.append(((nf, m), twisted))
    sets = []
    for n in range(1, n_max + 1):
        v = hilbert_vector(n, ns)
        sets.append({
            key for key, twisted in roots if abs(mukai_pair(twisted, v, ns)) <= n
        })
    return sets


def check_wall_sets(n_max: int = 12) -> dict:
    """Rank-0 wall enumeration against the brute-force oracle, chamber
    counts, and monotonicity of the wall sets in the point count."""
    chart = WallChart("A-1")
    oracle = _brute_force_wall_sets(n_max, chart.ns)
    counts = []
    chamber_counts = []
    ok = True
    prev: set[tuple[int, int]] = set()
    for n in range(1, n_max + 1):
        dec = chart.decomposition(n)
        got = {(w.root.n, w.root.m) for w in dec.walls}
        if got != oracle[n - 1]:
            ok = False
        if not prev <= got:
            ok = False
        prev = got
        counts.append(len(dec.walls))
        chamber_counts.append(dec.chamber_count)
        if dec.chamber_count != len(dec.walls) + 1:
            ok = False
    return {
        "criterion": "wall-root-sets",
        "pass": ok,
        "n_max": n_max,
        "wall_counts": counts,
        "chamber_counts": chamber_counts,
    }


def _phase_cross(
    form, v, w, b: tuple[int, int], c: tuple[int, int], pd: int, qd: int
) -> int:
    """Im Z(w) Re Z(v) - Re Z(w) Im Z(v) at the chart point
    (pb/qb, pc/qc, pd/qd), for b = (pb, qb) and c = (pc, qc), times the
    positive integer 2 qb^3 (qc qd)^3 for the given qb, qc, qd > 0 (no
    pair need be reduced), so the sign is the phase comparison's.
    ``form`` is (S^2, S.E, E^2) and each vector is (rank, twice_ch2,
    S.c1, E.c1).  The charges come from the pairing with H = S + bE and
    B = cS + dE, scaled to H' = qb H and B' = qc qd B, whose coordinates
    are integers:
        2 qb^2 t^2 Re Z = twice_ch2 qb^2 t^2 + r (qb^2 B'^2 - t^2 H'^2) - 2 qb^2 t B'.c1
        qb t Im Z = t H'.c1 - r H'.B'
    with t = qc qd; both are linear in the vector's coordinates."""
    ss, se, ee = form
    (pb, qb), (pc, qc) = b, c
    t = qc * qd
    bs, be = pc * qd, pd * qc  # B' = bs S + be E
    hh = qb * qb * ss + 2 * qb * pb * se + pb * pb * ee
    bb = bs * bs * ss + 2 * bs * be * se + be * be * ee
    hb = qb * bs * ss + (qb * be + pb * bs) * se + pb * be * ee
    qb2, t2 = qb * qb, t * t
    k_ch2, k_rank, k_c1 = qb2 * t2, qb2 * bb - t2 * hh, 2 * qb2 * t
    r, ch, gs, ge = v
    re_v = ch * k_ch2 + r * k_rank - k_c1 * (bs * gs + be * ge)
    im_v = t * (qb * gs + pb * ge) - r * hb
    r, ch, gs, ge = w
    re_w = ch * k_ch2 + r * k_rank - k_c1 * (bs * gs + be * ge)
    im_w = t * (qb * gs + pb * ge) - r * hb
    return im_w * re_v - re_w * im_v


def check_wall_sign_flip(
    n_max: int = 6, samples: int = 100, seed: int = DEFAULT_SEED
) -> dict:
    """The phase-comparison function changes sign across each wall locus
    at random rational chart points, drawn as integer (numerator,
    denominator) pairs: the wall's root d0 is the secant root of the
    locus ``walls`` built, the sign on each side from the central charges
    evaluated pointwise in integers from the Mukai vectors."""
    chart = WallChart("A-1")
    ns = chart.ns
    svec, evec = ns.basis_vector("P"), ns.basis_vector("E")
    form = (ns.pair(svec, svec), ns.pair(svec, evec), ns.pair(evec, evec))

    def coords(x: MukaiVector) -> tuple[int, int, int, int]:
        return x.rank, x.twice_ch2, ns.pair(svec, x.c1), ns.pair(evec, x.c1)

    rng = random.Random(seed)
    checked = failures = 0
    for n in range(1, n_max + 1):
        v = coords(hilbert_vector(n, ns))
        for spec in chart.walls(n):
            w = coords(spec.kclass)
            for _ in range(samples):
                b = rng.randint(1, 40), rng.randint(1, 9)
                c = rng.randint(-30, 30), rng.randint(1, 9)
                d0 = spec.locus.secant_root(b, c)
                if d0 is None:
                    failures += 1
                    continue
                # d0 -+ 1/97 over the common denominator 97 q for d0 = p/q
                p, q = d0.numerator, d0.denominator
                left = _phase_cross(form, v, w, b, c, 97 * p - q, 97 * q)
                right = _phase_cross(form, v, w, b, c, 97 * p + q, 97 * q)
                checked += 1
                if left == 0 or right == 0 or (left > 0) == (right > 0):
                    failures += 1
    return {
        "criterion": "wall-sign-flip",
        "pass": failures == 0,
        "n_max": n_max,
        "samples_per_wall": samples,
        "checked": checked,
        "failures": failures,
        "seed": seed,
    }


def _random_param(rng: random.Random, k: int) -> BimoduleParam:
    deg = len(cyclotomic_polynomial(k)) - 1
    return BimoduleParam(
        k,
        tuple(
            Cyclotomic(k, [rng.randint(-3, 3) for _ in range(deg)])
            for _ in range(k)
        ),
    )


def _forced_split_param(rng: random.Random, k: int, n: int) -> BimoduleParam:
    tail = _random_param(rng, k).a[1:]
    acc = Cyclotomic(k, 0)
    for g, coeff in enumerate(tail, start=1):
        for r in range(n + 1):
            acc = acc + coeff * Cyclotomic.zeta(k, (r * g) % k)
    return BimoduleParam(k, (-acc / (n + 1),) + tail)


def check_jet_splitting(
    samples: int = 500, n_max: int = 4, seed: int = DEFAULT_SEED
) -> dict:
    """Trace splitting criterion against the exact Jordan-type oracle on
    random cyclotomic parameters (half of them forced onto the split
    locus so both branches are exercised)."""
    rng = random.Random(seed)
    agreements = split_count = 0
    ok = True
    for i in range(samples):
        k = rng.choice((2, 3, 4, 6))
        n = rng.randint(0, n_max)
        p = (
            _forced_split_param(rng, k, n)
            if i % 2 == 0
            else _random_param(rng, k)
        )
        expected = splits(n, p)
        jordan = nilpotent_jordan_type(y_matrix(n, p))
        if (jordan == (n + 1, n + 1)) != expected:
            ok = False
        else:
            agreements += 1
        if expected:
            split_count += 1
    return {
        "criterion": "jet-splitting",
        "pass": ok,
        "samples": samples,
        "n_max": n_max,
        "agreements": agreements,
        "split_samples": split_count,
        "seed": seed,
    }


def check_tensor_table(samples: int = 200, seed: int = DEFAULT_SEED) -> dict:
    """The case column that ``local`` prints against the character
    kernel, for every group order up to 6 and every residue."""
    rng = random.Random(seed)
    checked = 0
    ok = True
    for k in range(1, 7):
        for _ in range(samples):
            p = _random_param(rng, k)
            rows = tensor_table_rows(p)
            if [i for i, _, _ in rows] != list(range(k)):
                ok = False
            for (_, _, case), value in zip(rows, p.chars):
                if (case == "split") != value.is_zero():
                    ok = False
                checked += 1
    return {
        "criterion": "tensor-table",
        "pass": ok,
        "orders": [1, 2, 3, 4, 5, 6],
        "samples_per_order": samples,
        "checked": checked,
        "seed": seed,
    }


def check_weyl_relations(word_max: int = 6) -> dict:
    """Gram preservation for all generator words up to the length bound,
    Coxeter relations of the finite parts, and the rank-0 marking
    stabilizer presentation (involution, dihedral relation, unipotent
    infinite-order certificate)."""
    ok = True
    words_checked = 0
    # the order of s_i s_j from the Cartan product a_ij a_ji
    order_table = {0: 2, 1: 3, 2: 4, 3: 6}
    for tname in ("A1", "A2", "D4"):
        system = build_elliptic(tname)
        gram = full_gram(system)
        gens = [reflect(system, system.simple_root(i)) for i in range(system.rank)]
        for g in gens:
            if not g.compose(g).is_identity():
                ok = False
        for i, j in itertools.combinations(range(system.rank), 2):
            m = order_table[system.cartan[i][j] * system.cartan[j][i]]
            prod = gens[i].compose(gens[j])
            acc = identity_element(system)
            for _ in range(m):
                acc = acc.compose(prod)
            if not acc.is_identity():
                ok = False
        # one Gram check and one frontier word per distinct matrix
        checked = set()
        frontier = [identity_element(system)]
        for _ in range(word_max):
            nxt = {}
            for w in frontier:
                for g in gens:
                    wg = w.compose(g)
                    words_checked += 1
                    if wg.matrix not in checked:
                        checked.add(wg.matrix)
                        if not wg.preserves_form(gram):
                            ok = False
                    nxt.setdefault(wg.matrix, wg)
            frontier = list(nxt.values())

    system = build_elliptic("A-1")
    shear, flip = marking_stabilizer_generators(system)
    if not (shear.stabilizes_marking() and flip.stabilizes_marking()):
        ok = False
    flip_involution = flip.weyl_part.compose(flip.weyl_part).is_identity()
    ft = flip.weyl_part.compose(shear.weyl_part)
    dihedral_relation = ft.compose(ft).is_identity()
    if not (flip_involution and dihedral_relation):
        ok = False
    t = shear.gl2_part
    nilp = ((t[0][0] - 1, t[0][1]), (t[1][0], t[1][1] - 1))
    zero = ((0, 0), (0, 0))
    unipotent_cert = nilp != zero and _mat_mul(nilp, nilp) == zero
    if not unipotent_cert:
        ok = False
    return {
        "criterion": "weyl-relations",
        "pass": ok,
        "types": ["A1", "A2", "D4"],
        "word_max": word_max,
        "words_checked": words_checked,
        "stabilizer": {
            "flip_involution": flip_involution,
            "dihedral_relation": dihedral_relation,
            "infinite_order_certificate": "unipotent" if unipotent_cert else "failed",
        },
    }


# ---------------------------------------------------------------------------
# combined run
# ---------------------------------------------------------------------------


def verify_all(seed: int = DEFAULT_SEED) -> tuple[dict, dict[str, float]]:
    """Run every check with sub-seeds derived from the master seed.
    Returns (deterministic report, wall-clock seconds per criterion);
    only the first may be serialized into the output document.  A check
    that raises is reported failed, with ``error`` holding the
    exception's type and message."""
    rng = random.Random(seed)
    sign_seed = rng.randrange(2**31)
    jet_seed = rng.randrange(2**31)
    tensor_seed = rng.randrange(2**31)
    plan = [
        ("hh0-table", lambda: check_hh0_table()),
        ("nakajima-normalization", lambda: check_small_modes()),
        ("vertex-heisenberg-commutator", lambda: check_vertex_commutator()),
        ("bracket-table", lambda: check_bracket_table()),
        ("monodromy", lambda: check_monodromy()),
        ("wall-root-sets", lambda: check_wall_sets()),
        ("wall-sign-flip", lambda: check_wall_sign_flip(seed=sign_seed)),
        ("jet-splitting", lambda: check_jet_splitting(seed=jet_seed)),
        ("tensor-table", lambda: check_tensor_table(seed=tensor_seed)),
        ("weyl-relations", lambda: check_weyl_relations()),
    ]
    criteria = []
    timings: dict[str, float] = {}
    for name, fn in plan:
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising check fails; the others still run
            error = f"{type(exc).__name__}: {exc}"
            result = {"criterion": name, "pass": False, "error": error}
        timings[name] = time.perf_counter() - start
        criteria.append(result)
    report = {
        "seed": seed,
        "criteria": criteria,
        "all_pass": all(c["pass"] for c in criteria),
    }
    return report, timings
