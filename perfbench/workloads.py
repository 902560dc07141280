"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

A pass calls into ``ellwall`` only through module attributes looked up at
call time (``verify.check_*``, ``cli.main``), so that a traced pass can
wrap them from outside.  Every workload is a closed loop with one client:
the next operation starts when the previous one has returned.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback

WORKLOADS = ("fock-sweep", "exact-local", "point-queries")

# Sizes are scaled so that one pass takes a few seconds on a 2-core box;
# the full acceptance sizes take 25-40 s a pass.
FOCK_SWEEP = {"small_modes": (6, 4), "vertex": 4, "bracket": 4}
LOCAL = {
    "monodromy": (5, 5),
    "wall_sets": 12,
    "sign_flip": (6, 40),
    "jet": (24, 4),
    "tensor": 20,
    "weyl": 5,
}
QUERY_TRUNCATION = {"bracket": 6, "monodromy": 5}
MONODROMY_ENERGIES = (1, 2, 3, 4)

# The cost of jet-splitting depends on the (k, n) its seed draws: about
# 12% between seeds at 120 samples.  Passes of these workloads draw fresh
# sub-seeds, so that a run averages over several draws (see run.Run.draw).
FRESH_DRAWS = ("exact-local",)

# Operations per pass; a pass that dies counts all of them as failed.
OPS = {
    "fock-sweep": 3,
    "exact-local": 7,
    "point-queries": 34 + 3 * len(MONODROMY_ENERGIES),  # 34 slopes in the grid
}

# sha256 of the fock-sweep report JSON: its inputs do not depend on the seed.
FOCK_SWEEP_DIGEST = "07f2fe2acdc552552fc57662502a2377d4b20e0a20ef1f9b2f98251fb573629b"

WALL_COUNTS = [1, 2, 4, 6, 10, 12, 18, 22, 28, 32, 42, 46]

# Criterion name in the report -> the metric its time is added to.
CRIT_METRIC = {
    "nakajima-normalization": "crit.nakajima_s",
    "vertex-heisenberg-commutator": "crit.vertex_s",
    "bracket-table": "crit.bracket_s",
    "monodromy": "crit.monodromy_s",
    "wall-root-sets": "crit.walls_s",
    "wall-sign-flip": "crit.walls_s",
    "jet-splitting": "crit.jet_s",
    "tensor-table": "crit.tensor_s",
    "weyl-relations": "crit.weyl_s",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, draw: int = 0):
    """The operations of one pass, as zero-argument callables or argv lists.
    The same seed and draw give the same inputs.  ``draw`` picks fresh
    sub-seeds for the seeded checks of the workloads in ``FRESH_DRAWS``;
    draw 0 derives them from the seed exactly as ``verify_all`` does."""
    if workload == "fock-sweep":
        from ellwall import verify as V

        sm, vx, br = FOCK_SWEEP["small_modes"], FOCK_SWEEP["vertex"], FOCK_SWEEP["bracket"]
        return [
            ("nakajima-normalization", lambda: V.check_small_modes(*sm)),
            ("vertex-heisenberg-commutator", lambda: V.check_vertex_commutator(vx)),
            ("bracket-table", lambda: V.check_bracket_table(br)),
        ]
    if workload == "exact-local":
        from ellwall import verify as V

        rng = random.Random(seed if draw == 0 else f"{seed}/{draw}")
        sign_seed = rng.randrange(2**31)
        jet_seed = rng.randrange(2**31)
        tensor_seed = rng.randrange(2**31)
        p = LOCAL
        return [
            ("hh0-table", lambda: V.check_hh0_table()),
            ("monodromy", lambda: V.check_monodromy(*p["monodromy"])),
            ("wall-root-sets", lambda: V.check_wall_sets(p["wall_sets"])),
            ("wall-sign-flip", lambda: V.check_wall_sign_flip(*p["sign_flip"], seed=sign_seed)),
            ("jet-splitting", lambda: V.check_jet_splitting(*p["jet"], seed=jet_seed)),
            ("tensor-table", lambda: V.check_tensor_table(p["tensor"], seed=tensor_seed)),
            ("weyl-relations", lambda: V.check_weyl_relations(p["weyl"])),
        ]
    if workload == "point-queries":
        return query_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


def query_stream(seed: int) -> list[list[str]]:
    """Seeded ``ellwall`` argv lists.

    Bracket queries: the slopes of the grid |a| <= 2, |b| <= 3, each with
    one label, are paired as lhs and rhs, so each operand table is built
    once and hit once.  A table's cost depends on b and on the label
    (E or sigma), hardly on a, and the pairing decides which targets are
    built.  So the pairing shape (which b and label meets which) is fixed,
    and the seed draws, per b, the a value of each operand, a global
    sigma+/sigma- swap and the query order; that keeps the cost of a pass
    close across seeds.  Monodromy queries: random basis monomials, three
    per energy with 0, 1 and up to 2 pt modes, whose cost grows with the
    pt content."""
    from ellwall.fock.labels import COH_PT, LABEL_NAMES
    from ellwall.fock.states import basis_monomials, monomial_energy

    shape = random.Random(0)
    rng = random.Random(seed)
    nonzero = (-2, -1, 1, 2)
    operands = []
    for b in range(-3, 4):
        labels = ["E", "sigma+", "sigma-", "E"]
        shape.shuffle(labels)
        operands += [(a, b, label) for a, label in zip(nonzero, labels)]
        if b:
            # pt only at slope a = 0: w_general raises ExtendedModeError elsewhere
            operands.append((0, b, shape.choice(LABEL_NAMES)))
    lhs, rhs = operands[:], operands[:]
    shape.shuffle(lhs)
    shape.shuffle(rhs)

    a_of = {}
    for b in range(-3, 4):
        drawn = list(nonzero)
        rng.shuffle(drawn)
        a_of.update({(a, b): new for a, new in zip(nonzero, drawn)})
    swap = {"sigma+": "sigma-", "sigma-": "sigma+"} if rng.random() < 0.5 else {}

    def operand(a: int, b: int, label: str) -> str:
        return f"{a_of.get((a, b), a)},{b},{swap.get(label, label)}"

    queries = [
        [
            "bracket",
            f"--lhs={operand(*x)}",  # '=' keeps '-1,2,E' from parsing as a flag
            f"--rhs={operand(*y)}",
            f"--truncation={QUERY_TRUNCATION['bracket']}",
        ]
        for x, y in zip(lhs, rhs)
    ]
    strata: dict[tuple[int, int], list] = {}
    for mono in basis_monomials(max(MONODROMY_ENERGIES)):
        pts = sum(label == COH_PT for _, label in mono)
        strata.setdefault((monomial_energy(mono), pts), []).append(mono)
    for energy in MONODROMY_ENERGIES:
        for pts in (0, 1, min(2, energy)):
            mono = rng.choice(strata[(energy, pts)])
            modes = ",".join(f"{k}:{LABEL_NAMES[li]}" for k, li in mono)
            queries.append(
                [
                    "monodromy",
                    "--generator=s",
                    f"--modes={modes}",
                    f"--truncation={QUERY_TRUNCATION['monodromy']}",
                ]
            )
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# one pass


def run_pass(workload: str, ops, probe=None) -> dict:
    """Run the operations once, timing each; return timings, the digest of
    the deterministic output and the failures found by the checks.  With
    a ``speed.Probe`` the times are seconds at the reference speed, else
    wall seconds; ``wall_s`` is always the pass's wall time."""
    with probe or contextlib.nullcontext():
        if workload == "point-queries":
            result = _run_queries(ops)
        else:
            result = _run_criteria(workload, ops)
    measure = probe.scaled if probe else (lambda t0, t1: t1 - t0)
    start, end = result.pop("interval")
    result["wall_s"] = end - start
    result["verify_s"] = measure(start, end)
    result["op_s"] = [measure(t0, t1) for t0, t1 in result.pop("intervals")]
    return result


def _run_criteria(workload: str, ops) -> dict:
    from ellwall import serialize

    intervals = []
    criteria = []
    failures = []
    start = time.perf_counter()
    for name, fn in ops:
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            failures.append(f"{name}: raised\n{traceback.format_exc()}")
            result = {"criterion": name, "pass": False, "raised": True}
        intervals.append((t0, time.perf_counter()))
        criteria.append(result)
    text = serialize.to_json({"workload": workload, "criteria": criteria})
    interval = (start, time.perf_counter())
    failed = len(failures)
    for result in criteria:
        if not result.get("raised"):
            bad = _check_criterion(result)
            failed += bool(bad)
            failures.extend(bad)
    return {
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "interval": interval,
        "ops": [name for name, _ in ops],
        "intervals": intervals,
        "digest": digest(text),
    }


def _check_criterion(r: dict) -> list[str]:
    """The fixed facts tests/test_acceptance.py asserts, at the pass sizes."""
    name = r["criterion"]
    bad = []

    def need(ok: bool, what: str):
        if not ok:
            bad.append(f"{name}: {what}")

    need(r["pass"] is True, "pass flag is false")
    if name in ("nakajima-normalization", "vertex-heisenberg-commutator"):
        need(r["checked"] > 0 and r["failures"] == [], "failures or nothing checked")
    elif name == "bracket-table":
        need(r["instances"] == r["matches"], "instances != matches")
        need(bool(r["rescale_factors"]), "no recorded rescales")
        need(all(i["consistent"] for i in r["central"].values()), "inconsistent central scalars")
    elif name == "monodromy":
        need(r["involution_checked"] > 0 and r["section_checked"] > 0, "nothing checked")
    elif name == "wall-root-sets":
        need(r["wall_counts"] == WALL_COUNTS, f"wall counts {r['wall_counts']}")
        need(r["chamber_counts"] == [c + 1 for c in WALL_COUNTS], "chamber counts")
    elif name == "wall-sign-flip":
        n_max, samples = LOCAL["sign_flip"]
        need(r["failures"] == 0, "sign-flip failures")
        need(r["checked"] == samples * sum(WALL_COUNTS[:n_max]), f"checked {r['checked']}")
    elif name == "jet-splitting":
        samples = LOCAL["jet"][0]
        need(r["agreements"] == r["samples"] == samples, "agreements != samples")
        need(0 < r["split_samples"] < samples, "one branch never exercised")
    elif name == "tensor-table":
        need(r["checked"] == LOCAL["tensor"] * sum(range(1, 7)), f"checked {r['checked']}")
    elif name == "weyl-relations":
        need(r["words_checked"] > 0, "no words checked")
        cert = r["stabilizer"]["infinite_order_certificate"]
        need(cert == "unipotent", f"certificate {cert}")
    return bad


def _check_query(argv: list[str], code, out: str):
    """None when the query succeeded, else what went wrong."""
    if code is None:
        return "raised"
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    if argv[0] == "bracket" and doc.get("match") is not True:
        return "match is not true"
    if argv[0] == "monodromy" and not doc["output"]["terms"]:
        return "empty image"
    return None


def _run_queries(queries: list[list[str]]) -> dict:
    from ellwall import cli

    outputs = []
    codes = []
    intervals = []
    failures = []
    start = time.perf_counter()
    for argv in queries:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse refusal
            code = exc.code
        except Exception:
            failures.append(f"{' '.join(argv)}: raised\n{traceback.format_exc()}")
            code = None
        intervals.append((t0, time.perf_counter()))
        outputs.append(buf.getvalue())
        codes.append(code)
    interval = (start, time.perf_counter())
    failed = len(failures)
    for argv, code, out in zip(queries, codes, outputs):
        bad = _check_query(argv, code, out)
        if bad:
            failed += 1
            failures.append(f"{' '.join(argv)}: {bad}")
    return {
        "attempted": len(queries),
        "failed": failed,
        "failures": failures,
        "interval": interval,
        "ops": [argv[0] for argv in queries],
        "intervals": intervals,
        "digest": digest("".join(outputs)),
    }
