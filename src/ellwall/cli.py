"""Command-line surface: wall/chamber enumeration with SVG emission,
bracket-verification reports, monodromy application, and the local
orbifold tables.

Every output document embeds a metadata block (tool version plus the
normalization conventions in force), and identical invocations produce
byte-identical output.  Randomized sweeps take an explicit seed which is
echoed on stderr and in the report.

Each command imports only the modules it runs: at import this module
loads the serializer and the Fock stack, which the ``bracket`` and
``monodromy`` queries need, and every other command imports its own
modules in its handler.

argparse is the one config and dispatch layer: each subcommand's
handler reads the parsed namespace and returns its document text and
exit code, and ``main`` alone writes the text to ``--out`` or stdout.

Exit codes: 0 success, 1 failed verification, 2 usage error, a
request the library refuses, or an ``--out`` path that cannot be
opened.  A refusal is the ``ValueError`` the library raises, printed
once by ``main`` as ``error: <message>``.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import __version__
from .fock.labels import LABEL_NAMES, label_index
from .fock.monodromy import monodromy_f, monodromy_s
from .fock.states import FockState, creation_chain
from .fock.verify import bracket_verify
from .serialize import CONVENTIONS, DEFAULT_SEED, WALL_TYPES, to_json


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_operand(text: str) -> tuple[int, int, int]:
    """``a,b,label`` -> (a, b, label index)."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected 'a,b,label', got {text!r}"
        )
    try:
        return int(parts[0]), int(parts[1]), label_index(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_modes(text: str) -> list[tuple[int, int]]:
    """``k:label,k:label,...`` -> mode list (empty string -> vacuum)."""
    if not text:
        return []
    modes = []
    for chunk in text.split(","):
        bits = chunk.split(":", 1)
        if len(bits) != 2:
            raise argparse.ArgumentTypeError(
                f"expected 'k:label', got {chunk!r}"
            )
        try:
            k = int(bits[0])
            li = label_index(bits[1])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if k < 1:
            raise argparse.ArgumentTypeError(
                f"creation mode index must be >= 1, got {k}"
            )
        modes.append((k, li))
    return modes


def _parse_fractions(text: str) -> list[Fraction]:
    out = []
    for chunk in text.split(","):
        try:
            out.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError) as exc:
            why = exc if isinstance(exc, ValueError) else f"zero denominator in {chunk!r}"
            raise argparse.ArgumentTypeError(f"bad rational list {text!r}: {why}")
    return out


def _state_from_modes(modes: Sequence[tuple[int, int]], charge: int) -> FockState:
    """Build the normal-ordered monomial state, tracking crossing signs."""
    mono: tuple = ()
    sign = 1
    for k, li in reversed(modes):
        hit = creation_chain(mono, ((k, li),))
        if hit is None:
            return FockState(charge)
        s, mono = hit
        sign *= s
    return FockState.from_monomial(mono, coeff=sign, charge=charge)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def _metadata(args: argparse.Namespace) -> dict:
    """The metadata block: the conventions in force, with, for
    ``monodromy``, the one convention of the pt slope field that the
    section action builds."""
    conventions = dict(CONVENTIONS)
    if args.command == "monodromy":
        conventions["extended_weight_field"] = "symplectic_fermion"
        conventions["extended_derivative"] = "z_ddz"
    return {"tool_version": __version__, "conventions": conventions}


def _document(args: argparse.Namespace, body: dict, header=(), rows=()) -> str:
    """``body`` under the metadata block as JSON or, for ``--format csv``,
    the metadata as comment lines above ``header`` and ``rows``; ``rows``
    may be a generator, read only for CSV."""
    meta = _metadata(args)
    if getattr(args, "format", "json") != "csv":
        return to_json({"metadata": meta, **body})
    import csv

    buf = io.StringIO()
    buf.write(f"# tool_version: {meta['tool_version']}\n")
    for key in sorted(meta["conventions"]):
        buf.write(f"# convention {key}: {meta['conventions'][key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# subcommands: each returns its document text and exit code
# ---------------------------------------------------------------------------


def cmd_walls(args: argparse.Namespace) -> tuple[str, int]:
    from .walls import WallChart, emit_chamber_svg

    chart = WallChart(args.type)
    if args.format == "svg":
        svg = emit_chamber_svg(chart.decomposition(args.n))
        head, _, tail = svg.partition("\n")
        return f"{head}\n<metadata>{to_json(_metadata(args))}</metadata>\n{tail}", 0
    if args.type == "A-1":
        dec = chart.decomposition(args.n)
        walls = dec.walls
        body = dec.to_json_dict()
    else:
        walls = chart.walls(args.n)
        body = {
            "type": args.type,
            "n": args.n,
            "walls": [w.to_json_dict() for w in walls],
        }
    rows = (
        [
            ";".join(map(str, w.root.finite)),
            w.root.m,
            w.root.n,
            str(w.level1_pos) if w.level1_pos is not None else "",
            str(w.locus),
        ]
        for w in walls
    )
    header = ["root_finite", "root_m", "root_n", "level1_pos", "locus"]
    return _document(args, body, header, rows), 0


def cmd_bracket(args: argparse.Namespace) -> tuple[str, int]:
    a, b, gamma = args.lhs
    c, d, eta = args.rhs
    report = bracket_verify(a, b, gamma, c, d, eta, args.truncation)
    return _document(args, report.to_json_dict()), 0


def cmd_monodromy(args: argparse.Namespace) -> tuple[str, int]:
    state = _state_from_modes(args.modes, args.charge)
    if args.generator == "f":
        image = monodromy_f(state)
    elif args.generator == "ff":
        image = monodromy_f(monodromy_f(state))
    else:
        image = monodromy_s(state, args.truncation)
    body = {
        "generator": args.generator,
        "truncation": args.truncation,
        "input": state.to_json_dict(),
        "output": image.to_json_dict(),
    }
    return _document(args, body), 0


def cmd_local(args: argparse.Namespace) -> tuple[str, int]:
    from .localmodel import BimoduleParam, jet_trace, tensor_table_rows

    k = args.k
    a = [Fraction(0)] * k if args.a is None else args.a
    p = BimoduleParam.make(k, a)
    rows = [(i, str(value), case) for i, value, case in tensor_table_rows(p)]
    body = {
        "k": k,
        "a": [str(x) for x in a],
        "character_table": [
            {"i": i, "A_i": value, "case": case} for i, value, case in rows
        ],
    }
    # the CSV document is the character table alone
    if args.n is not None and args.format == "json":
        trace = jet_trace(args.n, p)
        body["jet"] = {
            "n": args.n,
            "trace": str(trace),
            "splits": trace.is_zero(),
        }
    return _document(args, body, ["i", "A_i", "case"], rows), 0


def cmd_hh0(args: argparse.Namespace) -> tuple[str, int]:
    from .localmodel import HH0_TABLE, hh0_audit

    orders = [args.order] if args.order is not None else list(HH0_TABLE)
    audits = [hh0_audit(k) for k in orders]
    rows = ([a["order"], a["table_value"]] for a in audits)
    return _document(args, {"orders": audits}, ["order", "dimension"], rows), 0


def cmd_roots(args: argparse.Namespace) -> tuple[str, int]:
    from .roots import build_elliptic

    system = build_elliptic(args.type)
    roots = system.roots_in_box(args.m_max, args.n_max, args.height)
    body = {
        "type": args.type,
        "m_max": args.m_max,
        "n_max": args.n_max,
        "finite_height_max": args.height,
        "count": len(roots),
        "roots": [{**r.to_json_dict(), "real": system.is_real(r)} for r in roots],
    }
    rows = (
        ["+".join(map(str, r.finite)) or "0", r.m, r.n, system.is_real(r)]
        for r in roots
    )
    return _document(args, body, ["finite", "m", "n", "real"], rows), 0


def cmd_verify_all(args: argparse.Namespace) -> tuple[str, int]:
    from .verify import verify_all

    print(f"seed: {args.seed}", file=sys.stderr)
    report, timings = verify_all(args.seed)
    for entry in report["criteria"]:
        name = entry["criterion"]
        tag = "PASS" if entry["pass"] else "FAIL"
        print(f"[{tag}] {name} ({timings[name]:.2f}s)", file=sys.stderr)
    return _document(args, report), 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, so a
    stream of ``main`` calls shares it."""
    parser = argparse.ArgumentParser(
        prog="ellwall",
        description="Exact wall, bracket, monodromy and local-orbifold tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p, handler):
        # every command takes --out last and runs its handler
        p.add_argument("--out", help="write the document here instead of stdout")
        p.set_defaults(handler=handler)

    p = sub.add_parser("walls", help="numerical walls and chambers for n points")
    p.add_argument("--type", default="A-1", help=f"surface type, one of {WALL_TYPES}")
    p.add_argument("--n", type=_positive_int, required=True, help="number of points")
    p.add_argument("--format", default="json", choices=("json", "csv", "svg"))
    finish(p, cmd_walls)

    p = sub.add_parser("bracket", help="verify one generator bracket on the basis")
    p.add_argument("--lhs", type=_parse_operand, required=True, metavar="a,b,label")
    p.add_argument("--rhs", type=_parse_operand, required=True, metavar="c,d,label")
    p.add_argument("--truncation", type=_positive_int, default=6)
    finish(p, cmd_bracket)

    p = sub.add_parser("monodromy", help="apply a mapping-class generator to a state")
    p.add_argument("--generator", required=True, choices=("f", "s", "ff"))
    p.add_argument(
        "--modes",
        type=_parse_modes,
        default=(),
        metavar="k:label,...",
        help=f"creation modes, labels from {LABEL_NAMES} (omit for the vacuum)",
    )
    p.add_argument("--charge", type=int, default=0)
    p.add_argument("--truncation", type=_positive_int, default=8)
    finish(p, cmd_monodromy)

    p = sub.add_parser("local", help="cyclic-orbifold character and jet tables")
    p.add_argument("--k", type=_positive_int, required=True, help="group order")
    p.add_argument(
        "--a",
        type=_parse_fractions,
        default=None,
        metavar="a0,a1,...",
        help="rational bimodule coefficients (default: all zero)",
    )
    p.add_argument("--n", type=_nonneg_int, default=None, help="jet order")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    finish(p, cmd_local)

    p = sub.add_parser("hh0", help="invariant-dimension table with orbit audit")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    finish(p, cmd_hh0)

    p = sub.add_parser("roots", help="roots of the elliptic system in a box")
    p.add_argument("--type", default="A1")
    p.add_argument("--m-max", type=_nonneg_int, default=2)
    p.add_argument("--n-max", type=_nonneg_int, default=2)
    p.add_argument("--height", type=_nonneg_int, default=None)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    finish(p, cmd_roots)

    p = sub.add_parser("verify-all", help="run every acceptance check")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    finish(p, cmd_verify_all)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text + "\n")
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code
