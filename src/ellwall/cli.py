"""Command-line surface: wall/chamber enumeration with SVG emission,
bracket-verification reports, monodromy application, and the local
orbifold tables.

Every output document embeds a metadata block (tool version plus the
normalization conventions in force, including any override flags), and
identical invocations produce byte-identical output.  Randomized sweeps
take an explicit seed which is echoed on stderr and in the report.

Each command imports only the modules it runs: at import this module
loads the serializer and the Fock stack, which the ``bracket`` and
``monodromy`` queries need, and every other command imports its own
modules in its handler.

Exit codes: 0 success, 1 failed verification, 2 usage error or
unsupported request.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .fock.fastapply import creation_chain
from .fock.labels import LABEL_NAMES, label_index
from .fock.monodromy import monodromy_f, monodromy_s
from .fock.operators import ExtendedModeError, FockConfig
from .fock.states import FockState
from .fock.verify import bracket_verify
from .serialize import CONVENTIONS, DEFAULT_SEED, WALL_TYPES, cyclo_str, frac_str, metadata, to_json


class RunConfig:
    """Parsed invocation: one command plus its knobs.  Convention
    overrides are always echoed into the output metadata block."""

    def __init__(
        self,
        command: str,
        type_name: str = "A-1",
        n: int = 1,
        truncation: int = 6,
        fmt: str = "json",
        seed: int = DEFAULT_SEED,
        overrides: Optional[dict] = None,
    ):
        self.command = command
        self.type_name = type_name
        self.n = n
        self.truncation = truncation
        self.fmt = fmt
        self.seed = seed
        self.overrides = {} if overrides is None else overrides

    def conventions(self) -> dict:
        merged = dict(CONVENTIONS)
        merged.update(self.overrides)
        return merged

    def metadata(self) -> dict:
        return metadata(self.conventions())


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
    try:
        return [Fraction(chunk) for chunk in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational list {text!r}: {exc}")


def _state_from_modes(modes: Sequence[tuple[int, int]], charge: int) -> FockState:
    """Build the normal-ordered monomial state, tracking crossing signs."""
    mono: tuple = ()
    sign = 1
    for k, li in reversed(modes):
        hit = creation_chain(mono, ((k, li),))
        if hit is None:
            return FockState.zero(charge)
        s, mono = hit
        sign *= s
    return FockState.from_monomial(mono, coeff=sign, charge=charge)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _csv_text(meta: dict, header: list[str], rows: list[list]) -> str:
    import csv

    buf = io.StringIO()
    buf.write(f"# tool_version: {meta['tool_version']}\n")
    for key in sorted(meta["conventions"]):
        buf.write(f"# convention {key}: {meta['conventions'][key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _svg_with_metadata(svg: str, meta: dict) -> str:
    head, _, tail = svg.partition("\n")
    block = f"<metadata>{to_json(meta)}</metadata>"
    return f"{head}\n{block}\n{tail}"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_walls(cfg: RunConfig, out: Optional[str]) -> int:
    from .lattices import hilbert_vector, surface_lattice
    from .walls import (
        UnsupportedTypeError,
        chamber_decomposition,
        check_wall_type,
        emit_chamber_svg,
        enumerate_v_walls,
    )

    try:
        check_wall_type(cfg.type_name)
        if cfg.fmt == "svg" or cfg.type_name == "A-1":
            dec = chamber_decomposition(cfg.n, cfg.type_name)
            walls = list(dec.walls)
            doc = {"metadata": cfg.metadata(), **dec.to_json_dict()}
        else:
            ns = surface_lattice(cfg.type_name)
            walls = enumerate_v_walls(hilbert_vector(cfg.n, ns), cfg.type_name)
            doc = {
                "metadata": cfg.metadata(),
                "type": cfg.type_name,
                "n": cfg.n,
                "walls": [w.to_json_dict() for w in walls],
            }
    except (UnsupportedTypeError, ValueError) as exc:
        return _fail(str(exc))
    if cfg.fmt == "svg":
        _emit(_svg_with_metadata(emit_chamber_svg(dec), cfg.metadata()), out)
    elif cfg.fmt == "csv":
        rows = [
            [
                ";".join(map(str, w.root.finite)),
                w.root.m,
                w.root.n,
                frac_str(w.level1_pos) if w.level1_pos is not None else "",
                str(w.locus),
            ]
            for w in walls
        ]
        _emit(
            _csv_text(
                cfg.metadata(),
                ["root_finite", "root_m", "root_n", "level1_pos", "locus"],
                rows,
            ),
            out,
        )
    else:
        _emit(to_json(doc), out)
    return 0


def cmd_bracket(cfg: RunConfig, lhs, rhs, out: Optional[str]) -> int:
    a, b, gamma = lhs
    c, d, eta = rhs
    try:
        report = bracket_verify(a, b, gamma, c, d, eta, cfg.truncation)
    except (ExtendedModeError, ValueError) as exc:
        return _fail(str(exc))
    doc = {"metadata": cfg.metadata(), **report.to_json_dict()}
    _emit(to_json(doc), out)
    return 0


def cmd_monodromy(cfg: RunConfig, generator: str, modes, charge: int, out) -> int:
    state = _state_from_modes(modes, charge)
    config = FockConfig(
        weight_field=cfg.overrides["extended_weight_field"],
        derivative=cfg.overrides["extended_derivative"],
    )
    try:
        if generator == "f":
            image = monodromy_f(state)
        elif generator == "ff":
            image = monodromy_f(monodromy_f(state))
        else:
            image = monodromy_s(state, cfg.truncation, config)
    except (ExtendedModeError, ValueError) as exc:
        return _fail(str(exc))
    doc = {
        "metadata": cfg.metadata(),
        "generator": generator,
        "truncation": cfg.truncation,
        "input": state.to_json_dict(),
        "output": image.to_json_dict(),
    }
    _emit(to_json(doc), out)
    return 0


def cmd_local(cfg: RunConfig, k: int, a: Optional[list[Fraction]], n, out) -> int:
    from .localmodel import BimoduleParam, jet_trace, splits, tensor_table_rows

    if a is None:
        a = [Fraction(0)] * k
    if len(a) != k:
        return _fail(f"need {k} coefficients for order {k}, got {len(a)}")
    p = BimoduleParam.make(k, a)
    rows = tensor_table_rows(p)
    if cfg.fmt == "csv":
        _emit(_csv_text(cfg.metadata(), ["i", "A_i", "case"], [list(r) for r in rows]), out)
        return 0
    doc = {
        "metadata": cfg.metadata(),
        "k": k,
        "a": [frac_str(x) for x in a],
        "character_table": [
            {"i": i, "A_i": value, "case": case} for i, value, case in rows
        ],
    }
    if n is not None:
        doc["jet"] = {
            "n": n,
            "trace": cyclo_str(jet_trace(n, p)),
            "splits": splits(n, p),
        }
    _emit(to_json(doc), out)
    return 0


def cmd_hh0(cfg: RunConfig, order: Optional[int], out) -> int:
    from .localmodel import SUPPORTED_ORDERS, hh0_audit
    from .walls import UnsupportedTypeError

    orders = [order] if order is not None else list(SUPPORTED_ORDERS)
    try:
        audits = [hh0_audit(k) for k in orders]
    except UnsupportedTypeError as exc:
        return _fail(str(exc))
    if cfg.fmt == "csv":
        rows = [[a["order"], a["table_value"]] for a in audits]
        _emit(_csv_text(cfg.metadata(), ["order", "dimension"], rows), out)
    else:
        _emit(to_json({"metadata": cfg.metadata(), "orders": audits}), out)
    return 0


def cmd_roots(cfg: RunConfig, m_max: int, n_max: int, height, out) -> int:
    from .roots import build_elliptic, roots_to_json

    try:
        system = build_elliptic(cfg.type_name)
    except ValueError as exc:
        return _fail(str(exc))
    roots = system.roots_in_box(m_max, n_max, height)
    doc = {
        "metadata": cfg.metadata(),
        "type": cfg.type_name,
        "m_max": m_max,
        "n_max": n_max,
        "finite_height_max": height,
        "count": len(roots),
        "roots": roots_to_json(roots, system),
    }
    if cfg.fmt == "csv":
        rows = [
            ["+".join(map(str, r.finite)) or "0", r.m, r.n, system.is_real(r)]
            for r in roots
        ]
        _emit(_csv_text(cfg.metadata(), ["finite", "m", "n", "real"], rows), out)
    else:
        _emit(to_json(doc), out)
    return 0


def cmd_verify_all(cfg: RunConfig, out) -> int:
    from .verify import verify_all

    print(f"seed: {cfg.seed}", file=sys.stderr)
    report, timings = verify_all(cfg.seed)
    for entry in report["criteria"]:
        name = entry["criterion"]
        tag = "PASS" if entry["pass"] else "FAIL"
        print(f"[{tag}] {name} ({timings[name]:.2f}s)", file=sys.stderr)
    doc = {"metadata": cfg.metadata(), **report}
    _emit(to_json(doc), out)
    return 0 if report["all_pass"] else 1


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

    def add_out(p):
        p.add_argument("--out", help="write the document here instead of stdout")

    p = sub.add_parser("walls", help="numerical walls and chambers for n points")
    p.add_argument("--type", default="A-1", help=f"surface type, one of {WALL_TYPES}")
    p.add_argument("--n", type=_positive_int, required=True, help="number of points")
    p.add_argument("--format", default="json", choices=("json", "csv", "svg"))
    add_out(p)

    p = sub.add_parser("bracket", help="verify one generator bracket on the basis")
    p.add_argument("--lhs", type=_parse_operand, required=True, metavar="a,b,label")
    p.add_argument("--rhs", type=_parse_operand, required=True, metavar="c,d,label")
    p.add_argument("--truncation", type=_positive_int, default=6)
    add_out(p)

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
    p.add_argument(
        "--weight-field",
        default="symplectic_fermion",
        choices=("symplectic_fermion", "zero"),
        help="extended-mode convention override, echoed in metadata",
    )
    p.add_argument(
        "--derivative",
        default="z_ddz",
        choices=("z_ddz", "ddz"),
        help="extended-mode convention override, echoed in metadata",
    )
    add_out(p)

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
    add_out(p)

    p = sub.add_parser("hh0", help="invariant-dimension table with orbit audit")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    add_out(p)

    p = sub.add_parser("roots", help="roots of the elliptic system in a box")
    p.add_argument("--type", default="A1")
    p.add_argument("--m-max", type=_nonneg_int, default=2)
    p.add_argument("--n-max", type=_nonneg_int, default=2)
    p.add_argument("--height", type=_nonneg_int, default=None)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    add_out(p)

    p = sub.add_parser("verify-all", help="run every acceptance check")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_out(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    if hasattr(args, "format"):
        cfg.fmt = args.format
    if hasattr(args, "truncation"):
        cfg.truncation = args.truncation
    if hasattr(args, "seed"):
        cfg.seed = args.seed
    if hasattr(args, "type"):
        cfg.type_name = args.type
    if hasattr(args, "n") and args.n is not None:
        cfg.n = args.n

    if args.command == "walls":
        return cmd_walls(cfg, args.out)
    if args.command == "bracket":
        return cmd_bracket(cfg, args.lhs, args.rhs, args.out)
    if args.command == "monodromy":
        cfg.overrides = {
            "extended_weight_field": args.weight_field,
            "extended_derivative": args.derivative,
        }
        return cmd_monodromy(cfg, args.generator, args.modes, args.charge, args.out)
    if args.command == "local":
        return cmd_local(cfg, args.k, args.a, args.n, args.out)
    if args.command == "hh0":
        return cmd_hh0(cfg, args.order, args.out)
    if args.command == "roots":
        return cmd_roots(cfg, args.m_max, args.n_max, args.height, args.out)
    if args.command == "verify-all":
        return cmd_verify_all(cfg, args.out)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
