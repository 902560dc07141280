"""Spans and counts recorded from outside ``ellwall``.

``install()`` replaces each public function listed in ``TARGETS`` by a
wrapper, in the defining module and in every ``ellwall`` module that
imported it by name, so callers that look it up in their own namespace
are traced too.  Nothing as hot as ``single_mode_row`` (about a million
calls a pass at the acceptance sizes) is wrapped.  Spans (name, start,
end, parent) stay in memory; ``layer_metrics()`` derives busy and self
times from them when the pass has ended.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time


def _nnz(rows) -> int:
    return sum(len(row) for row in rows.values())


# (module, attribute, span name or None for count-only, counter of the result)
TARGETS = [
    ("ellwall.fock.states", "basis_monomials", "fock.states.basis_monomials",
     lambda r: {"monos": len(r)}),
    ("ellwall.fock.operators", "w_general", "fock.operators.w_general",
     lambda r: {"terms": len(r.terms)}),
    ("ellwall.fock.fastapply", "op_action_rows", "fock.fastapply.op_action_rows",
     lambda r: {"rows": len(r), "nnz": _nnz(r)}),
    ("ellwall.fock.fastapply", "charged_field_slices", "fock.fastapply.charged_field_slices",
     lambda r: {"nnz": _nnz(r)}),
    ("ellwall.fock.verify", "bracket_sweep", "fock.verify.bracket", None),
    ("ellwall.fock.verify", "bracket_verify", "fock.verify.bracket", None),
    ("ellwall.fock.verify", "vertex_commutator_sweep", "fock.verify.vertex",
     lambda r: {"checked": r["checked"]}),
    ("ellwall.fock.verify", "small_mode_sweep", "fock.verify.small_modes",
     lambda r: {"checked": r["checked"]}),
    ("ellwall.fock.verify", "_BracketEngine.rows", None, None),
    ("ellwall.fock.verify", "_BracketEngine.pair_reports", None, None),
    ("ellwall.fock.monodromy", "monodromy_s", "fock.monodromy.monodromy_s", None),
    ("ellwall.localmodel", "nilpotent_jordan_type", "localmodel.nilpotent_jordan_type", None),
    ("ellwall.localmodel", "splits", "localmodel.splits", None),
    ("ellwall.localmodel", "tensor_simple", "localmodel.tensor_simple", None),
    ("ellwall.localmodel", "char_value", "localmodel.char_value", None),
    ("ellwall.walls", "enumerate_v_walls", "walls.enumerate_v_walls", None),
    ("ellwall.walls", "chamber_decomposition", "walls.chamber_decomposition", None),
    ("ellwall.weyl", "WeylElement.preserves_form", "weyl.preserves_form", None),
    ("ellwall.serialize", "to_json", "serialize.to_json",
     lambda r: {"bytes": len(r.encode())}),
    ("ellwall.cli", "main", "cli.main", None),
] + [
    ("ellwall.verify", name, "verify.check", None)
    for name in (
        "check_hh0_table", "check_small_modes", "check_vertex_commutator",
        "check_bracket_table", "check_monodromy", "check_wall_sets",
        "check_wall_sign_flip", "check_jet_splitting", "check_tensor_table",
        "check_weyl_relations",
    )
]


# Layers reported as calls, these extra counts and busy time.
LAYER_COUNTS = (
    ("fock.states.basis_monomials", ("monos",)),
    ("fock.operators.w_general", ("terms",)),
    ("fock.fastapply.op_action_rows", ("rows", "nnz")),
    ("fock.fastapply.charged_field_slices", ("nnz",)),
    ("localmodel.nilpotent_jordan_type", ()),
    ("localmodel.splits", ()),
    ("localmodel.tensor_simple", ()),
    ("localmodel.char_value", ()),
    ("walls.enumerate_v_walls", ()),
    ("walls.chamber_decomposition", ()),
    ("weyl.preserves_form", ()),
    ("serialize.to_json", ("bytes",)),
)


class Recorder:
    """In-memory spans and per-name counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, nested]
        self.counts: dict[str, int] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, span: str | None, counter, calls_key: str):
        spans = self.spans
        clock = time.perf_counter

        def counted(*args, **kwargs):
            self.add(calls_key)
            return fn(*args, **kwargs)

        if span is None:
            return counted

        def traced(*args, **kwargs):
            stack = self._stack()
            nested = any(spans[i][0] == span for i in stack)
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, nested]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            self.add(f"{span}.calls")
            if counter is not None:
                for key, n in counter(result).items():
                    self.add(f"{span}.{key}", n)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the ones that do not."""
        missing = []
        for module, attr, span, counter in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            orig = getattr(owner, name, None)
            if orig is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapper = self.wrap(orig, span, counter, f"{module}.{attr}.calls")
            setattr(owner, name, wrapper)
            if owner_name:
                continue
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("ellwall") and \
                        getattr(other, name, None) is orig:
                    setattr(other, name, wrapper)
        return missing

    def busy_s(self, name: str) -> float:
        """Wall time inside the outermost spans of ``name``."""
        return sum(e - s for n, s, e, _, nested in self.spans if n == name and not nested)

    def self_s(self, name: str) -> float:
        """Span time of ``name`` minus the part its child spans cover."""
        covered: dict[int, float] = {}
        for n, s, e, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (e - s)
        return sum(
            (e - s) - covered.get(i, 0.0)
            for i, (n, s, e, _, _) in enumerate(self.spans)
            if n == name
        )

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts.get
        out: dict[str, float] = {}
        for name, keys in LAYER_COUNTS:
            out[f"{name}.calls"] = c(f"{name}.calls", 0)
            for key in keys:
                out[f"{name}.{key}"] = c(f"{name}.{key}", 0)
            out[f"{name}.busy_s"] = self.busy_s(name)
        lookups = c("ellwall.fock.verify._BracketEngine.rows.calls", 0)
        builds = out["fock.fastapply.op_action_rows.calls"]
        out["fock.verify.row_lookups"] = lookups
        out["fock.verify.row_hit_ratio"] = 1 - builds / lookups if lookups else 0.0
        out["fock.verify.bracket.pairs"] = c("ellwall.fock.verify._BracketEngine.pair_reports.calls", 0)
        out["fock.verify.bracket.self_s"] = self.self_s("fock.verify.bracket")
        out["fock.verify.vertex.checked"] = c("fock.verify.vertex.checked", 0)
        out["fock.verify.vertex.self_s"] = self.self_s("fock.verify.vertex")
        out["fock.verify.small_modes.checked"] = c("fock.verify.small_modes.checked", 0)
        out["fock.verify.small_modes.busy_s"] = self.busy_s("fock.verify.small_modes")
        out["fock.monodromy.monodromy_s.calls"] = c("fock.monodromy.monodromy_s.calls", 0)
        out["fock.monodromy.monodromy_s.self_s"] = self.self_s("fock.monodromy.monodromy_s")
        out["cli.main.calls"] = c("cli.main.calls", 0)
        out["cli.main.self_s"] = self.self_s("cli.main")
        out["verify.check.calls"] = c("verify.check.calls", 0)
        out["verify.check.self_s"] = self.self_s("verify.check")
        return out


def profile_counts(profiler) -> dict[str, float]:
    """Exact-arithmetic constructor counts and profiled self-time shares
    from a finished ``cProfile.Profile``.  Shares are of profiled self
    time, which cProfile inflates for small Python functions."""
    import pstats

    stats = pstats.Stats(profiler).stats
    total = sum(tt for _, _, tt, _, _ in stats.values()) or 1.0
    layers = {
        "arith.fraction": ("fractions.py", ("__new__", "_from_coprime_ints")),
        "arith.cyclotomic": ("ellwall/cyclotomic.py", ("__init__",)),
        "arith.qpoly": ("ellwall/exactpoly.py", ("__init__",)),
    }
    out: dict[str, float] = {}
    for layer, (suffix, ctors) in layers.items():
        news = share = 0.0
        for (filename, _, func), (_, nc, tt, _, _) in stats.items():
            if filename.replace(os.sep, "/").endswith(suffix):
                share += tt
                if func in ctors:
                    news += nc
        out[f"{layer}.new_calls"] = int(news)
        out[f"{layer}.self_share"] = share / total
    return out
