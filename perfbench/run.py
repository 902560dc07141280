"""Benchmark for ellwall: run one workload by name and print its metrics.

    python3 perfbench/run.py --workload fock-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``src/`` is put on PYTHONPATH.
Each pass runs in a fresh interpreter (``child.py``), one at a time, the
way ``ellwall`` users pay for imports and caches.  Between passes a
set-up probe starts an interpreter that stops once it is ready, so
``setup_s`` is a median over twice as many samples as the pass times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
cProfile pass for the exact-arithmetic counts, then alternates untraced
and traced passes (at least two of each) and prints the per-layer
metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  The exit
code is 1 when any output check failed and 2 on a usage error or a
checkout without the ``ellwall`` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
HARD_LIMIT_S = 160.0  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, which direction is better).
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer, _counts in tracing.LAYER_COUNTS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    for _key in _counts:
        PER_LAYER[f"{_layer}.{_key}"] = ("bytes" if _key == "bytes" else "count", "lower")
    PER_LAYER[f"{_layer}.busy_s"] = ("s", "lower")
PER_LAYER.update({
    "fock.verify.row_lookups": ("count", "lower"),
    "fock.verify.row_hit_ratio": ("ratio", "higher"),
    "fock.verify.bracket.pairs": ("count", "lower"),
    "fock.verify.bracket.self_s": ("s", "lower"),
    "fock.verify.vertex.checked": ("count", "higher"),
    "fock.verify.vertex.self_s": ("s", "lower"),
    "fock.verify.small_modes.checked": ("count", "higher"),
    "fock.verify.small_modes.busy_s": ("s", "lower"),
    "fock.monodromy.monodromy_s.calls": ("count", "lower"),
    "fock.monodromy.monodromy_s.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "verify.check.calls": ("count", "lower"),
    "verify.check.self_s": ("s", "lower"),
    "arith.fraction.new_calls": ("count", "lower"),
    "arith.fraction.self_share": ("ratio", "lower"),
    "arith.cyclotomic.new_calls": ("count", "lower"),
    "arith.cyclotomic.self_share": ("ratio", "lower"),
    "arith.qpoly.new_calls": ("count", "lower"),
    "arith.qpoly.self_share": ("ratio", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.cpu_util": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
})


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ELLWALL_THREADS", None)  # measure the default configuration
    return env


class Run:
    """The passes of one benchmark run and the checks on their outputs."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.env = _child_env()
        self.passes: dict[str, list[dict]] = {"plain": [], "trace": [], "profile": []}
        self.setups: list[float] = []
        self.setup_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, set[str]] = {}
        self.fresh_draws = False
        self.started = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, mode: str, draw: int = 0) -> dict | None:
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--t0", repr(t0),
               "--draw", str(draw)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} pass timed out after {timeout:.0f} s")
            return None
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"{mode} pass exited with code {proc.returncode}")
            return None
        return json.loads(lines[-1])

    def probe(self) -> None:
        res = self.child("setup")
        if res is not None:
            self.add_setup(res)

    def add_setup(self, res: dict) -> None:
        self.setups.append(res["setup_s"])
        self.setup_walls.append(res["setup_wall_s"])

    def draw(self) -> int:
        """Inputs of the next pass.  With fresh draws, passes 0 and 1 share
        draw 0, which checks that output repeats across processes, and
        every later pass gets a new one."""
        n = self.started
        self.started += 1
        return max(0, n - 1) if self.fresh_draws else 0

    def run_pass(self, mode: str) -> float:
        """One pass; returns its wall time as seen from here."""
        t = time.monotonic()
        draw = self.draw()
        res = self.child(mode, draw)
        ops = workloads.OPS[self.workload]
        if res is None:
            self.attempted += ops
            self.failed += ops
        else:
            self.attempted += res["attempted"]
            self.failed += res["failed"]
            self.digests.setdefault(draw, set()).add(res["digest"])
            self.passes[mode].append(res)
            if mode == "plain":
                self.add_setup(res)
        return time.monotonic() - t

    def out_of_time(self, round_s: list[float], min_rounds: int) -> bool:
        """True when another round would overrun ``--seconds`` (after the
        minimum number of rounds) or come close to the hard limit."""
        if not round_s:
            return False
        if self.elapsed() > HARD_LIMIT_S - 2 * max(round_s):
            return True
        typical = statistics.median(round_s)
        return len(round_s) >= min_rounds and self.elapsed() + typical > self.seconds

    def correct(self) -> bool:
        for draw, digests in self.digests.items():
            if len(digests) > 1:
                self.problems.append(f"outputs of draw {draw} differ between passes")
        if self.workload == "fock-sweep" and \
                self.digests.get(0, set()) - {workloads.FOCK_SWEEP_DIGEST}:
            self.problems.append("fock-sweep report differs from the recorded digest")
        return self.failed == 0 and not self.problems


def pass_time(passes: list[dict]) -> tuple[float, list[float]]:
    """The time of a typical pass: the sum over its operations of each
    one's median across passes, plus the median of the rest (report
    serialization).  Per-operation medians keep a slow spell that
    ``speed.Probe`` did not fully cancel to the passes it covered."""
    med = statistics.median
    per_op = [med(p["op_s"][i] for p in passes) for i in range(len(passes[0]["op_s"]))]
    rest = med(p["verify_s"] - sum(p["op_s"]) for p in passes)
    return sum(per_op) + rest, per_op


def run_untraced(run: Run) -> dict[str, tuple[float, str, int]]:
    run.fresh_draws = run.workload in workloads.FRESH_DRAWS
    round_s: list[float] = []
    while not run.out_of_time(round_s, MIN_PASSES):
        t = time.monotonic()
        run.probe()
        run.run_pass("plain")
        round_s.append(time.monotonic() - t)
    plain = run.passes["plain"]
    if not plain:
        return {}
    med = statistics.median
    verify_s, per_op = pass_time(plain)
    out = {
        "setup_s": (med(run.setups), "s", len(run.setups)),
        "verify_s": (verify_s, "s", len(plain)),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in plain), "MB", len(plain)),
        "setup_wall_s": (med(run.setup_walls), "s", len(run.setup_walls)),
        "verify_wall_s": (med(p["wall_s"] for p in plain), "s", len(plain)),
    }
    crit: dict[str, float] = {}
    for name, t in zip(plain[0]["ops"], per_op):
        if run.workload != "point-queries" and name in workloads.CRIT_METRIC:
            metric = workloads.CRIT_METRIC[name]
            crit[metric] = crit.get(metric, 0.0) + t
    for name in sorted(crit):
        out[name] = (crit[name], "s", len(plain))
    if run.workload == "point-queries":
        lat = [t * 1000.0 for p in plain for t in p["op_s"]]
        out["query_p50_ms"] = (med(lat), "ms", len(lat))
        # the highest percentile with at least ten samples beyond it
        pct = next(q for q in (99, 95, 90, 75) if len(lat) * (100 - q) >= 1000)
        tail = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1]
        out[f"query_p{pct}_ms"] = (tail, "ms", len(lat))
        for kind in ("bracket", "monodromy"):
            sub = [t * 1000.0 for p in plain for t, k in zip(p["op_s"], p["ops"]) if k == kind]
            out[f"query_{kind}_p50_ms"] = (med(sub), "ms", len(sub))
    return out


def run_traced(run: Run) -> dict[str, tuple[float, str, int]]:
    run.run_pass("profile")
    round_s: list[float] = []
    while not run.out_of_time(round_s, 2):
        round_s.append(run.run_pass("plain") + run.run_pass("trace"))
    plain, traced, prof = run.passes["plain"], run.passes["trace"], run.passes["profile"]
    if not (plain and traced and prof):
        return {}
    med = statistics.median
    values: dict[str, tuple[float, int]] = {}
    for name, first in traced[0]["layers"].items():
        if isinstance(first, int):  # a count: it must repeat exactly
            if any(p["layers"][name] != first for p in traced):
                run.problems.append(f"{name} differs between traced passes")
            values[name] = (first, len(traced))
        else:
            values[name] = (med(p["layers"][name] for p in traced), len(traced))
    for name, value in prof[0]["profile"].items():
        values[name] = (value, 1)
    values["proc.cpu_s"] = (med(p["cpu_s"] for p in plain), len(plain))
    values["proc.cpu_util"] = (med(p["cpu_s"] / p["wall_s"] for p in plain), len(plain))
    values["trace.overhead_s"] = (pass_time(traced)[0] - pass_time(plain)[0], len(traced))
    if traced[0]["untraced"]:
        # the program changed shape: those per-layer metrics read 0
        print(f"warning: trace targets missing: {traced[0]['untraced']}", file=sys.stderr)
    unit = {k: u for k, (u, _) in PER_LAYER.items()}
    return {k: (v, unit.get(k, "s"), n) for k, (v, n) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "ellwall" / "__init__.py").is_file():
        print(f"error: no ellwall sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    shown = run_traced(run) if args.trace else run_untraced(run)
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(shown))
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    correct = run.correct()
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"nproc {os.cpu_count()} python {sys.version.split()[0]}")
    for name, (value, unit, n) in shown.items():
        shown_value = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown_value} {unit} (n={n})")
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"fail_ratio = {fail_ratio:.6g} ratio (n={run.attempted})")
    for draw, digests in sorted(run.digests.items()):
        print(f"digest[{draw}] = {','.join(sorted(digests))}")
    metrics = {
        name: {"value": shown[name][0], "unit": shown[name][1]}
        for name in wanted
        if name in shown
    }
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
