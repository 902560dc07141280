"""One pass of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --t0 T [--draw D]

``T`` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so ``setup_s`` covers interpreter start, the ``ellwall`` imports
and input generation.  MODE is ``setup`` (stop when ready), ``plain``
(time the pass), ``trace`` (time it with spans recorded) or ``profile``
(run it under cProfile).  D selects fresh sub-seeds, see
``workloads.make_inputs``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace", "profile"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--draw", type=int, default=0)
    args = parser.parse_args()

    import ellwall.cli  # noqa: F401  the import users of the command pay
    import speed
    import workloads

    ops = workloads.make_inputs(args.workload, args.seed, args.draw)
    setup_wall_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    # the speed right after set-up stands for the speed during it
    unit_s = statistics.median(speed.unit_cpu_s() for _ in range(9))
    out: dict = {
        "setup_s": setup_wall_s * speed.REF_UNIT_S / unit_s,
        "setup_wall_s": setup_wall_s,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    recorder = profiler = None
    if args.mode == "trace":
        import tracing

        recorder = tracing.Recorder()
        out["untraced"] = recorder.install()
    elif args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    probe = None if profiler else speed.Probe()
    cpu0 = sum(os.times()[:4])
    result = workloads.run_pass(args.workload, ops, probe)
    cpu_s = sum(os.times()[:4]) - cpu0

    if profiler is not None:
        profiler.disable()
        import tracing

        out["profile"] = tracing.profile_counts(profiler)
    if recorder is not None:
        out["layers"] = recorder.layer_metrics()
    rss_kb = sum(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out.update(result, cpu_s=cpu_s, peak_rss_mb=rss_kb / 1024.0)
    for line in result["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
