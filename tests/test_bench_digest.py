"""The fock-sweep benchmark pass keeps its recorded digest.

``perfbench/workloads.py`` pins the sha256 of the fock-sweep report
(``FOCK_SWEEP_DIGEST``); its inputs do not depend on the seed.  This
test imports that file read-only, writing no bytecode next to it, and
runs one pass at its sizes, so a change in ``src/`` that moves a byte of
c02, c03 or c04 at those sizes fails here and not only in a benchmark
run.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_fock_sweep_pass_keeps_the_pinned_digest(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.modules.pop("workloads", None)
    assert Path(workloads.__file__).parent == PERFBENCH
    ops = workloads.make_inputs("fock-sweep", 918273)
    result = workloads.run_pass("fock-sweep", ops)
    assert result["failures"] == [] and result["failed"] == 0
    assert result["attempted"] == len(ops) == 3
    assert result["digest"] == workloads.FOCK_SWEEP_DIGEST
