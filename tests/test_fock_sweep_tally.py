"""The bracket sweep's tally of verdicts, against a summary of reports.

``bracket_sweep`` reads each order's verdict from the pair's one
``scan_pair`` step and builds a ``BracketReport`` only for a mismatch.
``reference_summary`` is the report-reading loop the sweep ran before:
both orders' reports of every pair, tallied in the order of
``product(operands, repeat=2)``.  The two must give the same bytes, on
the real relation and under ``mutate``, which makes mismatches,
rescales, rescale conflicts and inconsistent central scalars, with the
two orders of a pair read over different denominators.
"""

from itertools import product

import pytest

import ellwall.fock.verify as verify
from ellwall.fock.labels import COH_E, COH_SM, COH_SP, LABEL_NAMES
from ellwall.serialize import to_json

from test_fock_spectators import pair_reports

# (truncation, a_range, b_range): a window must hold two degree -b_range
# operands, so truncation 3 runs at b_range 1
SIZES = [(3, 1, 1), (4, 1, 2), (5, 1, 2)]


def reference_summary(N, a_range, b_range):
    """``bracket_sweep``'s summary from both orders' reports of every
    pair, tallied as the sweep did before it read verdicts."""
    engine = verify._BracketEngine(N)
    operands = [
        (a, b, g)
        for a in range(-a_range, a_range + 1)
        for b in range(-b_range, b_range + 1)
        if (a, b) != (0, 0)
        for g in (COH_E, COH_SP, COH_SM)
    ]
    by_job = {}
    for i, x in enumerate(operands):
        for y in operands[i:]:
            by_job[(x, y)], by_job[(y, x)] = pair_reports(engine, x, y)

    summary = verify.SweepSummary(truncation=N)
    central_instances = {}
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
            star = verify.star_label(gi, hi)
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
        summary.central[key] = verify._solve_central(inst)
    return summary


def mutate(monkeypatch):
    """Read the reverse order over twice its denominator, and send
    sigma+ * sigma+ to E.  The reverse order's rescales and central
    scalars halve, so its root spaces conflict with the forward order's,
    and the sigma+ pairs with a generator term mismatch.  (Reading it
    over ``denom`` instead of ``eps * denom`` changes no byte at these
    truncations: every pair with eps = -1 has zero rows.)"""
    real_scan = verify._BracketEngine.scan_pair
    real_star = verify.star_label

    def scan_pair(self, *args):
        scan, fwd, (target, denom) = real_scan(self, *args)
        return scan, fwd, (target, 2 * denom)

    def star_label(i, j):
        return (COH_E, 1) if (i, j) == (COH_SP, COH_SP) else real_star(i, j)

    monkeypatch.setattr(verify._BracketEngine, "scan_pair", scan_pair)
    monkeypatch.setattr(verify, "star_label", star_label)


def count_reports(monkeypatch):
    """The list that gets one entry per ``BracketReport`` built."""
    built = []

    class Counted(verify.BracketReport):
        def __new__(cls, *args, **kwargs):
            built.append(None)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(verify, "BracketReport", Counted)
    return built


@pytest.mark.parametrize("N,a_range,b_range", SIZES)
def test_tally_equals_the_report_summary(N, a_range, b_range):
    got = verify.bracket_sweep(N, a_range, b_range).to_json_dict()
    want = reference_summary(N, a_range, b_range).to_json_dict()
    assert to_json(got) == to_json(want)
    assert got["rescale_factors"] and got["central"]


@pytest.mark.parametrize("N,a_range,b_range", SIZES)
def test_tally_equals_the_report_summary_under_mutation(
    N, a_range, b_range, monkeypatch
):
    mutate(monkeypatch)
    got = verify.bracket_sweep(N, a_range, b_range).to_json_dict()
    want = reference_summary(N, a_range, b_range).to_json_dict()
    assert to_json(got) == to_json(want)
    assert got["mismatches"] and got["rescale_factors"] and got["rescale_conflicts"]
    assert not all(info["consistent"] for info in got["central"].values())


class TestReportCensus:
    def test_a_passing_sweep_builds_no_report(self, monkeypatch):
        built = count_reports(monkeypatch)
        summary = verify.bracket_sweep(4)
        assert summary.matches == summary.instances == 42 * 42
        assert built == []

    def test_a_failing_sweep_builds_one_report_per_mismatch(self, monkeypatch):
        mutate(monkeypatch)
        built = count_reports(monkeypatch)
        summary = verify.bracket_sweep(4)
        assert len(summary.mismatches) == summary.instances - summary.matches == 160
        assert len(built) == 160

    @pytest.mark.parametrize(
        "lhs,rhs,match",
        [
            ((1, 0, "sigma+"), (0, 1, "sigma-"), True),
            ((1, 1, "sigma+"), (0, 1, "sigma+"), False),  # sigma+ * sigma+ = E
        ],
    )
    def test_a_query_builds_one_report(self, lhs, rhs, match, monkeypatch):
        mutate(monkeypatch)
        verify._engine.cache_clear()
        built = count_reports(monkeypatch)
        assert verify.bracket_verify(*lhs, *rhs, 4).match is match
        assert len(built) == 1
