"""Report assembly: conditions built from zero-test results, reports
built from conditions, and the golden reports read back against the
same rules."""

import json
import re
from pathlib import Path

import pytest

from gbeq.expr import NONZERO, NUMERIC_ZERO, SYMBOLIC_ZERO, ZERO, ZeroResult, rat
from gbeq.report import ConditionReport, combined_report, held, worst_verdict

GOLDEN = Path(__file__).parent / "golden"

SYMBOLIC = ZeroResult(SYMBOLIC_ZERO, ZERO, 1e-9, 42)
NUMERIC = ZeroResult(
    NUMERIC_ZERO, rat(0), 1e-9, 42, samples=[({"x": 1.0}, 1e-12)], max_abs=1e-12
)
NONZERO_RESULT = ZeroResult(
    NONZERO, rat(3), 1e-9, 42, samples=[({}, 3.0)], max_abs=3.0
)


@pytest.mark.parametrize("zr", [SYMBOLIC, NUMERIC, NONZERO_RESULT])
def test_condition_of_holds_when_the_result_vanishes(zr):
    c = ConditionReport.of("residual vanishes", zr)
    assert c == ConditionReport("residual vanishes", bool(zr), zr.verdict, zr.summary())


def test_condition_of_takes_an_override():
    # a "must not vanish" condition holds exactly when the result is NONZERO
    must_not_vanish = [
        ConditionReport.of("a must not vanish", zr, ok=zr.verdict == NONZERO)
        for zr in (SYMBOLIC, NONZERO_RESULT)
    ]
    assert [c.ok for c in must_not_vanish] == [False, True]
    assert [c.verdict for c in must_not_vanish] == [SYMBOLIC_ZERO, NONZERO]
    assert must_not_vanish[1].detail == "nonzero (max sampled magnitude 3)"


def test_held_counts_the_conditions_that_hold():
    assert held([]) == "0/0"
    conditions = [
        ConditionReport.of(name, zr)
        for name, zr in (("a", SYMBOLIC), ("b", NONZERO_RESULT), ("c", NUMERIC))
    ]
    assert held(conditions) == "2/3"


def test_combined_report_takes_the_weakest_verdict():
    conditions = [ConditionReport.of("a", SYMBOLIC), ConditionReport.of("b", NUMERIC)]
    samples = [({"t": 0.5, "x": 1.0}, 0.0)]
    rep = combined_report(conditions, "both residuals", 1e-6, 7, "2/2 hold", samples)
    assert rep.verdict == NUMERIC_ZERO and rep.ok
    assert (rep.residual_text, rep.tolerance, rep.seed, rep.summary) == (
        "both residuals", 1e-6, 7, "2/2 hold"
    )
    assert rep.samples == samples and rep.samples is not samples
    assert rep.conditions == conditions and rep.conditions is not conditions

    failed = combined_report(
        conditions + [ConditionReport.of("c", NONZERO_RESULT)], "", 1e-9, 42, ""
    )
    assert failed.verdict == NONZERO and not failed.ok
    assert failed.samples == []


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(GOLDEN.glob("*.json")) if "conditions" in json.loads(p.read_text())],
    ids=lambda p: p.name,
)
def test_golden_reports_follow_the_combination_rule(path):
    rep = json.loads(path.read_text())
    conditions = rep["conditions"]
    assert rep["verdict"] == worst_verdict(c["verdict"] for c in conditions)
    counts = re.findall(r"(\d+)/(\d+) [a-z ]*hold", rep["summary"])
    assert counts, rep["summary"]
    for k, n in counts:
        assert (int(k), int(n)) == (sum(c["ok"] for c in conditions), len(conditions))
