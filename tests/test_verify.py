"""verify's failure branches: each wrong result is a failed case named in its suite's detail.

Every test swaps one name that djphase.verify binds for a wrong stand-in and
checks the `<k> failed; first: <case>` detail of the one suite it breaks.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import djphase.verify
from djphase import (
    ClassicalOutcome,
    SelfCheckError,
    Verdict,
    classical_decide,
    enumeration_report,
    parse_truth_table,
    run_refined,
    run_verification,
    zero_amplitude_formula,
)


def failed_suites() -> dict[str, str]:
    return {r.name: r.detail for r in run_verification() if not r.passed}


@pytest.mark.parametrize(
    "field,value,case",
    [
        ("total_balanced", 68, "total_balanced=68 (want 70)"),
        ("classes", 34, "classes=34 (want 35)"),
        (
            "type_counts",
            {1: 8, 2: 11, 3: 12, 4: 4},
            "type_counts={1: 8, 2: 11, 3: 12, 4: 4} (want {1: 7, 2: 12, 3: 12, 4: 4})",
        ),
    ],
)
def test_census_counts(monkeypatch, field, value, case):
    def wrong_report(n):
        return replace(enumeration_report(n), **{field: value})

    monkeypatch.setattr(djphase.verify, "enumeration_report", wrong_report)
    assert failed_suites() == {"census": f"1 failed; first: {case}"}


@pytest.mark.parametrize(
    "counts,detail",
    [
        ({"mcz": 1}, "1 failed; first: 00001111 needs a multi-controlled Z"),
        # The max-cz check fires as well.
        ({"cz": 4}, "2 failed; first: 00001111 uses 4 cz gates"),
    ],
)
def test_census_row_gates(monkeypatch, counts, detail):
    # synthesis_report raises for such a circuit, so only a faked report reaches these checks.
    def wrong_row(row):
        if row.report.truth_table.text != "00001111":
            return row
        return replace(row, report=replace(row.report, counts=replace(row.report.counts, **counts)))

    def wrong_report(n):
        report = enumeration_report(n)
        return replace(report, rows=tuple(wrong_row(row) for row in report.rows))

    monkeypatch.setattr(djphase.verify, "enumeration_report", wrong_report)
    assert failed_suites() == {"census": detail}


def test_formula_value(monkeypatch):
    monkeypatch.setattr(djphase.verify, "zero_amplitude_formula", lambda t: 0.5)
    zero = run_refined(parse_truth_table("00000000")).zero_amplitude
    assert failed_suites() == {
        "formula-agreement": f"72 failed; first: table 00000000: simulated {zero!r}, formula 0.5"
    }


@pytest.mark.parametrize(
    "text,case",
    [
        ("00000000", "constant-0 table 00000000 came out negative"),
        ("11111111", "constant-1 table 11111111 came out positive"),
    ],
)
def test_formula_sign(monkeypatch, text, case):
    # Flip the run and the formula together, so only the sign check can tell.
    def flip(zero, t):
        return -zero if t.text == text else zero

    def flipped_run(t, tol):
        out = run_refined(t, tol)
        return replace(out, zero_amplitude=flip(out.zero_amplitude, t))

    monkeypatch.setattr(djphase.verify, "run_refined", flipped_run)
    monkeypatch.setattr(
        djphase.verify, "zero_amplitude_formula", lambda t: flip(zero_amplitude_formula(t), t)
    )
    assert failed_suites() == {"formula-agreement": f"1 failed; first: {case}"}


def test_original_self_check(monkeypatch):
    def broken(t, tol):
        raise SelfCheckError("working qubit purity drifted")

    monkeypatch.setattr(djphase.verify, "run_original", broken)
    assert failed_suites() == {
        "refined-original-agreement": (
            "72 failed; first: table 00000000: original run: working qubit purity drifted"
        )
    }


def test_verdict_disagreement(monkeypatch):
    monkeypatch.setattr(
        djphase.verify, "classical_decide", lambda t: ClassicalOutcome(Verdict.BALANCED, 2)
    )
    assert failed_suites() == {
        "refined-original-agreement": (
            "2 failed; first: table 00000000: refined=constant original=constant classical=balanced"
        )
    }


def test_classical_query_count(monkeypatch):
    monkeypatch.setattr(
        djphase.verify, "classical_decide", lambda t: replace(classical_decide(t), queries_used=4)
    )
    assert failed_suites() == {
        "refined-original-agreement": (
            "1 failed; first: constant table used 4 classical queries (want 5)"
        )
    }
