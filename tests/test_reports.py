"""Census reports: each view computes only what it prints."""

from __future__ import annotations

from collections import Counter

import djphase.reports
from djphase import entanglement_survey, enumeration_report


def test_survey_types_match_census_and_synthesize_only_for_n3(monkeypatch):
    survey = entanglement_survey(3)
    census = enumeration_report(3)
    assert [row.truth_table for row in survey.rows] == [
        row.report.truth_table for row in census.rows
    ]
    types = [row.construction_type for row in survey.rows]
    assert types == [int(row.report.construction_type) for row in census.rows]
    assert Counter(types) == {1: 7, 2: 12, 3: 12, 4: 4}

    def unreachable(t):
        raise AssertionError("synthesis_report ran for a survey with n != 3")

    monkeypatch.setattr(djphase.reports, "synthesis_report", unreachable)
    survey = entanglement_survey(2)
    assert survey.classes == 3
    assert all(row.construction_type is None for row in survey.rows)


def test_enumeration_report_enumerates_once(monkeypatch):
    calls = []
    enumerate_balanced = djphase.reports.enumerate_balanced

    def counted(n):
        calls.append(n)
        return enumerate_balanced(n)

    monkeypatch.setattr(djphase.reports, "enumerate_balanced", counted)
    report = enumeration_report(3)
    assert calls == [3]
    assert (report.total_balanced, report.classes) == (70, 35)
