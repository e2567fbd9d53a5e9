"""The stacked census walk, checked against closed forms that share no code with it.

After H^n and the phase oracle of f, qubit q's reduced purity is (1 + a_q^2)/2,
where a_q is the mean over x of (-1)^(f(x) XOR f(x XOR e_q)): the derivative of
f along q, as +-1.  Qubit q is unentangled exactly when that derivative is
constant, so the state is a product state exactly when f is affine (ANF
degree <= 1), which is f(x XOR y) = f(x) XOR f(y) XOR f(0) for all x, y.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import djphase.dj_runner
import djphase.reports
from djphase import (
    StateVector,
    canonical_balanced,
    entanglement_diagnostics,
    entanglement_profile,
    entanglement_survey,
    enumeration_report,
    parse_truth_table,
)
from djphase.dj_runner import entanglement_profiles
from djphase.simulator import stacked_diagnostics


def closed_form_purities(values, n: int) -> list[float]:
    f = np.array(values)
    x = np.arange(1 << n)
    derivatives = [np.mean(1 - 2 * (f ^ f[x ^ (1 << (n - q))])) for q in range(1, n + 1)]
    return [(1 + a * a) / 2 for a in derivatives]


def is_affine(values, n: int) -> bool:
    f = np.array(values)
    x = np.arange(1 << n)
    return bool(np.all(f[x[:, None] ^ x[None, :]] == f[:, None] ^ f[None, :] ^ f[0]))


@pytest.mark.parametrize("n, product_classes", [(2, 3), (3, 7), (4, 15)])
def test_census_matches_closed_form(n, product_classes):
    tables = canonical_balanced(n)
    profiles = entanglement_profiles(tables)
    survey = entanglement_survey(n)
    census = enumeration_report(n)
    assert len(profiles) == len(survey.rows) == len(census.rows) == len(tables)
    worst = 0.0
    for t, profile, survey_row, census_row in zip(tables, profiles, survey.rows, census.rows):
        want = closed_form_purities(t.values, n)
        worst = max(worst, *(abs(p - w) for p, w in zip(profile.purities, want)))
        assert profile.fully_product == is_affine(t.values, n), t.text
        for purity, rank in zip(profile.purities, profile.schmidt_ranks):
            assert (rank == 1) == (abs(purity - 1.0) <= 1e-12), t.text
        assert survey_row.truth_table == census_row.report.truth_table == t
        assert survey_row.purities == profile.purities
        assert survey_row.fully_product == census_row.fully_product == profile.fully_product
    assert worst <= 1e-12
    assert sum(p.fully_product for p in profiles) == survey.product_classes == product_classes


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_table_profile_equals_census_row_bitwise(n):
    tables = canonical_balanced(n)
    rows = dict(zip(tables, entanglement_profiles(tables)))
    picked = tables if n <= 3 else random.Random(11).sample(tables, 200)
    for t in picked:
        assert entanglement_profile(t) == rows[t], t.text


def test_stack_equals_each_state_bitwise():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        amps = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        stacked = stacked_diagnostics(amps)
        assert stacked == [entanglement_diagnostics(StateVector(n, row.copy())) for row in amps]


def test_stack_norm_guard_names_the_bad_state():
    amps = np.full((3, 4), 0.5, dtype=np.complex128)
    amps[1] *= 1.0 + 1e-5
    with pytest.raises(ValueError, match="state norm 1.000010"):
        stacked_diagnostics(amps)


def test_tables_on_different_n_are_rejected():
    with pytest.raises(ValueError):
        entanglement_profiles([parse_truth_table("0110"), parse_truth_table("01101001")])


@pytest.mark.parametrize("report", [enumeration_report, entanglement_survey])
def test_each_report_walks_once_with_one_kernel_call(report, monkeypatch):
    walks, kernel_calls = [], []
    enumerate_balanced = djphase.reports.enumerate_balanced

    def counted_walk(n):
        walks.append(n)
        return enumerate_balanced(n)

    def counted_kernel(amps):
        kernel_calls.append(amps.shape)
        return stacked_diagnostics(amps)

    def unreachable(state):
        raise AssertionError("a report diagnosed one class at a time")

    monkeypatch.setattr(djphase.reports, "enumerate_balanced", counted_walk)
    monkeypatch.setattr(djphase.dj_runner, "stacked_diagnostics", counted_kernel)
    monkeypatch.setattr(djphase.dj_runner, "entanglement_diagnostics", unreachable)
    assert report(3).classes == 35
    assert walks == [3]
    assert kernel_calls == [(35, 8)]


def test_total_balanced_is_twice_the_classes():
    # Counted straight from all tables, not from the census's 2 x classes.
    for n, total in [(2, 6), (3, 70), (4, 12870)]:
        weights = [bin(v).count("1") for v in range(1 << (1 << n))]
        assert weights.count(1 << (n - 1)) == total
        assert enumeration_report(n).total_balanced == total
