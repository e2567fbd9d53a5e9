"""The stacked census walk, checked against closed forms that share no code with it.

After H^n and the phase oracle of f, qubit q's reduced purity is (1 + a_q^2)/2,
where a_q is the mean over x of (-1)^(f(x) XOR f(x XOR e_q)): the derivative of
f along q, as +-1.  Qubit q is unentangled exactly when that derivative is
constant, so the state is a product state exactly when f is affine (ANF
degree <= 1), which is f(x XOR y) = f(x) XOR f(y) XOR f(0) for all x, y.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import oracles
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


def test_a_list_on_mixed_n_is_cut_at_the_cap(monkeypatch):
    # Every n=4 class, with n=2 and n=3 tables interleaved: two capped n=4 stacks.
    mixed = []
    for i, t in enumerate(canonical_balanced(4)):
        mixed.append(t)
        if i % 400 == 0:
            mixed.append(canonical_balanced(3)[i // 400])
        if i % 900 == 0:
            mixed.append(parse_truth_table(["0011", "0001", "1111"][i // 900 % 3]))
    shapes = []

    def counted_kernel(amps):
        shapes.append(amps.shape)
        return stacked_diagnostics(amps)

    monkeypatch.setattr(djphase.dj_runner, "stacked_diagnostics", counted_kernel)
    profiles = entanglement_profiles(mixed)
    assert shapes == [(4096, 16), (2339, 16), (17, 8), (8, 4)]
    monkeypatch.undo()
    assert profiles == [entanglement_profile(t) for t in mixed]
    for i in range(0, len(mixed), 97):
        t = mixed[i]
        values = [int(c) for c in t.text]
        want = closed_form_purities(values, t.n)
        assert np.allclose(profiles[i].purities, want, rtol=0.0, atol=1e-12), t.text
        state = oracles.post_oracle_state(values, t.n)
        for q, got in enumerate(profiles[i].purities, start=1):
            assert abs(got - oracles.reduced_purity(state, q, t.n)) <= 1e-12, (t.text, q)


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

    monkeypatch.setattr(djphase.reports, "enumerate_balanced", counted_walk)
    monkeypatch.setattr(djphase.dj_runner, "stacked_diagnostics", counted_kernel)
    assert report(3).classes == 35
    assert walks == [3]
    assert kernel_calls == [(35, 8)]
    # 6,435 classes of 16 amplitudes: two stacks of at most 2^16 amplitudes.
    walks.clear()
    kernel_calls.clear()
    assert report(4).classes == 6435
    assert walks == [4]
    assert kernel_calls == [(4096, 16), (2339, 16)]


def test_total_balanced_is_twice_the_classes():
    # Counted straight from all tables, not from the census's 2 x classes.
    for n, total in [(2, 6), (3, 70), (4, 12870)]:
        weights = [bin(v).count("1") for v in range(1 << (1 << n))]
        assert weights.count(1 << (n - 1)) == total
        assert enumeration_report(n).total_balanced == total


@pytest.mark.parametrize("theta, ranks, product", [(1e-6, (1, 1), True), (1e-4, (2, 2), False)])
def test_rank_follows_the_purity_near_a_product_state(theta, ranks, product):
    # cos|00> + sin|11>: purity 1 - sin^2(2 theta)/2, second singular value sin(theta).
    amps = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=np.complex128)
    profile = entanglement_diagnostics(StateVector(2, amps))
    assert (profile.schmidt_ranks, profile.fully_product) == (ranks, product)


def random_partly_product_state(rng: np.random.Generator) -> tuple[int, np.ndarray]:
    # A tensor product of random factors on runs of consecutive qubits: a qubit
    # alone in its run is unentangled, one sharing a run almost surely is not.
    n = int(rng.integers(1, 9))
    amps = np.ones(1, dtype=np.complex128)
    left = n
    while left:
        k = int(rng.integers(1, left + 1))
        factor = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        amps = np.kron(amps, factor / np.linalg.norm(factor))
        left -= k
    return n, amps


def test_ranks_and_product_agree_with_an_independent_purity():
    states = [
        (n, oracles.post_oracle_state(t.values, n))
        for n in (2, 3, 4)
        for t in canonical_balanced(n)
    ]
    rng = np.random.default_rng(14)
    states += [random_partly_product_state(rng) for _ in range(400)]
    ranks_seen = set()
    for n, amps in states:
        profile = entanglement_diagnostics(StateVector(n, amps))
        assert profile.fully_product == all(r == 1 for r in profile.schmidt_ranks)
        for q, rank in enumerate(profile.schmidt_ranks, start=1):
            assert (rank == 1) == (oracles.reduced_purity(amps, q, n) >= 1 - 1e-9), (n, q)
        ranks_seen.update(profile.schmidt_ranks)
    assert ranks_seen == {1, 2}


def test_census_runs_without_svd(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the census called numpy.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", unreachable)
    assert entanglement_survey(4).product_classes == 15
