"""Property tests on random tables with n = 1 to 10."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from djphase import (
    Anf,
    TruthTable,
    all_truth_tables,
    anf_to_truth_table,
    degree,
    emit_text,
    moebius_transform,
    parse_text,
    parse_truth_table,
    run_original,
    run_refined,
    synthesize,
    zero_amplitude_formula,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
sizes = st.integers(min_value=1, max_value=10)


@st.composite
def tables(draw):
    n = draw(sizes)
    size = 1 << n
    value = draw(st.integers(min_value=0, max_value=(1 << size) - 1))
    return parse_truth_table(format(value, f"0{size}b"))


@st.composite
def promise_tables(draw):
    n = draw(sizes)
    size = 1 << n
    if draw(st.booleans()):
        return TruthTable(n, (draw(st.integers(0, 1)),) * size)
    bits = [0] * (size // 2) + [1] * (size // 2)
    draw(st.randoms(use_true_random=False)).shuffle(bits)
    return TruthTable(n, tuple(bits))


@PROPERTY_SETTINGS
@given(tables())
def test_moebius_round_trip(t):
    assert anf_to_truth_table(moebius_transform(t)) == t


@PROPERTY_SETTINGS
@given(tables())
def test_anf_from_monomials_equals_transform(t):
    # The two construction paths (monomials in, butterfly bytes out) give one value.
    a = moebius_transform(t)
    rebuilt = Anf(t.n, a.monomials)
    assert rebuilt == a
    assert hash(rebuilt) == hash(a)
    if t.n <= 8:
        reference = oracles.moebius_bruteforce(t.values, t.n)
        assert a.monomials == reference
        assert degree(a) == max(map(len, reference), default=0)


def reference_gate_order(t):
    # The subset-sum ANF, sorted as qubit tuples: no mask, no butterfly.
    return oracles.gate_order(tuple(sorted(m)) for m in oracles.moebius_bruteforce(t.values, t.n))


@PROPERTY_SETTINGS
@given(tables().filter(lambda t: t.n <= 8))
def test_gate_order_matches_sorted_monomials(t):
    assert [g.qubits for g in synthesize(moebius_transform(t)).gates] == reference_gate_order(t)


def test_gate_order_matches_sorted_monomials_exhaustive_n3():
    for t in all_truth_tables(3):
        assert [g.qubits for g in synthesize(moebius_transform(t)).gates] == reference_gate_order(t)


@PROPERTY_SETTINGS
@given(tables())
def test_circuit_text_round_trip(t):
    c = synthesize(moebius_transform(t))
    assert parse_text(emit_text(c)) == c


@PROPERTY_SETTINGS
@given(promise_tables())
def test_refined_and_original_match_formula(t):
    refined = run_refined(t)
    original = run_original(t)
    expected = zero_amplitude_formula(t)
    assert abs(refined.zero_amplitude - expected) <= 1e-9
    assert abs(original.zero_amplitude - expected) <= 1e-9
    assert np.allclose(
        original.final_probabilities, refined.final_probabilities, rtol=0, atol=1e-12
    )
