"""Refined runs take each stack's oracle from one gate gather: their final states
against each table's own circuit, bit for bit, and against dense matrices.

The per-table reference is the circuit path: `synthesize(moebius_transform(t))`
applied by `apply_circuit` between two Hadamard layers on `hadamard_basis_state`,
then the constant term's global -1.  The dense reference is the product of
`tests/oracles.py` Hadamard matrices with the signed uniform superposition.
"""

from __future__ import annotations

import random
from functools import cache

import numpy as np
import pytest

import oracles
from djphase import (
    FunctionClass,
    Mode,
    TruthTable,
    all_truth_tables,
    apply_circuit,
    apply_hadamard_all,
    classify,
    hadamard_basis_state,
    moebius_transform,
    synthesize,
    zero_amplitude_formula,
)
from djphase.boolfn import MAX_STACK_AMPLITUDES, moebius_stack, stacks
from djphase.dj_runner import run_tables
from djphase.oracle_compiler import gate_masks


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _alone(t: TruthTable) -> np.ndarray:
    anf = moebius_transform(t)
    state = apply_circuit(hadamard_basis_state(t.n, 0), synthesize(anf))
    apply_hadamard_all(state)
    return -state.amps if anf.has_constant_term else state.amps


@cache
def _hadamards(n: int) -> np.ndarray:
    m = np.eye(1 << n)
    for q in range(1, n + 1):
        m = oracles.hadamard_matrix(n, q) @ m
    return m


def _check(tables: list[TruthTable]) -> None:
    outcomes = run_tables(tables, Mode.REFINED)
    for t, out in zip(tables, outcomes):
        assert np.array_equal(_bits(out.final_amplitudes), _bits(_alone(t))), t.text
        assert _bits(out.zero_amplitude) == _bits(out.final_amplitudes[0]), t.text
    for n in {t.n for t in tables}:
        if n > 10:
            continue
        rows = [k for k, t in enumerate(tables) if t.n == n]
        signed = np.array([oracles.post_oracle_state(tables[k].values, n) for k in rows])
        want = signed @ _hadamards(n).T
        got = np.array([outcomes[k].final_amplitudes for k in rows])
        assert np.abs(got - want).max() <= 1e-12, n


def _promise(n: int) -> list[TruthTable]:
    return [t for t in all_truth_tables(n) if classify(t) != FunctionClass.OTHER]


def _balanced(n: int, rng: random.Random) -> TruthTable:
    bits = [0, 1] * (1 << (n - 1))
    rng.shuffle(bits)
    return TruthTable(n, tuple(bits))


def test_every_promise_table_up_to_n4_as_one_interleaved_file():
    tables = [t for n in (1, 2, 3, 4) for t in _promise(n)]
    random.Random(1307).shuffle(tables)
    # 12,872 n=4 tables: the n=4 rows run as several stacks.
    assert len(stacks([1 << t.n for t in tables])) > 4
    _check(tables)


def test_a_stack_cut_at_the_amplitude_limit():
    n, rng = 8, random.Random(1375)
    per_stack = MAX_STACK_AMPLITUDES >> n
    ones = TruthTable(n, (1,) * (1 << n))
    tables = [ones if k % 7 == 1 else _balanced(n, rng) for k in range(per_stack + 2)]
    assert list(map(len, stacks([1 << n] * len(tables)))) == [per_stack, 2]
    _check(tables)


def test_a_wide_table_alone():
    n, rng = 16, np.random.default_rng(1316)
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[rng.permutation(1 << n)[: 1 << (n - 1)]] = 1
    t = TruthTable(n, bits.tobytes())
    _check([t])
    # Past the dense sizes: amplitude a is sum_x (-1)^(f(x) + a.x) / 2^n by bit tests.
    out = run_tables([t], Mode.REFINED)[0]
    assert abs(out.zero_amplitude - zero_amplitude_formula(t)) <= 1e-12
    x = np.arange(1 << n)
    for a in rng.integers(1, 1 << n, 3).tolist():
        dot = sum((x & a) >> j & 1 for j in range(n)) & 1
        want = ((1 << n) - 2 * np.count_nonzero(bits ^ dot)) / (1 << n)
        assert abs(out.final_amplitudes[a] - want) <= 1e-12, a


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_constant_one_tables_have_an_empty_gather(n):
    ones, zeros = TruthTable(n, (1,) * (1 << n)), TruthTable(n, (0,) * (1 << n))
    positions, masks = gate_masks(n, moebius_stack([ones, ones])[0])
    assert positions.size == masks.size == 0
    _check([ones, zeros, ones])
    for t, out in zip((ones, zeros), run_tables([ones, zeros], Mode.REFINED)):
        assert abs(out.zero_amplitude - zero_amplitude_formula(t)) <= 1e-12, t.text


def test_n1_tables():
    tables = [TruthTable(1, bits) for bits in ((0, 1), (1, 0), (0, 0), (1, 1), (1, 0))]
    _check(tables)
