"""`synthesize`, `Anf.render`, `emit_text` and `gate_counts` against bit-test references.

The first three read the per-n `boolfn.monomial_table`; the references in
oracles build their orders and text from explicit bit tests and sorts, and
never read the table.
"""

from __future__ import annotations

import random
from itertools import compress

import pytest

import oracles
from djphase import (
    Anf,
    Circuit,
    GateCounts,
    Hadamard,
    TruthTable,
    degree,
    emit_text,
    enumerate_balanced,
    gate_counts,
    moebius_transform,
    parse_text,
    synthesize,
)
from djphase.boolfn import mask_qubits, monomial_table


def anf_of(coeffs: bytes, n: int) -> Anf:
    a = Anf(n, oracles.monomials_by_bits(coeffs, n))
    assert a.coeffs == coeffs
    return a


def check(a: Anf, views: bool = False) -> None:
    n, coeffs = a.n, a.coeffs
    monos = oracles.monomials_by_bits(coeffs, n)
    qubits = dict(zip(compress(range(1 << n), coeffs), monos))
    c = synthesize(a)
    assert [qubits[op] for op in c.ops] == oracles.gate_order(monos)
    assert a.render() == oracles.render(monos)
    assert emit_text(c) == oracles.emit_text(n, c.ops)
    arity = [len(qubits[op]) for op in c.ops]
    assert gate_counts(c) == GateCounts(arity.count(1), arity.count(2), sum(k > 2 for k in arity))
    if views:  # Anf.terms, monomials, degree and Circuit.gates read the half tables
        assert list(a.terms()) == monos
        assert a.monomials == frozenset(map(frozenset, monos))
        assert degree(a) == max(map(len, monos), default=0)
        assert [g.qubits for g in c.gates] == [qubits[op] for op in c.ops]


def random_anf(n: int, dense: bool, rng: random.Random) -> Anf:
    if dense:
        return moebius_transform(TruthTable(n, bytes(rng.getrandbits(1) for _ in range(1 << n))))
    # A few high-degree monomials, a linear term and the constant.
    monos = [rng.sample(range(1, n + 1), rng.randint(max(n - 3, 1), n)) for _ in range(6)]
    return Anf(n, [*monos, [rng.randint(1, n)], []])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_coefficient_buffer(n):
    for value in range(1 << (1 << n)):
        a = anf_of(bytes(value >> i & 1 for i in range(1 << n)), n)
        check(a, views=True)


def test_one_qubit():
    # One mask in each order: a single-index gather must still give a sequence.
    assert list(monomial_table(1).gate_order) == [1]
    assert list(monomial_table(1).render_order) == [0, 1]
    a = Anf(1, [[1], []])
    assert synthesize(a) == Circuit(1, (1,))
    assert a.render() == "1 + x1"
    assert emit_text(synthesize(a)) == "qubits 1\nz 1\n"


def test_every_balanced_n4_table():
    tables = enumerate_balanced(4)
    assert len(tables) == 12870
    for t in tables:
        check(moebius_transform(t))


@pytest.mark.parametrize("n", range(5, 17))
def test_random_dense_and_sparse(n):
    rng = random.Random(1700 + n)
    for dense in (True, False):
        a = random_anf(n, dense, rng)
        check(a, views=True)


def test_alternating_n_in_one_process():
    # Each n reads its own table, whatever n came before.
    rng = random.Random(17)
    for n in (3, 16, 3, 5, 1, 16):
        check(random_anf(n, True, rng))
        check(random_anf(n, False, rng))
    assert monomial_table(16) is monomial_table(16)


@pytest.mark.parametrize("n", [1, 3, 6, 11])
def test_emit_text_with_hadamards_interleaved(n):
    rng = random.Random(n)
    masks = list(synthesize(random_anf(n, True, rng)).ops)
    ops = []
    for op in masks:
        ops += [Hadamard(rng.randint(1, n))] * rng.randint(0, 2) + [op]
    c = Circuit(n, [*ops, Hadamard(n)])
    assert emit_text(c) == oracles.emit_text(n, c.ops)
    assert parse_text(emit_text(c)) == c
    assert gate_counts(c).h == len(ops) + 1 - len(masks)


@pytest.mark.parametrize("n", [17, 24, 36])
def test_wide_sparse_circuits(n):
    # Past the dense cases' n = 16, where each half of a table has 2^(n/2) entries.
    rng = random.Random(1800 + n)
    split = n - n // 2  # the high half's last qubit
    qubits = [(1,), (split,), (split + 1,), (n,), (split, split + 1), tuple(range(1, n + 1))]
    qubits += [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, 5)))) for _ in range(40)]
    masks = [sum(1 << (n - j) for j in q) for q in qubits]
    ops = []
    for op in masks:
        ops += [Hadamard(rng.randint(1, n))] * rng.randint(0, 1) + [op]
    monomial_table.cache_clear()  # a fresh table, so text is read before any tuple is built
    try:
        c = Circuit(n, ops)
        assert emit_text(c) == oracles.emit_text(n, c.ops)
        assert parse_text(emit_text(c)) == c
        assert "qubits" not in vars(monomial_table(n))
        assert [oracles.mask_bits(m, n) for m in masks] == qubits
        assert list(mask_qubits(n, masks)) == qubits
        assert [g.qubits for g in c.gates if not isinstance(g, Hadamard)] == qubits
    finally:
        monomial_table.cache_clear()  # the n=36 halves hold 2^18 entries each
