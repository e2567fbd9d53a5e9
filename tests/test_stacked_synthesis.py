"""Stacked synthesis against the independent references in oracles.

`moebius_transforms`, `synthesis_reports`, `anf_texts` and `circuit_texts`
take mixed-n lists and work one (B, 2^n) stack per n.  Every check here
reads `oracles`: the subset-sum ANF, sorted qubit tuples, popcounts by bit
test and per-line text, none of which shares code with the stacked path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import djphase.boolfn
import oracles
from djphase import (
    Anf,
    Circuit,
    GateCounts,
    Hadamard,
    TruthTable,
    all_truth_tables,
    anf_texts,
    canonical_balanced,
    circuit_texts,
    moebius_transform,
    moebius_transforms,
    synthesis_reports,
)


def random_table(n: int, rng: random.Random) -> TruthTable:
    return TruthTable(n, bytes(rng.getrandbits(1) for _ in range(1 << n)))


def mask_of(qubits, n: int) -> int:
    return sum(1 << (n - j) for j in qubits)


def counting_butterfly(monkeypatch) -> list[tuple[int, int]]:
    """Record (n, bytes) of every _butterfly call, which still runs the real one."""
    calls = []
    real = djphase.boolfn._butterfly

    def counted(bits, n):
        calls.append((n, len(bits)))
        return real(bits, n)

    monkeypatch.setattr(djphase.boolfn, "_butterfly", counted)
    return calls


class TestMoebiusTransforms:
    def test_mixed_n_stack_against_subset_sum(self, monkeypatch):
        rng = random.Random(2401)
        ns = [*range(1, 9), *range(1, 9), *range(1, 9), 9, 10]
        rng.shuffle(ns)
        tables = [random_table(n, rng) for n in ns]
        calls = counting_butterfly(monkeypatch)
        anfs = moebius_transforms(tables)
        # One butterfly per n, over all that n's tables joined, in first-seen order.
        assert calls == [(n, ns.count(n) << n) for n in dict.fromkeys(ns)]
        assert [a.n for a in anfs] == ns
        for t, a in zip(tables, anfs):
            assert a.monomials == oracles.moebius_bruteforce(t.values, t.n), t.text

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacks_of_every_size_up_to_nine(self, n):
        # Below n = 3 a packed byte holds several tables, and a stack need not fill its
        # last byte.
        rng = random.Random(2405 + n)
        for size in range(1, 10):
            tables = [random_table(n, rng) for _ in range(size)]
            for t, a in zip(tables, moebius_transforms(tables)):
                assert a.monomials == oracles.moebius_bruteforce(t.values, n), (size, t.text)

    def test_all_n4_tables_as_one_butterfly_call(self):
        tables = list(all_truth_tables(4))
        bits = np.frombuffer(b"".join(t.bits for t in tables), np.uint8).reshape(-1, 16)
        coeffs = djphase.boolfn._butterfly(bits.tobytes(), 4)
        got = np.frombuffer(coeffs, np.uint8).reshape(-1, 16)
        # The subset-sum rule is linear over GF(2): table f's coefficients are the XOR
        # of those of its unit tables, each taken from the reference.
        units = np.zeros((16, 16), np.uint8)
        for x in range(16):
            for mono in oracles.moebius_bruteforce([int(i == x) for i in range(16)], 4):
                units[x, mask_of(mono, 4)] = 1
        assert np.array_equal(got, (bits @ units) & 1)
        # And a sample straight from the reference, without the linearity.
        for i in random.Random(4).sample(range(len(tables)), 200):
            want = {mask_of(m, 4) for m in oracles.moebius_bruteforce(tables[i].values, 4)}
            assert set(np.flatnonzero(got[i]).tolist()) == want, tables[i].text

    def test_empty_stack_and_stack_of_one(self, monkeypatch):
        calls = counting_butterfly(monkeypatch)
        assert moebius_transforms([]) == []
        assert calls == []
        t = TruthTable.from_values([0, 1, 1, 1, 0, 0, 1, 0])
        (a,) = moebius_transforms([t])
        assert calls == [(3, 8)]
        assert (a.n, a.monomials) == (3, oracles.moebius_bruteforce(t.values, 3))
        assert moebius_transform(t).monomials == a.monomials


def check_reports(tables, reports, sampled_from: int = 9) -> None:
    """Each report's fields against the references; ANFs above n = 8 at 64 inputs."""
    assert len(reports) == len(tables)
    rng = random.Random(len(tables))
    for t, r in zip(tables, reports):
        n = t.n
        assert r.truth_table is t and r.anf.n == r.circuit.n == n
        monos = oracles.monomials_by_bits(r.anf.coeffs, n)
        if n < sampled_from:
            assert set(map(frozenset, monos)) == oracles.moebius_bruteforce(t.values, n)
        else:
            for x in rng.sample(range(1 << n), 64):
                assert oracles.eval_monomials(monos, x, n) == t.bits[x], (n, x)
        order = oracles.gate_order(monos)
        assert [oracles.mask_bits(op, n) for op in r.circuit.ops] == order
        popcounts = [bin(op).count("1") for op in r.circuit.ops]
        assert r.counts == GateCounts(
            popcounts.count(1), popcounts.count(2), sum(k > 2 for k in popcounts), 0
        )
        assert r.dropped_global_sign == (r.anf.coeffs[0] == 1)
        if n == 3 and t.weight == 4:
            assert int(r.construction_type) == 1 + sum(len(q) == 2 for q in order), t.text
        else:
            assert r.construction_type is None


class TestSynthesisReports:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_canonical_table(self, n):
        tables = canonical_balanced(n)
        check_reports(tables, synthesis_reports(tables))

    def test_seeded_mixed_n_lists(self, monkeypatch):
        rng = random.Random(2402)
        ns = [rng.randint(1, 12) for _ in range(60)]
        # Constant and balanced n=3 tables among them, the latter typed.
        tables = [random_table(n, rng) for n in ns]
        tables += [TruthTable(3, bytes(8)), TruthTable(3, b"\1" * 8), *canonical_balanced(3)[:5]]
        rng.shuffle(tables)
        calls = counting_butterfly(monkeypatch)
        reports = synthesis_reports(tables)
        assert len(calls) == len({t.n for t in tables})
        check_reports(tables, reports)

    def test_empty_list(self):
        assert synthesis_reports([]) == []


def sparse_circuit(n: int, rng: random.Random) -> Circuit:
    """A few gates on random qubit sets, with Hadamards interleaved."""
    ops = []
    for _ in range(rng.randint(0, 6)):
        ops += [Hadamard(rng.randint(1, n))] * rng.randint(0, 1)
        ops.append(mask_of(rng.sample(range(1, n + 1), rng.randint(1, min(n, 5))), n))
    return Circuit(n, ops)


class TestStackedTexts:
    def test_circuit_texts_of_a_mixed_n_list(self):
        rng = random.Random(2403)
        ns = [1, 3, 6, 11, 17, 24, 36, 3, 17, 1, 6]
        circuits = [sparse_circuit(n, rng) for n in ns]
        circuits += [Circuit(5, ()), Circuit(2, (Hadamard(2),))]
        circuits += [r.circuit for r in synthesis_reports(canonical_balanced(3)[:4])]
        rng.shuffle(circuits)
        djphase.boolfn.monomial_table.cache_clear()
        try:
            assert circuit_texts(circuits) == [oracles.emit_text(c.n, c.ops) for c in circuits]
        finally:
            djphase.boolfn.monomial_table.cache_clear()  # the n=36 halves hold 2^18 entries
        assert circuit_texts([]) == []

    def test_anf_texts_of_a_mixed_n_list(self):
        rng = random.Random(2404)
        anfs = [moebius_transform(random_table(n, rng)) for n in (1, 2, 3, 5, 8, 3, 1)]
        # Sparse wide ones, the zero function and the constant 1.
        anfs += [Anf(17, [[1, 17], [2, 3, 9], [], [17]]), Anf(12, [[4]]), Anf(4, []), Anf(2, [[]])]
        rng.shuffle(anfs)
        want = [oracles.render(oracles.monomials_by_bits(a.coeffs, a.n)) for a in anfs]
        assert anf_texts(anfs) == want
        assert "0" in want and "1" in want
        assert anf_texts([]) == []
