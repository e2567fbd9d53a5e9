"""Truth tables, classification, and the ANF transform pair."""

from __future__ import annotations

import math
import random

import pytest

import oracles
from djphase import (
    Anf,
    FunctionClass,
    TruthTable,
    TruthTableError,
    all_truth_tables,
    anf_to_truth_table,
    canonical,
    classify,
    complement,
    degree,
    enumerate_balanced,
    moebius_transform,
    parse_truth_table,
)


class TestTruthTable:
    def test_parse(self):
        t = parse_truth_table("01010110")
        assert t.n == 3
        assert t.values == (0, 1, 0, 1, 0, 1, 1, 0)
        assert t.text == "01010110"
        assert t.weight == 4

    @pytest.mark.parametrize(
        "bad", ["", "0", "010", "0101x110", "00102011", "0\uff1101", "0\udcff"]
    )
    def test_rejects_malformed_strings(self, bad):
        with pytest.raises(TruthTableError):
            parse_truth_table(bad)

    def test_rejects_bad_lengths_and_entries(self):
        with pytest.raises(TruthTableError):
            TruthTable.from_values([0, 1, 0])
        with pytest.raises(TruthTableError):
            TruthTable(2, (0, 1))
        with pytest.raises(TruthTableError):
            TruthTable(1, (0, 2))
        with pytest.raises(TruthTableError):
            TruthTable(0, ())


class TestEncoding:
    def test_every_construction_route_gives_one_table(self):
        entries = (0, 1, 1, 0, 1, 0, 0, 1)
        routes = [
            parse_truth_table("01101001"),
            TruthTable(3, entries),
            TruthTable.from_values(list(entries)),
            TruthTable.from_values(v for v in entries),
            TruthTable.from_values(bytes(entries)),
            TruthTable.from_values(bytearray(entries)),
            list(all_truth_tables(3))[0b01101001],
        ]
        for t in routes:
            assert type(t.bits) is bytes
            assert t == routes[0]
            assert hash(t) == hash(routes[0])
            assert t.values == entries

    def test_values_is_a_tuple_of_ints(self):
        for n in (1, 2, 3):
            for t in all_truth_tables(n):
                assert t.values == tuple(int(ch) for ch in t.text)
                assert all(type(v) is int for v in t.values)

    def test_bool_and_float_entries_accepted(self):
        assert TruthTable(2, (0, True, 1.0, False)) == parse_truth_table("0110")
        assert TruthTable.from_values([0.0, True]) == parse_truth_table("01")

    @pytest.mark.parametrize("bad", [2, -1, 1.5, 256])
    def test_rejects_entries_other_than_0_and_1(self, bad):
        with pytest.raises(TruthTableError):
            TruthTable(1, (0, bad))
        with pytest.raises(TruthTableError):
            TruthTable.from_values([0, bad])

    def test_bytes_entries_other_than_0_and_1_rejected(self):
        with pytest.raises(TruthTableError):
            TruthTable(1, b"01")
        with pytest.raises(TruthTableError):
            TruthTable(1, b"\0\2")

    def test_bytearray_is_copied(self):
        entries = bytearray([0, 1])
        t = TruthTable(1, entries)
        entries[0] = 1
        assert t.text == "01"
        assert t == parse_truth_table("01")


class TestClassify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("00000000", FunctionClass.CONSTANT0),
            ("11111111", FunctionClass.CONSTANT1),
            ("01010110", FunctionClass.BALANCED),
            ("00001111", FunctionClass.BALANCED),
            ("01010111", FunctionClass.OTHER),
            ("10000000", FunctionClass.OTHER),
            ("0000", FunctionClass.CONSTANT0),
            ("0110", FunctionClass.BALANCED),
            ("01", FunctionClass.BALANCED),
        ],
    )
    def test_examples(self, text, expected):
        assert classify(parse_truth_table(text)) == expected


class TestMoebius:
    @pytest.mark.parametrize(
        "text,monomials",
        [
            ("00000000", set()),
            ("11111111", {frozenset()}),
            ("00001111", {frozenset({1})}),
            ("01010101", {frozenset({3})}),
            ("01010110", {frozenset({3}), frozenset({1, 2})}),
            ("00010111", {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}),
            ("00000001", {frozenset({1, 2, 3})}),
            ("11110000", {frozenset(), frozenset({1})}),
            ("01101001", {frozenset({1}), frozenset({2}), frozenset({3})}),
        ],
    )
    def test_known_transforms(self, text, monomials):
        assert moebius_transform(parse_truth_table(text)).monomials == frozenset(monomials)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_involution_exhaustive(self, n):
        for t in all_truth_tables(n):
            assert anf_to_truth_table(moebius_transform(t)) == t

    def test_matches_subset_sum_rule_exhaustive(self):
        for n in (2, 3):
            for t in all_truth_tables(n):
                assert moebius_transform(t).monomials == oracles.moebius_bruteforce(t.values, n)

    def test_anf_evaluates_back_to_table(self):
        for t in all_truth_tables(3):
            monos = moebius_transform(t).monomials
            for x in range(8):
                assert oracles.eval_monomials(monos, x, 3) == t.values[x]

    def test_randomized_n4(self):
        rng = random.Random(20260817)
        for _ in range(150):
            t = TruthTable(4, tuple(rng.randrange(2) for _ in range(16)))
            a = moebius_transform(t)
            assert a.monomials == oracles.moebius_bruteforce(t.values, 4)
            assert anf_to_truth_table(a) == t

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_randomized_beyond_n4(self, n):
        rng = random.Random(20261018 + n)
        for _ in range(4):
            t = TruthTable.from_values(rng.randrange(2) for _ in range(1 << n))
            a = moebius_transform(t)
            assert a.monomials == oracles.moebius_bruteforce(t.values, n)
            assert anf_to_truth_table(a) == t

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError, match="qubit count must be at least 1, got 0"):
            Anf(0, ())

    def test_rejects_out_of_range_monomial(self):
        with pytest.raises(ValueError):
            Anf(2, frozenset({frozenset({3})}))
        with pytest.raises(ValueError, match="outside qubits 1..2"):
            Anf(2, [(1.5,)])

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("00000000", 0),
            ("11111111", 0),
            ("00001111", 1),
            ("01010110", 2),
            ("00000001", 3),
        ],
    )
    def test_degree(self, text, expected):
        assert degree(moebius_transform(parse_truth_table(text))) == expected

    def test_render(self):
        assert moebius_transform(parse_truth_table("00000000")).render() == "0"
        assert moebius_transform(parse_truth_table("11111111")).render() == "1"
        assert moebius_transform(parse_truth_table("01010110")).render() == "x3 + x1*x2"
        assert moebius_transform(parse_truth_table("11110000")).render() == "1 + x1"


class TestComplementCanonical:
    def test_complement_is_involution(self):
        for t in all_truth_tables(2):
            assert complement(complement(t)) == t

    def test_canonical_pins_first_entry(self):
        for t in all_truth_tables(3):
            rep = canonical(t)
            assert rep.values[0] == 0
            assert canonical(complement(t)) == rep


class TestEnumeration:
    def test_balanced_counts(self):
        assert len(enumerate_balanced(2)) == 6
        assert len(enumerate_balanced(3)) == 70
        assert len(enumerate_balanced(4)) == math.comb(16, 8)

    def test_balanced_weights_and_order(self):
        tables = enumerate_balanced(3)
        assert all(t.weight == 4 for t in tables)
        texts = [t.text for t in tables]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)

    @pytest.mark.parametrize("n", [1, 5])
    def test_balanced_range_guard(self, n):
        with pytest.raises(ValueError):
            enumerate_balanced(n)

    def test_all_truth_tables(self):
        tables = list(all_truth_tables(2))
        assert len(tables) == 16
        assert len({t.values for t in tables}) == 16
        assert tables[0].text == "0000"
        assert tables[-1].text == "1111"
