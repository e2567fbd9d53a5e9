"""Gate types, synthesis, construction typing, and the circuit text format."""

from __future__ import annotations

import copy
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

import oracles
from djphase import (
    Anf,
    Circuit,
    CircuitParseError,
    ConstructionType,
    ControlledPhase,
    Hadamard,
    MultiControlledZ,
    PhaseFlip,
    TruthTable,
    all_truth_tables,
    classify_construction,
    emit_text,
    gate_counts,
    moebius_transform,
    parse_text,
    parse_truth_table,
    synthesis_report,
    synthesize,
)
from djphase.boolfn import monomial_table

# Canonical balanced n=3 functions with linear ANF; their oracles need no
# controlled gates.
TYPE1_TABLES = (
    "00001111",
    "00110011",
    "01010101",
    "00111100",
    "01011010",
    "01100110",
    "01101001",
)


class TestGateTypes:
    def test_controlled_phase_normalizes_order(self):
        assert ControlledPhase(3, 1) == ControlledPhase(1, 3)
        assert ControlledPhase(3, 1).qubits == (1, 3)

    def test_controlled_phase_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ControlledPhase(2, 2)

    def test_multi_controlled_z_sorts_and_validates(self):
        g = MultiControlledZ((3, 1, 2))
        assert g.controls == (1, 2, 3)
        assert g.mnemonic == "ccz"
        assert MultiControlledZ((4, 2, 3, 1)).mnemonic == "cccz"
        with pytest.raises(ValueError):
            MultiControlledZ((1, 2))
        with pytest.raises(ValueError):
            MultiControlledZ((1, 2, 2))

    def test_index_lower_bounds(self):
        with pytest.raises(ValueError):
            PhaseFlip(0)
        with pytest.raises(ValueError):
            Hadamard(-1)
        with pytest.raises(ValueError):
            ControlledPhase(0, 1)

    def test_numpy_int_qubits_are_stored_as_ints(self):
        i64, i32 = np.int64, np.int32
        gates = (ControlledPhase(i64(1), i64(2)), Hadamard(i64(3)), PhaseFlip(i32(3)))
        c = Circuit(3, gates + (MultiControlledZ((i64(3), i32(1), 2)), Hadamard(True)))
        assert [type(op) for op in c.ops] == [int, Hadamard, int, int, Hadamard]
        assert all(type(q) is int for g in c.gates for q in g.qubits)
        assert gate_counts(c) == gate_counts(Circuit(3, [6, Hadamard(3), 1, 7, Hadamard(1)]))
        assert gate_counts(c).as_dict() == {"z": 1, "cz": 1, "mcz": 1, "h": 2}
        text = emit_text(c)
        assert text == "qubits 3\ncz 1 2\nh 3\nz 3\nccz 1 2 3\nh 1\n"
        assert parse_text(text) == c
        assert Anf(3, [[i64(1), i32(2)]]).coeffs == Anf(3, [[1, 2]]).coeffs

    @pytest.mark.parametrize("qubit", [1.0, 1.5, "1", None])
    def test_non_integer_qubits_raise_when_built(self, qubit):
        for build in (
            lambda: PhaseFlip(qubit),
            lambda: ControlledPhase(2, qubit),
            lambda: MultiControlledZ((2, 3, qubit)),
            lambda: Hadamard(qubit),
        ):
            with pytest.raises(TypeError):
                build()
        # Anf names a qubit outside 1..n first; 1.0 is inside, and raises at the mask.
        with pytest.raises(TypeError if qubit == 1.0 else ValueError):
            Anf(3, [[qubit]])

    def test_circuit_rejects_zero_qubits(self):
        with pytest.raises(ValueError, match="qubit count must be at least 1, got 0"):
            Circuit(0, ())

    def test_circuit_rejects_out_of_range_gate(self):
        with pytest.raises(ValueError):
            Circuit(2, (PhaseFlip(3),))

    @pytest.mark.parametrize(
        "op",
        [0, 1 << 3, -1, True, 2.0, "z 1", PhaseFlip(4), MultiControlledZ((1, 2, 4)), Hadamard(4)],
    )
    def test_circuit_rejects_bad_op(self, op):
        # Only ValueError: an AttributeError would mean a mask was read as a gate.
        with pytest.raises(ValueError):
            Circuit(3, (PhaseFlip(1), op))


# One synthesized circuit per kind of content, and mixed circuits with Hadamards.
CIRCUITS = [
    synthesize(moebius_transform(parse_truth_table(text)))
    for text in ("00000000", "01010110", "0000111100011111", "0110100110010111")
] + [
    Circuit(3, (Hadamard(2), PhaseFlip(3), ControlledPhase(1, 2), Hadamard(2))),
    Circuit(4, (PhaseFlip(4), Hadamard(1), MultiControlledZ((1, 3, 4)), PhaseFlip(4))),
]


class TestCircuit:
    @pytest.mark.parametrize("c", CIRCUITS)
    def test_gates_and_ops_rebuild_the_circuit(self, c):
        for ops in (c.gates, c.ops, list(c.ops)):
            rebuilt = Circuit(c.n, ops)
            assert rebuilt == c
            assert hash(rebuilt) == hash(c)
            assert rebuilt.ops == c.ops

    @pytest.mark.parametrize("c", CIRCUITS)
    def test_ops_are_masks_and_hadamards(self, c):
        for op, gate in zip(c.ops, c.gates, strict=True):
            if isinstance(gate, Hadamard):
                assert op is gate
            else:
                # Bit n-q of the mask is set exactly for the gate's qubits q.
                assert type(op) is int
                assert op == sum(2 ** (c.n - q) for q in gate.qubits)

    @pytest.mark.parametrize("c", CIRCUITS)
    def test_pickle_and_deepcopy(self, c):
        for clone in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
            assert clone == c
            assert hash(clone) == hash(c)
            assert clone.gates == c.gates
            assert emit_text(clone) == emit_text(c)

    def test_gates_view_is_rebuilt_not_stored(self):
        c = CIRCUITS[-1]
        assert c.gates == c.gates and c.gates is not c.gates
        with pytest.raises(AttributeError):
            c.gates = ()


class TestSynthesize:
    @pytest.mark.parametrize(
        "text,gates",
        [
            ("00000000", ()),
            ("11111111", ()),
            ("00001111", (PhaseFlip(1),)),
            ("11110000", (PhaseFlip(1),)),
            ("01010110", (PhaseFlip(3), ControlledPhase(1, 2))),
            (
                "00010111",
                (ControlledPhase(1, 2), ControlledPhase(1, 3), ControlledPhase(2, 3)),
            ),
            ("01101001", (PhaseFlip(1), PhaseFlip(2), PhaseFlip(3))),
            ("00000001", (MultiControlledZ((1, 2, 3)),)),
            (
                "0000111100011111",
                (PhaseFlip(2), MultiControlledZ((1, 2, 3, 4)), MultiControlledZ((1, 3, 4))),
            ),
            (
                # x1x2x3 + x1x2x4 + x1x2x3x4: (1, 2, 3) sorts before (1, 2, 3, 4)
                # although its coefficient index is smaller.
                "".join(
                    str(oracles.eval_monomials([(1, 2, 3), (1, 2, 4), (1, 2, 3, 4)], x, 4))
                    for x in range(16)
                ),
                (
                    MultiControlledZ((1, 2, 3)),
                    MultiControlledZ((1, 2, 3, 4)),
                    MultiControlledZ((1, 2, 4)),
                ),
            ),
        ],
    )
    def test_known_circuits(self, text, gates):
        t = parse_truth_table(text)
        assert synthesize(moebius_transform(t)) == Circuit(t.n, gates)

    def test_gate_order_is_flips_then_cz_then_mcz(self):
        a = Anf(
            4,
            frozenset(
                {
                    frozenset({4}),
                    frozenset({2, 3}),
                    frozenset({1, 2}),
                    frozenset({1, 2, 3}),
                }
            ),
        )
        gates = synthesize(a).gates
        assert [g.mnemonic for g in gates] == ["z", "cz", "cz", "ccz"]
        assert gates[1] == ControlledPhase(1, 2)
        assert gates[2] == ControlledPhase(2, 3)

    def test_diagonal_matches_signs_exhaustive(self):
        # Independent check: dense circuit matrix vs (-1)^f, allowing the
        # dropped constant-term sign.
        for t in all_truth_tables(3):
            anf = moebius_transform(t)
            circuit = synthesize(anf)
            m = oracles.circuit_matrix(3, circuit.gates)
            target = np.array([(-1.0) ** v for v in t.values], dtype=complex)
            sign = -1.0 if anf.has_constant_term else 1.0
            assert np.allclose(m, np.diag(sign * target), atol=1e-12)

    def test_randomized_n4(self):
        rng = random.Random(99)
        for _ in range(40):
            t = TruthTable(4, tuple(rng.randrange(2) for _ in range(16)))
            anf = moebius_transform(t)
            circuit = synthesize(anf)
            m = oracles.circuit_matrix(4, circuit.gates)
            target = np.array([(-1.0) ** v for v in t.values], dtype=complex)
            sign = -1.0 if anf.has_constant_term else 1.0
            assert np.allclose(m, np.diag(sign * target), atol=1e-12)


class TestConstructionType:
    @pytest.mark.parametrize("text", TYPE1_TABLES)
    def test_linear_tables_are_type1(self, text):
        c = synthesize(moebius_transform(parse_truth_table(text)))
        assert classify_construction(c) == ConstructionType.TYPE1

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("01010110", ConstructionType.TYPE2),
            ("00011011", ConstructionType.TYPE3),
            ("00010111", ConstructionType.TYPE4),
        ],
    )
    def test_examples(self, text, expected):
        c = synthesize(moebius_transform(parse_truth_table(text)))
        assert classify_construction(c) == expected

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            classify_construction(Circuit(2, (PhaseFlip(1),)))
        with pytest.raises(ValueError):
            classify_construction(Circuit(3, (MultiControlledZ((1, 2, 3)),)))
        with pytest.raises(ValueError):
            classify_construction(Circuit(3, (Hadamard(1),)))

    def test_report_fields(self):
        r = synthesis_report(parse_truth_table("01010110"))
        assert r.construction_type == ConstructionType.TYPE2
        assert r.counts.as_dict() == {"z": 1, "cz": 1, "mcz": 0, "h": 0}
        assert not r.dropped_global_sign

        r = synthesis_report(parse_truth_table("11110000"))
        assert r.construction_type == ConstructionType.TYPE1
        assert r.dropped_global_sign

        # No type outside balanced n=3.
        assert synthesis_report(parse_truth_table("00000000")).construction_type is None
        assert synthesis_report(parse_truth_table("0110")).construction_type is None
        assert synthesis_report(parse_truth_table("01010111")).construction_type is None

    def test_gate_counts_total(self):
        c = Circuit(3, (PhaseFlip(1), ControlledPhase(1, 2), Hadamard(3)))
        counts = gate_counts(c)
        assert counts.total == 3
        assert counts.h == 1


class TestTextFormat:
    def test_emit_exact(self):
        c = synthesize(moebius_transform(parse_truth_table("01010110")))
        assert emit_text(c) == "qubits 3\nz 3\ncz 1 2\n"

    def test_emit_empty_circuit(self):
        assert emit_text(Circuit(3, ())) == "qubits 3\n"

    def test_roundtrip_synthesized_exhaustive(self):
        for t in all_truth_tables(3):
            c = synthesize(moebius_transform(t))
            assert parse_text(emit_text(c)) == c

    def test_roundtrip_mixed_gates(self):
        c = Circuit(
            4,
            (Hadamard(2), PhaseFlip(4), ControlledPhase(2, 3), MultiControlledZ((1, 3, 4))),
        )
        assert parse_text(emit_text(c)) == c

    def test_parse_tolerates_comments_and_blanks(self):
        text = "# oracle\nqubits 3\n\nz 3  # flip\n  cz 1 2\n"
        assert parse_text(text) == Circuit(3, (PhaseFlip(3), ControlledPhase(1, 2)))

    def test_parse_normalizes_cz_order(self):
        assert parse_text("qubits 3\ncz 3 1\n") == Circuit(3, (ControlledPhase(1, 3),))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "z 1\n",
            "qubits\n",
            "qubits 3\nqubits 3\n",
            "qubits 0\n",
            "qubits 3\nz\n",
            "qubits 3\nz 1 2\n",
            "qubits 3\nz 4\n",
            "qubits 3\ncz 1\n",
            "qubits 3\ncz 2 2\n",
            "qubits 3\nccz 1 2\n",
            "qubits 3\nccz 1 2 2\n",
            "qubits 3\nrx 1\n",
            "qubits 3\nczz 1 2 3\n",
            "qubits 3\nz one\n",
            "qubits x\n",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(CircuitParseError):
            parse_text(text)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(CircuitParseError, match="line 3"):
            parse_text("qubits 3\nz 1\nbogus 2\n")


class TestPhaseGateCopies:
    @pytest.mark.parametrize(
        "gate",
        [
            PhaseFlip(2),
            ControlledPhase(3, 1),
            MultiControlledZ((1, 2, 3)),
            MultiControlledZ((4, 1, 3, 2)),
        ],
        ids=["z", "cz", "ccz", "cccz"],
    )
    def test_pickle_and_deepcopy_round_trip(self, gate):
        for copied in (pickle.loads(pickle.dumps(gate)), copy.deepcopy(gate)):
            assert copied == gate
            assert type(copied) is type(gate)
            assert copied.mnemonic == gate.mnemonic


def test_classify_construction_rejects_four_controlled_phases():
    with pytest.raises(ValueError, match="unexpected controlled-phase count 4"):
        classify_construction(Circuit(3, (6, 6, 5, 3)))


class TestMaskOnlyCircuit:
    # A circuit of masks alone takes the bulk check; it must reject what the per-op
    # check rejects, and store the masks as given.
    @pytest.mark.parametrize("op", [0, 1 << 3, -1, True, False, 2.0, "z 1"])
    def test_rejects_bad_op(self, op):
        with pytest.raises(ValueError, match="neither a gate nor a mask on qubits 1..3"):
            Circuit(3, (1, 7, op))

    @pytest.mark.parametrize("ops", [(), (1,), (7, 1, 4, 4), [3, 5, 6]])
    def test_stores_masks_as_given(self, ops):
        c = Circuit(3, ops)
        assert c.ops == tuple(ops)
        assert all(type(op) is int for op in c.ops)
        assert c == Circuit(3, c.gates)

    def test_names_the_first_bad_mask(self):
        with pytest.raises(ValueError, match=r"^9 is neither"):
            Circuit(3, (1, 9, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 63, 64, 65, 200])
    def test_mask_bound_is_n_bits(self, n):
        top = (1 << n) - 1  # every qubit
        assert Circuit(n, (1, top)).ops == (1, top)
        for ops in [(1 << n,), (1, 1 << n), (top + (1 << n),)]:
            with pytest.raises(ValueError, match=f"^{ops[-1]} is neither"):
                Circuit(n, ops)


class TestParseText:
    # parse_text reads a line through the header's qubit lookup when it can; every line
    # must still parse, or fail, exactly as `oracles.parse_text_reference` reads it.

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty circuit text: missing 'qubits <n>' header"),
            ("z 1\n", "line 1: expected 'qubits <n>' header first"),
            ("qubits\n", "line 1: 'qubits' takes exactly one count"),
            ("qubits 3\nqubits 3\n", "line 2: duplicate 'qubits' header"),
            ("qubits 0\n", "line 1: qubit count must be >= 1, got 0"),
            ("qubits 3\nz\n", "line 2: 'z' takes 1 distinct qubit(s)"),
            ("qubits 3\nz 1 2\n", "line 2: 'z' takes 1 distinct qubit(s)"),
            ("qubits 3\nz 4\n", "line 2: qubit index outside 1..3"),
            ("qubits 3\ncz 1\n", "line 2: 'cz' takes 2 distinct qubit(s)"),
            ("qubits 3\ncz 2 2\n", "line 2: 'cz' takes 2 distinct qubit(s)"),
            ("qubits 3\nccz 1 2\n", "line 2: 'ccz' takes 3 distinct qubit(s)"),
            ("qubits 3\nccz 1 2 2\n", "line 2: 'ccz' takes 3 distinct qubit(s)"),
            ("qubits 3\nrx 1\n", "line 2: unknown gate 'rx'"),
            ("qubits 3\nczz 1 2 3\n", "line 2: unknown gate 'czz'"),
            ("qubits 3\nz one\n", "line 2: expected qubit index, got 'one'"),
            ("qubits x\n", "line 1: expected qubit index, got 'x'"),
        ],
    )
    def test_rejection_messages(self, text, message):
        for parse in (parse_text, oracles.parse_text_reference):
            with pytest.raises(CircuitParseError) as exc:
                parse(text)
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text,ops",
        [
            ("qubits 3\nz 01\n", (PhaseFlip(1),)),
            ("qubits 3\nz +1\n", (PhaseFlip(1),)),
            ("qubits 3\nz ١\n", (PhaseFlip(1),)),  # ARABIC-INDIC DIGIT ONE
            ("qubits 3\nh 2\n", (Hadamard(2),)),
            ("qubits +3\nz 1\n", (PhaseFlip(1),)),
            ("qubits 3\nz 1#x\n", (PhaseFlip(1),)),
            ("qubits 3\ncz 3 1\n", (ControlledPhase(1, 3),)),
        ],
    )
    def test_odd_forms_stay_accepted(self, text, ops):
        assert parse_text(text) == oracles.parse_text_reference(text) == Circuit(3, ops)

    @staticmethod
    def _corrupt(rng: random.Random, lines: list[str], n: int) -> str:
        """Apply one to three random corruptions to a circuit's lines, then join them."""
        lines = list(lines)
        gates = [i for i, line in enumerate(lines) if i and line.split()]
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(12)
            i = rng.choice(gates) if gates else 0
            kw, *args = lines[i].split() or ["z"]
            if kind == 0 and args:  # drop a qubit
                args.pop(rng.randrange(len(args)))
            elif kind == 1 and args:  # repeat a qubit, in place or added
                j = rng.randrange(len(args))
                args[rng.randrange(len(args))] = args[j]
                if rng.random() < 0.5:
                    args.append(args[j])
            elif kind == 2 and args:  # a qubit out of range, or not canonical
                token = rng.choice(["0", "-1", str(n + 1), str(n + 64), "01", "+1", "x"])
                args[rng.randrange(len(args))] = token
            elif kind == 3:  # an unknown or an arity-mismatched keyword
                kw = rng.choice(["rx", "czz", "x", "cx", "CZ", "h", "z", "cz", "ccz", "cccz"])
            elif kind == 4:  # a '#' tail
                args.append(rng.choice(["#", "# note", "#z 1", "#qubits 2"]))
            elif kind == 5:  # a blank or whitespace-only line
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "\t", "#"]))
                continue
            elif kind == 6:  # a duplicate header
                lines.insert(rng.randrange(1, len(lines) + 1), f"qubits {n}")
                continue
            elif kind == 7:  # a missing header
                lines = lines[1:] or [""]
                gates = [i - 1 for i in gates if i > 1]
                continue
            elif kind == 8:  # a header with another count
                lines[0] = f"qubits {rng.choice([0, 1, n - 1, n + 1, 70])}"
                continue
            if kind == 9:  # tabs between the tokens
                lines[i] = "\t".join([kw, *args])
            elif kind == 10:  # a form feed, which also ends a line
                lines[i] = " ".join([kw, *args]).replace(" ", "\x0c", 1)
            else:  # the line as changed above, or as it was
                lines[i] = " ".join([kw, *args])
        return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\r\n"])

    def test_corrupted_text_matches_the_reference(self):
        rng = random.Random(2024)
        tables = [TruthTable(n, tuple(rng.choices((0, 1), k=1 << n))) for n in [*range(1, 9)] * 4]
        circuits = [synthesize(moebius_transform(t)) for t in tables]
        circuits += CIRCUITS
        for n in range(1, 9):  # mixed circuits with Hadamards
            ops = [Hadamard(rng.randint(1, n)) if rng.random() < 0.4 else rng.randrange(1, 1 << n)
                   for _ in range(9)]
            circuits.append(Circuit(n, ops))
        rejected = 0
        for c in circuits:
            lines = oracles.emit_text(c.n, c.ops).splitlines()
            assert parse_text(emit_text(c)) == oracles.parse_text_reference(emit_text(c)) == c
            for _ in range(60):
                text = self._corrupt(rng, lines, c.n)
                try:
                    expected = oracles.parse_text_reference(text)
                except CircuitParseError as exc:
                    rejected += 1
                    with pytest.raises(CircuitParseError) as got:
                        parse_text(text)
                    assert str(got.value) == str(exc), text
                else:
                    got = parse_text(text)
                    assert got == expected, text
                    assert list(map(type, got.ops)) == list(map(type, expected.ops))
        # Both outcomes occur often enough to mean something.
        assert 0.2 < rejected / (60 * len(circuits)) < 0.9

    @pytest.mark.parametrize("n", [17, 20, 24, 36, 64, 65, 100])
    def test_wide_sparse_circuits(self, n):
        rng = random.Random(n)
        masks = [rng.randrange(1, 1 << n) for _ in range(40)]
        masks += [sum(1 << b for b in rng.sample(range(n), k)) for k in (1, 1, 2, 2, 3, 4)]
        text = oracles.emit_text(n, masks)
        before = monomial_table.cache_info()
        c = parse_text(text)
        assert monomial_table.cache_info() == before  # no table is built, or even read
        assert c == Circuit(n, masks)

    def test_huge_qubit_count(self):
        # The header's lookup covers a bounded range of qubits, whatever the count says.
        n = 10**6
        text = f"qubits {n}\nz {n}\ncz {n - 1} {n}\nz 1\nccz 1 2 {n}\nz {n + 1}\n"
        for parse in (parse_text, oracles.parse_text_reference):
            with pytest.raises(CircuitParseError, match=f"^line 6: qubit index outside 1..{n}$"):
                parse(text)
        good = text.rsplit("z", 1)[0]
        masks = (1, 3, 1 << (n - 1), (3 << (n - 2)) | 1)
        assert parse_text(good) == oracles.parse_text_reference(good) == Circuit(n, masks)

    def test_huge_qubit_count_builds_no_2_to_the_n_int(self):
        # Circuit bounds a mask by its bit length; 1 << n would be a 500 MB int here.
        # A fresh interpreter, so that the peak RSS is this parse's own.
        code = (
            "import resource\n"
            "from djphase import parse_text\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "c = parse_text('qubits 4000000000\\nz 4000000000\\n')\n"
            "assert c.ops == (1,), c.ops\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 50_000  # KiB on Linux
