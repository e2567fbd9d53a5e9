"""Statevector gates checked against dense reference matrices."""

from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
import djphase.boolfn
import djphase.dj_runner
import djphase.simulator
from djphase import (
    Circuit,
    ControlledPhase,
    Hadamard,
    MultiControlledZ,
    PhaseFlip,
    PhaseGate,
    StateVector,
    TruthTable,
    amplitude,
    apply_circuit,
    apply_gate,
    apply_hadamard_all,
    apply_phase_oracle,
    basis_state,
    entanglement_diagnostics,
    equivalent_diagonal,
    hadamard_basis_state,
    moebius_transform,
    parse_truth_table,
    probabilities,
    qubit_purity,
    sample,
    sample_counts,
    synthesize,
)


def random_state(n: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps.astype(np.complex128))


GATES_N4 = [
    PhaseFlip(1),
    PhaseFlip(4),
    ControlledPhase(1, 3),
    ControlledPhase(2, 4),
    MultiControlledZ((1, 2, 4)),
    MultiControlledZ((1, 2, 3, 4)),
    Hadamard(2),
    Hadamard(4),
]


class TestBasisState:
    def test_initial_amplitude(self):
        s = basis_state(3, 5)
        assert amplitude(s, 5) == 1.0
        assert probabilities(s).sum() == 1.0

    @pytest.mark.parametrize("n", [0, 21])
    def test_qubit_count_bounds(self, n):
        with pytest.raises(ValueError):
            basis_state(n, 0)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            basis_state(2, 4)
        with pytest.raises(ValueError):
            amplitude(basis_state(2, 0), 4)

    @pytest.mark.parametrize("make", [basis_state, hadamard_basis_state])
    def test_index_is_an_integer(self, make):
        # numpy would read a bool index as a mask over every entry.
        assert np.array_equal(make(2, True).amps, make(2, 1).amps)
        assert np.array_equal(make(True, True, rows=2).amps, make(1, 1, rows=2).amps)
        for index in (1.0, "1"):
            with pytest.raises(TypeError):
                make(2, index)
        with pytest.raises(TypeError):
            make(2.0, 1)

    def test_amplitude_index_is_an_integer(self):
        state = basis_state(2, 1)
        assert amplitude(state, True) == 1.0
        for index in (1.0, "1"):
            with pytest.raises(TypeError):
                amplitude(state, index)


class TestApplyGate:
    @pytest.mark.parametrize("gate", GATES_N4)
    def test_matches_reference_matrix(self, gate):
        state = random_state(4, seed=11)
        expected = oracles.gate_matrix(4, gate) @ state.amps.copy()
        apply_gate(state, gate)
        assert np.allclose(state.amps, expected, atol=1e-12)

    @pytest.mark.parametrize("gate", GATES_N4)
    def test_preserves_norm(self, gate):
        state = random_state(4, seed=23)
        before = np.linalg.norm(state.amps)
        apply_gate(state, gate)
        assert abs(np.linalg.norm(state.amps) - before) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_qubit_and_all_qubits_match_reference(self, n):
        # Hadamard on each end and middle of the view, and a phase gate whose
        # index is all integers.
        for gate in [Hadamard(q) for q in range(1, n + 1)] + [PhaseGate(range(1, n + 1))]:
            state = random_state(n, seed=100 + n)
            expected = oracles.gate_matrix(n, gate) @ state.amps.copy()
            apply_gate(state, gate)
            assert np.allclose(state.amps, expected, atol=1e-12), gate

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(2, 0), PhaseFlip(3))

    def test_hadamard_involution(self):
        state = random_state(3, seed=5)
        original = state.amps.copy()
        apply_gate(apply_gate(state, Hadamard(2)), Hadamard(2))
        assert np.max(np.abs(state.amps - original)) <= 1e-12

    def test_diagonal_gates_commute_exactly(self):
        rng = random.Random(7)
        diag = [PhaseFlip(2), ControlledPhase(1, 3), MultiControlledZ((1, 2, 3)), PhaseFlip(1)]
        reference = random_state(3, seed=31)
        for g in diag:
            apply_gate(reference, g)
        for _ in range(5):
            shuffled = diag[:]
            rng.shuffle(shuffled)
            state = random_state(3, seed=31)
            for g in shuffled:
                apply_gate(state, g)
            assert np.array_equal(state.amps, reference.amps)


class TestApplyCircuit:
    def test_matches_reference_matrix(self):
        t = parse_truth_table("01010110")
        c = synthesize(moebius_transform(t))
        state = random_state(3, seed=13)
        expected = oracles.circuit_matrix(3, c.gates) @ state.amps.copy()
        apply_circuit(state, c)
        assert np.allclose(state.amps, expected, atol=1e-12)

    def test_smaller_circuit_leaves_extra_qubits_alone(self):
        c = Circuit(2, (PhaseFlip(2),))
        state = random_state(3, seed=17)
        expected = oracles.phase_flip_matrix(3, 2) @ state.amps.copy()
        apply_circuit(state, c)
        assert np.allclose(state.amps, expected, atol=1e-12)

    def test_rejects_circuit_larger_than_state(self):
        with pytest.raises(ValueError):
            apply_circuit(basis_state(2, 0), Circuit(3, ()))

    def test_hadamard_all_uniform(self):
        state = apply_hadamard_all(basis_state(3, 0))
        assert np.allclose(state.amps, np.full(8, 1 / np.sqrt(8)), atol=1e-12)


def apply_gates_one_by_one(state: StateVector, gates) -> StateVector:
    for g in gates:
        apply_gate(state, g)
    return state


class TestFusedPhaseBlocks:
    """apply_circuit's fused phase blocks against per-gate apply_gate and dense matrices."""

    @staticmethod
    def mixed_circuits(rng: random.Random, n: int):
        def phase_gate():
            return PhaseGate(rng.sample(range(1, n + 1), rng.randint(1, n)))

        def hadamard():
            return Hadamard(rng.randint(1, n))

        repeated = phase_gate()
        yield []
        yield [repeated, repeated]
        yield [repeated, hadamard(), repeated]
        yield [hadamard(), *(phase_gate() for _ in range(6)), repeated, repeated, hadamard()]
        for _ in range(4):
            gates = [hadamard() if rng.random() < 0.25 else phase_gate() for _ in range(12)]
            yield gates + [gates[0]]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_gate_and_dense_reference(self, n):
        rng = random.Random(300 + n)
        for width in sorted({1, max(1, n - 2), n}):
            for gates in self.mixed_circuits(rng, width):
                state = random_state(n, seed=rng.randrange(1 << 30))
                original = state.amps.copy()
                expected = apply_gates_one_by_one(StateVector(n, original.copy()), gates)
                apply_circuit(state, Circuit(width, tuple(gates)))
                assert np.array_equal(state.amps, expected.amps), (width, gates)
                if n <= 5:
                    dense = oracles.circuit_matrix(n, gates) @ original
                    assert np.allclose(state.amps, dense, atol=1e-12), (width, gates)

    def test_dense_synthesized_circuit(self):
        n = 14
        rng = random.Random(14)
        bits = [0, 1] * (1 << (n - 1))
        rng.shuffle(bits)
        c = synthesize(moebius_transform(TruthTable(n, bytes(bits))))
        assert len(c.gates) > 4000
        gates = c.gates + (Hadamard(7),) + c.gates[::2]
        state = random_state(n, seed=14)
        expected = apply_gates_one_by_one(StateVector(n, state.amps.copy()), gates)
        apply_circuit(state, Circuit(n, gates))
        assert np.array_equal(state.amps, expected.amps)


class TestOneButterfly:
    """Layers and circuit Hadamards run the butterfly itself, never through apply_gate."""

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_bitwise_equal_to_per_gate_without_apply_gate(self, n, monkeypatch):
        def unreachable(state, gate):
            raise AssertionError("a layer or circuit went through apply_gate")

        amps = random_state(n, seed=40 + n).amps
        layer = [Hadamard(q) for q in range(1, n + 1)]
        gates = (Hadamard(1), PhaseFlip(n), Hadamard(n), Hadamard(1))
        want_layer = apply_gates_one_by_one(StateVector(n, amps.copy()), layer).amps
        want_circuit = apply_gates_one_by_one(StateVector(n, amps.copy()), gates).amps
        monkeypatch.setattr(djphase.simulator, "apply_gate", unreachable)
        got_layer = apply_hadamard_all(StateVector(n, amps.copy())).amps
        got_circuit = apply_circuit(StateVector(n, amps.copy()), Circuit(n, gates)).amps
        assert np.array_equal(got_layer, want_layer)
        assert np.array_equal(got_circuit, want_circuit)


def _per_qubit_butterfly(n: int, amps: np.ndarray) -> np.ndarray:
    out = amps.copy()
    for q in range(1, n + 1):
        djphase.simulator._hadamard(out, q)
    return out


def _counting_butterfly(monkeypatch) -> list[int]:
    calls: list[int] = []
    butterfly = djphase.simulator._hadamard
    monkeypatch.setattr(
        djphase.simulator, "_hadamard", lambda amps, q: calls.append(q) or butterfly(amps, q)
    )
    return calls


class TestHadamardFill:
    """hadamard_basis_state is a fill: the butterflies' bits, without the butterflies."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_fill_has_the_butterfly_bits(self, n, monkeypatch):
        calls = _counting_butterfly(monkeypatch)
        random_k = int(np.random.default_rng(n).integers(1 << n))
        for k in sorted({0, 1, random_k}):
            for rows in (None, 1, 3):
                basis = basis_state(n, k, rows).amps
                want = _per_qubit_butterfly(n, basis)
                want_complex = _per_qubit_butterfly(n, basis.astype(np.complex128))
                del calls[:]
                got = hadamard_basis_state(n, k, rows).amps
                assert calls == []  # the fill, not the butterfly
                assert got.dtype == np.float64
                assert np.array_equal(_bits(got), _bits(want)), (k, rows)
                # Both parts of a complex entry, the +0.0 imaginary ones included.
                assert np.array_equal(
                    _bits(got.astype(np.complex128)), _bits(want_complex)
                ), (k, rows)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_fill_against_the_dense_matrix(self, n):
        dense = oracles.circuit_matrix(n, [Hadamard(q) for q in range(1, n + 1)])
        for k in range(1 << n):
            got = hadamard_basis_state(n, k).amps
            assert np.allclose(got, dense[:, k], rtol=0, atol=1e-12), k

    @pytest.mark.parametrize(
        "rows, columns, values, dtype",
        [
            ([0, 1, 2], [0, 5, 5], 1.0, np.float64),  # rows holding different basis states
            ([0, 1, 2], [5, 5, 5], 1.1, np.float64),  # a scaled basis state
            ([0, 1, 2, 1], [5, 5, 5, 2], [1.0, 1.0, 1.0, np.nan], np.float64),  # a NaN
            ([0, 1, 2], [5, 5, 5], -1.0, np.float64),  # a negated basis state
            ([0, 0, 1], [5, 6, 5], 1.0, np.float64),  # one entry per row on average only
            # Single precision rounds each butterfly's product to float32.
            ([0, 1, 2], [5, 5, 5], 1.0, np.float32),
            ([0, 1, 2], [5, 5, 5], 1.0, np.complex64),
            # An exact basis state: apply_hadamard_all never looks for one.
            ([0, 1, 2], [5, 5, 5], 1.0, np.float64),
        ],
        ids=["different", "scaled", "nan", "negated", "uneven", "float32", "complex64", "basis"],
    )
    def test_other_states_take_the_butterfly(self, rows, columns, values, dtype, monkeypatch):
        n = 4
        amps = np.zeros((3, 1 << n), dtype)
        amps[rows, columns] = values
        want = _per_qubit_butterfly(n, amps)
        calls = _counting_butterfly(monkeypatch)
        got = apply_hadamard_all(StateVector(n, amps)).amps
        assert calls == list(range(1, n + 1))
        assert np.array_equal(_bits(got), _bits(want))


class TestPhaseOracle:
    def test_signs_match_table(self):
        t = parse_truth_table("01010110")
        state = apply_hadamard_all(basis_state(3, 0))
        apply_phase_oracle(state, t)
        for x in range(8):
            expected = (-1.0) ** t.values[x] / np.sqrt(8)
            assert state.amps[x] == pytest.approx(expected, abs=1e-12)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_phase_oracle(basis_state(2, 0), parse_truth_table("01010110"))


class TestSample:
    def test_deterministic_for_seed(self):
        state = apply_hadamard_all(basis_state(3, 0))
        a = sample(state, shots=500, seed=42)
        b = sample(state, shots=500, seed=42)
        assert a == b
        assert sum(a.values()) == 500

    def test_only_supported_outcomes(self):
        counts = sample(basis_state(3, 6), shots=64, seed=0)
        assert counts == {6: 64}

    def test_guards(self):
        with pytest.raises(ValueError):
            sample(basis_state(2, 0), shots=0, seed=1)
        with pytest.raises(ValueError):
            sample_counts(np.array([0.4, 0.4]), shots=10, seed=1)


class TestEntanglementDiagnostics:
    def test_basis_state_is_product(self):
        prof = entanglement_diagnostics(basis_state(3, 5))
        assert prof.purities == (1.0, 1.0, 1.0)
        assert prof.schmidt_ranks == (1, 1, 1)
        assert prof.fully_product

    def test_partially_factored_state(self):
        # x3 + x1*x2 entangles qubits 1 and 2 but leaves qubit 3 pure.
        t = parse_truth_table("01010110")
        state = StateVector(3, oracles.post_oracle_state(t.values, 3))
        prof = entanglement_diagnostics(state)
        assert prof.purities[0] == pytest.approx(0.5, abs=1e-9)
        assert prof.purities[1] == pytest.approx(0.5, abs=1e-9)
        assert prof.purities[2] == pytest.approx(1.0, abs=1e-9)
        assert prof.schmidt_ranks == (2, 2, 1)
        assert not prof.fully_product

    def test_matches_bruteforce_purity(self):
        state = random_state(3, seed=3)
        prof = entanglement_diagnostics(state)
        for q in (1, 2, 3):
            assert prof.purities[q - 1] == pytest.approx(
                oracles.reduced_purity(state.amps, q, 3), abs=1e-12
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_qubit_purity(self, n):
        state = random_state(n, seed=200 + n)
        prof = entanglement_diagnostics(state)
        for q in range(1, n + 1):
            assert prof.purities[q - 1] == pytest.approx(
                oracles.reduced_purity(state.amps, q, n), abs=1e-12
            )
            assert qubit_purity(state, q) == prof.purities[q - 1]

    @pytest.mark.parametrize("q", [0, -1, 4])
    @pytest.mark.parametrize("rows", [None, 2])
    def test_purity_of_a_qubit_outside_the_state(self, q, rows):
        with pytest.raises(ValueError, match=f"^qubit {q} outside 1..3$"):
            qubit_purity(basis_state(3, 0, rows), q)

    def test_norm_guard(self):
        state = basis_state(2, 0)
        state.amps *= 1.0 + 1e-5
        with pytest.raises(ValueError):
            entanglement_diagnostics(state)


class TestEquivalentDiagonal:
    def test_accepts_synthesized_oracle(self):
        t = parse_truth_table("11110000")
        c = synthesize(moebius_transform(t))
        eq = equivalent_diagonal(c, t)
        assert eq.match
        assert eq.global_sign == -1

    def test_rejects_corrupted_oracle(self):
        t = parse_truth_table("01010110")
        c = synthesize(moebius_transform(t))
        corrupted = Circuit(3, c.gates + (PhaseFlip(1),))
        assert not equivalent_diagonal(corrupted, t).match

    def test_rejects_non_diagonal_circuit(self):
        t = parse_truth_table("00000000")
        assert not equivalent_diagonal(Circuit(3, (Hadamard(1),)), t).match

    def test_size_guards(self):
        with pytest.raises(ValueError):
            equivalent_diagonal(Circuit(2, ()), parse_truth_table("01010110"))
        with pytest.raises(ValueError):
            equivalent_diagonal(Circuit(13, ()), TruthTable(13, (0,) * (1 << 13)))

    def test_matches_dense_reference(self):
        rng = random.Random(11)

        def random_gate(n):
            if rng.random() < 0.3:
                return Hadamard(rng.randint(1, n))
            return PhaseGate(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))))

        seen = set()
        for n in range(1, 6):
            for _ in range(8):
                t = TruthTable(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
                oracle = list(synthesize(moebius_transform(t)).gates)
                mixed = [random_gate(n) for _ in range(rng.randint(1, 10))]
                for gates in (oracle, oracle + [random_gate(n)], mixed):
                    u = oracles.circuit_matrix(n, gates)
                    target = np.array([(-1.0) ** v for v in t.values])
                    dev = {s: np.max(np.abs(np.diag(u) - s * target)) for s in (1, -1)}
                    sign = -1 if dev[-1] < dev[1] else 1
                    expected = max(dev[sign], np.max(np.abs(u - np.diag(np.diag(u)))))
                    eq = equivalent_diagonal(Circuit(n, tuple(gates)), t)
                    assert eq.max_deviation == pytest.approx(expected, abs=1e-12)
                    assert eq.match == (expected <= 1e-9)
                    assert eq.global_sign == (sign if eq.match else 1)
                    seen.add((eq.match, eq.global_sign, any(g.mnemonic == "h" for g in gates)))
        assert {(True, 1, False), (True, -1, False), (False, 1, True), (False, 1, False)} <= seen

    def test_largest_size(self):
        monomials = [(), (1,), (2, 3), (10, 11, 12)]
        values = tuple(oracles.eval_monomials(monomials, x, 12) for x in range(1 << 12))
        t = TruthTable(12, values)
        c = synthesize(moebius_transform(t))
        eq = equivalent_diagonal(c, t)
        assert eq.match
        assert eq.global_sign == -1
        eq = equivalent_diagonal(Circuit(12, c.gates + (PhaseFlip(12),)), t)
        assert not eq.match
        assert eq.max_deviation == 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_counts_rejects_non_finite_probabilities(bad):
    with pytest.raises(ValueError, match="too far from 1 to sample"):
        sample_counts(np.array([0.5, 0.5, bad, 0.0]), shots=10, seed=1)


def _bits(a) -> np.ndarray:
    """Each float's (or complex part's) bit pattern: -0.0 and 0.0 differ, as in JSON."""
    return np.ascontiguousarray(a).view(np.uint64)


def _random_stack(n: int, rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))


class TestStacks:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_hadamard_layer_acts_row_by_row(self, n):
        stack = _random_stack(n, 5, n)
        got = apply_hadamard_all(StateVector(n, stack.copy())).amps
        for row, amps in zip(got, stack):
            want = apply_hadamard_all(StateVector(n, amps.copy())).amps
            assert np.array_equal(_bits(row), _bits(want))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_phase_diagonal_acts_row_by_row(self, n):
        rng = random.Random(n)
        size = 1 << n
        circuits = [Circuit(n, rng.sample(range(1, size), rng.randint(0, size - 1))) for _ in range(6)]
        circuits.append(Circuit(n, [1, Hadamard(n), size - 1]))  # a Hadamard ends the diagonal
        stack = _random_stack(n, len(circuits), 100 + n)
        got = djphase.simulator.apply_circuits(StateVector(n, stack.copy()), circuits).amps
        for row, amps, c in zip(got, stack, circuits):
            want = apply_circuit(StateVector(n, amps.copy()), c).amps
            assert np.array_equal(_bits(row), _bits(want)), c

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hadamard_rows_run_whole_among_phase_rows(self, n):
        rng = random.Random(500 + n)
        size = 1 << n

        def masks(k):
            return [rng.randrange(1, size) for _ in range(k)]

        circuits = [
            Circuit(n, masks(5)),
            Circuit(n, ()),
            Circuit(n, [Hadamard(1), *masks(3)]),
            Circuit(n, masks(4)),
            Circuit(n, [*masks(2), Hadamard(n), *masks(3), Hadamard(1), *masks(2)]),
            Circuit(n, [Hadamard(rng.randint(1, n))]),
            Circuit(n, masks(size)),
        ]
        stack = _random_stack(n, len(circuits), 600 + n)
        got = djphase.simulator.apply_circuits(StateVector(n, stack.copy()), circuits).amps
        for row, amps, c in zip(got, stack, circuits):
            alone = apply_circuit(StateVector(n, amps.copy()), c).amps
            per_gate = apply_gates_one_by_one(StateVector(n, amps.copy()), c.gates).amps
            assert np.array_equal(_bits(row), _bits(alone)), c
            assert np.array_equal(_bits(row), _bits(per_gate)), c

    def test_apply_circuits_rejects_a_mismatch(self):
        stack = StateVector(3, np.zeros((2, 8), dtype=np.complex128))
        with pytest.raises(ValueError, match="2 circuits"):
            djphase.simulator.apply_circuits(StateVector(3, stack.amps[0]), [Circuit(3, [1])] * 2)
        with pytest.raises(ValueError, match="circuit 1 on 2 qubits"):
            djphase.simulator.apply_circuits(stack, [Circuit(3, [1]), Circuit(2, [1])])

    def test_basis_stack(self):
        state = basis_state(2, 3, rows=3)
        assert state.amps.shape == (3, 4)
        assert np.array_equal(state.amps, np.tile([0, 0, 0, 1], (3, 1)))

    def test_stacks_group_by_width_in_first_seen_order(self):
        cap = djphase.boolfn.MAX_STACK_AMPLITUDES
        widths = [8, 4, 8, cap, 4, cap, 2 * cap, 8]
        assert djphase.boolfn.stacks(widths) == [[0, 2, 7], [1, 4], [3], [5], [6]]
        assert djphase.boolfn.stacks([cap // 4] * 9) == [[0, 1, 2, 3], [4, 5, 6, 7], [8]]

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_an_empty_stack_gives_an_empty_result(self, n, dtype):
        empty = StateVector(n, np.zeros((0, 1 << n), dtype=dtype))
        assert apply_hadamard_all(empty).amps.shape == (0, 1 << n)
        assert djphase.simulator.apply_circuits(empty, []).amps.shape == (0, 1 << n)
        for q in range(1, n + 1):
            assert qubit_purity(empty, q).shape == (0,)
        assert djphase.simulator.stacked_diagnostics(empty.amps) == []
        assert djphase.simulator.stacked_counts(empty.amps.real, 10, 1) == []
        assert djphase.dj_runner.entanglement_profiles([]) == []

    @pytest.mark.parametrize("exponent", range(1, 17))
    def test_row_sums_and_cumsums_match_one_state(self, exponent):
        # Histograms and the norm guard read stacked sums; they must be the 1-D bits.
        width = 1 << exponent
        rows = max(2, min(64, (1 << 17) // width))
        probs = np.abs(_random_stack(exponent, rows, exponent)) ** 2
        probs[:, ::3] = 0.0
        probs /= probs.sum(axis=-1, keepdims=True)
        totals = probs.sum(axis=-1)
        cdfs = np.cumsum(probs / totals[:, None], axis=-1)
        pairs = probs.reshape(rows, -1, 2).sum(axis=-1) if width > 2 else None
        for k, row in enumerate(probs):
            assert _bits(totals[k]) == _bits(row.sum())
            assert np.array_equal(_bits(cdfs[k]), _bits(np.cumsum(row / float(row.sum()))))
            if pairs is not None:
                assert np.array_equal(_bits(pairs[k]), _bits(row.reshape(-1, 2).sum(axis=1)))

    def test_stacked_purity_matches_one_state(self):
        for n in range(2, 9):
            stack = _random_stack(n, 7, 200 + n)
            for q in (1, n):
                got = qubit_purity(StateVector(n, stack), q)
                for k, amps in enumerate(stack):
                    want = qubit_purity(StateVector(n, amps), q)
                    assert _bits(got[k]) == _bits(want), (n, q, k)


def _distribution(n: int, rng: np.random.Generator, zeros: float) -> np.ndarray:
    probs = rng.random(1 << n)
    probs[rng.random(1 << n) < zeros] = 0.0
    if not probs.any():
        probs[rng.integers(1 << n)] = 1.0
    return probs / probs.sum()


class TestSortedDraws:
    def test_matches_per_draw_reference(self):
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            for shots in range(1, 200, 3):
                for zeros in (0.0, 0.5, 0.9):
                    probs = _distribution(n, rng, zeros)
                    seed = int(rng.integers(1 << 31))
                    want = oracles.sample_counts_per_draw(probs, shots, seed)
                    assert sample_counts(probs, shots, seed) == want, (n, shots, zeros)

    def test_edge_distributions(self):
        cases = [
            [1.0, 0.0], [0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3, 0.0],
        ]
        for probs in cases:
            for shots in (1, 2, 50, 199):
                for seed in range(5):
                    want = oracles.sample_counts_per_draw(probs, shots, seed)
                    assert sample_counts(np.array(probs), shots, seed) == want, probs

    def test_draws_on_a_cumulative_sum_and_above_the_last(self, monkeypatch):
        # Ten 0.1s: the cumsum passes 0.30000000000000004 and ends at 1 - 2^-53, the
        # largest draw there is.  A draw equal to a cumulative sum belongs to the next
        # index; one at or above the last sum is clamped to the last index.
        probs = np.full(10, 0.1)
        cdf = np.cumsum(probs / float(probs.sum()))
        draws = [cdf[2], cdf[-1], 0.0, cdf[2], 0.05, np.nextafter(cdf[-1], 0.0)]

        class Draws:
            def __init__(self, seed):
                pass

            def random(self, shots):
                return np.array(draws[:shots])

        monkeypatch.setattr(np.random, "default_rng", Draws)
        for shots in range(1, len(draws) + 1):
            want = oracles.sample_counts_per_draw(probs, shots, 0)
            assert sample_counts(probs, shots, 0) == want, shots
        assert want == {0: 2, 3: 2, 9: 2}

    def test_a_million_shots_at_n16(self):
        probs = _distribution(16, np.random.default_rng(16), 0.5)
        want = oracles.sample_counts_per_draw(probs, 10**6, 5)
        assert sample_counts(probs, 10**6, 5) == want

    def test_each_row_of_a_stack_is_its_own_sample(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 6):
            stack = np.array([_distribution(n, rng, 0.3) for _ in range(9)])
            counts = djphase.simulator.stacked_counts(stack, 77, 4)
            assert len(counts) == len(stack)
            for row, probs in zip(counts, stack):
                want = oracles.sample_counts_per_draw(probs, 77, 4)
                assert row == want
                assert list(row) == sorted(want)

    def test_a_bad_row_names_the_first_bad_sum(self):
        stack = np.array([[0.5, 0.5], [0.5, 0.7], [0.1, 0.1]])
        with pytest.raises(ValueError, match="sum to 1.200000, too far from 1"):
            djphase.simulator.stacked_counts(stack, 10, 1)
