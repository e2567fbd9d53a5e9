"""End-to-end decision runs: refined, original, and classical."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
import djphase.dj_runner
from djphase import (
    FunctionClass,
    Mode,
    PromiseViolationError,
    TruthTable,
    Verdict,
    all_truth_tables,
    classical_decide,
    classify,
    entanglement_profile,
    enumerate_balanced,
    parse_truth_table,
    run_original,
    run_refined,
    zero_amplitude_formula,
)


class TestRunRefined:
    def test_constant_zero(self):
        out = run_refined(parse_truth_table("00000000"))
        assert out.verdict == Verdict.CONSTANT
        assert out.zero_amplitude == pytest.approx(1.0, abs=1e-9)
        assert out.queries_used == 1
        assert out.mode == Mode.REFINED
        assert out.working_qubit_purity is None

    def test_constant_one_flips_sign(self):
        out = run_refined(parse_truth_table("11111111"))
        assert out.verdict == Verdict.CONSTANT
        assert out.zero_amplitude == pytest.approx(-1.0, abs=1e-9)

    def test_balanced(self):
        out = run_refined(parse_truth_table("01010110"))
        assert out.verdict == Verdict.BALANCED
        assert abs(out.zero_amplitude) <= 1e-9
        assert out.final_probabilities[0] <= 1e-18

    def test_linear_function_lands_on_its_mask(self):
        # For f(x) = s.x the final state is exactly |s>.
        out = run_refined(parse_truth_table("00001111"))  # f = x1, s = 100
        assert out.final_probabilities[4] == pytest.approx(1.0, abs=1e-9)
        out = run_refined(parse_truth_table("01100110"))  # f = x2 + x3, s = 011
        assert out.final_probabilities[3] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_promise_violation(self):
        with pytest.raises(PromiseViolationError):
            run_refined(parse_truth_table("01010111"))

    def test_all_balanced_n3(self):
        for t in enumerate_balanced(3):
            assert run_refined(t).verdict == Verdict.BALANCED

    def test_largest_constant_table_at_tol_floor(self):
        # Rounding leaves |zero amplitude| about 3e-15 short of 1 at n=20,
        # inside the CLI's smallest allowed tol.
        out = run_refined(TruthTable(20, bytes(1 << 20)), tol=1e-12)
        assert out.verdict == Verdict.CONSTANT
        assert 1.0 - 1e-12 <= out.zero_amplitude <= 1.0

    def test_size_limit_checked_before_transform(self, monkeypatch):
        def unreachable(t):
            raise AssertionError("moebius_transform ran on an oversized table")

        monkeypatch.setattr(djphase.dj_runner, "moebius_transform", unreachable)
        with pytest.raises(ValueError, match="n <= 20"):
            run_refined(TruthTable(21, (0,) * (1 << 21)))


class TestRunOriginal:
    def test_agrees_with_refined_on_probabilities(self):
        for text in ("00000000", "11111111", "01010110", "00010111"):
            t = parse_truth_table(text)
            refined = run_refined(t)
            original = run_original(t)
            assert original.verdict == refined.verdict
            assert original.zero_amplitude == pytest.approx(
                refined.zero_amplitude, abs=1e-12
            )
            assert np.allclose(
                original.final_probabilities, refined.final_probabilities, atol=1e-12
            )

    def test_working_qubit_stays_pure(self):
        out = run_original(parse_truth_table("01010110"))
        assert out.mode == Mode.ORIGINAL
        assert out.working_qubit_purity == pytest.approx(1.0, abs=1e-9)
        assert out.final_amplitudes.size == 16
        assert out.final_probabilities.size == 8

    def test_working_qubit_ends_in_one(self):
        # H^(n+1) . oracle . H^(n+1) on |0...0>|1> leaves the working qubit
        # exactly in |1>, so every even entry is an exact zero.
        promise = [*enumerate_balanced(3), TruthTable(3, (0,) * 8), TruthTable(3, (1,) * 8)]
        assert len(promise) == 72
        for t in promise:
            assert np.all(run_original(t).final_amplitudes[0::2] == 0), t.text

    def test_purity_reads_only_the_working_qubit(self, monkeypatch):
        def unreachable(state):
            raise AssertionError("run_original ran the all-qubit diagnostics")

        monkeypatch.setattr(djphase.dj_runner, "entanglement_diagnostics", unreachable)
        promise = [*enumerate_balanced(3), TruthTable(3, (0,) * 8), TruthTable(3, (1,) * 8)]
        for t in promise:
            out = run_original(t)
            # The final H layer is local, so it leaves the working qubit's purity as it was.
            want = oracles.reduced_purity(out.final_amplitudes, 4, 4)
            assert out.working_qubit_purity == pytest.approx(want, abs=1e-12), t.text

    def test_size_limit_names_its_own_bound(self):
        # The working qubit makes n+1 qubits, one fewer query qubit than refined mode.
        with pytest.raises(ValueError, match="n <= 19"):
            run_original(TruthTable(20, (0,) * (1 << 20)))

    def test_rejects_promise_violation(self):
        with pytest.raises(PromiseViolationError):
            run_original(parse_truth_table("10000000"))


class TestFormula:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("00000000", 1.0),
            ("11111111", -1.0),
            ("01010110", 0.0),
            ("01010111", -0.25),
            ("10000000", 0.75),
            ("01", 0.0),
        ],
    )
    def test_known_values(self, text, expected):
        assert zero_amplitude_formula(parse_truth_table(text)) == expected


class TestClassicalDecide:
    def test_constant_needs_all_five_queries(self):
        out = classical_decide(parse_truth_table("00000000"))
        assert out.verdict == Verdict.CONSTANT
        assert out.queries_used == 5

    def test_early_exit_on_disagreement(self):
        out = classical_decide(parse_truth_table("01010101"))
        assert out.verdict == Verdict.BALANCED
        assert out.queries_used == 2

    def test_worst_case_balanced(self):
        out = classical_decide(parse_truth_table("00001111"))
        assert out.verdict == Verdict.BALANCED
        assert out.queries_used == 5

    def test_n2_budget(self):
        assert classical_decide(parse_truth_table("1111")).queries_used == 3

    def test_rejects_promise_violation(self):
        with pytest.raises(PromiseViolationError):
            classical_decide(parse_truth_table("01110111"))

    def test_correct_on_all_promise_tables(self):
        for t in all_truth_tables(3):
            kind = classify(t)
            if kind == FunctionClass.OTHER:
                continue
            want = Verdict.BALANCED if kind == FunctionClass.BALANCED else Verdict.CONSTANT
            out = classical_decide(t)
            assert out.verdict == want
            assert out.queries_used <= 5


class TestEntanglementProfile:
    def test_linear_oracle_keeps_product_state(self):
        prof = entanglement_profile(parse_truth_table("00001111"))
        assert prof.fully_product
        assert prof.purities == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_quadratic_oracle_entangles(self):
        prof = entanglement_profile(parse_truth_table("01010110"))
        assert not prof.fully_product
        assert prof.purities == pytest.approx((0.5, 0.5, 1.0), abs=1e-9)

    def test_matches_bruteforce(self):
        for text in ("00001111", "01010110", "00010111"):
            t = parse_truth_table(text)
            prof = entanglement_profile(t)
            amps = oracles.post_oracle_state(t.values, 3)
            for q in (1, 2, 3):
                assert prof.purities[q - 1] == pytest.approx(
                    oracles.reduced_purity(amps, q, 3), abs=1e-12
                )
