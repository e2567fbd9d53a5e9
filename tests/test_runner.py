"""End-to-end decision runs: refined, original, and classical."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
import djphase.boolfn
import djphase.dj_runner
import djphase.verify
from djphase.cli import main
from djphase import (
    FunctionClass,
    Mode,
    PromiseViolationError,
    SelfCheckError,
    TruthTable,
    Verdict,
    all_truth_tables,
    classical_decide,
    classify,
    entanglement_profile,
    enumerate_balanced,
    moebius_transform,
    parse_truth_table,
    run_original,
    run_refined,
    run_verification,
    synthesize,
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

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_wide_balanced_run_against_parity_sums(self, n):
        # Past the exhaustive sizes, on a seeded balanced table.  Amplitude a of the final
        # state is sum_x (-1)^(f(x) + a.x) / 2^n, and the circuit's masks hold f(x) + f(0)
        # as the parity of the masks inside x: both taken by bit tests, with no butterfly.
        rng = np.random.default_rng(1300 + n)
        f = np.zeros(1 << n, dtype=np.uint8)
        f[rng.permutation(1 << n)[: 1 << (n - 1)]] = 1
        t = TruthTable(n, f.tobytes())
        out = run_refined(t)
        assert out.verdict == Verdict.BALANCED
        assert out.final_amplitudes.dtype == np.float64
        assert abs(out.zero_amplitude - zero_amplitude_formula(t)) <= 1e-12
        x = np.arange(1 << n)
        for a in [0, *rng.integers(1, 1 << n, 2).tolist()]:
            dot = sum((x & a) >> j & 1 for j in range(n)) & 1
            want = (1 << n) - 2 * np.count_nonzero(f ^ dot)
            assert abs(out.final_amplitudes[a] - want / (1 << n)) <= 1e-12, a
        masks = np.array(synthesize(moebius_transform(t)).ops, dtype=np.int64)
        for point in rng.integers(0, 1 << n, 32).tolist():
            inside = np.count_nonzero((point & masks) == masks)
            assert inside % 2 == f[point] ^ f[0], point

    def test_size_limit_checked_before_transform(self, monkeypatch):
        def unreachable(t):
            raise AssertionError("moebius_coeffs ran on an oversized table")

        monkeypatch.setattr(djphase.dj_runner, "moebius_coeffs", unreachable)
        with pytest.raises(ValueError, match="n <= 20"):
            run_refined(TruthTable(21, (0,) * (1 << 21)))

    def test_wrong_butterfly_cannot_check_itself(self, monkeypatch):
        # With an identity butterfly the circuit's gates are the table's 1s, not
        # its ANF.  The simulator shares no code with the butterfly, so each run
        # whose true ANF, read as a table, is neither constant nor balanced fails
        # its self-check; a simulator that undid the butterfly would pass them all.
        monkeypatch.setattr(djphase.boolfn, "_butterfly", lambda bits, n: bits)
        failed, expected = set(), set()
        for t in all_truth_tables(3):
            if classify(t) == FunctionClass.OTHER:
                continue
            if len(oracles.moebius_bruteforce(t.values, 3)) not in (0, 4, 8):
                expected.add(t.text)
            try:
                run_refined(t)
            except SelfCheckError:
                failed.add(t.text)
        assert failed == expected
        assert len(failed) == 48


class TestTolRange:
    # The library applies the command line's range: 1e-12 <= tol < 0.5.
    @pytest.mark.parametrize("runner", [run_refined, run_original])
    @pytest.mark.parametrize("tol", [0, 1e-13, 0.5, float("nan")])
    def test_runner_rejects_tol(self, runner, tol):
        with pytest.raises(ValueError, match=r"1e-12 <= tol < 0\.5"):
            runner(parse_truth_table("00000000"), tol=tol)

    @pytest.mark.parametrize("runner", [run_refined, run_original])
    def test_tol_checked_before_size_and_promise(self, runner):
        for t in (TruthTable(21, bytes(1 << 21)), parse_truth_table("01010111")):
            with pytest.raises(ValueError, match=r"1e-12 <= tol < 0\.5"):
                runner(t, tol=0)

    @pytest.mark.parametrize("tol", [0, 0.5])
    def test_verification_rejects_tol(self, monkeypatch, tol):
        def unreachable(t):
            raise AssertionError("a suite ran before the tol check")

        monkeypatch.setattr(djphase.verify, "moebius_transforms", unreachable)
        monkeypatch.setattr(djphase.verify, "run_refined", unreachable)
        with pytest.raises(ValueError, match=r"1e-12 <= tol < 0\.5"):
            run_verification(tol=tol)

    def test_floor_and_default_accepted(self):
        t = parse_truth_table("00000000")
        for tol in (1e-12, 1e-9, 0.49):
            assert run_refined(t, tol=tol).verdict == Verdict.CONSTANT
            assert run_original(t, tol=tol).verdict == Verdict.CONSTANT


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
        def unreachable(amps):
            raise AssertionError("run_original ran the all-qubit diagnostics")

        monkeypatch.setattr(djphase.dj_runner, "stacked_diagnostics", unreachable)
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



def hadamard_where_f_is_1(state, bits):
    """Not an XOR oracle: a Hadamard on the working qubit of every row where f is 1."""
    view = state.amps.reshape(-1, 2)
    rows = np.frombuffer(bits, dtype=bool)
    lo, hi = view[rows, 0], view[rows, 1]
    view[rows, 0], view[rows, 1] = (lo + hi) / np.sqrt(2), (lo - hi) / np.sqrt(2)
    return state


class TestWorkingQubitSelfCheck:
    MESSAGE = "working qubit purity 0.749999999999999 drifted from 1"

    def test_non_xor_oracle_fails_the_self_check(self, monkeypatch):
        monkeypatch.setattr(djphase.dj_runner, "_apply_xor_oracle", hadamard_where_f_is_1)
        with pytest.raises(SelfCheckError) as info:
            run_original(parse_truth_table("01010110"))
        assert str(info.value).startswith(self.MESSAGE)

    def test_cli_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(djphase.dj_runner, "_apply_xor_oracle", hadamard_where_f_is_1)
        code = main(["run", "--truth", "01010110", "--mode", "original"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err.startswith(f"error: {self.MESSAGE}")

    def test_constant_tables_pass_the_self_check(self, monkeypatch):
        monkeypatch.setattr(djphase.dj_runner, "_apply_xor_oracle", hadamard_where_f_is_1)
        # f = 0 touches no row.
        out = run_original(parse_truth_table("00000000"))
        assert out.verdict == Verdict.CONSTANT
        assert out.working_qubit_purity == pytest.approx(1.0, abs=1e-12)
        # f = 1 turns the working qubit's |-> into |1> on every row: still a product
        # state, so only the final verdict check can catch it.
        with pytest.raises(SelfCheckError, match="zero amplitude"):
            run_original(parse_truth_table("11111111"))
