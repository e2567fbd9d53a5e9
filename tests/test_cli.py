"""Command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from djphase.cli import MAX_SHOTS, main
from djphase.cli import _HANDLERS, build_parser
import djphase.boolfn
import djphase.cli
import djphase.dj_runner
import djphase.simulator
import djphase.verify
from djphase.boolfn import qubit_mask
from djphase.oracle_compiler import gate_masks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_stray_cz(n, coeffs):
    # The refined runner's gate gather with a cz 1 2 added to row 0, at its place in the
    # gate order: column n, the first pair.  A run of one table is row 0 of its stack.
    positions, masks = gate_masks(n, coeffs)
    return np.append(positions, n), np.append(masks, qubit_mask(n, (1, 2)))


class TestSynth:
    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "synth", "--truth", "01010110")
        assert code == 0
        assert out == "qubits 3\nz 3\ncz 1 2\n"
        assert err == ""

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--truth", "01010110", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["truth_table"] == "01010110"
        assert payload["anf"] == "x3 + x1*x2"
        assert payload["type"] == 2
        assert payload["gate_counts"] == {"z": 1, "cz": 1, "mcz": 0, "h": 0}
        assert payload["dropped_global_sign"] is False

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "synth", "--truth", "00010111", "--format", "json")
        _, second, _ = run_cli(capsys, "synth", "--truth", "00010111", "--format", "json")
        assert first == second

    def test_truth_file(self, capsys, tmp_path):
        path = tmp_path / "tables.txt"
        path.write_text("# a comment\n01010110\n\n00001111\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "synth", "--truth-file", str(path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["truth_table"] for row in payload] == ["01010110", "00001111"]

    def test_truth_file_text_blocks(self, capsys, tmp_path):
        path = tmp_path / "tables.txt"
        path.write_text("01010110\n00001111\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "synth", "--truth-file", str(path))
        assert code == 0
        assert "# table 01010110" in out
        assert "# table 00001111" in out

    def test_truth_file_bad_line_aborts(self, capsys, tmp_path):
        path = tmp_path / "tables.txt"
        path.write_text("01010110\n0101x\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "synth", "--truth-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("source", ["--truth", "--truth-file"])
    def test_oversized_table_rejected_before_work(self, capsys, monkeypatch, tmp_path, source):
        def unreachable(t):
            raise AssertionError("synthesis_reports ran before every table was size-checked")

        monkeypatch.setattr("djphase.cli.synthesis_reports", unreachable)
        oversized = "0" * (1 << 21)
        if source == "--truth":
            arg = oversized
        else:
            # The small table comes first: it must not be synthesized either.
            arg = tmp_path / "tables.txt"
            arg.write_text(f"01010110\n{oversized}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "synth", source, str(arg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "n <= 20" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--truth-file", "/nonexistent/x.txt")
        assert code == 2
        assert err.startswith("error:")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "circuit.txt"
        code, out, _ = run_cli(
            capsys, "synth", "--truth", "01010110", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == "qubits 3\nz 3\ncz 1 2\n"


class TestRun:
    def test_refined_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--truth", "00000000", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "constant"
        assert payload["mode"] == "refined"
        assert payload["zero_amplitude"] == pytest.approx(1.0, abs=1e-9)
        assert len(payload["probabilities"]) == 8

    def test_histogram(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--truth",
            "01010110",
            "--shots",
            "100",
            "--seed",
            "9",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        hist = payload["histogram"]
        assert sum(hist.values()) == 100
        assert all(len(k) == 3 and set(k) <= {"0", "1"} for k in hist)

    def test_histogram_seed_deterministic(self, capsys):
        args = ("run", "--truth", "01010110", "--shots", "64", "--seed", "4", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_original_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--truth", "01010110", "--mode", "original", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "original"
        assert payload["verdict"] == "balanced"
        assert payload["working_qubit_purity"] == pytest.approx(1.0, abs=1e-9)

    def test_classical_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--truth", "11111111", "--mode", "classical", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "truth_table": "11111111",
            "mode": "classical",
            "verdict": "constant",
            "queries_used": 5,
        }

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--truth", "01010110")
        assert code == 0
        assert "verdict: balanced" in out
        assert "queries_used: 1" in out

    def test_promise_violation_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "run", "--truth", "01010111")
        assert code == 3
        assert out == ""
        assert "neither constant nor balanced" in err

    def test_bad_truth_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "run", "--truth", "0101x110")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("tol", ["2", "-1", "nan"])
    def test_tol_outside_range_exit_code(self, capsys, tol):
        # From tol = 0.5 on, the constant and balanced bands overlap.
        code, out, err = run_cli(capsys, "run", "--truth", "01010110", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["run --truth 00000000", "verify"])
    @pytest.mark.parametrize("tol", ["0", "1e-16"])
    def test_tol_below_rounding_floor_exit_code(self, capsys, command, tol):
        # Exact runs end up to 3e-15 from their bands (n=20), so tol has a floor.
        code, out, err = run_cli(capsys, *command.split(), "--tol", tol)
        assert code == 2
        assert out == ""
        assert "1e-12 <= tol < 0.5" in err

    @pytest.mark.parametrize(
        "flags,mode,flag",
        [
            # 10**15 shots once asked numpy for 7.11 PiB and ended in a MemoryError.
            (("--shots", "1000000000000000"), "refined", "--shots"),
            (("--shots", str(MAX_SHOTS + 1)), "refined", "--shots"),
            (("--shots", "-5"), "classical", "--shots"),
            (("--shots", "64", "--seed", "-1"), "refined", "--seed"),
            (("--seed", "-1"), "original", "--seed"),
            # A classical run samples nothing; 5 shots once exited 0 with no histogram.
            (("--shots", "5"), "classical", "--shots"),
        ],
    )
    def test_shots_and_seed_checked_at_boundary(self, capsys, flags, mode, flag):
        code, out, err = run_cli(capsys, "run", "--truth", "01010110", "--mode", mode, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must")

    @pytest.mark.parametrize("flag", ["--shots", "--seed"])
    def test_checked_before_truth_file_is_opened(self, capsys, tmp_path, flag):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, "run", "--truth-file", missing, flag, "-1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} must") and "missing.txt" not in err
        code, _, err = run_cli(capsys, "run", "--truth-file", missing)
        assert code == 2 and "missing.txt" in err

    def test_shots_at_limits_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--truth", "01", "--shots", str(MAX_SHOTS), "--format", "json"
        )
        assert code == 0
        assert sum(json.loads(out)["histogram"].values()) == MAX_SHOTS
        code, out, _ = run_cli(capsys, "run", "--truth", "01", "--shots", "0", "--seed", "0")
        assert code == 0 and "histogram" not in out

    @pytest.mark.parametrize("mode", ["refined", "original"])
    def test_tol_at_rounding_floor_decides_constant(self, capsys, mode):
        code, out, err = run_cli(
            capsys, "run", "--truth", "00000000", "--mode", mode, "--tol", "1e-12"
        )
        assert code == 0
        assert "verdict: constant" in out
        assert err == ""

    def test_oversized_table_rejected_before_work(self, capsys, monkeypatch):
        def unreachable(t):
            raise AssertionError("moebius_coeffs ran on an oversized table")

        monkeypatch.setattr(djphase.dj_runner, "moebius_coeffs", unreachable)
        code, out, err = run_cli(capsys, "run", "--truth", "0" * (1 << 21))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_self_check_failure_exit_code(self, capsys, monkeypatch):
        # f = x1; the stray cz 1 2 leaves 0.5 on the all-zeros amplitude.
        monkeypatch.setattr(djphase.dj_runner, "gate_masks", with_stray_cz)
        code, out, err = run_cli(capsys, "run", "--truth", "00001111")
        assert code == 4
        assert out == ""
        assert err.startswith("error:")


class TestEnumerate:
    def test_table_header(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n = 3"
        assert lines[1] == "balanced functions: 70"
        assert lines[2] == "complement classes: 35"
        assert lines[3] == "type counts: 1:7  2:12  3:12  4:4"
        assert len([ln for ln in lines if ln and ln[0] in "01"]) == 35

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"n", "total_balanced", "classes", "type_counts", "rows"}
        assert payload["type_counts"] == {"1": 7, "2": 12, "3": 12, "4": 4}
        assert len(payload["rows"]) == 35
        row = payload["rows"][0]
        assert set(row) == {
            "truth_table",
            "anf",
            "circuit",
            "type",
            "gate_counts",
            "zero_amplitude",
            "fully_product",
        }
        assert all(r["zero_amplitude"] == 0.0 for r in payload["rows"])

    def test_n2_has_no_type_counts(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "-n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == 3
        assert payload["type_counts"] is None

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "enumerate", "-n", "3", "--format", "json")
        _, second, _ = run_cli(capsys, "enumerate", "-n", "3", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_json_key_order(self, capsys, n):
        code, out, _ = run_cli(capsys, "enumerate", "-n", str(n), "--format", "json")
        assert code == 0
        assert list(json.loads(out)) == ["n", "total_balanced", "classes", "type_counts", "rows"]

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "-n", "5")
        assert code == 2
        assert err.startswith("error:")


class TestEntangle:
    def test_json_counts(self, capsys):
        code, out, _ = run_cli(capsys, "entangle", "-n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == 35
        assert payload["product_classes"] == 7
        assert payload["entangled_classes"] == 28
        assert len(payload["rows"]) == 35
        assert all(len(r["purities"]) == 3 for r in payload["rows"])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_json_key_order(self, capsys, n):
        code, out, _ = run_cli(capsys, "entangle", "-n", str(n), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["n", "classes", "product_classes", "entangled_classes", "rows"]
        for row in payload["rows"]:
            assert list(row) == ["truth_table", "type", "purities", "fully_product"]

    def test_n2_all_product(self, capsys):
        # Every balanced 2-input function is linear, so nothing entangles.
        code, out, _ = run_cli(capsys, "entangle", "-n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["product_classes"] == 3
        assert payload["entangled_classes"] == 0

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "entangle", "-n", "3")
        assert code == 0
        assert "fully product: 7" in out
        assert "entangled: 28" in out


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.count("[PASS]") == 4
        assert "[FAIL]" not in out
        assert "4/4 suites passed" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert [r["name"] for r in payload] == [
            "oracle-equivalence",
            "census",
            "refined-original-agreement",
            "formula-agreement",
        ]
        assert all(r["passed"] for r in payload)

    def test_tol_outside_range_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--tol", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_corrupted_synthesis_is_caught(self, capsys, monkeypatch):
        from djphase.oracle_compiler import Circuit, PhaseFlip, synthesize as real_synthesize

        def broken(anf):
            c = real_synthesize(anf)
            return Circuit(c.n, c.gates + (PhaseFlip(1),))

        monkeypatch.setattr(djphase.verify, "synthesize", broken)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 4
        assert "[FAIL] oracle-equivalence" in out

    def test_failing_suite_counts_its_cases(self, capsys, monkeypatch):
        from djphase.oracle_compiler import Circuit, PhaseFlip, synthesize as real_synthesize

        def broken(anf):
            c = real_synthesize(anf)
            return Circuit(c.n, c.gates + (PhaseFlip(1),))

        monkeypatch.setattr(djphase.verify, "synthesize", broken)
        first = "256 failed; first: table 00000000"
        _, out, _ = run_cli(capsys, "verify")
        assert f"[FAIL] oracle-equivalence: {first}" in out
        _, out, _ = run_cli(capsys, "verify", "--json")
        assert json.loads(out)[0]["detail"].startswith(first)

    def test_broken_runner_oracle_is_reported_not_aborted(self, capsys, monkeypatch):
        # The stray cz breaks refined runs' self-check; the other suites still run.
        monkeypatch.setattr(djphase.dj_runner, "gate_masks", with_stray_cz)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 4
        for line in (
            "[PASS] oracle-equivalence",
            "[PASS] census",
            "[FAIL] refined-original-agreement",
            "[FAIL] formula-agreement",
            "2/4 suites passed",
        ):
            assert line in out

    def test_wrong_butterfly_fails_every_suite_not_the_input(self, capsys, monkeypatch):
        # An identity butterfly gives some n=3 circuits a ccz, which the census's
        # construction typing rejects with ValueError: an internal defect, not
        # malformed input, so it is a failed census case and all suites report.
        monkeypatch.setattr(djphase.boolfn, "_butterfly", lambda bits, n: bits)
        code, out, err = run_cli(capsys, "verify")
        assert code == 4
        assert err == ""
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[:4]] == [
            "[FAIL] oracle-equivalence",
            "[FAIL] census",
            "[FAIL] refined-original-agreement",
            "[FAIL] formula-agreement",
        ]
        assert lines[1] == (
            "[FAIL] census: 1 failed; first: enumeration_report(3) raised: "
            "construction types cover z/cz circuits only"
        )
        assert lines[4] == "0/4 suites passed"


class TestArgHandling:
    def test_no_subcommand(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2

    def test_truth_and_file_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("01010110\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "synth", "--truth", "01010110", "--truth-file", str(path)
        )
        assert code == 2

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "djphase.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("synth", "run", "enumerate", "entangle", "verify"):
            assert name in proc.stdout

    def test_default_tol_is_the_runner_verdict_tol(self):
        parser = build_parser()
        defaults = [
            parser.parse_args(["run", "--truth", "0110"]).tol,
            parser.parse_args(["verify"]).tol,
            inspect.signature(djphase.verify.run_verification).parameters["tol"].default,
        ]
        # The very object, not an equal literal: one default to change.
        assert all(tol is djphase.dj_runner.VERDICT_TOL for tol in defaults)


class TestInternalDefect:
    # An identity butterfly gives some balanced n=3 tables a ccz, which no degree <= 2
    # ANF has: valid input, wrong internals, so exit 4 rather than 2.
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "-n", "3"),
            ("entangle", "-n", "3"),
            ("synth", "--truth", "01101001"),
            ("synth", "--truth", "01101001", "--format", "json"),
        ],
    )
    def test_wrong_anf_exits_4(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(djphase.boolfn, "_butterfly", lambda bits, n: bits)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err == "error: construction types cover z/cz circuits only\n"

    def test_classify_construction_still_rejects_with_value_error(self):
        from djphase import Circuit, MultiControlledZ, classify_construction

        with pytest.raises(ValueError, match="z/cz circuits only"):
            classify_construction(Circuit(3, (MultiControlledZ((1, 2, 3)),)))
        with pytest.raises(ValueError, match="3 qubits"):
            classify_construction(Circuit(4, (1,)))


class TestRunTextView:
    def test_histogram_block(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--truth", "01010110", "--shots", "5", "--seed", "1"
        )
        assert (code, err) == (0, "")
        assert out == (
            "truth_table: 01010110\n"
            "mode: refined\n"
            "verdict: balanced\n"
            "zero_amplitude: 0.0\n"
            "queries_used: 1\n"
            "histogram:\n"
            "  001 1\n"
            "  011 1\n"
            "  101 1\n"
            "  111 2\n"
        )


class TestEmptyTruthFile:
    @pytest.mark.parametrize("command", ["synth", "run"])
    def test_no_tables_exits_2_and_writes_nothing(self, capsys, tmp_path, command):
        path = tmp_path / "tables.txt"
        path.write_text("# only a comment\n\n   \n# another # one\n", encoding="utf-8")
        target = tmp_path / "out.txt"
        code, out, err = run_cli(
            capsys, command, "--truth-file", str(path), "--out", str(target)
        )
        assert (code, out) == (2, "")
        assert err == f"error: no truth tables found in {path}\n"
        assert not target.exists()


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "argv",
        [
            ("synth",),
            ("synth", "--format", "json"),
            ("run",),
            ("run", "--format", "json", "--shots", "16"),
        ],
    )
    def test_bom_file_reads_as_without_the_mark(self, capsys, tmp_path, argv):
        # Some Windows editors start a UTF-8 file with a byte-order mark.
        text = b"0110\n# a comment\n01010110\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        want = run_cli(capsys, *argv, "--truth-file", str(plain))
        assert want[0] == 0 and want[1]
        assert run_cli(capsys, *argv, "--truth-file", str(marked)) == want



class TestOneOutputPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--truth", "01010110"),
            ("synth", "--truth", "01010110", "--format", "json"),
            ("run", "--truth", "01010110", "--shots", "5", "--seed", "1"),
            ("enumerate", "-n", "2"),
            ("entangle", "-n", "2", "--format", "json"),
            ("verify",),
        ],
    )
    def test_handler_returns_what_main_writes(self, capsys, argv):
        args = build_parser().parse_args(argv)
        text, code = _HANDLERS[args.command](args)
        assert capsys.readouterr() == ("", "")
        assert run_cli(capsys, *argv) == (code, text, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--truth", "0110"),
            ("synth", "--truth-file", "missing.txt", "--format", "json"),
            ("run", "--truth", "0110", "--format", "json"),
            ("run", "--truth-file", "missing.txt", "--mode", "original"),
            ("enumerate", "-n", "3"),
            ("entangle", "-n", "3", "--format", "json"),
        ],
    )
    def test_missing_out_directory_fails_before_any_work(self, capsys, monkeypatch, tmp_path, argv):
        def unreachable(*args, **kwargs):
            raise AssertionError("work began before --out was checked")

        for name in ("_load_tables", "run_stacks", "synthesis_reports", "enumeration_report",
                     "entanglement_survey"):
            monkeypatch.setattr(djphase.cli, name, unreachable)
        out = tmp_path / "missing" / "out.txt"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: --out {out}: no such directory {out.parent}\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_that_is_a_directory_fails_before_any_work(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(djphase.cli, "synthesis_reports", None)  # any synth fails here
        code, stdout, err = run_cli(capsys, "synth", "--truth", "0110", "--out", str(tmp_path))
        assert (code, stdout) == (2, "")
        assert err == f"error: --out {tmp_path} is a directory\n"
        assert list(tmp_path.iterdir()) == []


def _fault_layers(monkeypatch, fault):
    """Pass every state dj_runner's Hadamard layers give, the first layer's fill included,
    through fault."""
    fill, layer = djphase.simulator.hadamard_basis_state, djphase.simulator.apply_hadamard_all
    monkeypatch.setattr(
        djphase.dj_runner, "hadamard_basis_state", lambda *a, **k: fault(fill(*a, **k))
    )
    monkeypatch.setattr(djphase.dj_runner, "apply_hadamard_all", lambda state: fault(layer(state)))


class TestRunChecksEveryTableFirst:
    # The second table fails its run's checks, so not even the first may run.
    @pytest.mark.parametrize(
        "mode,second,code,err",
        [
            ("refined", "0" * (1 << 21), 2, "refined mode supports n <= 20, got n=21"),
            ("original", "0" * (1 << 20), 2, "original mode needs n+1 qubits and supports"),
            ("refined", "0111", 3, "truth table 0111 is neither constant nor balanced"),
            ("original", "0111", 3, "truth table 0111 is neither constant nor balanced"),
        ],
        ids=["refined-too-large", "original-too-large", "refined-promise", "original-promise"],
    )
    def test_no_run_before_a_bad_table(
        self, capsys, monkeypatch, tmp_path, mode, second, code, err
    ):
        # Every run starts with a Hadamard layer on its stack of states, prepared as a
        # fill; record the preparations and the layers.
        calls = []
        _fault_layers(monkeypatch, lambda state: calls.append(state.amps.shape) or state)
        path = tmp_path / "tables.txt"
        path.write_text(f"01101001\n{second}\n", encoding="utf-8")
        got, out, stderr = run_cli(capsys, "run", "--mode", mode, "--truth-file", str(path))
        assert (got, out, calls) == (code, "", [])
        assert stderr.startswith(f"error: {err}")
        # The recorded layers are the ones the command runs: two per stack, one stack
        # per n, the working qubit doubling an original run's states.
        path.write_text("01101001\n0110\n01011010\n", encoding="utf-8")
        assert run_cli(capsys, "run", "--mode", mode, "--truth-file", str(path))[0] == 0
        wide = mode == "original"
        assert calls == [(2, 8 << wide)] * 2 + [(1, 4 << wide)] * 2


def scaled_layer(state):
    """Scale a Hadamard layer's state by 1.1, so the layer is not unitary."""
    state.amps *= 1.1
    return state


class TestNonUnitaryLayer:
    # Every post-oracle state comes from dj_runner's Hadamard layers; scaling them is
    # an internal defect, never malformed input (2) or a verdict (0).
    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--truth", "01101001"),
            # The zero amplitude reads 1.21, inside the constant band.
            ("run", "--truth", "00000000"),
            # sample_counts' own guard would call this input error.
            ("run", "--truth", "01101001", "--shots", "5"),
        ],
    )
    def test_refined_run_exits_4(self, capsys, monkeypatch, argv):
        _fault_layers(monkeypatch, scaled_layer)
        assert run_cli(capsys, *argv) == (
            4, "", "error: final probabilities sum to 1.464100: a layer is not unitary\n"
        )

    @pytest.mark.parametrize("command", ["enumerate", "entangle"])
    def test_census_exits_4(self, capsys, monkeypatch, command):
        _fault_layers(monkeypatch, scaled_layer)
        assert run_cli(capsys, command, "-n", "3") == (
            4, "", "error: state norm 1.100000 too far from 1 for diagnostics\n"
        )

    def test_verify_reports_the_census_raise(self, capsys, monkeypatch):
        _fault_layers(monkeypatch, scaled_layer)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 4
        assert (
            "[FAIL] census: 1 failed; first: enumeration_report(3) raised: "
            "state norm 1.100000 too far from 1 for diagnostics\n"
        ) in out


def nan_layer(state):
    """Write one NaN amplitude into a Hadamard layer's state."""
    state.amps[-1] = float("nan")
    return state


class TestNanState:
    # A NaN fails every guard's `not abs(x - 1) <= tol`; it must never exit 0 and print
    # NaN, which is not JSON.
    @pytest.mark.parametrize(
        "argv, err",
        [
            (("run", "--truth", "01101001"), "final probabilities sum to nan"),
            (("run", "--truth", "01101001", "--shots", "5"), "final probabilities sum to nan"),
            (("run", "--truth", "0110", "--mode", "original"), "working qubit purity nan"),
            (("enumerate", "-n", "2", "--format", "json"), "state norm nan too far from 1"),
            (("entangle", "-n", "2", "--format", "json"), "state norm nan too far from 1"),
            (("entangle", "-n", "3"), "state norm nan too far from 1"),
        ],
    )
    def test_nan_state_exits_4(self, capsys, monkeypatch, argv, err):
        _fault_layers(monkeypatch, nan_layer)
        code, out, stderr = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        assert stderr.startswith(f"error: {err}")

    def test_one_nan_state_in_a_stack_fails_the_guard(self):
        amps = np.full((3, 4), 0.5, dtype=np.complex128)
        amps[1, 2] = np.nan
        with pytest.raises(ValueError, match="state norm nan"):
            djphase.simulator.stacked_diagnostics(amps)
