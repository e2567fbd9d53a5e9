"""The benchmark's checkers accept djphase's real outputs and reject corrupted ones.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

import checks
import inputs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from djphase import cli, equivalent_diagonal, parse_text, parse_truth_table  # noqa: E402

SHOTS = 64
TABLES = [
    inputs.Table("01010110", "balanced"),  # x3 + x1*x2
    inputs.Table("10101001", "balanced"),  # its complement: f(0) = 1
    inputs.Table("11111111", "constant"),
    inputs.from_anf(5, [{5}, {1, 2}, {2, 3, 4}]),
]


def djphase_json(tmp_path: Path, argv: list[str]):
    out = tmp_path / "out.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv + ["--out", str(out)] if argv[0] != "verify" else argv)
    assert code == 0
    return json.loads(out.read_text() if argv[0] != "verify" else stdout.getvalue())


@pytest.fixture
def truth_file(tmp_path: Path) -> str:
    path = tmp_path / "tables.txt"
    path.write_text("".join(t.bits + "\n" for t in TABLES))
    return str(path)


def test_synth_payloads_pass_and_a_dropped_gate_is_caught(tmp_path, truth_file):
    payloads = djphase_json(tmp_path, ["synth", "--truth-file", truth_file, "--format", "json"])
    for p, t in zip(payloads, TABLES):
        assert checks.synth_payload_problems(p, t) == []
    for p, t in zip(payloads, TABLES):
        if t.label == "balanced":
            dropped = "".join(p["circuit"].splitlines(keepends=True)[:-1])
            assert checks.synth_payload_problems(dict(p, circuit=dropped), t)


def test_structured_table_must_compile_to_its_anf(tmp_path, truth_file):
    payloads = djphase_json(tmp_path, ["synth", "--truth-file", truth_file, "--format", "json"])
    table = TABLES[3]
    assert checks.structure_problems(table, checks.parse_circuit(payloads[3]["circuit"])[1]) == []
    fewer = inputs.Table(table.bits, table.label, anf=table.anf - {frozenset({2, 3, 4})})
    assert checks.structure_problems(fewer, checks.parse_circuit(payloads[3]["circuit"])[1])


def test_sampled_inputs_catch_a_dropped_gate():
    table = inputs.from_anf(12, [{12}, {1, 2}, {3, 4, 5}, {6, 7}])
    text = "qubits 12\nz 12\ncz 1 2\ncz 6 7\nccz 3 4 5\n"
    xs = inputs.make_rng(7).choice(1 << 12, 256, replace=False)
    assert checks.circuit_problems(table.bits, text, xs) == []
    assert checks.circuit_problems(table.bits, text.replace("cz 6 7\n", ""), xs)


def test_text_synth_blocks_are_checked_in_order(tmp_path, truth_file):
    out = tmp_path / "circuits.txt"
    assert cli.main(["synth", "--truth-file", truth_file, "--out", str(out)]) == 0
    text = out.read_text()
    assert checks.synth_text_problems(text, TABLES, lambda t: None) == []
    assert checks.synth_text_problems(text, TABLES[::-1], lambda t: None)
    assert checks.synth_text_problems(text.replace("cz 1 2\n", "", 1), TABLES, lambda t: None)


def test_refined_run_passes_and_a_flipped_verdict_is_caught(tmp_path, truth_file):
    argv = ["run", "--truth-file", truth_file, "--format", "json", "--shots", str(SHOTS), "--seed", "3"]
    payloads = djphase_json(tmp_path, argv)
    for p, t in zip(payloads, TABLES):
        assert checks.refined_payload_problems(p, t, SHOTS) == []
    for p, t in zip(payloads, TABLES):
        flipped = dict(p, verdict="constant" if p["verdict"] == "balanced" else "balanced")
        assert checks.refined_payload_problems(flipped, t, SHOTS)


def test_sign_errors_are_caught(tmp_path, truth_file):
    payloads = djphase_json(tmp_path, ["run", "--truth-file", truth_file, "--format", "json",
                                       "--shots", str(SHOTS)])
    constant = payloads[2]
    assert abs(constant["zero_amplitude"] + 1.0) < checks.VERDICT_TOL
    assert checks.refined_payload_problems(dict(constant, zero_amplitude=1.0), TABLES[2], SHOTS)
    for t in TABLES[:2]:
        circuit = parse_text(_circuit_text(tmp_path, t.bits))
        eq = equivalent_diagonal(circuit, parse_truth_table(t.bits))
        assert checks.equivalence_problems(eq, t.bits) == []
        wrong_sign = type(eq)(eq.match, -eq.global_sign, eq.max_deviation)
        assert checks.equivalence_problems(wrong_sign, t.bits)


def _circuit_text(tmp_path: Path, bits: str) -> str:
    out = tmp_path / "circuit.txt"
    assert cli.main(["synth", "--truth", bits, "--out", str(out)]) == 0
    return out.read_text()


def test_balanced_shots_on_zero_and_bad_probabilities_are_caught(tmp_path, truth_file):
    p = djphase_json(tmp_path, ["run", "--truth-file", truth_file, "--format", "json",
                                "--shots", str(SHOTS)])[0]
    hist = dict(p["histogram"])
    key = next(iter(hist))
    hist["000"] = hist.pop(key)
    assert checks.refined_payload_problems(dict(p, histogram=hist), TABLES[0], SHOTS)
    probs = list(p["probabilities"])
    probs[0], probs[1] = probs[1], probs[0]
    assert checks.refined_payload_problems(dict(p, probabilities=probs), TABLES[0], SHOTS)


def test_original_run_passes_and_impure_working_qubit_is_caught(tmp_path, truth_file):
    payloads = djphase_json(tmp_path, ["run", "--truth-file", truth_file, "--mode", "original",
                                       "--format", "json"])
    for p, t in zip(payloads, TABLES):
        assert checks.original_payload_problems(p, t) == []
    assert checks.original_payload_problems(dict(payloads[0], working_qubit_purity=0.5), TABLES[0])
    flipped = dict(payloads[2], verdict="balanced")
    assert checks.original_payload_problems(flipped, TABLES[2])


def test_census_passes_and_wrong_counts_are_caught(tmp_path):
    report = djphase_json(tmp_path, ["enumerate", "-n", "3", "--format", "json"])
    assert checks.enumeration_problems(report, 3) == []
    assert checks.enumeration_problems(dict(report, classes=34), 3)
    assert checks.enumeration_problems(dict(report, total_balanced=72), 3)
    assert checks.enumeration_problems(dict(report, type_counts={"1": 8, "2": 11, "3": 12, "4": 4}), 3)
    assert checks.enumeration_problems(dict(report, rows=report["rows"][1:]), 3)
    rows = copy.deepcopy(report["rows"])
    rows[-1]["circuit"] = "".join(rows[-1]["circuit"].splitlines(keepends=True)[:-1])
    assert checks.enumeration_problems(dict(report, rows=rows), 3)


def test_survey_passes_and_wrong_product_count_is_caught(tmp_path):
    survey = djphase_json(tmp_path, ["entangle", "-n", "3", "--format", "json"])
    assert checks.survey_problems(survey, 3) == []
    assert checks.survey_problems(dict(survey, product_classes=8, entangled_classes=27), 3)
    rows = copy.deepcopy(survey["rows"])
    rows[0]["fully_product"] = not rows[0]["fully_product"]
    assert checks.survey_problems(dict(survey, rows=rows), 3)


def test_verify_passes_and_a_failed_suite_is_caught(tmp_path):
    results = djphase_json(tmp_path, ["verify", "--json"])
    assert checks.verify_problems(results, 0) == []
    failed = copy.deepcopy(results)
    failed[1]["passed"] = False
    assert checks.verify_problems(failed, 4)
    assert checks.verify_problems(results[:3], 0)


def test_parse_text_result_is_compared_with_the_text(tmp_path):
    text = _circuit_text(tmp_path, "01010110")
    circuit = parse_text(text)
    assert checks.parsed_circuit_problems(circuit, text) == []
    assert checks.parsed_circuit_problems(parse_text("qubits 3\nz 3\n"), text)


def test_independent_helpers_agree_with_known_answers():
    assert checks.anf_subset_sum("01010110") == {frozenset({3}), frozenset({1, 2})}
    assert checks.parse_anf("1 + x3 + x1*x2") == {frozenset(), frozenset({3}), frozenset({1, 2})}
    assert checks.is_affine("01011010") and not checks.is_affine("01010110")
    assert checks.expected_zero("11111111") == -1.0 and checks.expected_zero("01010110") == 0.0
    assert inputs.from_anf(3, [{3}, {1, 2}]).bits == "01010110"
