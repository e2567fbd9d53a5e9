"""Self-contained verification sweeps.

Four suites, each exhaustive over its domain:

* oracle-equivalence: every 3-input truth table synthesizes to a circuit
  whose diagonal matches the phase oracle up to the recorded global sign.
* census: balanced-function counts and the type tally for n = 3.
* refined-original-agreement: both quantum variants and the classical
  baseline agree on every promise-satisfying 3-input function.
* formula-agreement: the simulated zero amplitude matches the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolfn import FunctionClass, TruthTable, all_truth_tables, classify, moebius_transform
from .oracle_compiler import synthesize
from .reports import enumeration_report
from .dj_runner import (
    DjOutcome,
    Verdict,
    classical_decide,
    run_original,
    run_refined,
    zero_amplitude_formula,
)
from .simulator import equivalent_diagonal


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_oracle_equivalence(tol: float) -> CheckResult:
    checked = 0
    for t in all_truth_tables(3):
        anf = moebius_transform(t)
        circuit = synthesize(anf)
        eq = equivalent_diagonal(circuit, t, tol=tol)
        expected_sign = -1 if anf.has_constant_term else 1
        if not eq.match or eq.global_sign != expected_sign:
            return CheckResult(
                "oracle-equivalence",
                False,
                f"table {t.text}: match={eq.match} sign={eq.global_sign} "
                f"expected sign {expected_sign}",
            )
        checked += 1
    return CheckResult("oracle-equivalence", True, f"{checked} truth tables, n=3")


def _check_census(tol: float) -> CheckResult:
    report = enumeration_report(3)
    expected = {1: 7, 2: 12, 3: 12, 4: 4}
    problems = []
    if report.total_balanced != 70:
        problems.append(f"total_balanced={report.total_balanced} (want 70)")
    if report.classes != 35:
        problems.append(f"classes={report.classes} (want 35)")
    if report.type_counts != expected:
        problems.append(f"type_counts={report.type_counts} (want {expected})")
    for row in report.rows:
        if row.report.counts.mcz:
            problems.append(f"{row.report.truth_table.text} needs a multi-controlled Z")
        if row.report.counts.cz > 3:
            problems.append(f"{row.report.truth_table.text} uses {row.report.counts.cz} cz gates")
    max_cz = max(row.report.counts.cz for row in report.rows)
    if max_cz != 3:
        problems.append(f"max cz count {max_cz} (want 3)")
    if problems:
        return CheckResult("census", False, "; ".join(problems))
    return CheckResult(
        "census",
        True,
        "70 balanced, 35 classes, types 7/12/12/4, no gate beyond cz, max 3 cz",
    )


def _check_agreement(runs: list[tuple[TruthTable, DjOutcome]], tol: float) -> CheckResult:
    checked = 0
    for t, refined in runs:
        kind = classify(t)
        original = run_original(t, tol=tol)
        classical = classical_decide(t)
        want = Verdict.BALANCED if kind == FunctionClass.BALANCED else Verdict.CONSTANT
        if not refined.verdict == original.verdict == classical.verdict == want:
            return CheckResult(
                "refined-original-agreement",
                False,
                f"table {t.text}: refined={refined.verdict.value} "
                f"original={original.verdict.value} classical={classical.verdict.value}",
            )
        if original.working_qubit_purity is None or abs(original.working_qubit_purity - 1.0) > tol:
            return CheckResult(
                "refined-original-agreement",
                False,
                f"table {t.text}: working qubit purity {original.working_qubit_purity}",
            )
        if kind == FunctionClass.CONSTANT0 and classical.queries_used != 5:
            return CheckResult(
                "refined-original-agreement",
                False,
                f"constant table used {classical.queries_used} classical queries (want 5)",
            )
        checked += 1
    return CheckResult(
        "refined-original-agreement", True, f"{checked} promise-satisfying tables, n=3"
    )


def _check_formula(runs: list[tuple[TruthTable, DjOutcome]], tol: float) -> CheckResult:
    checked = 0
    for t, out in runs:
        kind = classify(t)
        want = zero_amplitude_formula(t)
        if abs(out.zero_amplitude - want) > tol:
            return CheckResult(
                "formula-agreement",
                False,
                f"table {t.text}: simulated {out.zero_amplitude!r}, formula {want!r}",
            )
        if kind == FunctionClass.CONSTANT0 and out.zero_amplitude < 0:
            return CheckResult(
                "formula-agreement", False, f"constant-0 table {t.text} came out negative"
            )
        if kind == FunctionClass.CONSTANT1 and out.zero_amplitude > 0:
            return CheckResult(
                "formula-agreement", False, f"constant-1 table {t.text} came out positive"
            )
        checked += 1
    return CheckResult("formula-agreement", True, f"{checked} promise-satisfying tables, n=3")


def run_verification(tol: float = 1e-9) -> list[CheckResult]:
    # One refined run per promise-satisfying table feeds both agreement
    # suites; each compares it against its own independent reference.
    runs = [
        (t, run_refined(t, tol=tol))
        for t in all_truth_tables(3)
        if classify(t) != FunctionClass.OTHER
    ]
    return [
        _check_oracle_equivalence(tol),
        _check_census(tol),
        _check_agreement(runs, tol),
        _check_formula(runs, tol),
    ]
