"""Self-contained verification sweeps.

Four suites, each exhaustive over its domain:

* oracle-equivalence: every 3-input truth table synthesizes to a circuit
  whose diagonal matches the phase oracle up to the recorded global sign.
* census: balanced-function counts and the type tally for n = 3.
* refined-original-agreement: both quantum variants and the classical
  baseline agree on every promise-satisfying 3-input function.
* formula-agreement: the simulated zero amplitude matches the closed form.

Each suite lists every failed case and reports ``<k> failed; first: <case>``.
The last two share one walk and one refined run per table, each checking it
against its own independent reference.  A run's failed self-check is a
failed case, not an abort: in both suites for the refined run, in the
cross-mode suite for the original run; so is a census report that raises.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolfn import FunctionClass, all_truth_tables, classify, moebius_transforms
from .oracle_compiler import synthesize
from .reports import enumeration_report
from .dj_runner import (
    VERDICT_TOL,
    SelfCheckError,
    Verdict,
    check_tol,
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


def _result(name: str, failures: list[str], passing_detail: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)} failed; first: {failures[0]}")
    return CheckResult(name, True, passing_detail)


def _check_oracle_equivalence(tol: float) -> CheckResult:
    tables = list(all_truth_tables(3))
    failures = []
    for t, anf in zip(tables, moebius_transforms(tables)):
        eq = equivalent_diagonal(synthesize(anf), t, tol=tol)
        expected_sign = -1 if anf.has_constant_term else 1
        if not eq.match or eq.global_sign != expected_sign:
            failures.append(
                f"table {t.text}: match={eq.match} sign={eq.global_sign} "
                f"expected sign {expected_sign}"
            )
    return _result("oracle-equivalence", failures, f"{len(tables)} truth tables, n=3")


def _check_census() -> CheckResult:
    try:
        report = enumeration_report(3)
    except (ValueError, SelfCheckError) as exc:
        # Input here is fixed, so a raise is a defect upstream, e.g. a wrong
        # ANF whose circuit needs a gate beyond cz.
        return _result("census", [f"enumeration_report(3) raised: {exc}"], "")
    expected = {1: 7, 2: 12, 3: 12, 4: 4}
    failures = []
    if report.total_balanced != 70:
        failures.append(f"total_balanced={report.total_balanced} (want 70)")
    if report.classes != 35:
        failures.append(f"classes={report.classes} (want 35)")
    if report.type_counts != expected:
        failures.append(f"type_counts={report.type_counts} (want {expected})")
    # Unreached while synthesis_report raises on an mcz or > 3 cz; they catch it if it stops.
    for row in report.rows:
        if row.report.counts.mcz:
            failures.append(f"{row.report.truth_table.text} needs a multi-controlled Z")
        if row.report.counts.cz > 3:
            failures.append(f"{row.report.truth_table.text} uses {row.report.counts.cz} cz gates")
    max_cz = max(row.report.counts.cz for row in report.rows)
    if max_cz != 3:
        failures.append(f"max cz count {max_cz} (want 3)")
    passing = "70 balanced, 35 classes, types 7/12/12/4, no gate beyond cz, max 3 cz"
    return _result("census", failures, passing)


def _check_runs(tol: float) -> list[CheckResult]:
    runs = [(t, kind) for t in all_truth_tables(3) if (kind := classify(t)) != FunctionClass.OTHER]
    agreement, formula = [], []
    for t, kind in runs:
        try:
            refined = run_refined(t, tol=tol)
        except SelfCheckError as exc:
            agreement.append(f"table {t.text}: refined run: {exc}")
            formula.append(f"table {t.text}: refined run: {exc}")
            continue
        want_zero = zero_amplitude_formula(t)
        if not abs(refined.zero_amplitude - want_zero) <= tol:
            formula.append(
                f"table {t.text}: simulated {refined.zero_amplitude!r}, formula {want_zero!r}"
            )
        elif kind == FunctionClass.CONSTANT0 and refined.zero_amplitude < 0:
            formula.append(f"constant-0 table {t.text} came out negative")
        elif kind == FunctionClass.CONSTANT1 and refined.zero_amplitude > 0:
            formula.append(f"constant-1 table {t.text} came out positive")
        try:
            original = run_original(t, tol=tol)
        except SelfCheckError as exc:
            agreement.append(f"table {t.text}: original run: {exc}")
            continue
        classical = classical_decide(t)
        want = Verdict.BALANCED if kind == FunctionClass.BALANCED else Verdict.CONSTANT
        if not refined.verdict == original.verdict == classical.verdict == want:
            agreement.append(
                f"table {t.text}: refined={refined.verdict.value} "
                f"original={original.verdict.value} classical={classical.verdict.value}"
            )
        elif kind == FunctionClass.CONSTANT0 and classical.queries_used != 5:
            agreement.append(
                f"constant table used {classical.queries_used} classical queries (want 5)"
            )
    checked = f"{len(runs)} promise-satisfying tables, n=3"
    return [
        _result("refined-original-agreement", agreement, checked),
        _result("formula-agreement", formula, checked),
    ]


def run_verification(tol: float = VERDICT_TOL) -> list[CheckResult]:
    check_tol(tol)
    return [_check_oracle_equivalence(tol), _check_census(), *_check_runs(tol)]
