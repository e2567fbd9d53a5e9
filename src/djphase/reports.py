"""Census reports over balanced functions.

Balanced functions come in complement pairs {f, 1 XOR f} whose oracles
differ only by a global sign, so the census walks canonical
representatives (f(0) = 0) and reports one row per class.  Both reports
read one walk, which diagnoses every class from one stacked post-oracle
state.  For n = 3 the rows also carry the construction-type tally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .boolfn import TruthTable, enumerate_balanced
from .oracle_compiler import SynthesisReport, report_dicts, synthesis_reports
from .dj_runner import EntanglementProfile, entanglement_profiles, zero_amplitude_formula


@dataclass(frozen=True)
class EnumerationRow:
    report: SynthesisReport
    zero_amplitude: float
    fully_product: bool


@dataclass(frozen=True)
class EnumerationReport:
    n: int
    total_balanced: int
    classes: int
    type_counts: dict[int, int] | None
    rows: tuple[EnumerationRow, ...]

    def as_dict(self) -> dict:
        return {
            **vars(self),
            "type_counts": (
                {str(k): v for k, v in sorted(self.type_counts.items())}
                if self.type_counts is not None
                else None
            ),
            "rows": [
                {**report, "zero_amplitude": row.zero_amplitude, "fully_product": row.fully_product}
                for row, report in zip(self.rows, report_dicts([row.report for row in self.rows]))
            ],
        }


def canonical_balanced(n: int) -> list[TruthTable]:
    """Canonical representatives (f(0) = 0) of balanced complement pairs, ascending."""
    return [t for t in enumerate_balanced(n) if t.bits[0] == 0]


def _census(n: int) -> tuple[list[TruthTable], list[EntanglementProfile]]:
    tables = canonical_balanced(n)
    return tables, entanglement_profiles(tables)


def enumeration_report(n: int) -> EnumerationReport:
    tables, profiles = _census(n)
    rows = tuple(
        EnumerationRow(report, zero_amplitude_formula(t), profile.fully_product)
        for t, report, profile in zip(tables, synthesis_reports(tables), profiles)
    )
    types = dict(Counter(int(row.report.construction_type) for row in rows)) if n == 3 else None
    return EnumerationReport(
        n=n,
        total_balanced=2 * len(rows),
        classes=len(rows),
        type_counts=types,
        rows=rows,
    )


@dataclass(frozen=True)
class SurveyRow:
    truth_table: TruthTable
    construction_type: int | None
    purities: tuple[float, ...]
    fully_product: bool

    def as_dict(self) -> dict:
        return {
            "truth_table": self.truth_table.text,
            "type": self.construction_type,
            "purities": list(self.purities),
            "fully_product": self.fully_product,
        }


@dataclass(frozen=True)
class EntanglementSurvey:
    n: int
    classes: int
    product_classes: int
    entangled_classes: int
    rows: tuple[SurveyRow, ...]

    def as_dict(self) -> dict:
        return {**vars(self), "rows": [row.as_dict() for row in self.rows]}


def entanglement_survey(n: int) -> EntanglementSurvey:
    """Post-oracle entanglement across canonical balanced classes."""
    tables, profiles = _census(n)
    # Construction types exist only for n = 3, where every class has one.
    if n == 3:
        types = [int(r.construction_type) for r in synthesis_reports(tables)]
    else:
        types = [None] * len(tables)
    rows = tuple(
        SurveyRow(t, ctype, profile.purities, profile.fully_product)
        for t, ctype, profile in zip(tables, types, profiles)
    )
    product = sum(row.fully_product for row in rows)
    return EntanglementSurvey(
        n=n,
        classes=len(rows),
        product_classes=product,
        entangled_classes=len(rows) - product,
        rows=rows,
    )
