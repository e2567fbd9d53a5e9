"""Census reports over balanced functions.

Balanced functions come in complement pairs {f, 1 XOR f} whose oracles
differ only by a global sign, so the census walks canonical
representatives (f(0) = 0) and reports one row per class.  For n = 3 the
rows also carry the construction-type tally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolfn import TruthTable, enumerate_balanced
from .oracle_compiler import SynthesisReport, synthesis_report
from .dj_runner import entanglement_profile, zero_amplitude_formula


@dataclass(frozen=True)
class EnumerationRow:
    report: SynthesisReport
    zero_amplitude: float
    fully_product: bool

    def as_dict(self) -> dict:
        return {
            **self.report.as_dict(),
            "zero_amplitude": self.zero_amplitude,
            "fully_product": self.fully_product,
        }


@dataclass(frozen=True)
class EnumerationReport:
    n: int
    total_balanced: int
    classes: int
    type_counts: dict[int, int] | None
    rows: tuple[EnumerationRow, ...]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "total_balanced": self.total_balanced,
            "classes": self.classes,
            "type_counts": (
                {str(k): v for k, v in sorted(self.type_counts.items())}
                if self.type_counts is not None
                else None
            ),
            "rows": [row.as_dict() for row in self.rows],
        }


def canonical_balanced(n: int) -> list[TruthTable]:
    """Canonical representatives (f(0) = 0) of balanced complement pairs, ascending."""
    return [t for t in enumerate_balanced(n) if t.values[0] == 0]


def enumeration_report(n: int) -> EnumerationReport:
    balanced = enumerate_balanced(n)
    rows = tuple(
        EnumerationRow(
            synthesis_report(t), zero_amplitude_formula(t), entanglement_profile(t).fully_product
        )
        for t in balanced
        if t.values[0] == 0
    )
    type_counts: dict[int, int] | None = None
    if n == 3:
        type_counts = {1: 0, 2: 0, 3: 0, 4: 0}
        for row in rows:
            type_counts[int(row.report.construction_type)] += 1
    return EnumerationReport(
        n=n,
        total_balanced=len(balanced),
        classes=len(rows),
        type_counts=type_counts,
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
        return {
            "n": self.n,
            "classes": self.classes,
            "product_classes": self.product_classes,
            "entangled_classes": self.entangled_classes,
            "rows": [row.as_dict() for row in self.rows],
        }


def entanglement_survey(n: int) -> EntanglementSurvey:
    """Post-oracle entanglement across canonical balanced classes."""
    # Construction types exist only for n = 3, where every class has one.
    rows = []
    for t in canonical_balanced(n):
        profile = entanglement_profile(t)
        rows.append(
            SurveyRow(
                truth_table=t,
                construction_type=int(synthesis_report(t).construction_type) if n == 3 else None,
                purities=profile.purities,
                fully_product=profile.fully_product,
            )
        )
    product = sum(row.fully_product for row in rows)
    return EntanglementSurvey(
        n=n,
        classes=len(rows),
        product_classes=product,
        entangled_classes=len(rows) - product,
        rows=tuple(rows),
    )
