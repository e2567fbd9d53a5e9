"""Phase-oracle synthesis and simulation for one-query constant-vs-balanced decisions."""

from .boolfn import (
    Anf,
    FunctionClass,
    TruthTable,
    TruthTableError,
    all_truth_tables,
    anf_texts,
    anf_to_truth_table,
    canonical,
    classify,
    complement,
    degree,
    enumerate_balanced,
    moebius_transform,
    moebius_transforms,
    parse_truth_table,
)
from .oracle_compiler import (
    Circuit,
    CircuitParseError,
    ConstructionType,
    ControlledPhase,
    GateCounts,
    GateOp,
    Hadamard,
    MultiControlledZ,
    PhaseFlip,
    PhaseGate,
    SynthesisReport,
    circuit_texts,
    classify_construction,
    emit_text,
    gate_counts,
    parse_text,
    synthesis_report,
    synthesis_reports,
    synthesize,
)
from .reports import (
    EntanglementSurvey,
    EnumerationReport,
    canonical_balanced,
    entanglement_survey,
    enumeration_report,
)
from .dj_runner import (
    ClassicalOutcome,
    DjOutcome,
    Mode,
    PromiseViolationError,
    SelfCheckError,
    Verdict,
    classical_decide,
    entanglement_profile,
    run_original,
    run_refined,
    zero_amplitude_formula,
)
from .simulator import (
    DiagonalEquivalence,
    EntanglementProfile,
    StateVector,
    amplitude,
    apply_circuit,
    apply_gate,
    apply_hadamard_all,
    apply_phase_oracle,
    basis_state,
    entanglement_diagnostics,
    equivalent_diagonal,
    hadamard_basis_state,
    probabilities,
    qubit_purity,
    sample,
    sample_counts,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

