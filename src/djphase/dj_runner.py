"""End-to-end Deutsch-Jozsa runs on simulated statevectors.

Two quantum variants share the decision rule on the all-zeros amplitude
after the final Hadamard layer: magnitude 1 means constant (the sign
telling constant-0 from constant-1), magnitude 0 means balanced.

* refined: n qubits, the oracle is a diagonal phase circuit synthesized
  from the function's ANF.
* original: H^(n+1), then the oracle, then H^(n+1) on |0...0>|1>, where
  qubit n+1 (the least significant bit) is the working qubit.  The oracle
  XORs f into it; it stays unentangled and ends in |1>, so the query
  amplitudes are the odd entries of the final state.

A classical baseline queries fixed inputs until the promise forces a
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .boolfn import FunctionClass, TruthTable, classify, moebius_transform
from .oracle_compiler import SelfCheckError, synthesize
from .simulator import (
    MAX_QUBITS,
    EntanglementProfile,
    StateVector,
    apply_circuit,
    apply_hadamard_all,
    apply_phase_oracle,
    basis_state,
    entanglement_diagnostics,
    probabilities,
    qubit_purity,
    stacked_diagnostics,
)

VERDICT_TOL = 1e-9


class Verdict(Enum):
    CONSTANT = "constant"
    BALANCED = "balanced"


class Mode(Enum):
    REFINED = "refined"
    ORIGINAL = "original"


class PromiseViolationError(ValueError):
    """The function is neither constant nor balanced."""


@dataclass(frozen=True)
class DjOutcome:
    verdict: Verdict
    zero_amplitude: float
    final_probabilities: np.ndarray
    queries_used: int
    mode: Mode
    final_amplitudes: np.ndarray
    working_qubit_purity: float | None


@dataclass(frozen=True)
class ClassicalOutcome:
    verdict: Verdict
    queries_used: int


def check_tol(tol: float) -> None:
    # The one tol range for every run: the bands |a| >= 1 - tol and |a| <= tol overlap
    # from 0.5 on, and below 1e-12 rounding alone (3e-15 at n=20) fails exact runs.
    if not 1e-12 <= tol < 0.5:
        raise ValueError(f"tol must satisfy 1e-12 <= tol < 0.5, got {tol!r}")


def _check_promise(t: TruthTable) -> FunctionClass:
    kind = classify(t)
    if kind == FunctionClass.OTHER:
        raise PromiseViolationError(
            f"truth table {t.text} is neither constant nor balanced"
        )
    return kind


def _decide(zero: float, tol: float) -> Verdict:
    if abs(zero) >= 1.0 - tol:
        return Verdict.CONSTANT
    if abs(zero) <= tol:
        return Verdict.BALANCED
    raise SelfCheckError(
        f"zero amplitude {zero!r} is neither near 0 nor near +-1; bad oracle?"
    )


def run_refined(t: TruthTable, tol: float = VERDICT_TOL) -> DjOutcome:
    """One oracle query on n qubits using the synthesized phase circuit."""
    check_tol(tol)
    if t.n > MAX_QUBITS:
        raise ValueError(f"refined mode supports n <= {MAX_QUBITS}, got n={t.n}")
    _check_promise(t)
    anf = moebius_transform(t)
    circuit = synthesize(anf)
    state = basis_state(t.n, 0)
    apply_hadamard_all(state)
    apply_circuit(state, circuit)
    apply_hadamard_all(state)
    if anf.has_constant_term:
        # The synthesized circuit omits the constant-1 monomial; restore
        # its global -1 so the zero amplitude carries the right sign.
        state.amps *= -1.0
    zero = float(state.amps[0].real)
    return DjOutcome(
        verdict=_decide(zero, tol),
        zero_amplitude=zero,
        final_probabilities=probabilities(state),
        queries_used=1,
        mode=Mode.REFINED,
        final_amplitudes=state.amps,
        working_qubit_purity=None,
    )


def _apply_xor_oracle(state: StateVector, t: TruthTable) -> StateVector:
    # |x>|y> -> |x>|y XOR f(x)>: swap the working-qubit pair on every row
    # where f is 1.  The working qubit is the last axis, so rows of the
    # (2^n, 2) view are indexed by x directly.
    view = state.amps.reshape(-1, 2)
    mask = np.frombuffer(t.bits, dtype=bool)
    view[mask] = view[mask][:, ::-1]
    return state


def run_original(t: TruthTable, tol: float = VERDICT_TOL) -> DjOutcome:
    """One query with a working qubit: H^(n+1) . XOR oracle . H^(n+1) on |0...0>|1>.

    The working qubit is checked to remain unentangled (purity 1 within
    tol) right after the oracle; the query register distribution is then
    read off the final state.
    """
    check_tol(tol)
    if t.n + 1 > MAX_QUBITS:
        raise ValueError(
            f"original mode needs n+1 qubits and supports n <= {MAX_QUBITS - 1}, got n={t.n}"
        )
    _check_promise(t)
    state = apply_hadamard_all(basis_state(t.n + 1, 1))
    _apply_xor_oracle(state, t)
    purity = qubit_purity(state, t.n + 1)
    if abs(purity - 1.0) > tol:
        raise SelfCheckError(
            f"working qubit purity {purity!r} drifted from 1; oracle not phase-kickback"
        )
    apply_hadamard_all(state)
    # The working qubit is back in |1>, so the query-register amplitudes
    # are the odd entries.
    zero = float(state.amps[1].real)
    marginal = probabilities(state).reshape(-1, 2).sum(axis=1)
    return DjOutcome(
        verdict=_decide(zero, tol),
        zero_amplitude=zero,
        final_probabilities=marginal,
        queries_used=1,
        mode=Mode.ORIGINAL,
        final_amplitudes=state.amps,
        working_qubit_purity=purity,
    )


def zero_amplitude_formula(t: TruthTable) -> float:
    """Closed form (1/2^n) sum over x of (-1)^f(x), exact in floats."""
    size = 1 << t.n
    return (size - 2 * t.weight) / size


def classical_decide(t: TruthTable) -> ClassicalOutcome:
    """Deterministic baseline: query inputs 0, 1, ... until certain.

    Under the promise, 2^(n-1)+1 equal answers force constant; any
    disagreement proves balanced immediately.
    """
    _check_promise(t)
    limit = (1 << (t.n - 1)) + 1
    i = t.bits.find(1 - t.bits[0], 1, limit)
    if i != -1:
        return ClassicalOutcome(Verdict.BALANCED, i + 1)
    return ClassicalOutcome(Verdict.CONSTANT, limit)


def entanglement_profile(t: TruthTable) -> EntanglementProfile:
    """Diagnostics for the refined-run state right after the oracle."""
    state = basis_state(t.n, 0)
    apply_hadamard_all(state)
    apply_phase_oracle(state, t)
    return entanglement_diagnostics(state)


def entanglement_profiles(tables: list[TruthTable]) -> list[EntanglementProfile]:
    """entanglement_profile of each table, all on one n, from one stacked post-oracle state."""
    bits = np.array([np.frombuffer(t.bits, dtype=np.uint8) for t in tables])
    plus = apply_hadamard_all(basis_state(tables[0].n, 0)).amps
    return stacked_diagnostics(plus * (1.0 - 2.0 * bits))
