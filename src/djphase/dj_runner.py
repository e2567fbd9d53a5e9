"""End-to-end Deutsch-Jozsa runs on simulated statevectors.

Two quantum variants share one prologue, `check_run`, and one read-out:
once the final probabilities sum to 1, the all-zeros amplitude after the
final Hadamard layer decides: magnitude 1 means constant (the sign
telling constant-0 from constant-1), magnitude 0 means balanced.
`run_tables` runs a list of tables as (B, 2^n) stacks, one per n (split at
MAX_STACK_AMPLITUDES), each row with the arithmetic of its table run
alone; `run_refined(t)` and `run_original(t)` are its stack of one.

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

from .boolfn import FunctionClass, TruthTable, classify, moebius_transforms
from .oracle_compiler import SelfCheckError, synthesize
from .simulator import (
    MAX_QUBITS,
    NORM_GUARD_TOL,
    EntanglementProfile,
    StateVector,
    apply_circuits,
    apply_hadamard_all,
    basis_state,
    probabilities,
    qubit_purity,
    stacked_diagnostics,
    stacks,
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
        raise PromiseViolationError(f"truth table {t.text} is neither constant nor balanced")
    return kind


def check_run(t: TruthTable, mode: Mode, tol: float) -> None:
    """The checks a quantum run makes before any work: tol range, size limit, promise."""
    check_tol(tol)
    if mode == Mode.REFINED and t.n > MAX_QUBITS:
        raise ValueError(f"refined mode supports n <= {MAX_QUBITS}, got n={t.n}")
    if mode == Mode.ORIGINAL and t.n + 1 > MAX_QUBITS:
        raise ValueError(
            f"original mode needs n+1 qubits and supports n <= {MAX_QUBITS - 1}, got n={t.n}"
        )
    _check_promise(t)


def _read_out(total: float, zero: float, purity: float | None, tol: float) -> Verdict:
    # The verdict reads one amplitude, so a layer that scales the state could pass
    # for a constant table: the final distribution must first sum to 1.  The working
    # qubit is checked before both, as a run checks it right after the oracle.
    if purity is not None and not abs(purity - 1.0) <= tol:
        raise SelfCheckError(
            f"working qubit purity {purity!r} drifted from 1; oracle not phase-kickback"
        )
    if not abs(total - 1.0) <= NORM_GUARD_TOL:  # written so that NaN fails
        raise SelfCheckError(f"final probabilities sum to {total:.6f}: a layer is not unitary")
    if abs(zero) >= 1.0 - tol:
        return Verdict.CONSTANT
    if abs(zero) <= tol:
        return Verdict.BALANCED
    raise SelfCheckError(f"zero amplitude {zero!r} is neither near 0 nor near +-1; bad oracle?")


def _run_refined_stack(tables: list[TruthTable]) -> tuple[StateVector, np.ndarray, list]:
    """One oracle query on n qubits per row, each with its table's synthesized circuit."""
    anfs = moebius_transforms(tables)
    state = apply_hadamard_all(basis_state(tables[0].n, 0, rows=len(tables)))
    apply_circuits(state, [synthesize(a) for a in anfs])
    apply_hadamard_all(state)
    # The synthesized circuit omits the constant-1 monomial; restore its global -1
    # so the zero amplitude carries the right sign.
    flip = [a.has_constant_term for a in anfs]
    if any(flip):
        np.negative(state.amps, out=state.amps, where=np.array(flip)[:, None])
    return state, probabilities(state), [None] * len(tables)


def _apply_xor_oracle(state: StateVector, bits: bytes) -> StateVector:
    # |x>|y> -> |x>|y XOR f(x)>: swap the working-qubit pair on every row where f is 1.
    # The working qubit is the last axis, so the rows of the (-1, 2) view are each
    # state's inputs x in turn, as `bits` joins the stack's tables.
    view = state.amps.reshape(-1, 2)
    mask = np.frombuffer(bits, dtype=bool)
    view[mask] = view[mask][:, ::-1]
    return state


def _run_original_stack(tables: list[TruthTable]) -> tuple[StateVector, np.ndarray, list]:
    """H^(n+1) . XOR oracle . H^(n+1) on |0...0>|1> per row, with each working qubit's
    purity right after the oracle."""
    n, rows = tables[0].n, len(tables)
    state = apply_hadamard_all(basis_state(n + 1, 1, rows=rows))
    _apply_xor_oracle(state, b"".join(t.bits for t in tables))
    purities = qubit_purity(state, n + 1).tolist()
    apply_hadamard_all(state)
    # The working qubit is back in |1>, so the query-register amplitudes are the odd
    # entries.
    marginal = probabilities(state).reshape(rows, -1, 2).sum(axis=-1)
    return state, marginal, purities


def run_tables(
    tables: list[TruthTable], mode: Mode, tol: float = VERDICT_TOL
) -> list[DjOutcome]:
    """The run of each table in `mode`, in order, after check_run on every one.

    Tables of one n run as one (B, 2^n) stack (B * 2^qubits <= MAX_STACK_AMPLITUDES,
    a wider table alone) with the arithmetic of one state per row, so each outcome
    equals its table's run alone bit for bit.  If any row fails a self-check, the
    SelfCheckError of the first such table in order is raised.
    """
    for t in tables:
        check_run(t, mode, tol)
    original = mode == Mode.ORIGINAL
    run_stack = _run_original_stack if original else _run_refined_stack
    outcomes: list = [None] * len(tables)
    for rows in stacks([1 << (t.n + original) for t in tables]):
        state, probs, purities = run_stack([tables[i] for i in rows])
        # An original run's working qubit ends in |1>: its zero amplitude is entry 1.
        zeros = state.amps[:, int(original)].real.tolist()
        totals = probs.sum(axis=-1).tolist()
        for k, (i, purity) in enumerate(zip(rows, purities)):
            try:
                verdict = _read_out(totals[k], zeros[k], purity, tol)
            except SelfCheckError as exc:
                outcomes[i] = exc
                continue
            outcomes[i] = DjOutcome(verdict, zeros[k], probs[k], 1, mode, state.amps[k], purity)
    for out in outcomes:
        if isinstance(out, SelfCheckError):
            raise out
    return outcomes


def run_refined(t: TruthTable, tol: float = VERDICT_TOL) -> DjOutcome:
    """One oracle query on n qubits using the synthesized phase circuit."""
    return run_tables([t], Mode.REFINED, tol)[0]


def run_original(t: TruthTable, tol: float = VERDICT_TOL) -> DjOutcome:
    """One query with a working qubit: H^(n+1) . XOR oracle . H^(n+1) on |0...0>|1>.

    The working qubit is checked to remain unentangled (purity 1 within
    tol) right after the oracle; the query register distribution is then
    read off the final state.
    """
    return run_tables([t], Mode.ORIGINAL, tol)[0]


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
    """Diagnostics for the refined-run state right after the oracle: a stack of one."""
    return entanglement_profiles([t])[0]


def entanglement_profiles(tables: list[TruthTable]) -> list[EntanglementProfile]:
    """entanglement_profile of each table, all on one n, from one stacked post-oracle state."""
    n = tables[0].n
    if any(t.n != n for t in tables):
        raise ValueError(f"tables on {sorted({t.n for t in tables})} qubits; a stack takes one n")
    bits = np.frombuffer(b"".join(t.bits for t in tables), dtype=np.uint8).reshape(-1, 1 << n)
    plus = apply_hadamard_all(basis_state(n, 0)).amps
    try:
        return stacked_diagnostics(plus * (1.0 - 2.0 * bits))
    except ValueError as exc:
        # The stack is built here from valid tables, so a failed guard is a defect.
        raise SelfCheckError(str(exc)) from exc
