"""End-to-end Deutsch-Jozsa runs on simulated statevectors.

Two quantum variants share one prologue, `check_run`, and one read-out:
once the final probabilities sum to 1, the all-zeros amplitude after the
final Hadamard layer decides: magnitude 1 means constant (the sign
telling constant-0 from constant-1), magnitude 0 means balanced.
`run_stacks` is the stacked core: it makes the prologue's checks once for a
whole list (one tol check, one weight per table, the first failing table
raising check_run's error) before any run, walks the list as the (B, 2^n)
stacks that `boolfn.stacks` cuts, each row with the arithmetic of its table
alone, and gives each stack's outcomes as columns (`RunStack`): arrays, and
one verdict per row from `_read_out` on the row's floats.  `run_tables`
views those columns as one `DjOutcome` per table, and `run_refined(t)` and
`run_original(t)` are a stack of one.  `entanglement_profiles` walks the
same stacks.

* refined: n qubits, the oracle is the diagonal of the phase gates of the
  function's ANF.  A stack takes them from one butterfly over its joined bits
  (`moebius_coeffs`) and one gate-order gather over the coefficients
  (`gate_masks`, the masks `synthesize` would give each circuit), applied as
  row << n | mask indices by the simulator's one diagonal routine; no per-table
  Anf or Circuit is built.
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
from typing import NamedTuple

import numpy as np

from .boolfn import FunctionClass, TruthTable, classify, moebius_coeffs, stacks
from .oracle_compiler import SelfCheckError, gate_masks
from .simulator import (
    MAX_QUBITS,
    NORM_GUARD_TOL,
    EntanglementProfile,
    StateVector,
    apply_hadamard_all,
    apply_phase_block,
    hadamard_basis_state,
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


class RunStack(NamedTuple):
    """The outcomes of one stack of a run as columns, row k being table rows[k]."""

    rows: list[int]
    zeros: np.ndarray  # zero amplitude of each row
    verdicts: list[Verdict]
    probabilities: np.ndarray  # (B, 2^n) final distributions of the query register
    purities: np.ndarray | None  # working-qubit purities of an original run
    state: StateVector | None  # the final states, None where a caller lets them go


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


def _run_refined_stack(tables: list[TruthTable]) -> tuple[StateVector, np.ndarray, None]:
    """One oracle query on n qubits per row, each with the phase gates of its table's ANF."""
    n, rows = tables[0].n, len(tables)
    coeffs = moebius_coeffs(tables)
    positions, masks = gate_masks(n, coeffs)
    index = positions // ((1 << n) - 1)  # each gate's row, whose 2^n entries it indexes
    index <<= n
    index |= masks
    state = hadamard_basis_state(n, 0, rows=rows)
    apply_phase_block(state.amps, n, index, rows)
    apply_hadamard_all(state)
    # The phase gates omit the constant-1 monomial; restore its global -1 so the zero
    # amplitude carries the right sign.
    flip = np.frombuffer(coeffs, bool)[:: 1 << n]
    if flip.any():
        np.negative(state.amps, out=state.amps, where=flip[:, None])
    return state, probabilities(state), None


def _apply_xor_oracle(state: StateVector, bits: bytes) -> StateVector:
    # |x>|y> -> |x>|y XOR f(x)>: swap the working-qubit pair on every row where f is 1.
    # The working qubit is the last axis, so the rows of the (-1, 2) view are each
    # state's inputs x in turn, as `bits` joins the stack's tables.
    view = state.amps.reshape(-1, 2)
    mask = np.frombuffer(bits, dtype=bool)
    view[mask] = view[mask][:, ::-1]
    return state


def _run_original_stack(tables: list[TruthTable]) -> tuple[StateVector, np.ndarray, np.ndarray]:
    """H^(n+1) . XOR oracle . H^(n+1) on |0...0>|1> per row, with each working qubit's
    purity right after the oracle."""
    n, rows = tables[0].n, len(tables)
    state = hadamard_basis_state(n + 1, 1, rows=rows)
    _apply_xor_oracle(state, b"".join([t.bits for t in tables]))
    purities = qubit_purity(state, n + 1)
    apply_hadamard_all(state)
    # The working qubit is back in |1>, so the query-register amplitudes are the odd
    # entries.
    marginal = probabilities(state).reshape(rows, -1, 2).sum(axis=-1)
    return state, marginal, purities


def _check_tables(tables: list[TruthTable], mode: Mode, tol: float) -> None:
    """check_run on every table, in one pass: the first failing table raises its error."""
    check_tol(tol)
    limit = MAX_QUBITS - (mode == Mode.ORIGINAL)
    for t in tables:
        weight = t.bits.count(1)  # constant: 0 or 2^n; balanced: 2^(n-1)
        if t.n > limit or weight and weight != len(t.bits) and 2 * weight != len(t.bits):
            check_run(t, mode, tol)


def run_stacks(tables: list[TruthTable], mode: Mode, tol: float = VERDICT_TOL) -> list[RunStack]:
    """The run of each table in `mode` as one RunStack per `stacks` stack, after the
    checks of check_run on every table.

    Each stack runs as one (B, 2^n) state (B * 2^qubits <= MAX_STACK_AMPLITUDES, a
    wider table alone) with the arithmetic of one state per row, so each row equals its
    table's run alone bit for bit.  Every stack runs before a self-check raises, so that
    the error is that of the first failing table in order.
    """
    _check_tables(tables, mode, tol)
    original = mode == Mode.ORIGINAL
    run_stack = _run_original_stack if original else _run_refined_stack
    out, first = [], None
    for rows in stacks([1 << (t.n + original) for t in tables]):
        state, probs, purities = run_stack([tables[i] for i in rows])
        # An original run's working qubit ends in |1>: its zero amplitude is entry 1.
        zeros = state.amps[:, int(original)].real.copy()
        values = zip(rows, probs.sum(axis=-1).tolist(), zeros.tolist(),
                     [None] * len(rows) if purities is None else purities.tolist())
        verdicts = []
        for i, total, zero, purity in values:
            try:
                verdicts.append(_read_out(total, zero, purity, tol))
            except SelfCheckError as exc:
                if first is None or i < first[0]:
                    first = i, exc
                break  # the stack's later rows come later in the file
        out.append(RunStack(rows, zeros, verdicts, probs, purities, state))
    if first is not None:
        raise first[1]
    return out


def run_tables(
    tables: list[TruthTable], mode: Mode, tol: float = VERDICT_TOL
) -> list[DjOutcome]:
    """The DjOutcome of each table's run in `mode`, in order: run_stacks' rows."""
    outcomes: list = [None] * len(tables)
    for s in run_stacks(tables, mode, tol):
        purities = [None] * len(s.rows) if s.purities is None else s.purities.tolist()
        columns = zip(s.rows, s.zeros.tolist(), s.verdicts, purities)
        for k, (i, zero, verdict, purity) in enumerate(columns):
            outcomes[i] = DjOutcome(
                verdict, zero, s.probabilities[k], 1, mode, s.state.amps[k], purity
            )
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
    """entanglement_profile of each table, in order, one post-oracle state per `stacks` stack."""
    out: dict = {}
    for rows in stacks([1 << t.n for t in tables]):
        signs = 1.0 - 2.0 * np.frombuffer(b"".join(tables[i].bits for i in rows), np.uint8)
        plus = hadamard_basis_state(tables[rows[0]].n, 0).amps
        try:
            out.update(zip(rows, stacked_diagnostics(plus * signs.reshape(len(rows), -1))))
        except ValueError as exc:
            # The stack is built here from valid tables, so a failed guard is a defect.
            raise SelfCheckError(str(exc)) from exc
    return [out[i] for i in range(len(tables))]
