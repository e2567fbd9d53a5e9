"""Dense statevector simulation for diagonal-plus-Hadamard circuits.

Amplitudes live in a flat complex array of length 2^n, basis states
indexed big-endian (qubit 1 is the most significant bit).  Qubits map to
array axes through one view and no axis permutation: qubit q is the
middle axis of amps.reshape(..., 2^(q-1), 2, -1), behind both the Hadamard
butterfly and every one-qubit purity, of one state or of a (B, 2^n) stack;
phase gates index the (2,) * n reshape in apply_gate.  apply_circuit runs
each block of consecutive phase-gate masks in Circuit.ops as one diagonal
multiply, built by numpy code of its own.  The array is mutated in place,
never through matrices; the equivalence check runs once on a real 2n-qubit
identity state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import TruthTable
from .oracle_compiler import Circuit, GateOp, Hadamard

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

MAX_QUBITS = 20
MAX_EQUIVALENCE_QUBITS = 12

PURITY_TOL = 1e-9
NORM_GUARD_TOL = 1e-6
SCHMIDT_CUTOFF = 1e-9


@dataclass
class StateVector:
    n: int
    amps: np.ndarray


def basis_state(n: int, index: int = 0) -> StateVector:
    """|index> on n qubits; n is capped at 20 to bound memory."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    dim = 1 << n
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside 0..{dim - 1}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n, amps)


def _qubit_view(amps: np.ndarray, q: int) -> np.ndarray:
    return amps.reshape(amps.shape[:-1] + (1 << (q - 1), 2, -1))


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Mutate state in place; returns it for chaining."""
    bad = [q for q in gate.qubits if q < 1 or q > state.n]
    if bad:
        raise ValueError(f"gate {gate.mnemonic} touches qubit {bad[0]} but state has {state.n}")
    if isinstance(gate, Hadamard):
        v = _qubit_view(state.amps, gate.qubits[0])
        lo = v[:, 0].copy()
        v[:, 0] = (lo + v[:, 1]) * _INV_SQRT2
        v[:, 1] = (lo - v[:, 1]) * _INV_SQRT2
    else:
        # On all n qubits the index reads a scalar copy: write through it.
        index = tuple(1 if q in gate.qubits else slice(None) for q in range(1, state.n + 1))
        state.amps.reshape((2,) * state.n)[index] *= -1.0
    return state


def _apply_phase_block(state: StateVector, n: int, masks: list[int]) -> None:
    # Gate masks -> count of each mask mod 2 -> at each index, the XOR of the
    # masks it contains (one pass per axis): the block's diagonal is
    # (-1)^parity on qubits 1..n, the most significant bits of the state.
    if not masks:
        return
    parity = np.bincount(masks, minlength=1 << n) & 1
    for q in range(1, n + 1):
        v = parity.reshape(1 << (q - 1), 2, -1)
        v[:, 1] ^= v[:, 0]
    state.amps.reshape(1 << n, -1)[...] *= (1.0 - 2.0 * parity)[:, None]


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply circuit's ops in order, each block of consecutive masks as one diagonal.

    Hadamards go through apply_gate and end a block.  The diagonal, -1 to the number
    of the block's masks each index contains, is built by code that shares nothing with
    boolfn's Moebius butterfly, so a run checks the circuit instead of undoing a wrong ANF.
    """
    if circuit.n > state.n:
        raise ValueError(f"circuit needs {circuit.n} qubits, state has {state.n}")
    masks: list[int] = []
    for op in circuit.ops:
        if isinstance(op, Hadamard):
            _apply_phase_block(state, circuit.n, masks)
            masks = []
            apply_gate(state, op)
        else:
            masks.append(op)
    _apply_phase_block(state, circuit.n, masks)
    return state


def apply_hadamard_all(state: StateVector) -> StateVector:
    for q in range(1, state.n + 1):
        apply_gate(state, Hadamard(q))
    return state


def apply_phase_oracle(state: StateVector, t: TruthTable) -> StateVector:
    """Multiply each amplitude by (-1)^f(x) straight from the truth table."""
    if t.n != state.n:
        raise ValueError(f"truth table on {t.n} qubits, state on {state.n}")
    state.amps *= 1.0 - 2.0 * np.frombuffer(t.bits, dtype=np.uint8)
    return state


def amplitude(state: StateVector, index: int) -> complex:
    if not 0 <= index < state.amps.size:
        raise ValueError(f"basis index {index} outside 0..{state.amps.size - 1}")
    return complex(state.amps[index])


def probabilities(state: StateVector) -> np.ndarray:
    return np.abs(state.amps) ** 2


def sample_counts(probs: np.ndarray, shots: int, seed: int) -> dict[int, int]:
    """Draw `shots` outcomes from a probability vector; {index: count}.

    Deterministic for a fixed seed.  Only observed outcomes appear, keys
    ascending.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = np.asarray(probs, dtype=np.float64)
    total = float(probs.sum())
    if abs(total - 1.0) > NORM_GUARD_TOL:
        raise ValueError(f"probabilities sum to {total:.6f}, too far from 1 to sample")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(probs / total)
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    draws = np.minimum(draws, probs.size - 1)
    outcomes, counts = np.unique(draws, return_counts=True)
    return {int(o): int(c) for o, c in zip(outcomes, counts)}


def sample(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Measure all qubits `shots` times; returns {basis index: count}."""
    return sample_counts(probabilities(state), shots, seed)


@dataclass(frozen=True)
class EntanglementProfile:
    purities: tuple[float, ...]
    schmidt_ranks: tuple[int, ...]
    fully_product: bool


def _qubit_rows(amps: np.ndarray, q: int) -> np.ndarray:
    return _qubit_view(amps, q).swapaxes(-3, -2).reshape(amps.shape[:-1] + (2, -1))


def _purity(m: np.ndarray) -> np.ndarray:
    rho = m @ m.conj().swapaxes(-1, -2)
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


def qubit_purity(state: StateVector, q: int) -> float:
    """Tr(rho^2) of qubit q alone: rho = M M^dagger, M has qubit q on its 2 rows."""
    return float(_purity(_qubit_rows(state.amps, q)))


def stacked_diagnostics(amps: np.ndarray) -> list[EntanglementProfile]:
    """Single-qubit reduced purities and cut Schmidt ranks of each state in a (B, 2^n) stack.

    For each qubit q each state is reshaped to a 2 x 2^(n-1) matrix M with
    qubit q on the rows; the reduced density matrix is M M^dagger, its
    purity Tr(rho^2), and the Schmidt rank across the q-vs-rest cut the
    number of singular values of M above 1e-9.  Every state must be
    normalized.
    """
    worst = max(np.linalg.norm(amps, axis=-1).tolist(), key=lambda norm: abs(norm - 1.0))
    if abs(worst - 1.0) > NORM_GUARD_TOL:
        raise ValueError(f"state norm {worst:.6f} too far from 1 for diagnostics")
    purities = []
    ranks = []
    for q in range(1, amps.shape[-1].bit_length()):
        m = _qubit_rows(amps, q)
        purities.append(_purity(m))
        ranks.append(np.sum(np.linalg.svd(m, compute_uv=False) > SCHMIDT_CUTOFF, axis=-1))
    return [
        EntanglementProfile(tuple(p), tuple(r), all(x >= 1.0 - PURITY_TOL for x in p))
        for p, r in zip(np.stack(purities, axis=-1).tolist(), np.stack(ranks, axis=-1).tolist())
    ]


def entanglement_diagnostics(state: StateVector) -> EntanglementProfile:
    """stacked_diagnostics of one state: the same floats as a stack that holds it."""
    return stacked_diagnostics(state.amps[None])[0]


@dataclass(frozen=True)
class DiagonalEquivalence:
    match: bool
    global_sign: int
    max_deviation: float


def equivalent_diagonal(c: Circuit, t: TruthTable, tol: float = 1e-9) -> DiagonalEquivalence:
    """Check that circuit c equals the phase oracle of t up to global sign.

    Runs c once on the flattened 2^n x 2^n identity as a 2n-qubit state
    (qubits 1..n the row, n+1..2n the column), which leaves the matrix U
    of c, and compares its diagonal with (-1)^f(x), trying both signs.
    Restricted to n <= 12, where U takes 128 MiB.
    """
    if c.n != t.n:
        raise ValueError(f"circuit on {c.n} qubits, truth table on {t.n}")
    if c.n > MAX_EQUIVALENCE_QUBITS:
        raise ValueError(
            f"equivalence sweep supports up to {MAX_EQUIVALENCE_QUBITS} qubits, got {c.n}"
        )
    dim = 1 << c.n
    # Every GateOp (Hadamard, PhaseGate) is real, so a float64 identity holds U.
    u = apply_circuit(StateVector(2 * c.n, np.eye(dim).reshape(-1)), c).amps.reshape(dim, dim)
    diag = u.diagonal().copy()
    np.fill_diagonal(u, 0.0)
    max_offdiag = float(np.abs(u, out=u).max())
    target = 1.0 - 2.0 * np.frombuffer(t.bits, dtype=np.uint8)
    best_sign, best_dev = 1, math.inf
    for sign in (1, -1):
        dev = float(np.max(np.abs(diag - sign * target)))
        if dev < best_dev:
            best_sign, best_dev = sign, dev
    max_deviation = max(best_dev, max_offdiag)
    match = max_deviation <= tol
    return DiagonalEquivalence(match, best_sign if match else 1, max_deviation)
