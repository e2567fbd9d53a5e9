"""Dense statevector simulation for diagonal-plus-Hadamard circuits.

Amplitudes live in a flat complex array of length 2^n, basis states
indexed big-endian (qubit 1 is the most significant bit).  Qubits map to
array axes through one view and no axis permutation: qubit q is the
middle axis of amps.reshape(2^(q-1), 2, -1), behind both the Hadamard
butterfly and every one-qubit purity; phase gates index the (2,) * n
reshape.  Gates mutate the array in place, never as matrices; the
equivalence check runs once on a real 2n-qubit identity state.
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


def _qubit_view(state: StateVector, q: int) -> np.ndarray:
    return state.amps.reshape(1 << (q - 1), 2, -1)


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Mutate state in place; returns it for chaining."""
    bad = [q for q in gate.qubits if q < 1 or q > state.n]
    if bad:
        raise ValueError(f"gate {gate.mnemonic} touches qubit {bad[0]} but state has {state.n}")
    if isinstance(gate, Hadamard):
        v = _qubit_view(state, gate.qubits[0])
        lo = v[:, 0].copy()
        v[:, 0] = (lo + v[:, 1]) * _INV_SQRT2
        v[:, 1] = (lo - v[:, 1]) * _INV_SQRT2
    else:
        # On all n qubits the index reads a scalar copy: write through it.
        index = tuple(1 if q in gate.qubits else slice(None) for q in range(1, state.n + 1))
        state.amps.reshape((2,) * state.n)[index] *= -1.0
    return state


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    if circuit.n > state.n:
        raise ValueError(f"circuit needs {circuit.n} qubits, state has {state.n}")
    for gate in circuit.gates:
        apply_gate(state, gate)
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


def _qubit_rows(state: StateVector, q: int) -> np.ndarray:
    return _qubit_view(state, q).swapaxes(0, 1).reshape(2, -1)


def _purity(m: np.ndarray) -> float:
    rho = m @ m.conj().T
    return float(np.trace(rho @ rho).real)


def qubit_purity(state: StateVector, q: int) -> float:
    """Tr(rho^2) of qubit q alone: rho = M M^dagger, M has qubit q on its 2 rows."""
    return _purity(_qubit_rows(state, q))


def entanglement_diagnostics(state: StateVector) -> EntanglementProfile:
    """Single-qubit reduced purities and cut Schmidt ranks.

    For each qubit q the state is reshaped to a 2 x 2^(n-1) matrix M with
    qubit q on the rows; the reduced density matrix is M M^dagger, its
    purity Tr(rho^2), and the Schmidt rank across the q-vs-rest cut the
    number of singular values of M above 1e-9.  The state must be
    normalized.
    """
    norm = float(np.linalg.norm(state.amps))
    if abs(norm - 1.0) > NORM_GUARD_TOL:
        raise ValueError(f"state norm {norm:.6f} too far from 1 for diagnostics")
    purities = []
    ranks = []
    for q in range(1, state.n + 1):
        m = _qubit_rows(state, q)
        purities.append(_purity(m))
        singular = np.linalg.svd(m, compute_uv=False)
        ranks.append(int(np.sum(singular > SCHMIDT_CUTOFF)))
    fully_product = all(p >= 1.0 - PURITY_TOL for p in purities)
    return EntanglementProfile(tuple(purities), tuple(ranks), fully_product)


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
