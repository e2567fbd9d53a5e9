"""Dense statevector simulation for diagonal-plus-Hadamard circuits.

Amplitudes live in a flat array of length 2^n, basis states indexed big-endian
(qubit 1 is the most significant bit), or in a (B, 2^n) stack of such states,
one per row, which every layer treats row by row with the arithmetic of one
state, an empty stack included.  Hadamards and phase gates are real, so
basis_state, and with it every run, holds float64 amplitudes; every layer also
takes complex ones.  A run's first layer is the fill hadamard_basis_state;
every other layer runs the butterflies.  Qubits map to array axes through one
view and no axis permutation: qubit q is the middle axis of amps.reshape(...,
2^(q-1), 2, 2^(n-q)), behind both the Hadamard butterfly and every one-qubit
purity; a lone phase gate indexes the (2,) * n reshape in apply_gate.  Circuits
and runs build their diagonals in one routine, apply_phase_block, which takes
phase-gate masks as row << n | mask indices into a stack: apply_circuit runs
each block of consecutive masks in Circuit.ops through it, apply_circuits the
masks of every phase-only circuit of a stack at once (a row whose circuit holds
a Hadamard runs whole through apply_circuit), and a refined run the gate-order
gather of its stack's ANFs.  The array is mutated in place, never through
matrices; the equivalence check runs once on a real 2n-qubit identity state.
stacked_counts alone reads a draw, as (row_of, index, count) arrays over a
stack's observed outcomes; sample_counts and sample give one state's as a dict.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .boolfn import TruthTable
from .oracle_compiler import Circuit, GateOp, Hadamard

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

MAX_QUBITS = 20
MAX_EQUIVALENCE_QUBITS = 12

PURITY_TOL = 1e-9
NORM_GUARD_TOL = 1e-6


@dataclass
class StateVector:
    n: int
    amps: np.ndarray


def basis_state(n: int, index: int = 0, rows: int | None = None) -> StateVector:
    """|index> on n qubits, or a (rows, 2^n) stack of it; n is capped at 20 to bound memory."""
    n, index = operator.index(n), operator.index(index)  # True is 1; 1.0 is a TypeError
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    dim = 1 << n
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside 0..{dim - 1}")
    amps = np.zeros(dim if rows is None else (rows, dim))
    amps[..., index] = 1.0
    return StateVector(n, amps)


def hadamard_basis_state(n: int, index: int = 0, rows: int | None = None) -> StateVector:
    """H^n|index>, or a stack of it, with the bits of the n butterflies on basis_state: each
    entry is +-v, v = 1.0 times 1/sqrt(2) n times in turn, as each butterfly adds 0.0 and
    scales by 1/sqrt(2), and its sign is one exact negation per set bit of index."""
    state = basis_state(n, index, rows)
    state.amps[...] = math.prod([_INV_SQRT2] * state.n, start=1.0)  # not _INV_SQRT2**n
    for j in range(state.n):
        if index >> j & 1:  # negate every entry whose index has bit j set
            state.amps.reshape(-1, 2, 1 << j)[:, 1] *= -1.0
    return state


def _qubit_view(amps: np.ndarray, q: int) -> np.ndarray:
    return amps.reshape(amps.shape[:-1] + (1 << (q - 1), 2, amps.shape[-1] >> q))


def _hadamard(amps: np.ndarray, q: int) -> None:
    v = _qubit_view(amps, q)
    lo, hi = v[..., 0, :], v[..., 1, :]
    lo[...], hi[...] = (lo + hi) * _INV_SQRT2, (lo - hi) * _INV_SQRT2


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Mutate state in place; returns it for chaining."""
    bad = [q for q in gate.qubits if q < 1 or q > state.n]
    if bad:
        raise ValueError(f"gate {gate.mnemonic} touches qubit {bad[0]} but state has {state.n}")
    if isinstance(gate, Hadamard):
        _hadamard(state.amps, gate.qubit)
    else:
        # On all n qubits the index reads a scalar copy: write through it.
        index = tuple(1 if q in gate.qubits else slice(None) for q in range(1, state.n + 1))
        state.amps.reshape((2,) * state.n)[index] *= -1.0
    return state


def apply_phase_block(amps: np.ndarray, n: int, index, rows: int = 1) -> None:
    """Multiply row r of amps by (-1) to the number of row r's masks each index contains.

    index holds row << n | mask for each phase gate, in any order.  The diagonal is
    built by code that shares nothing with boolfn's Moebius butterfly, so a run checks
    the masks instead of undoing a wrong ANF.  rows=1 gives every state of amps the one
    diagonal; n may be below the state's qubit count, as the gates act on qubits 1..n.
    """
    # index -> count of each mod 2 -> at each basis index, the XOR of the row's masks
    # it contains (one pass per axis): row r's diagonal is (-1)^parity on qubits 1..n,
    # the most significant bits of its state.
    if not len(index):
        return
    parity = np.bincount(index, minlength=rows << n) & 1
    for q in range(1, n + 1):
        v = parity.reshape(-1, 2, 1 << (n - q))
        v[:, 1] ^= v[:, 0]
    sign = (1.0 - 2.0 * parity).reshape(rows, 1 << n, 1)
    amps.reshape(-1, 1 << n, amps.shape[-1] >> n)[...] *= sign


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply circuit's ops in order, each block of consecutive masks as one
    apply_phase_block diagonal; Hadamards, already checked by Circuit, end a block."""
    if circuit.n > state.n:
        raise ValueError(f"circuit needs {circuit.n} qubits, state has {state.n}")
    masks: list[int] = []
    for op in circuit.ops:
        if isinstance(op, Hadamard):
            apply_phase_block(state.amps, circuit.n, masks)
            masks = []
            _hadamard(state.amps, op.qubit)
        else:
            masks.append(op)
    apply_phase_block(state.amps, circuit.n, masks)
    return state


def apply_circuits(state: StateVector, circuits: list[Circuit]) -> StateVector:
    """Apply circuits[r] to row r of a (B, 2^n) stack, each circuit on all n qubits.

    The masks of every phase-only circuit are one diagonal for the whole stack; a
    circuit that holds a Hadamard runs whole on its row through apply_circuit.
    """
    if state.amps.ndim != 2 or len(circuits) != state.amps.shape[0]:
        raise ValueError(f"{len(circuits)} circuits for a stack of shape {state.amps.shape}")
    n = state.n
    for row, c in enumerate(circuits):
        if c.n != n:
            raise ValueError(f"circuit {row} on {c.n} qubits, stack on {n}")
    whole = {row: c for row, c in enumerate(circuits) if {*map(type, c.ops)} - {int}}
    masks = [() if row in whole else c.ops for row, c in enumerate(circuits)]
    sizes = list(map(len, masks))
    index = np.fromiter(chain.from_iterable(masks), np.int64, sum(sizes))
    if len(masks) > 1:  # row r's masks index its own 2^n entries; row 0's need no shift
        index += np.repeat(np.arange(len(masks), dtype=np.int64) << n, sizes)
    apply_phase_block(state.amps, n, index, len(circuits))
    for row, c in whole.items():
        apply_circuit(StateVector(n, state.amps[row]), c)
    return state


def apply_hadamard_all(state: StateVector) -> StateVector:
    """H on qubits 1..n of each state: one butterfly per qubit."""
    for q in range(1, state.n + 1):
        _hadamard(state.amps, q)
    return state


def apply_phase_oracle(state: StateVector, t: TruthTable) -> StateVector:
    """Multiply each amplitude by (-1)^f(x) straight from the truth table."""
    if t.n != state.n:
        raise ValueError(f"truth table on {t.n} qubits, state on {state.n}")
    state.amps *= 1.0 - 2.0 * np.frombuffer(t.bits, dtype=np.uint8)
    return state


def amplitude(state: StateVector, index: int) -> complex:
    index = operator.index(index)  # True is 1; 1.0 is a TypeError, as in basis_state
    if not 0 <= index < state.amps.size:
        raise ValueError(f"basis index {index} outside 0..{state.amps.size - 1}")
    return complex(state.amps[index])


def probabilities(state: StateVector) -> np.ndarray:
    return np.abs(state.amps) ** 2


def stacked_counts(probs: np.ndarray, shots: int, seed: int) -> tuple[np.ndarray, ...]:
    """The observed outcomes of `shots` draws from each row of a (B, D) stack, as arrays
    (row_of, index, count) in row-major order: row row_of[j] saw index[j] count[j] times.

    Every row takes the same draws u, the seed's first `shots` uniforms, sorted once:
    index k counts the draws in [cdf[k-1], cdf[k]), the last index takes the rest.
    That is the index searchsorted(cdf, u, "right") gives each draw, clamped to D-1,
    with cdf the row's cumsum over its sum.  Deterministic for a fixed seed.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = np.asarray(probs, dtype=np.float64)
    totals = probs.sum(axis=-1, keepdims=True)
    bad = ~(np.abs(totals - 1.0) <= NORM_GUARD_TOL)  # written so that NaN fails
    if bad.any():
        total = float(totals[bad][0])
        raise ValueError(f"probabilities sum to {total:.6f}, too far from 1 to sample")
    u = np.sort(np.random.default_rng(seed).random(shots))
    below = np.searchsorted(u, np.cumsum(probs / totals, axis=-1))
    below[..., -1] = shots
    counts = np.diff(below, axis=-1, prepend=0)
    row_of, index = np.nonzero(counts)
    return row_of, index, counts[row_of, index]


def sample_counts(probs: np.ndarray, shots: int, seed: int) -> dict[int, int]:
    """{index: count} of stacked_counts on one probability vector, keys ascending."""
    _, index, count = stacked_counts(np.asarray(probs)[None], shots, seed)
    return dict(zip(index.tolist(), count.tolist()))


def sample(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Measure all qubits `shots` times; returns {basis index: count}."""
    return sample_counts(probabilities(state), shots, seed)


@dataclass(frozen=True)
class EntanglementProfile:
    purities: tuple[float, ...]
    schmidt_ranks: tuple[int, ...]
    fully_product: bool


def _qubit_rows(amps: np.ndarray, q: int) -> np.ndarray:
    return _qubit_view(amps, q).swapaxes(-3, -2).reshape(amps.shape[:-1] + (2, amps.shape[-1] >> 1))


def _purity(m: np.ndarray) -> np.ndarray:
    # Complex even for real rows: dgemm sums in another order than zgemm, and changes
    # the last bits of a printed purity.
    m = m.astype(np.complex128, copy=False)
    rho = m @ m.conj().swapaxes(-1, -2)
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


def qubit_purity(state: StateVector, q: int) -> float | np.ndarray:
    """Tr(rho^2) of qubit q alone, or an array of one per row of a stack:
    rho = M M^dagger, M has qubit q on its 2 rows."""
    if not 1 <= q <= state.n:
        raise ValueError(f"qubit {q} outside 1..{state.n}")
    purity = _purity(_qubit_rows(state.amps, q))
    return purity if purity.ndim else float(purity)


def stacked_diagnostics(amps: np.ndarray) -> list[EntanglementProfile]:
    """Single-qubit reduced purities and cut Schmidt ranks of each state in a (B, 2^n) stack.

    For each qubit q each state is reshaped to a 2 x 2^(n-1) matrix M with
    qubit q on the rows; the reduced density matrix is M M^dagger and its
    purity Tr(rho^2).  M has rank 2 unless rho is pure, so the q-vs-rest
    Schmidt rank is 1 where the purity is within PURITY_TOL of 1 and 2
    elsewhere, and fully_product holds when every rank is 1.  Every state
    must be normalized.
    """
    if not len(amps):
        return []
    norms = np.linalg.norm(amps, axis=-1)
    worst = float(norms[np.argmax(np.abs(norms - 1.0))])  # argmax picks the first NaN
    if not abs(worst - 1.0) <= NORM_GUARD_TOL:
        raise ValueError(f"state norm {worst:.6f} too far from 1 for diagnostics")
    n = amps.shape[-1].bit_length() - 1
    purities = np.stack([_purity(_qubit_rows(amps, q)) for q in range(1, n + 1)], axis=-1)
    ranks = np.where(purities >= 1.0 - PURITY_TOL, 1, 2)
    return [
        EntanglementProfile(tuple(p), tuple(r), max(r) == 1)
        for p, r in zip(purities.tolist(), ranks.tolist())
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
