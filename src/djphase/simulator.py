"""Dense statevector simulation for diagonal-plus-Hadamard circuits.

Amplitudes live in a flat array of length 2^n, basis states indexed
big-endian (qubit 1 is the most significant bit), or in a (B, 2^n) stack of
such states, one per row, which every layer treats row by row with the
arithmetic of one state.  Hadamards and phase gates are real, so
basis_state, and with it every run, holds float64 amplitudes; every layer
also takes complex ones.  Qubits map to array axes through one view and no
axis permutation: qubit q is the middle axis of
amps.reshape(..., 2^(q-1), 2, -1), behind both the Hadamard butterfly and
every one-qubit purity; phase gates index the (2,) * n reshape in
apply_gate.  apply_circuit runs each block of consecutive phase-gate masks
in Circuit.ops as one diagonal multiply, and apply_circuits gives each row
of a stack its own circuit's diagonal, both built by numpy code of their
own; a row whose circuit holds a Hadamard runs whole through apply_circuit.
The array is mutated in place, never through matrices; the equivalence
check runs once on a real 2n-qubit identity state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .boolfn import MAX_STACK_AMPLITUDES, TruthTable, stacks  # noqa: F401, re-exported
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
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    dim = 1 << n
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside 0..{dim - 1}")
    amps = np.zeros(dim if rows is None else (rows, dim))
    amps[..., index] = 1.0
    return StateVector(n, amps)


def _qubit_view(amps: np.ndarray, q: int) -> np.ndarray:
    return amps.reshape(amps.shape[:-1] + (1 << (q - 1), 2, -1))


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


def _apply_phase_block(amps: np.ndarray, n: int, index, rows: int = 1) -> None:
    # index holds row * 2^n + mask for each gate -> count of each mod 2 -> at each
    # basis index, the XOR of the row's masks it contains (one pass per axis): row r's
    # diagonal is (-1)^parity on qubits 1..n, the most significant bits of its state.
    # rows=1 gives every state of amps the one diagonal.
    if not len(index):
        return
    parity = np.bincount(index, minlength=rows << n) & 1
    for q in range(1, n + 1):
        v = parity.reshape(-1, 2, 1 << (n - q))
        v[:, 1] ^= v[:, 0]
    sign = (1.0 - 2.0 * parity).reshape(rows, 1 << n, 1)
    amps.reshape(-1, 1 << n, amps.shape[-1] >> n)[...] *= sign


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply circuit's ops in order, each block of consecutive masks as one diagonal.

    Hadamards, already checked by Circuit, end a block.  The diagonal, -1 to the number
    of the block's masks each index contains, is built by code that shares nothing with
    boolfn's Moebius butterfly, so a run checks the circuit instead of undoing a wrong ANF.
    """
    if circuit.n > state.n:
        raise ValueError(f"circuit needs {circuit.n} qubits, state has {state.n}")
    masks: list[int] = []
    for op in circuit.ops:
        if isinstance(op, Hadamard):
            _apply_phase_block(state.amps, circuit.n, masks)
            masks = []
            _hadamard(state.amps, op.qubit)
        else:
            masks.append(op)
    _apply_phase_block(state.amps, circuit.n, masks)
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
    _apply_phase_block(state.amps, n, index, len(circuits))
    for row, c in whole.items():
        apply_circuit(StateVector(n, state.amps[row]), c)
    return state


def _basis_index(amps: np.ndarray) -> int | None:
    """k if every row of amps is |k> with amplitude exactly 1.0, else None."""
    rows = amps.size // amps.shape[-1]
    if not rows or np.count_nonzero(amps) != rows:  # one entry per row
        return None
    k = int(np.flatnonzero(amps)[0])  # row 0's entry, unless row 0 is all zeros
    return k if k < amps.shape[-1] and (amps[..., k] == 1.0).all() else None


def apply_hadamard_all(state: StateVector) -> StateVector:
    """H on qubits 1..n of each state: one butterfly per qubit, or a fill on a basis state.

    If every row is the same |k> (one entry, exactly 1.0), each entry of H^n|k> is +-v,
    v = 1.0 times 1/sqrt(2) n times in turn, and the sign (-1)^popcount(x & k) comes
    from one half-negation per set bit of k.  A butterfly on such a state adds 0.0 and
    scales by 1/sqrt(2), so the float64 fill, cast to the input's dtype, has the
    butterflies' bits; it is taken for float64 and complex128 rows (+0.0 imaginary parts).
    """
    amps, n = state.amps, state.n
    exact = amps.shape[-1] == 1 << n and amps.dtype in (np.float64, np.complex128)
    k = _basis_index(amps) if exact else None  # other dtypes round v in their own precision
    if k is None:
        for q in range(1, n + 1):
            _hadamard(amps, q)
        return state
    v = 1.0
    for _ in range(n):
        v *= _INV_SQRT2
    fill = np.full(1 << n, v)
    for j in range(n):
        if k >> j & 1:  # negate every entry whose index has bit j set
            fill.reshape(-1, 2, 1 << j)[:, 1] *= -1.0
    amps[...] = fill
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


def stacked_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of `shots` outcomes drawn from each row of a (B, D) stack of distributions.

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
    return np.diff(below, axis=-1, prepend=0)


def sample_counts(probs: np.ndarray, shots: int, seed: int) -> dict[int, int]:
    """stacked_counts of one probability vector as {index: count}, observed outcomes only,
    keys ascending."""
    counts = stacked_counts(np.asarray(probs)[None], shots, seed)[0]
    seen = np.flatnonzero(counts)
    return dict(zip(seen.tolist(), counts[seen].tolist()))


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
    # Complex even for real rows: dgemm sums in another order than zgemm, and changes
    # the last bits of a printed purity.
    m = m.astype(np.complex128, copy=False)
    rho = m @ m.conj().swapaxes(-1, -2)
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


def qubit_purity(state: StateVector, q: int) -> float | np.ndarray:
    """Tr(rho^2) of qubit q alone, or an array of one per row of a stack:
    rho = M M^dagger, M has qubit q on its 2 rows."""
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
