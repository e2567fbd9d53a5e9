"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles with explicit
bit loops and dense matrices, deliberately avoiding the reshape and
butterfly machinery under test.
"""

from __future__ import annotations

import numpy as np

from djphase import Circuit, CircuitParseError, Hadamard


def bit_of(index: int, qubit: int, n: int) -> int:
    """Value of 1-based qubit (qubit 1 = most significant bit) in index."""
    return (index >> (n - qubit)) & 1


def eval_monomials(monomials, x: int, n: int) -> int:
    """Evaluate an XOR of monomials at input x by direct substitution."""
    acc = 0
    for mono in monomials:
        term = 1
        for j in mono:
            term &= bit_of(x, j, n)
        acc ^= term
    return acc


def mask_bits(mask: int, n: int) -> tuple[int, ...]:
    """The qubits whose bit is set in a monomial mask, by one bit test per qubit."""
    return tuple(j for j in range(1, n + 1) if mask >> (n - j) & 1)


def monomials_by_bits(coeffs, n: int) -> list[tuple[int, ...]]:
    """Each nonzero coefficient's qubit tuple, in coefficient index order."""
    return [mask_bits(m, n) for m in range(1 << n) if coeffs[m]]


def gate_order(monos) -> list[tuple[int, ...]]:
    """Qubit tuples but the constant (), by (min(arity, 3), qubits)."""
    return sorted((q for q in monos if q), key=lambda q: (min(len(q), 3), q))


def render(monos) -> str:
    """The ANF as text, terms by (degree, qubits), the constant term as "1"."""
    terms = sorted(monos, key=lambda q: (len(q), q))
    return " + ".join("*".join(f"x{j}" for j in q) or "1" for q in terms) or "0"


def emit_text(n: int, ops) -> str:
    """The circuit text format, one f-string per line; ops are masks or Hadamards."""
    lines = [f"qubits {n}"]
    for op in ops:
        if type(op) is int:
            qubits = mask_bits(op, n)
            lines.append(f"{'c' * (len(qubits) - 1)}z {' '.join(map(str, qubits))}")
        else:
            lines.append(f"h {op.qubit}")
    return "".join(line + "\n" for line in lines)


def _index(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: expected qubit index, got {token!r}") from None


def parse_text_reference(text: str) -> Circuit:
    """The circuit text format read token by token: `int` per index, masks from qubit tuples.

    Accepts and rejects what `parse_text` does, with the same messages and line numbers.
    """
    n = None
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *args = line.split()
        if n is None:
            if keyword != "qubits":
                raise CircuitParseError(f"line {lineno}: expected 'qubits <n>' header first")
            if len(args) != 1:
                raise CircuitParseError(f"line {lineno}: 'qubits' takes exactly one count")
            n = _index(args[0], lineno)
            if n < 1:
                raise CircuitParseError(f"line {lineno}: qubit count must be >= 1, got {n}")
            continue
        if keyword == "qubits":
            raise CircuitParseError(f"line {lineno}: duplicate 'qubits' header")
        qubits = tuple(_index(a, lineno) for a in args)
        if not all(1 <= q <= n for q in qubits):
            raise CircuitParseError(f"line {lineno}: qubit index outside 1..{n}")
        if keyword == "h":
            arity = 1
        elif keyword.lstrip("c") == "z":
            arity = len(keyword)
        else:
            raise CircuitParseError(f"line {lineno}: unknown gate {keyword!r}")
        if len(qubits) != arity or len(set(qubits)) != arity:
            raise CircuitParseError(f"line {lineno}: '{keyword}' takes {arity} distinct qubit(s)")
        if keyword == "h":
            ops.append(Hadamard(qubits[0]))
        else:
            mask = 0
            for q in qubits:
                mask |= 1 << (n - q)
            ops.append(mask)
    if n is None:
        raise CircuitParseError("empty circuit text: missing 'qubits <n>' header")
    return Circuit(n, ops)


def moebius_bruteforce(values, n: int) -> set[frozenset[int]]:
    """ANF coefficients via the subset-sum rule: a_S = XOR of f over x <= S."""
    monos = set()
    for m in range(1 << n):
        coeff = 0
        for x in range(1 << n):
            if x & ~m == 0:
                coeff ^= values[x]
        if coeff:
            monos.add(frozenset(j for j in range(1, n + 1) if (m >> (n - j)) & 1))
    return monos


def phase_flip_matrix(n: int, qubit: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        m[i, i] = -1.0 if bit_of(i, qubit, n) else 1.0
    return m


def controlled_phase_matrix(n: int, j: int, k: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        both = bit_of(i, j, n) and bit_of(i, k, n)
        m[i, i] = -1.0 if both else 1.0
    return m


def multi_controlled_z_matrix(n: int, qubits) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        allones = all(bit_of(i, q, n) for q in qubits)
        m[i, i] = -1.0 if allones else 1.0
    return m


def hadamard_matrix(n: int, qubit: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    flip = 1 << (n - qubit)
    for col in range(dim):
        if bit_of(col, qubit, n) == 0:
            m[col, col] += s
            m[col ^ flip, col] += s
        else:
            m[col ^ flip, col] += s
            m[col, col] -= s
    return m


def gate_matrix(n: int, gate) -> np.ndarray:
    """Dense matrix for a package gate, dispatched on its mnemonic."""
    name = gate.mnemonic
    qs = gate.qubits
    if name == "z":
        return phase_flip_matrix(n, qs[0])
    if name == "cz":
        return controlled_phase_matrix(n, qs[0], qs[1])
    if name == "h":
        return hadamard_matrix(n, qs[0])
    return multi_controlled_z_matrix(n, qs)


def circuit_matrix(n: int, gates) -> np.ndarray:
    m = np.eye(1 << n, dtype=complex)
    for g in gates:
        m = gate_matrix(n, g) @ m
    return m


def reduced_purity(amps, qubit: int, n: int) -> float:
    """Tr(rho^2) of one qubit's marginal by an explicit double loop."""
    amps = np.asarray(amps)
    rho = np.zeros((2, 2), dtype=complex)
    clear = ~(1 << (n - qubit))
    for i in range(1 << n):
        for j in range(1 << n):
            if i & clear == j & clear:
                rho[bit_of(i, qubit, n), bit_of(j, qubit, n)] += amps[i] * np.conj(amps[j])
    purity = 0.0
    for a in range(2):
        for b in range(2):
            purity += (rho[a, b] * rho[b, a]).real
    return float(purity)


def post_oracle_state(values, n: int) -> np.ndarray:
    """The uniform superposition with signs (-1)^f(x), built directly."""
    dim = 1 << n
    return np.array([(-1.0) ** values[x] for x in range(dim)], dtype=complex) / np.sqrt(dim)


def sample_counts_per_draw(probs, shots: int, seed: int) -> dict[int, int]:
    """{index: count} of `shots` draws, each placed on its own in the cumulative sum.

    A draw u lands on the first index whose cumulative probability exceeds it
    (searchsorted "right"), clamped to the last index; the same `shots` uniforms
    of the seed as the package's sampler, taken unsorted.
    """
    probs = np.asarray(probs, dtype=np.float64)
    cdf = np.cumsum(probs / float(probs.sum()))
    draws = np.searchsorted(cdf, np.random.default_rng(seed).random(shots), side="right")
    outcomes, counts = np.unique(np.minimum(draws, probs.size - 1), return_counts=True)
    return {int(o): int(c) for o, c in zip(outcomes, counts)}
