"""Compile Boolean functions into phase-oracle circuits.

Every ANF monomial maps to one diagonal gate, a `PhaseGate` on the
monomial's qubits: a singleton {j} is a phase flip on qubit j, a pair
{j, k} a controlled phase, and larger monomials a multi-controlled Z.
A `Circuit` stores each phase gate as its monomial's index in `Anf.coeffs`.
The constant-1 term only contributes a global factor of -1, which a
phase oracle cannot expose, so it is dropped and recorded in the
synthesis report.  `synthesis_reports` and `circuit_texts` take a list of
any n and work it as `boolfn.stacks` cuts it, one (B, 2^n) stack at a time;
`synthesis_report` and `emit_text` are their stack of one.

Circuits round-trip through a line-oriented text format:

    qubits 3
    z 3
    cz 1 2

One gate per line, `#` starts a comment, qubit indices are 1-based.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import IntEnum
from operator import add, index

import numpy as np

from .boolfn import Anf, FunctionClass, TruthTable, anf_texts, classify, mask_qubits
from .boolfn import moebius_stack, monomial_table, qubit_mask, stacks


class CircuitParseError(ValueError):
    """Malformed circuit text."""


class SelfCheckError(RuntimeError):
    """An internal consistency check failed: a run's oracle misbehaved, or an ANF was wrong."""


@dataclass(frozen=True, init=False)
class PhaseGate:
    """Z on the AND of a qubit set: flips the sign where every listed qubit is 1.

    One qubit is a phase flip (`z`), two a controlled phase (`cz`), three
    or more a multi-controlled Z (`ccz`, `cccz`, ...).  Qubits are stored
    sorted, as ints, and every gate is built as the subclass named for its arity,
    so `PhaseGate((2, 1)) == ControlledPhase(1, 2)`.
    """

    qubits: tuple[int, ...]

    def __new__(cls, qubits: Iterable[int]) -> PhaseGate:
        ordered = tuple(sorted(map(index, qubits)))
        if not ordered or ordered[0] < 1:
            raise ValueError(f"a phase gate needs one or more qubits, all >= 1; got {ordered}")
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate qubit in {ordered}")
        kind = (PhaseFlip, ControlledPhase, MultiControlledZ)[min(len(ordered), 3) - 1]
        if cls is not PhaseGate and kind is not cls:
            raise ValueError(f"{cls.__name__} cannot act on {len(ordered)} qubits")
        gate = object.__new__(kind)
        object.__setattr__(gate, "qubits", ordered)
        return gate

    def __reduce__(self):
        # Pickle and copy rebuild through the one constructor that takes a tuple.
        return (PhaseGate, (self.qubits,))

    @property
    def mnemonic(self) -> str:
        return "c" * (len(self.qubits) - 1) + "z"


class PhaseFlip(PhaseGate):
    """Z on one qubit."""

    def __new__(cls, qubit: int) -> PhaseFlip:
        return super().__new__(cls, (qubit,))


class ControlledPhase(PhaseGate):
    """CZ between two distinct qubits; symmetric."""

    def __new__(cls, j: int, k: int) -> ControlledPhase:
        return super().__new__(cls, (j, k))


class MultiControlledZ(PhaseGate):
    """Z controlled on three or more qubits all being 1."""

    @property
    def controls(self) -> tuple[int, ...]:
        return self.qubits


@dataclass(frozen=True)
class Hadamard:
    qubit: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", index(self.qubit))  # an int, as parse_text gives
        if self.qubit < 1:
            raise ValueError(f"qubit index must be >= 1, got {self.qubit}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)

    @property
    def mnemonic(self) -> str:
        return "h"


GateOp = PhaseGate | Hadamard


@dataclass(frozen=True)
class Circuit:
    """Gates on qubits 1..n: `ops` holds a phase gate as its `qubit_mask`, a Hadamard as itself."""

    n: int
    ops: tuple[int | Hadamard, ...]  # also takes gate objects, which it converts

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be at least 1, got {self.n}")
        ops = tuple(self.ops)
        # Masks alone, as synthesize and parse_text build them, take one C-level check;
        # anything else goes op by op, which also names the first bad mask.  The bound is a
        # bit length: 1 << n would build an (n+1)-bit int, 500 MB for n = 4e9.
        if {*map(type, ops)} - {int} or ops and (min(ops) < 1 or max(ops).bit_length() > self.n):
            ops = tuple(_stored(self.n, op) for op in ops)
        object.__setattr__(self, "ops", ops)

    @property
    def gates(self) -> tuple[GateOp, ...]:
        terms = mask_qubits(self.n, (op for op in self.ops if type(op) is int))
        return tuple(PhaseGate(next(terms)) if type(op) is int else op for op in self.ops)


def _stored(n: int, op: GateOp | int) -> int | Hadamard:
    if type(op) is int and 0 < op and op.bit_length() <= n:
        return op
    if isinstance(op, GateOp) and max(op.qubits) <= n:
        return op if isinstance(op, Hadamard) else qubit_mask(n, op.qubits)
    raise ValueError(f"{op!r} is neither a gate nor a mask on qubits 1..{n}")


class ConstructionType(IntEnum):
    """Oracle families for balanced three-input functions.

    Type 1 uses phase flips only; types 2 through 4 add one, two, or
    three controlled-phase gates.  The numeric value is 1 plus the
    controlled-phase count.
    """

    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3
    TYPE4 = 4


@dataclass(frozen=True)
class GateCounts:
    z: int = 0
    cz: int = 0
    mcz: int = 0
    h: int = 0

    @property
    def total(self) -> int:
        return self.z + self.cz + self.mcz + self.h

    def as_dict(self) -> dict[str, int]:
        return {"z": self.z, "cz": self.cz, "mcz": self.mcz, "h": self.h}


@dataclass(frozen=True)
class SynthesisReport:
    truth_table: TruthTable
    anf: Anf
    circuit: Circuit
    counts: GateCounts
    construction_type: ConstructionType | None
    dropped_global_sign: bool


def report_dicts(reports: Sequence[SynthesisReport]) -> list[dict]:
    """The fields of each report that `synth --format json` and census rows share, with
    the ANF and circuit texts of all of them from one call each."""
    anfs = anf_texts([r.anf for r in reports])
    circuits = circuit_texts([r.circuit for r in reports])
    return [
        {
            "truth_table": r.truth_table.text,
            "anf": anf,
            "circuit": circuit,
            "type": int(r.construction_type) if r.construction_type is not None else None,
            "gate_counts": r.counts.as_dict(),
        }
        for r, anf, circuit in zip(reports, anfs, circuits)
    ]


def synthesize(a: Anf) -> Circuit:
    """One phase gate per monomial but the constant 1: phase flips by qubit,
    then controlled phases by index pair, then multi-controlled Zs by control tuple."""
    return Circuit(a.n, gate_masks(a.n, a.coeffs)[1].tolist())


def gate_masks(n: int, coeffs: bytes) -> tuple[np.ndarray, np.ndarray]:
    """For the ANFs on n qubits that `coeffs` joins, one gather over the gate order of
    all of them: the flat positions, row * (2^n - 1) + column, of each present mask in
    a (B, 2^n - 1) array, ascending, and the masks themselves."""
    order = monomial_table(n).gate_order
    flat = np.frombuffer(coeffs, bool).reshape(-1, 1 << n).take(order, axis=1).ravel().nonzero()[0]
    return flat, order[flat % len(order)]


def gate_counts(c: Circuit) -> GateCounts:
    arity = [op.bit_count() for op in c.ops if type(op) is int]
    z, cz = arity.count(1), arity.count(2)
    return GateCounts(z, cz, len(arity) - z - cz, len(c.ops) - len(arity))


def classify_construction(c: Circuit) -> ConstructionType:
    """Assign a balanced three-input oracle to its construction family.

    Defined only for circuits on exactly three qubits built from phase
    flips and controlled phases; anything else is rejected.
    """
    if c.n != 3:
        raise ValueError(f"construction types are defined for 3 qubits, got {c.n}")
    return _construction_type(gate_counts(c))


def _construction_type(counts: GateCounts) -> ConstructionType:
    if counts.mcz or counts.h:
        raise ValueError("construction types cover z/cz circuits only")
    if counts.cz > 3:
        raise ValueError(f"unexpected controlled-phase count {counts.cz}")
    return ConstructionType(1 + counts.cz)


def synthesis_reports(tables: Sequence[TruthTable]) -> list[SynthesisReport]:
    """Each table's synthesis_report: one moebius_stack and one gate-order gather per stack.

    The gate order lists the n singles, then the n(n-1)/2 pairs, then the rest, so
    each row's gate counts are its present masks in three slices of it.
    """
    reports: list = [None] * len(tables)
    for rows in stacks([1 << t.n for t in tables]):
        coeffs, anfs = moebius_stack([tables[i] for i in rows])
        n = anfs[0].n
        positions, masks = gate_masks(n, coeffs)
        masks = masks.tolist()
        # Where each row's singles, pairs and rest end among the present positions.
        width = (1 << n) - 1
        cuts = [k * width + c for k in range(len(rows)) for c in (n, n * (n + 1) // 2, width)]
        ends = positions.searchsorted(cuts)
        start = 0
        for i, a, (singles, pairs, end) in zip(rows, anfs, ends.reshape(-1, 3).tolist()):
            t = tables[i]
            counts = GateCounts(singles - start, pairs - singles, end - pairs)
            ctype = None
            if n == 3 and classify(t) == FunctionClass.BALANCED:
                try:
                    ctype = _construction_type(counts)
                except ValueError as exc:
                    # Every balanced n=3 ANF has degree <= 2: a rejected one is wrong.
                    raise SelfCheckError(str(exc)) from exc
            circuit = Circuit(n, masks[start:end])
            reports[i] = SynthesisReport(t, a, circuit, counts, ctype, a.has_constant_term)
            start = end
    return reports


def synthesis_report(t: TruthTable) -> SynthesisReport:
    """Synthesize t and bundle the artifacts one consumer step needs: a stack of one."""
    return synthesis_reports([t])[0]


def emit_text(c: Circuit) -> str:
    """Serialize to the line format; every line ends with a newline."""
    return circuit_texts([c])[0]


def circuit_texts(circuits: Sequence[Circuit]) -> list[str]:
    """emit_text of each circuit: one pass over the gates of each `stacks` stack."""
    texts: list = [None] * len(circuits)
    for rows in stacks([1 << c.n for c in circuits]):
        table = monomial_table(circuits[rows[0]].n)
        ops = [op for i in rows for op in circuits[i].ops]
        masks = [op for op in ops if type(op) is int]
        names = map(table.mnemonics.__getitem__, map(int.bit_count, masks))
        lines = list(map(add, names, table.join(table.args, masks)))
        if len(lines) < len(ops):  # Hadamards among the masks: each line at its op's place
            gates = iter(lines)
            lines = [next(gates) if type(op) is int else f"h {op.qubit}" for op in ops]
        head, start = f"qubits {table.n}", 0
        for i in rows:
            end = start + len(circuits[i].ops)
            texts[i] = "\n".join([head, *lines[start:end], ""])
            start = end
    return texts


def _parse_indices(parts: list[str], lineno: int) -> list[int]:
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise CircuitParseError(f"line {lineno}: expected qubit index, got {p!r}") from None
    return out


def parse_text(text: str) -> Circuit:
    """Inverse of emit_text; tolerates comments and blank lines.

    A gate line's mask is the sum of its qubits' bits, read from a lookup that
    the `qubits <n>` header builds, and the line stands when its keyword's arity
    equals both its index count and the mask's popcount, so its qubits are
    distinct.  Any other line, the header included, takes the per-index checks
    (`int`, range, keyword, arity), so what is accepted, and each error message
    and line number, does not depend on the lookup.
    """
    n = None
    ops: list[int | Hadamard] = []
    bits: dict[str, int] = {}  # "j" -> qubit j's mask bit; both filled at the header
    arities: dict[str, int] = {}  # "z", "cz", "ccz", ... -> its qubit count
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            mask = sum(map(bits.__getitem__, parts[1:]))
            if arities[parts[0]] == len(parts) - 1 == mask.bit_count():
                ops.append(mask)
                continue
        except KeyError:
            pass
        keyword = parts[0]
        if n is None:
            if keyword != "qubits":
                raise CircuitParseError(f"line {lineno}: expected 'qubits <n>' header first")
            if len(parts) != 2:
                raise CircuitParseError(f"line {lineno}: 'qubits' takes exactly one count")
            (n,) = _parse_indices(parts[1:], lineno)
            if n < 1:
                raise CircuitParseError(f"line {lineno}: qubit count must be >= 1, got {n}")
            # At most 64 entries of at most 64 bits each, whatever n is: lines on
            # qubits below n - 63 or on more than 64 qubits take the checks below.
            bits = {str(j): 1 << (n - j) for j in range(max(1, n - 63), n + 1)}
            arities = {"c" * (k - 1) + "z": k for k in range(1, min(n, 64) + 1)}
            continue
        if keyword == "qubits":
            raise CircuitParseError(f"line {lineno}: duplicate 'qubits' header")
        indices = _parse_indices(parts[1:], lineno)
        if any(q < 1 or q > n for q in indices):
            raise CircuitParseError(f"line {lineno}: qubit index outside 1..{n}")
        if keyword == "h":
            arity = 1
        elif keyword.lstrip("c") == "z":
            arity = len(keyword)
        else:
            raise CircuitParseError(f"line {lineno}: unknown gate {keyword!r}")
        if len(indices) != arity or len(set(indices)) < arity:
            raise CircuitParseError(f"line {lineno}: '{keyword}' takes {arity} distinct qubit(s)")
        ops.append(Hadamard(indices[0]) if keyword == "h" else qubit_mask(n, indices))
    if n is None:
        raise CircuitParseError("empty circuit text: missing 'qubits <n>' header")
    return Circuit(n, ops)
