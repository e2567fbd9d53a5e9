"""Compile Boolean functions into phase-oracle circuits.

Every ANF monomial maps to one diagonal gate, a `PhaseGate` on the
monomial's qubits: a singleton {j} is a phase flip on qubit j, a pair
{j, k} a controlled phase, and larger monomials a multi-controlled Z.
A `Circuit` stores each phase gate as its monomial's index in `Anf.coeffs`.
The constant-1 term only contributes a global factor of -1, which a
phase oracle cannot expose, so it is dropped and recorded in the
synthesis report.

Circuits round-trip through a line-oriented text format:

    qubits 3
    z 3
    cz 1 2

One gate per line, `#` starts a comment, qubit indices are 1-based.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import IntEnum
from itertools import compress

from .boolfn import Anf, FunctionClass, TruthTable, classify, mask_qubits, moebius_transform
from .boolfn import qubit_mask


class CircuitParseError(ValueError):
    """Malformed circuit text."""


class SelfCheckError(RuntimeError):
    """An internal consistency check failed: a run's oracle misbehaved, or an ANF was wrong."""


@dataclass(frozen=True, init=False)
class PhaseGate:
    """Z on the AND of a qubit set: flips the sign where every listed qubit is 1.

    One qubit is a phase flip (`z`), two a controlled phase (`cz`), three
    or more a multi-controlled Z (`ccz`, `cccz`, ...).  Qubits are stored
    sorted, and every gate is built as the subclass named for its arity,
    so `PhaseGate((2, 1)) == ControlledPhase(1, 2)`.
    """

    qubits: tuple[int, ...]

    def __new__(cls, qubits: Iterable[int]) -> PhaseGate:
        ordered = tuple(sorted(qubits))
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
        object.__setattr__(self, "ops", tuple(_stored(self.n, op) for op in self.ops))

    @property
    def gates(self) -> tuple[GateOp, ...]:
        terms = mask_qubits(self.n, (op for op in self.ops if type(op) is int))
        return tuple(PhaseGate(next(terms)) if type(op) is int else op for op in self.ops)


def _stored(n: int, op: GateOp | int) -> int | Hadamard:
    if type(op) is int and 0 < op < 1 << n:
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

    def as_dict(self) -> dict:
        """The fields shared by `synth --format json` and census rows."""
        return {
            "truth_table": self.truth_table.text,
            "anf": self.anf.render(),
            "circuit": emit_text(self.circuit),
            "type": int(self.construction_type) if self.construction_type is not None else None,
            "gate_counts": self.counts.as_dict(),
        }


def _gate_order(m: int) -> tuple[int, int, int]:
    # (min(arity, 3), qubit tuple) without the tuple: within an arity, tuples ascend as
    # masks descend, and a tuple's prefix fills its low bits alike but has fewer qubits.
    return min(m.bit_count(), 3), -(m | ((m & -m) - 1)), m.bit_count()


def synthesize(a: Anf) -> Circuit:
    """One phase gate per monomial but the constant 1: phase flips by qubit,
    then controlled phases by index pair, then multi-controlled Zs by control tuple."""
    return Circuit(a.n, sorted(compress(range(1, len(a.coeffs)), a.coeffs[1:]), key=_gate_order))


def gate_counts(c: Circuit) -> GateCounts:
    arity = Counter(min(op.bit_count(), 3) if type(op) is int else "h" for op in c.ops)
    return GateCounts(arity[1], arity[2], arity[3], arity["h"])


def classify_construction(c: Circuit) -> ConstructionType:
    """Assign a balanced three-input oracle to its construction family.

    Defined only for circuits on exactly three qubits built from phase
    flips and controlled phases; anything else is rejected.
    """
    if c.n != 3:
        raise ValueError(f"construction types are defined for 3 qubits, got {c.n}")
    counts = gate_counts(c)
    if counts.mcz or counts.h:
        raise ValueError("construction types cover z/cz circuits only")
    if counts.cz > 3:
        raise ValueError(f"unexpected controlled-phase count {counts.cz}")
    return ConstructionType(1 + counts.cz)


def synthesis_report(t: TruthTable) -> SynthesisReport:
    """Synthesize t and bundle the artifacts one consumer step needs."""
    a = moebius_transform(t)
    c = synthesize(a)
    ctype = None
    if t.n == 3 and classify(t) == FunctionClass.BALANCED:
        try:
            ctype = classify_construction(c)
        except ValueError as exc:
            # Every balanced n=3 ANF has degree <= 2, so a rejected circuit means a wrong ANF.
            raise SelfCheckError(str(exc)) from exc
    return SynthesisReport(
        truth_table=t,
        anf=a,
        circuit=c,
        counts=gate_counts(c),
        construction_type=ctype,
        dropped_global_sign=a.has_constant_term,
    )


def emit_text(c: Circuit) -> str:
    """Serialize to the line format; every line ends with a newline."""
    terms = mask_qubits(c.n, (op for op in c.ops if type(op) is int))
    lines = [f"qubits {c.n}"]
    for op in c.ops:
        if type(op) is int:
            qubits = next(terms)
            lines.append(f"{'c' * (len(qubits) - 1)}z {' '.join(map(str, qubits))}")
        else:
            lines.append(f"h {op.qubit}")
    return "".join(line + "\n" for line in lines)


def _parse_indices(parts: list[str], lineno: int) -> list[int]:
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise CircuitParseError(f"line {lineno}: expected qubit index, got {p!r}") from None
    return out


def parse_text(text: str) -> Circuit:
    """Inverse of emit_text; tolerates comments and blank lines."""
    n = None
    ops: list[int | Hadamard] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if n is None:
            if keyword != "qubits":
                raise CircuitParseError(f"line {lineno}: expected 'qubits <n>' header first")
            if len(parts) != 2:
                raise CircuitParseError(f"line {lineno}: 'qubits' takes exactly one count")
            (n,) = _parse_indices(parts[1:], lineno)
            if n < 1:
                raise CircuitParseError(f"line {lineno}: qubit count must be >= 1, got {n}")
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
