"""Boolean functions as truth tables and algebraic normal forms.

A function f: {0,1}^n -> {0,1} is stored once, as 2^n bytes of value 0 or
1 that every layer reads in place, indexed big-endian: byte i is
f(b1 b2 ... bn), where b1, the most significant bit of i, is qubit 1's value.
Its algebraic normal form, the unique XOR of monomials equal to f, is stored
the same way: coefficient byte i is 1 when the monomial on the qubits whose
bits are set in i is present (bit n-j is qubit j; byte 0 is the constant-1
term).  The binary Moebius transform, its own inverse, links the two buffers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import compress, repeat
from operator import add, and_, rshift

import numpy as np

_DIGITS = bytes.maketrans(b"01" + b"\0\1", b"\0\1" + b"01")  # "0"/"1" <-> 0/1, both ways
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


class TruthTableError(ValueError):
    """Malformed truth-table input."""


@dataclass(frozen=True)
class TruthTable:
    """Boolean function on n inputs: byte i of `bits` is entry i, 0 or 1."""

    n: int
    bits: bytes

    def __post_init__(self) -> None:
        if self.n < 1:
            raise TruthTableError(f"qubit count must be at least 1, got {self.n}")
        if len(self.bits) != 1 << self.n:
            raise TruthTableError(
                f"expected {1 << self.n} entries for n={self.n}, got {len(self.bits)}"
            )
        # bytes: one C scan; else set(), where True and 1.0 pass
        is_bytes = type(self.bits) is bytes
        if self.bits.translate(None, b"\0\1") if is_bytes else not set(self.bits) <= {0, 1}:
            raise TruthTableError("truth-table entries must be 0 or 1")
        if not is_bytes:
            object.__setattr__(self, "bits", bytes(map(int, self.bits)))

    @classmethod
    def from_values(cls, values) -> TruthTable:
        bits = values if type(values) is bytes else tuple(values)
        n = max(len(bits).bit_length() - 1, 0)
        if len(bits) < 2 or len(bits) != 1 << n:
            raise TruthTableError(
                f"truth-table length must be a power of two >= 2, got {len(bits)}"
            )
        return cls(n, bits)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self.bits)

    @property
    def weight(self) -> int:
        return self.bits.count(1)

    @property
    def text(self) -> str:
        return self.bits.translate(_DIGITS).decode()


@dataclass(frozen=True, init=False)
class Anf:
    """Algebraic normal form, stored only as its `coeffs` buffer.

    `Anf(n, monomials)` takes iterables of qubits (empty: the constant 1);
    the `monomials` frozenset view is rebuilt from `coeffs` on each read.
    """

    n: int
    coeffs: bytes

    def __init__(self, n: int, monomials: Iterable[Iterable[int]]) -> None:
        if n < 1:
            raise ValueError(f"qubit count must be at least 1, got {n}")
        coeffs = bytearray(1 << n)
        for mono in map(frozenset, monomials):
            if any(j not in range(1, n + 1) for j in mono):
                raise ValueError(f"monomial {sorted(mono)} outside qubits 1..{n}")
            coeffs[qubit_mask(n, mono)] = 1
        _fill(self, n, bytes(coeffs))

    def terms(self) -> Iterator[tuple[int, ...]]:
        """Monomials as ascending qubit tuples, in coefficient index order."""
        return mask_qubits(self.n, compress(range(len(self.coeffs)), self.coeffs))

    @property
    def monomials(self) -> frozenset[frozenset[int]]:
        return frozenset(map(frozenset, self.terms()))

    @property
    def has_constant_term(self) -> bool:
        return self.coeffs[0] == 1

    def render(self) -> str:
        """Human-readable polynomial by degree, then qubits: ``x3 + x1*x2``; ``0`` when empty."""
        table = monomial_table(self.n)
        # Within a degree, qubit-tuple order is descending mask order, so a stable sort by degree.
        masks = sorted(compress(range(len(self.coeffs) - 1, -1, -1), self.coeffs[::-1]),
                       key=int.bit_count)
        # " 1 2+ 3" -> "*x1*x2 + x3"; the constant term, mask 0, comes first as "".
        text = "+".join(table.join(table.args, masks)).replace(" ", "*x").replace("+*", " + ")
        return ("1" + text if self.coeffs[0] else text[1:]) or "0"


def qubit_mask(n: int, qubits: Iterable[int]) -> int:
    """The index of the monomial on `qubits`: bit n-j is set for each qubit j."""
    return sum(1 << (n - j) for j in qubits)


def mask_qubits(n: int, masks: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Inverse of qubit_mask: each mask's qubits as an ascending tuple."""
    table = monomial_table(n)
    return table.join(table.qubits, list(masks))


class MonomialTable:
    """The 2^n monomials on qubits 1..n, as masks in `synthesize`'s order and as text.

    A mask m splits at `low` = n // 2: m >> low holds qubits 1..n-low and the
    low bits the rest.  Each half indexes a list of its qubits as " j" text
    (`args`, " 1 3" for qubits 1 and 3), so `join` gives a mask's text, which
    gate lines and ANF terms both read, as high + low.  The qubit tuples
    (`qubits`) and the gate order of the 2^n - 1 nonzero masks are built on
    first read.
    """

    def __init__(self, n: int) -> None:
        self.n, self.low = n, n // 2
        hi, lo = [""], [""]  # each half by doubling, from qubit n down
        for j in range(n, 0, -1):
            half = lo if j > n - self.low else hi
            half += [f" {j}{s}" for s in half]
        self.args = hi, lo
        self.mnemonics = ["c" * (k - 1) + "z" for k in range(n + 1)]  # by arity

    @cached_property
    def qubits(self) -> tuple[list, list]:
        return tuple([tuple(map(int, s.split())) for s in half] for half in self.args)

    def join(self, halves: tuple[list, list], masks: Sequence[int]) -> Iterator:
        hi, lo = halves
        highs = map(hi.__getitem__, map(rshift, masks, repeat(self.low)))
        return map(add, highs, map(lo.__getitem__, map(and_, masks, repeat((1 << self.low) - 1))))

    @cached_property
    def gate_order(self) -> np.ndarray:
        """Masks 1..2^n-1 by (min(k, 3), qubit tuple), k the popcount: `synthesize`'s order."""
        singles = 1 << np.arange(self.n - 1, -1, -1, dtype=np.intp)  # qubits 1..n
        lex = np.zeros(0, np.intp)  # every nonzero mask by qubit tuple: (1), (1, 2), ..., (2), ...
        count = np.zeros(0, np.uint8)  # the popcount of each
        one = np.ones(1, np.uint8)
        for bit in singles[::-1]:  # qubit n's bit first
            lex = np.concatenate((bit[None], lex | bit, lex))
            count = np.concatenate((one, count + 1, count))
        first, second = np.triu_indices(self.n, 1)  # pairs as itertools.combinations gives them
        return np.concatenate((singles, singles[first] | singles[second], lex[count > 2]))


@cache
def monomial_table(n: int) -> MonomialTable:
    """The one MonomialTable for n qubits."""
    return MonomialTable(n)


def _fill(a: Anf, n: int, coeffs: bytes) -> Anf:
    # Set the fields without checks: `coeffs` must be 2^n bytes of 0 or 1.
    object.__setattr__(a, "n", n)
    object.__setattr__(a, "coeffs", coeffs)
    return a


class FunctionClass(Enum):
    CONSTANT0 = "constant0"
    CONSTANT1 = "constant1"
    BALANCED = "balanced"
    OTHER = "other"


def parse_truth_table(text: str) -> TruthTable:
    """Parse a bare bit-string (index 0 leftmost) into a TruthTable."""
    if text.strip("01"):
        raise TruthTableError(f"truth table may contain only '0'/'1': {text!r}")
    return TruthTable.from_values(text.encode().translate(_DIGITS))


def classify(t: TruthTable) -> FunctionClass:
    """Constant0/Constant1/Balanced, or Other for everything else."""
    w = t.weight
    if w == 0:
        return FunctionClass.CONSTANT0
    if w == 1 << t.n:
        return FunctionClass.CONSTANT1
    if w == 1 << (t.n - 1):
        return FunctionClass.BALANCED
    return FunctionClass.OTHER


def _butterfly(bits: bytes, n: int) -> bytes:
    # XOR the lower half into the upper half along each bit axis, with byte i
    # at bits 8i..8i+7 of one int: the binary Moebius transform, self-inverse.
    x = int.from_bytes(bits, "little")
    for step in (1 << k for k in range(n)):
        lower = int.from_bytes((b"\1" * step + bytes(step)) * (len(bits) // (2 * step)), "little")
        x ^= (x & lower) << (8 * step)
    return x.to_bytes(len(bits), "little")


def moebius_transform(t: TruthTable) -> Anf:
    """Truth table to ANF via the butterfly over each bit axis."""
    return _fill(object.__new__(Anf), t.n, _butterfly(t.bits, t.n))


def anf_to_truth_table(a: Anf) -> TruthTable:
    """Exact inverse of moebius_transform (the butterfly is an involution)."""
    return TruthTable(a.n, _butterfly(a.coeffs, a.n))


def degree(a: Anf) -> int:
    """Size of the largest monomial; 0 for the zero and constant functions."""
    return max(map(int.bit_count, compress(range(len(a.coeffs)), a.coeffs)), default=0)


def complement(t: TruthTable) -> TruthTable:
    """Pointwise 1 XOR f."""
    return TruthTable(t.n, t.bits.translate(_FLIP))


def canonical(t: TruthTable) -> TruthTable:
    """The member of the complement pair {f, 1+f} with f(index 0) = 0."""
    return t if t.bits[0] == 0 else complement(t)


def _table(n: int, value: int) -> TruthTable:
    # Entry 0 is the most significant of the 2^n bits of value.
    return TruthTable(n, format(value, f"0{1 << n}b").encode().translate(_DIGITS))


def enumerate_balanced(n: int) -> list[TruthTable]:
    """All truth tables of weight 2^(n-1), ascending by bit-sequence value.

    Restricted to 2 <= n <= 4; the count C(2^n, 2^(n-1)) grows too fast
    beyond that.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"balanced enumeration supports 2 <= n <= 4, got {n}")
    half = 1 << (n - 1)
    return [_table(n, value) for value in range(1 << (1 << n)) if value.bit_count() == half]


def all_truth_tables(n: int):
    """Yield every truth table on n inputs, ascending by bit-sequence value."""
    for value in range(1 << (1 << n)):
        yield _table(n, value)
