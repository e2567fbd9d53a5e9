"""Boolean functions as truth tables and algebraic normal forms.

A function f: {0,1}^n -> {0,1} is stored once, as 2^n bytes of value 0 or
1 that every layer reads in place, indexed big-endian: byte i is
f(b1 b2 ... bn), where b1, the most significant bit of i, is qubit 1's value.
The same function can be written uniquely as an XOR of monomials (its
algebraic normal form); each monomial is a subset of {1, ..., n}, with the
empty subset standing for the constant-1 term.  The two representations are
linked by the binary Moebius transform, which is its own inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
        if not set(self.bits) <= {0, 1}:
            raise TruthTableError("truth-table entries must be 0 or 1")
        if type(self.bits) is not bytes:
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


@dataclass(frozen=True)
class Anf:
    """Algebraic normal form: an XOR of monomials over x1 ... xn.

    Each monomial is a frozenset of qubit indices; the empty frozenset is
    the constant-1 term.  An empty monomial set is the zero function.
    """

    n: int
    monomials: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be at least 1, got {self.n}")
        for mono in self.monomials:
            if any(j < 1 or j > self.n for j in mono):
                raise ValueError(f"monomial {sorted(mono)} outside qubits 1..{self.n}")

    @property
    def has_constant_term(self) -> bool:
        return frozenset() in self.monomials

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        """Monomials as sorted tuples, ordered by degree then qubit indices."""
        return sorted((tuple(sorted(m)) for m in self.monomials), key=lambda m: (len(m), m))

    def render(self) -> str:
        """Human-readable polynomial, e.g. ``x3 + x1*x2``; ``0`` when empty."""
        if not self.monomials:
            return "0"
        terms = []
        for mono in self.sorted_monomials():
            terms.append("1" if not mono else "*".join(f"x{j}" for j in mono))
        return " + ".join(terms)


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


def _index_to_monomial(index: int, n: int) -> frozenset[int]:
    return frozenset(j for j in range(1, n + 1) if (index >> (n - j)) & 1)


def _monomial_to_index(mono: frozenset[int], n: int) -> int:
    index = 0
    for j in mono:
        index |= 1 << (n - j)
    return index


def moebius_transform(t: TruthTable) -> Anf:
    """Truth table to ANF via the in-place butterfly over each bit axis."""
    coeffs = _butterfly(t.bits, t.n)
    monos = frozenset(
        _index_to_monomial(i, t.n) for i, c in enumerate(coeffs) if c
    )
    return Anf(t.n, monos)


def anf_to_truth_table(a: Anf) -> TruthTable:
    """Exact inverse of moebius_transform (the butterfly is an involution)."""
    coeffs = bytearray(1 << a.n)
    for mono in a.monomials:
        coeffs[_monomial_to_index(mono, a.n)] = 1
    return TruthTable(a.n, _butterfly(coeffs, a.n))


def degree(a: Anf) -> int:
    """Size of the largest monomial; 0 for the zero and constant functions."""
    return max((len(m) for m in a.monomials), default=0)


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
