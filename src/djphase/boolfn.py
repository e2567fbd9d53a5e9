"""Boolean functions as truth tables and algebraic normal forms.

A function f: {0,1}^n -> {0,1} is stored once, as 2^n bytes of value 0 or
1 that every layer reads in place, indexed big-endian: byte i is
f(b1 b2 ... bn), where b1, the most significant bit of i, is qubit 1's value.
Its algebraic normal form, the unique XOR of monomials equal to f, is stored
the same way: coefficient byte i is 1 when the monomial on the qubits whose
bits are set in i is present (bit n-j is qubit j; byte 0 is the constant-1
term).  The binary Moebius transform, its own inverse, links the two buffers;
it runs as one numpy XOR butterfly, on bits packed 8 to a byte, over any stack
of tables on one n.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import compress, repeat
from operator import add, and_, index, rshift

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
            coeffs[qubit_mask(n, map(index, mono))] = 1  # 1.0 passes the range test
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
        return anf_texts([self])[0]


def anf_texts(anfs: Sequence[Anf]) -> list[str]:
    """Anf.render of each ANF: one pass over the present masks of each `stacks` stack."""
    texts: list = [None] * len(anfs)
    for rows in stacks([1 << a.n for a in anfs]):
        table = monomial_table(anfs[rows[0]].n)
        coeffs = np.frombuffer(b"".join(anfs[i].coeffs for i in rows), bool)
        row_of, col = np.nonzero(coeffs.reshape(len(rows), -1)[:, ::-1])
        masks = (1 << table.n) - 1 - col  # each row's masks, descending
        degrees = np.fromiter(map(int.bit_count, masks.tolist()), np.intp, len(masks))
        # Within a degree, qubit-tuple order is descending mask order, so a stable sort
        # by (row, degree).
        by_degree = np.argsort(row_of * (table.n + 1) + degrees, kind="stable")
        terms = list(table.join(table.args, masks[by_degree].tolist()))
        start = 0
        for i, end in zip(rows, np.bincount(row_of, minlength=len(rows)).cumsum().tolist()):
            # " 1 2+ 3" -> "*x1*x2 + x3"; the constant term, mask 0, comes first as "".
            text = "+".join(terms[start:end]).replace(" ", "*x").replace("+*", " + ")
            texts[i] = ("1" + text if anfs[i].coeffs[0] else text[1:]) or "0"
            start = end
    return texts


# Entries of one stack, for every stacked form: the four n=16 tables of a file ran
# refined in about 36 ms as four stacks and in 47-63 ms as one, so a table this wide runs alone.
MAX_STACK_AMPLITUDES = 1 << 16


def stacks(widths: Iterable[int]) -> list[list[int]]:
    """Positions of equal widths, grouped in first-seen order, split into stacks of at
    most MAX_STACK_AMPLITUDES entries (a wider one alone)."""
    groups: dict = {}
    for i, width in enumerate(widths):
        groups.setdefault(width, []).append(i)
    out = []
    for width, rows in groups.items():
        step = max(1, MAX_STACK_AMPLITUDES // width)
        out += [rows[i : i + step] for i in range(0, len(rows), step)]
    return out


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


def _xor_halves(b: np.ndarray, axes: int) -> np.ndarray:
    # XOR the lower half into the upper half along each of b's `axes` lowest bit axes.
    for q in range(axes):
        v = b.reshape(-1, 2, 1 << q)
        upper = v[:, 1]
        upper ^= v[:, 0]
    return b


# _IN_BYTE[k][v]: the 8 bits of byte v, most significant first, taken through their
# k lowest axes.
_IN_BYTE = [np.packbits(_xor_halves(np.unpackbits(np.arange(256, dtype=np.uint8)), k))
            for k in range(4)]


def _butterfly(bits: bytes, n: int) -> bytes:
    # The binary Moebius transform, self-inverse, of every 2^n-byte table that `bits`
    # joins, on its bits packed 8 to a byte: one lookup for the (up to 3) axes inside a
    # byte, whose 8 entries hold whole tables when n < 3, then the XOR butterfly over
    # whole bytes for the other n - 3.
    packed = _IN_BYTE[min(n, 3)][np.packbits(np.frombuffer(bits, np.uint8))]
    return np.unpackbits(_xor_halves(packed, n - 3), count=len(bits)).tobytes()


def moebius_stack(tables: Sequence[TruthTable]) -> tuple[bytes, list[Anf]]:
    """One butterfly call over tables all on one n: their ANF coefficients joined, and
    their ANFs."""
    n, size = tables[0].n, 1 << tables[0].n
    coeffs = _butterfly(b"".join([t.bits for t in tables]), n)
    starts = range(0, len(coeffs), size)
    return coeffs, [_fill(object.__new__(Anf), n, coeffs[s : s + size]) for s in starts]


def moebius_transforms(tables: Sequence[TruthTable]) -> list[Anf]:
    """Each table's ANF, with one moebius_stack call per `stacks` stack."""
    out: list = [None] * len(tables)
    for rows in stacks([1 << t.n for t in tables]):
        for i, a in zip(rows, moebius_stack([tables[i] for i in rows])[1]):
            out[i] = a
    return out


def moebius_transform(t: TruthTable) -> Anf:
    """Truth table to ANF: moebius_transforms' stack of one."""
    return moebius_transforms([t])[0]


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


def enumerate_balanced(n: int) -> list[TruthTable]:
    """All truth tables of weight 2^(n-1), ascending by bit-sequence value.

    Restricted to 2 <= n <= 4; the count C(2^n, 2^(n-1)) grows too fast
    beyond that.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"balanced enumeration supports 2 <= n <= 4, got {n}")
    size = 1 << n
    # Each value's 16 bits, most significant first; a table is the last 2^n of them.
    values = np.arange(1 << size, dtype=np.uint16).astype(">u2")
    bits = np.unpackbits(values.view(np.uint8)).reshape(-1, 16)[:, 16 - size :]
    data = bits[bits.sum(axis=1, dtype=np.uint8) == size // 2].tobytes()
    return [TruthTable(n, data[i : i + size]) for i in range(0, len(data), size)]


def all_truth_tables(n: int):
    """Yield every truth table on n inputs, ascending by bit-sequence value."""
    for value in range(1 << (1 << n)):
        # Entry 0 is the most significant of the 2^n bits of value.
        yield TruthTable(n, format(value, f"0{1 << n}b").encode().translate(_DIGITS))
