"""Seeded truth tables for the djphase benchmark workloads.

A table is a 0/1 string of length 2^n, index 0 leftmost, with qubit 1 the
most significant bit of the index (the djphase convention).  Every table
carries the label its generator built it to have, and tables built from
an ANF carry that ANF, so the checkers never ask djphase for the answer.
The same seed always gives the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

WIDE_N = 16
EQUIVALENCE_N = 8
BATCH_NS = (3, 4, 5, 6)
BATCH_PER_N = 500  # 450 balanced, 25 constant-0, 25 constant-1 per n
BATCH_CONSTANT_PER_N = 25
BATCH_EQUIVALENCE_PER_N = 8
WIDE_EQUIVALENCE = 2
CENSUS_EQUIVALENCE = 4


@dataclass(frozen=True)
class Table:
    bits: str
    label: str  # "balanced" or "constant"
    anf: frozenset[frozenset[int]] | None = None  # monomials it was built from
    equivalence: bool = False  # also checked with equivalent_diagonal

    @property
    def n(self) -> int:
        return len(self.bits).bit_length() - 1


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**64)


def _bits(values: np.ndarray) -> str:
    return values.astype(np.uint8).tobytes().translate(bytes.maketrans(b"\0\1", b"01")).decode()


def random_balanced(n: int, rng: np.random.Generator, equivalence: bool = False) -> Table:
    values = np.zeros(1 << n, dtype=bool)
    values[rng.permutation(1 << n)[: 1 << (n - 1)]] = True
    return Table(_bits(values), "balanced", equivalence=equivalence)


def constant(n: int, value: int) -> Table:
    return Table(str(value) * (1 << n), "constant")


def from_anf(n: int, monomials) -> Table:
    """Evaluate an XOR of monomials at every input by direct substitution."""
    anf = frozenset(frozenset(m) for m in monomials)
    index = np.arange(1 << n)
    values = np.zeros(1 << n, dtype=bool)
    for mono in anf:
        mask = sum(1 << (n - j) for j in mono)
        values ^= (index & mask) == mask
    weight = int(values.sum())
    if weight not in (0, 1 << (n - 1), 1 << n):
        raise ValueError(f"ANF {sorted(map(sorted, anf))} is neither balanced nor constant")
    label = "balanced" if weight == 1 << (n - 1) else "constant"
    return Table(_bits(values), label, anf=anf)


def sparse_balanced(n: int, rng: np.random.Generator) -> Table:
    """x_j plus a constant term plus a few monomials free of x_j.

    Flipping x_j flips f, so f is balanced whatever the other monomials
    are; the constant term makes f(0) = 1, so synthesis drops a sign.
    """
    j = int(rng.integers(1, n + 1))
    others = [q for q in range(1, n + 1) if q != j]
    monomials = {frozenset(), frozenset({j})}
    while len(monomials) < 6:
        degree = int(rng.integers(2, 5))
        monomials.add(frozenset(int(q) for q in rng.choice(others, degree, replace=False)))
    return from_anf(n, monomials)


def wide_tables(seed: int) -> list[Table]:
    rng = make_rng(seed)
    n = WIDE_N
    return [
        random_balanced(n, rng),
        from_anf(n, [{16}, {1, 2}, {3, 4, 5}]),
        sparse_balanced(n, rng),
        constant(n, 1),
    ] + [random_balanced(EQUIVALENCE_N, rng, equivalence=True) for _ in range(WIDE_EQUIVALENCE)]


def batch_small(seed: int) -> list[Table]:
    rng = make_rng(seed)
    tables = []
    for n in BATCH_NS:
        balanced = BATCH_PER_N - 2 * BATCH_CONSTANT_PER_N
        # The same number of sweeps at each n keeps their cost steady across seeds.
        tables += [random_balanced(n, rng, i < BATCH_EQUIVALENCE_PER_N) for i in range(balanced)]
        tables += [constant(n, v) for v in (0, 1) for _ in range(BATCH_CONSTANT_PER_N)]
    return [tables[int(i)] for i in rng.permutation(len(tables))]


def census_tables(seed: int) -> list[Table]:
    """The 72 promise-satisfying n=3 tables and a few random n=8 ones."""
    rng = make_rng(seed)
    tables = []
    for values in product("01", repeat=8):
        bits = "".join(values)
        weight = bits.count("1")
        if weight in (0, 8):
            tables.append(Table(bits, "constant"))
        elif weight == 4:
            tables.append(Table(bits, "balanced"))
    tables += [random_balanced(EQUIVALENCE_N, rng, equivalence=True) for _ in range(CENSUS_EQUIVALENCE)]
    return [tables[int(i)] for i in rng.permutation(len(tables))]
