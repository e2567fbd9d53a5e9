"""Checks of djphase outputs against answers worked out here.

Nothing in this module imports djphase.  Verdicts come from the
generator's labels, zero amplitudes from weights counted here, circuits
are checked by substituting inputs into their monomials, and ANFs are
found by the subset-sum rule.  Each check returns a list of problems;
an empty list means the output is right.
"""

from __future__ import annotations

import math

import numpy as np

VERDICT_TOL = 1e-9
PROB_TOL = 1e-9
ZERO_PROB_TOL = 1e-18  # an amplitude of at most 1e-9
EXHAUSTIVE_MAX_N = 10  # above this, circuits are checked on sampled inputs
SUITES = ("oracle-equivalence", "census", "refined-original-agreement", "formula-agreement")
N3_TYPE_COUNTS = {"1": 7, "2": 12, "3": 12, "4": 4}  # the paper's four construction types


def table_n(bits: str) -> int:
    return len(bits).bit_length() - 1


def expected_zero(bits: str) -> float:
    size = len(bits)
    return (size - 2 * bits.count("1")) / size


def _values(bits: str) -> np.ndarray:
    return np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")


def _mask(mono, n: int) -> int:
    return sum(1 << (n - j) for j in mono)


def parse_circuit(text: str) -> tuple[int, list[frozenset[int]]]:
    """Circuit text to (qubit count, gates as qubit sets); raises ValueError."""
    n = None
    gates = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if n is None:
            if parts[0] != "qubits" or len(parts) != 2:
                raise ValueError(f"expected a 'qubits <n>' header, got {raw!r}")
            n = int(parts[1])
            continue
        qubits = [int(q) for q in parts[1:]]
        if not qubits or parts[0] != "c" * (len(qubits) - 1) + "z":
            raise ValueError(f"not a diagonal gate: {raw!r}")
        if len(set(qubits)) != len(qubits) or not all(1 <= q <= n for q in qubits):
            raise ValueError(f"bad qubits in {raw!r}")
        gates.append(frozenset(qubits))
    if n is None:
        raise ValueError("circuit text has no 'qubits' header")
    return n, gates


def parse_anf(text: str) -> set[frozenset[int]]:
    """'1 + x3 + x1*x2' to its monomials; '0' is the empty sum."""
    if text == "0":
        return set()
    return {
        frozenset() if term == "1" else frozenset(int(v[1:]) for v in term.split("*"))
        for term in text.split(" + ")
    }


def anf_subset_sum(bits: str) -> set[frozenset[int]]:
    """ANF by a_m = XOR of f(x) over all x whose ones lie inside m."""
    n = table_n(bits)
    monos = set()
    for m in range(1 << n):
        coeff, x = 0, m
        while True:
            coeff ^= bits[x] == "1"
            if x == 0:
                break
            x = (x - 1) & m
        if coeff:
            monos.add(frozenset(j for j in range(1, n + 1) if (m >> (n - j)) & 1))
    return monos


def is_affine(bits: str) -> bool:
    """f(x) + f(0) is linear: fixed by its values on the unit vectors."""
    n = table_n(bits)
    f = _values(bits)
    x = np.arange(1 << n)
    linear = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        if f[1 << i] ^ f[0]:
            linear ^= ((x >> i) & 1).astype(np.uint8)
    return bool(np.array_equal(f ^ f[0], linear))


def circuit_problems(bits: str, text: str, xs: np.ndarray | None = None) -> list[str]:
    """The circuit applies (-1)^f(x) up to the global sign (-1)^f(0).

    Checked at every input, or at the inputs `xs` when given.
    """
    try:
        n, gates = parse_circuit(text)
    except ValueError as exc:
        return [f"table {bits[:16]}...: {exc}"]
    if n != table_n(bits):
        return [f"circuit on {n} qubits for a table on {table_n(bits)}"]
    if len(set(gates)) != len(gates):
        return [f"table {bits[:16]}...: a gate appears twice"]
    if xs is None:
        xs = np.arange(1 << n)
    masks = np.array([_mask(g, n) for g in gates], dtype=np.int64)
    parity = np.zeros(len(xs), dtype=np.uint8)
    for chunk in range(0, len(masks), 1024):
        m = masks[chunk : chunk + 1024]
        parity ^= (np.count_nonzero((xs[:, None] & m[None, :]) == m[None, :], axis=1) & 1).astype(np.uint8)
    f = _values(bits)
    wrong = np.flatnonzero(parity != (f[xs] ^ f[0]))
    if wrong.size:
        return [f"circuit for table {bits[:16]}... is wrong at input {int(xs[wrong[0]])}"]
    return []


def gate_count_problems(text: str, counts: dict) -> list[str]:
    _, gates = parse_circuit(text)
    want = {
        "z": sum(len(g) == 1 for g in gates),
        "cz": sum(len(g) == 2 for g in gates),
        "mcz": sum(len(g) >= 3 for g in gates),
        "h": 0,
    }
    return [] if counts == want else [f"gate counts {counts} for a circuit with {want}"]


def _n3_type_problems(bits: str, ctype, cz: int, mcz: int, label: str) -> list[str]:
    if table_n(bits) != 3 or label != "balanced":
        return [] if ctype is None else [f"{bits}: type {ctype} outside balanced n=3"]
    if mcz or cz > 3:
        return [f"{bits}: {cz} cz and {mcz} multi-controlled gates (paper: at most 3 cz)"]
    return [] if ctype == 1 + cz else [f"{bits}: type {ctype} with {cz} cz gates"]


def synth_payload_problems(p: dict, table, xs=None) -> list[str]:
    """One entry of `synth --format json`."""
    bits = table.bits
    if p["truth_table"] != bits:
        return [f"synth answered for {p['truth_table'][:16]}... not {bits[:16]}..."]
    problems = circuit_problems(bits, p["circuit"], xs)
    if problems:
        return problems
    _, gates = parse_circuit(p["circuit"])
    problems += gate_count_problems(p["circuit"], p["gate_counts"])
    constant_term = bits[0] == "1"
    if p["dropped_global_sign"] != constant_term:
        problems.append(f"{bits[:16]}...: dropped_global_sign {p['dropped_global_sign']} with f(0)={bits[0]}")
    if parse_anf(p["anf"]) != set(gates) | ({frozenset()} if constant_term else set()):
        problems.append(f"{bits[:16]}...: ANF {p['anf']!r} does not match the circuit")
    problems += structure_problems(table, gates)
    cz = sum(len(g) == 2 for g in gates)
    mcz = sum(len(g) >= 3 for g in gates)
    problems += _n3_type_problems(bits, p["type"], cz, mcz, table.label)
    return problems


def structure_problems(table, gates) -> list[str]:
    """A table built from an ANF compiles to exactly that ANF's gates."""
    if table.anf is None:
        return []
    want = set(table.anf) - {frozenset()}
    if set(gates) != want:
        return [f"gates {sorted(map(sorted, gates))} but the table was built from {sorted(map(sorted, want))}"]
    return []


def synth_text_problems(text: str, tables, xs_for) -> list[str]:
    """`synth --truth-file` text output: one '# table' block per table."""
    blocks = text.split("\n\n")
    if len(blocks) != len(tables):
        return [f"{len(blocks)} circuits for {len(tables)} tables"]
    problems = []
    for block, table in zip(blocks, tables):
        header, _, body = block.partition("\n")
        if header != f"# table {table.bits}":
            problems.append(f"block for {header[:24]}... where {table.bits[:16]}... was due")
            continue
        bad = circuit_problems(table.bits, body, xs_for(table))
        problems += bad or structure_problems(table, parse_circuit(body)[1])
    return problems


def split_synth_text(text: str) -> list[str]:
    return [block.partition("\n")[2] for block in text.split("\n\n")]


def _distribution_problems(p: dict, table) -> list[str]:
    bits, n = table.bits, table.n
    probs = p["probabilities"]
    problems = []
    if len(probs) != 1 << n:
        return [f"{len(probs)} probabilities for n={n}"]
    if min(probs) < 0 or abs(math.fsum(probs) - 1.0) > PROB_TOL:
        problems.append(f"{bits[:16]}...: probabilities sum to {math.fsum(probs)!r}")
    if table.label == "balanced" and probs[0] > ZERO_PROB_TOL:
        problems.append(f"{bits[:16]}...: balanced table has P(0...0) = {probs[0]!r}")
    if table.label == "constant" and abs(probs[0] - 1.0) > PROB_TOL:
        problems.append(f"{bits[:16]}...: constant table has P(0...0) = {probs[0]!r}")
    return problems


def _verdict_problems(p: dict, table, mode: str) -> list[str]:
    bits = table.bits
    if p["truth_table"] != bits:
        return [f"run answered for {p['truth_table'][:16]}... not {bits[:16]}..."]
    problems = []
    if p["mode"] != mode or p["queries_used"] != 1:
        problems.append(f"{bits[:16]}...: mode {p['mode']} with {p['queries_used']} queries")
    if p["verdict"] != table.label:
        problems.append(f"{bits[:16]}...: verdict {p['verdict']}, generated as {table.label}")
    want = expected_zero(bits)
    if abs(p["zero_amplitude"] - want) > VERDICT_TOL:
        problems.append(f"{bits[:16]}...: zero amplitude {p['zero_amplitude']!r}, want {want!r}")
    return problems


def refined_payload_problems(p: dict, table, shots: int) -> list[str]:
    """One entry of `run --format json --shots <shots>` in refined mode."""
    problems = _verdict_problems(p, table, "refined") + _distribution_problems(p, table)
    hist = p.get("histogram", {})
    zero_key = "0" * table.n
    if sum(hist.values()) != shots or any(len(k) != table.n for k in hist):
        problems.append(f"{table.bits[:16]}...: histogram {len(hist)} keys, {sum(hist.values())} shots")
    if table.label == "balanced" and zero_key in hist:
        problems.append(f"{table.bits[:16]}...: {hist[zero_key]} shots landed on {zero_key}")
    if table.label == "constant" and hist != {zero_key: shots}:
        problems.append(f"{table.bits[:16]}...: constant table sampled {hist}")
    return problems


def original_payload_problems(p: dict, table) -> list[str]:
    """One entry of `run --mode original --format json`."""
    problems = _verdict_problems(p, table, "original") + _distribution_problems(p, table)
    purity = p.get("working_qubit_purity")
    if purity is None or abs(purity - 1.0) > VERDICT_TOL:
        problems.append(f"{table.bits[:16]}...: working qubit purity {purity!r}")
    return problems


def _class_rows_problems(rows: list[dict], n: int) -> list[str]:
    size = 1 << n
    seen = set()
    problems = []
    for row in rows:
        bits = row["truth_table"]
        if len(bits) != size or bits.count("1") != size // 2 or bits[0] != "0" or bits in seen:
            problems.append(f"{bits}: not a new canonical balanced table on n={n}")
        seen.add(bits)
        if row["fully_product"] != is_affine(bits):
            problems.append(f"{bits}: fully_product {row['fully_product']}, affine {is_affine(bits)}")
    return problems


def _census_count_problems(report: dict, n: int) -> list[str]:
    total = math.comb(1 << n, 1 << (n - 1))
    problems = []
    if report["n"] != n:
        problems.append(f"census for n={report['n']}, asked for n={n}")
    if report["classes"] != total // 2 or len(report["rows"]) != total // 2:
        problems.append(f"n={n}: {report['classes']} classes in {len(report['rows'])} rows, want {total // 2}")
    return problems


def enumeration_problems(report: dict, n: int) -> list[str]:
    """`enumerate -n <n> --format json`."""
    total = math.comb(1 << n, 1 << (n - 1))
    problems = _census_count_problems(report, n)
    if report["total_balanced"] != total:
        problems.append(f"n={n}: {report['total_balanced']} balanced tables, want {total}")
    want_types = N3_TYPE_COUNTS if n == 3 else None
    if report["type_counts"] != want_types:
        problems.append(f"n={n}: type counts {report['type_counts']}, want {want_types}")
    problems += _class_rows_problems(report["rows"], n)
    for row in report["rows"]:
        bits = row["truth_table"]
        bad = circuit_problems(bits, row["circuit"])
        if bad:
            problems += bad
            continue
        _, gates = parse_circuit(row["circuit"])
        problems += gate_count_problems(row["circuit"], row["gate_counts"])
        if parse_anf(row["anf"]) != set(gates):
            problems.append(f"{bits}: ANF {row['anf']!r} does not match the circuit")
        if abs(row["zero_amplitude"]) > VERDICT_TOL:
            problems.append(f"{bits}: zero amplitude {row['zero_amplitude']!r} for a balanced table")
        cz = sum(len(g) == 2 for g in gates)
        mcz = sum(len(g) >= 3 for g in gates)
        problems += _n3_type_problems(bits, row["type"], cz, mcz, "balanced")
    return problems


def survey_problems(survey: dict, n: int) -> list[str]:
    """`entangle -n <n> --format json`: product classes are the affine ones."""
    problems = _census_count_problems(survey, n)
    product = (1 << n) - 1  # balanced affine functions with f(0) = 0
    if survey["product_classes"] != product:
        problems.append(f"n={n}: {survey['product_classes']} product classes, want {product}")
    if survey["entangled_classes"] != survey["classes"] - product:
        problems.append(f"n={n}: {survey['entangled_classes']} entangled classes")
    problems += _class_rows_problems(survey["rows"], n)
    for row in survey["rows"]:
        bits, purities = row["truth_table"], row["purities"]
        if len(purities) != n or not all(0.5 - VERDICT_TOL <= q <= 1 + VERDICT_TOL for q in purities):
            problems.append(f"{bits}: purities {purities}")
        elif row["fully_product"] != all(q >= 1 - VERDICT_TOL for q in purities):
            problems.append(f"{bits}: purities {purities} disagree with fully_product")
        if n == 3:
            cz = sum(len(m) == 2 for m in anf_subset_sum(bits))
            if row["type"] != 1 + cz:
                problems.append(f"{bits}: type {row['type']} for an ANF with {cz} quadratic terms")
    return problems


def verify_problems(results: list[dict], exit_code: int) -> list[str]:
    """`verify --json`: four suites, all passed, exit 0."""
    names = tuple(r["name"] for r in results)
    failed = [r["name"] for r in results if not r["passed"]]
    if exit_code != 0 or names != SUITES or failed:
        return [f"verify exit {exit_code}, suites {names}, failed {failed}"]
    return []


def equivalence_problems(result, bits: str) -> list[str]:
    """equivalent_diagonal: a match, with sign -1 exactly when f(0) = 1."""
    sign = -1 if bits[0] == "1" else 1
    if not result.match or result.global_sign != sign or result.max_deviation > VERDICT_TOL:
        return [
            f"{bits[:16]}...: match {result.match}, sign {result.global_sign} "
            f"(want {sign}), deviation {result.max_deviation!r}"
        ]
    return []


def parsed_circuit_problems(circuit, text: str) -> list[str]:
    """parse_text's Circuit holds the gates written in the text."""
    n, gates = parse_circuit(text)
    got = [frozenset(g.qubits) for g in circuit.gates]
    if circuit.n != n or got != gates:
        return [f"parse_text gave {len(got)} gates on {circuit.n} qubits, text has {len(gates)} on {n}"]
    return []
