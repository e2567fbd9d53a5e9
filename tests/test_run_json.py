"""`run --format json` bytes against the stdlib's indented encoder.

The reference is `json.dumps(payload, indent=2)` on the payload with each
probability array turned into a list by `.tolist()`: CPython's pure-Python
encoder, which shares no code with the run writer's C-encoder calls.  The
command's payloads are rebuilt one table at a time from `run_refined` or
`run_original` and the per-draw sampler of `tests/oracles.py`.
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from djphase import cli, run_original, run_refined
from djphase.boolfn import parse_truth_table


def reference(payloads: list[dict], single: bool) -> str:
    plain = [
        {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in p.items()}
        for p in payloads
    ]
    return json.dumps(plain[0] if single else plain, indent=2) + "\n"


def _bits_float(pattern: int) -> float:
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


SPECIAL = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, 0.25, 1e16, 1e-7,
    _bits_float(0x7FF8000000000001),  # NaN with a payload bit
    _bits_float(0xFFF8000000000000),  # NaN with the sign bit
]
floats = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
awkward = st.sampled_from('ab"\\\n\t\x00\x7fé€𝄞')  # quote, backslash, controls, non-ASCII
text = st.text(alphabet=awkward, max_size=6) | st.text(max_size=6)
scalars = st.none() | st.booleans() | st.integers() | floats | text


@st.composite
def arrays(draw):
    # A small pool drawn with repeats, as in a probability vector.
    pool = draw(st.lists(st.sampled_from(SPECIAL), max_size=6))
    pool += draw(st.lists(floats, max_size=2))
    if not pool:
        return np.array([], dtype=np.float64)
    values = draw(st.lists(st.sampled_from(pool), max_size=12))
    return np.array(values, dtype=np.float64)


# The writer's one nested value is a dict of scalars under str keys (the histogram).
flat_dicts = st.dictionaries(text, scalars, max_size=3)
histograms = st.dictionaries(st.text(alphabet="01", min_size=3, max_size=3), st.integers(1, 99))
payloads = st.dictionaries(text, scalars | arrays() | flat_dicts | histograms, max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(payloads, min_size=1, max_size=4), st.booleans())
def test_writer_matches_stdlib_encoder(rows, single):
    rows = rows[:1] if single else rows
    assert cli._run_json(rows, single) == reference(rows, single)


@pytest.mark.parametrize("values", [[], [0.5], [-0.0, 0.0, -0.0], [math.nan, math.inf, -math.inf]])
def test_edge_arrays(values):
    rows = [{"probabilities": np.array(values, dtype=np.float64), "s": 'a"\\\nü'}]
    for single in (True, False):
        assert cli._run_json(rows, single) == reference(rows, single)


def test_nan_payloads_encode_as_nan():
    values = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], np.uint64)
    rows = [{"probabilities": values.view(np.float64)}]
    nans = ",\n".join(["    NaN"] * 3)
    assert cli._run_json(rows, True) == f'{{\n  "probabilities": [\n{nans}\n  ]\n}}\n'


def test_histogram_shaped_value_at_both_depths():
    rows = [
        {"truth_table": "0110", "probabilities": np.array([0.0, 0.0, 1.0, 0.0]),
         "histogram": {"10": 5}},
        {"truth_table": "0011", "histogram": {"01": 2, "11": 3}, "zero_amplitude": -0.0},
    ]
    assert cli._run_json(rows[:1], True) == reference(rows[:1], True)
    assert cli._run_json(rows, False) == reference(rows, False)


def _balanced(n: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[rng.permutation(1 << n)[: 1 << (n - 1)]] = 1
    return "".join(map(str, bits.tolist()))


def _sparse(n: int) -> str:
    # x_n XOR (x_1 AND ... AND x_{n-1}): balanced, with few distinct probabilities.
    size = 1 << n
    return "".join(str((i & 1) ^ (i >> 1 == (size >> 1) - 1)) for i in range(size))


def _expected(tables: list[str], mode: str, shots: int, single: bool) -> str:
    runner = run_refined if mode == "refined" else run_original
    rows = []
    for text in tables:
        t = parse_truth_table(text)
        out = runner(t, tol=1e-9)
        row = {
            "truth_table": t.text,
            "mode": mode,
            "verdict": out.verdict.value,
            "zero_amplitude": out.zero_amplitude,
            "queries_used": 1,
            "probabilities": out.final_probabilities,
        }
        if mode == "original":
            row["working_qubit_purity"] = out.working_qubit_purity
        if shots:
            counts = oracles.sample_counts_per_draw(out.final_probabilities, shots, 3)
            row["histogram"] = {format(i, f"0{t.n}b"): c for i, c in counts.items()}
        rows.append(row)
    return reference(rows, single)


@pytest.mark.parametrize("mode", ["refined", "original"])
@pytest.mark.parametrize(
    "table", [_balanced(12, 1), _sparse(12), _balanced(16, 2), _sparse(16)],
    ids=["dense12", "sparse12", "dense16", "sparse16"],
)
def test_single_table_run(capsys, mode, table):
    assert cli.main(["run", "--truth", table, "--mode", mode, "--format", "json"]) == 0
    assert capsys.readouterr().out == _expected([table], mode, 0, True)


@pytest.mark.parametrize("mode", ["refined", "original"])
@pytest.mark.parametrize("shots", [0, 40])
def test_truth_file_run(capsys, tmp_path, mode, shots):
    tables = [_balanced(12, 3), "1" * 4096, _sparse(12), _balanced(16, 4), _sparse(16), "01"]
    path = tmp_path / "tables.txt"
    path.write_text("\n".join(tables) + "\n", encoding="utf-8")
    argv = ["run", "--truth-file", str(path), "--mode", mode, "--format", "json"]
    assert cli.main(argv + ["--shots", str(shots), "--seed", "3"]) == 0
    assert capsys.readouterr().out == _expected(tables, mode, shots, False)


@pytest.mark.parametrize("mode", ["refined", "original"])
@pytest.mark.parametrize("table", ["0110", _balanced(6, 5), _sparse(12)], ids=["n2", "n6", "n12"])
def test_single_table_run_with_histogram(capsys, mode, table):
    argv = ["run", "--truth", table, "--mode", mode, "--format", "json", "--shots", "500"]
    assert cli.main(argv + ["--seed", "3"]) == 0
    assert capsys.readouterr().out == _expected([table], mode, 500, True)

