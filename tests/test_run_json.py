"""`run --format json` bytes against the stdlib's indented encoder.

The reference is `json.dumps(payload, indent=2)` on the payload with each
probability array turned into a list by `.tolist()`: CPython's pure-Python
encoder, which shares no code with the run writer's C-encoder calls.  The
command's payloads are rebuilt one table at a time from `run_refined` or
`run_original` and the per-draw sampler of `tests/oracles.py`.  The writer
takes a text column per key; `_written` builds them with the encoders the
command uses: `_value_texts` for scalars, `_float_texts` and `_containers` for
arrays and dicts.
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
from json.encoder import encode_basestring_ascii

from djphase import cli, run_original, run_refined
from djphase.boolfn import parse_truth_table
from djphase.dj_runner import SelfCheckError


def reference(payloads: list[dict], single: bool) -> str:
    plain = [
        {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in p.items()}
        for p in payloads
    ]
    return json.dumps(plain[0] if single else plain, indent=2) + "\n"


def _written(rows: list[dict], single: bool) -> str:
    """The writer's text of rows that share one key tuple, each key's values of one kind."""
    indent = "  " if single else "    "
    columns = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        if isinstance(values[0], np.ndarray):
            texts = cli._float_texts(np.concatenate(values))
            columns[key] = cli._containers(texts, list(map(len, values)), "[]", indent)
        elif isinstance(values[0], dict):
            names = [encode_basestring_ascii(k) for v in values for k in v]
            texts = cli._value_texts([x for v in values for x in v.values()])
            items = [f"{name}: {text}" for name, text in zip(names, texts)]
            columns[key] = cli._containers(items, list(map(len, values)), "{}", indent)
        else:
            columns[key] = cli._value_texts(values)
    return cli._columns_json(columns, single)


def _bits_float(pattern: int) -> float:
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


SPECIAL = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, 0.25, 1e16, 1e-7,
    _bits_float(0x7FF8000000000001),  # NaN with a payload bit
    _bits_float(0xFFF8000000000000),  # NaN with the sign bit
]
floats = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
awkward = st.sampled_from('ab"\\\n\t\x00\x7f%é€𝄞')  # quote, backslash, controls, %, non-ASCII
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


# A nested value is a dict of scalars under str keys (the histogram) or a float array.
flat_dicts = st.dictionaries(text, scalars, max_size=3)
histograms = st.dictionaries(st.text(alphabet="01", min_size=3, max_size=3), st.integers(1, 99))
kinds = st.sampled_from([scalars, arrays(), flat_dicts, histograms])


@st.composite
def records(draw):
    # One key tuple for every record, as every run has, and one kind of value per key.
    keys = draw(st.lists(text, min_size=1, max_size=6, unique=True))
    columns = [(key, draw(kinds)) for key in keys]
    count = draw(st.integers(1, 4))
    return [{key: draw(kind) for key, kind in columns} for _ in range(count)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(records(), st.booleans())
def test_writer_matches_stdlib_encoder(rows, single):
    rows = rows[:1] if single else rows
    assert _written(rows, single) == reference(rows, single)


@pytest.mark.parametrize(
    "columns",
    [
        {"a": ["1", "2"], "b": ["3"]},
        {"a": ["1"], 2: ["3"]},
        {"a": ["1"], None: ["3"]},
        {},
    ],
    ids=["unequal-lengths", "int-key", "none-key", "no-column"],
)
def test_odd_columns_raise(columns):
    for single in (True, False):
        with pytest.raises(SelfCheckError):
            cli._columns_json(columns, single)


@pytest.mark.parametrize("values", [[], [0.5], [-0.0, 0.0, -0.0], [math.nan, math.inf, -math.inf]])
def test_edge_arrays(values):
    rows = [{"probabilities": np.array(values, dtype=np.float64), "s": 'a"\\\nü'}]
    for single in (True, False):
        assert _written(rows, single) == reference(rows, single)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.25],
        [-0.0],
        [0.0, -0.0, 0.0, -0.0, 1.0, -0.0],
        [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308],
        [0.125] * 1000 + [0.0] * 1000 + [0.125] * 3,
        [*SPECIAL, *SPECIAL[::-1], 0.1, 0.1],
    ],
    ids=["empty", "one", "negative-zero", "signed-zeros", "specials", "runs", "all-special"],
)
def test_float_texts_match_json_dumps(values):
    array = np.array(values, dtype=np.float64)
    assert cli._float_texts(array) == list(map(json.dumps, array.tolist()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrays())
def test_float_texts_match_json_dumps_on_drawn_arrays(array):
    assert cli._float_texts(array) == list(map(json.dumps, array.tolist()))


def test_nan_payloads_encode_as_nan():
    values = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], np.uint64)
    rows = [{"probabilities": values.view(np.float64)}]
    nans = ",\n".join(["    NaN"] * 3)
    assert _written(rows, True) == f'{{\n  "probabilities": [\n{nans}\n  ]\n}}\n'


def test_histogram_shaped_value_at_both_depths():
    rows = [
        {"truth_table": "0110", "probabilities": np.array([0.0, 0.0, 1.0, 0.0]),
         "histogram": {"10": 5}, "zero_amplitude": 0.0},
        {"truth_table": "0011", "probabilities": np.array([0.0, -0.0]),
         "histogram": {"01": 2, "11": 3}, "zero_amplitude": -0.0},
    ]
    assert _written(rows[:1], True) == reference(rows[:1], True)
    assert _written(rows, False) == reference(rows, False)


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


def _batch() -> list[str]:
    # Shaped like the benchmark's batch-small: many small tables of interleaved n,
    # constants among them, so that each n is one stack whose rows are far apart.
    tables = []
    for n in range(1, 7):
        tables += [_balanced(n, 100 * n + k) for k in range(20)] + ["0" * (1 << n), "1" * (1 << n)]
    order = np.random.default_rng(6).permutation(len(tables))
    return [tables[i] for i in order.tolist()]


WIDE = [_balanced(12, 3), "1" * 4096, _sparse(12), _balanced(16, 4), _sparse(16), "01"]


@pytest.mark.parametrize("mode", ["refined", "original"])
@pytest.mark.parametrize(
    "shots,tables", [(0, WIDE), (40, WIDE), (64, _batch())], ids=["0", "40", "batch-64"]
)
def test_truth_file_run(capsys, tmp_path, mode, shots, tables):
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

