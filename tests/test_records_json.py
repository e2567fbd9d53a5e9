"""`synth`, `enumerate`, `entangle` and `verify` JSON bytes against the stdlib's encoder.

The reference is `json.dumps(payload, indent=2) + "\\n"`: with `indent` CPython
runs its pure-Python encoder, which shares no code with the records writer's
templates and C-encoder calls.  The commands run in-process, so `entangle`'s
purities (full-precision floats whose last bits depend on the BLAS kernel, left
out of `tests/test_golden.py`) are covered too.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djphase import cli
from djphase.dj_runner import SelfCheckError


def reference(records: list, single: bool) -> str:
    return json.dumps(records[0] if single else records, indent=2) + "\n"


def _written(capsys, monkeypatch, argv: list[str]) -> tuple[str, list, bool]:
    """The command's stdout and the records and flag it handed the writer."""
    seen = []

    def spy(records, single):
        seen.append((records, single))
        return writer(records, single)

    writer = cli._records_json
    monkeypatch.setattr(cli, "_records_json", spy)
    cli.main(argv)
    [(records, single)] = seen
    return capsys.readouterr().out, records, single


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("command", ["enumerate", "entangle"])
def test_census_commands(capsys, monkeypatch, command, n):
    out, records, single = _written(capsys, monkeypatch, [command, "-n", str(n), "--format", "json"])
    assert single
    assert out == reference(records, single)


def _balanced(n: int, rng: random.Random) -> str:
    bits = ["0", "1"] * (1 << (n - 1))
    rng.shuffle(bits)
    return "".join(bits)


def test_synth_single(capsys, monkeypatch):
    argv = ["synth", "--truth", "01010110", "--format", "json"]
    out, records, single = _written(capsys, monkeypatch, argv)
    assert single
    assert out == reference(records, single)


def test_synth_mixed_n_file(capsys, monkeypatch, tmp_path):
    # n = 1 to 8 interleaved, constants among them: the type column mixes int and None.
    rng = random.Random(7)
    tables = [_balanced(n, rng) for n in (3, 1, 4, 2, 8, 3, 5)] + ["0000", "11111111"]
    path = tmp_path / "tables.txt"
    path.write_text("\n".join(tables) + "\n", encoding="utf-8")
    argv = ["synth", "--truth-file", str(path), "--format", "json"]
    out, records, single = _written(capsys, monkeypatch, argv)
    assert not single and len(records) == len(tables)
    assert out == reference(records, single)


def test_verify_json(capsys, monkeypatch):
    out, records, single = _written(capsys, monkeypatch, ["verify", "--json"])
    assert not single
    assert out == reference(records, single)


def _bits_float(pattern: int) -> float:
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


SPECIAL = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.0, 0.1, 1e16, 1e-7,
    _bits_float(0x7FF8000000000001),  # NaN with a payload bit
]
floats = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
# %, quote, backslash, newline, controls and non-ASCII, up to a surrogate pair.
awkward = st.sampled_from('a%s"\\\n\t\x00\x1f\x7f é€𝄞')
text = st.text(alphabet=awkward, max_size=6) | st.text(max_size=4)
scalars = st.none() | st.booleans() | st.integers() | floats | text
keys = st.lists(text, unique=True, max_size=4)


@st.composite
def record_lists(draw):
    """0 to 4 records of one shape: scalar, float, flat dict, flat list or tuple values."""
    shape = []
    for key in draw(keys):
        kind = draw(st.sampled_from(["scalar", "float", "dict", "list", "floats"]))
        extra = draw(keys) if kind == "dict" else draw(st.integers(0, 3))
        shape.append((key, kind, extra))
    records = []
    for _ in range(draw(st.integers(0, 4))):
        record = {}
        for key, kind, extra in shape:
            if kind == "dict":
                record[key] = {k: draw(scalars) for k in extra}
            elif kind in ("list", "floats"):
                items = draw(st.lists(scalars if kind == "list" else floats,
                                      min_size=extra, max_size=extra))
                record[key] = tuple(items) if draw(st.booleans()) else items
            else:
                record[key] = draw(scalars if kind == "scalar" else floats)
        records.append(record)
    return records


@settings(max_examples=400, deadline=None, derandomize=True)
@given(record_lists(), st.booleans())
def test_writer_matches_stdlib_encoder(records, single):
    single = single and bool(records)
    records = records[:1] if single else records
    assert cli._records_json(records, single) == reference(records, single)


@pytest.mark.parametrize(
    "records",
    [
        [],
        [{}],
        [{}, {}],
        [{"d": {}, "l": [], "t": ()}] * 2,
        [{"x": None}, {"x": None}],
        # True, 1 and 1.0 in one column print as true, 1 and 1.0.
        [{"x": True, "l": [True, 1, 1.0]}, {"x": 1, "l": [1, 1.0, True]}, {"x": 1.0, "l": [1.0] * 3}],
        [{"f": v, "p": [v, -v]} for v in (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324)],
        [{"100%": "%s%d%%", "%(x)s": {"%": "%"}, '"\\\n': ["\x00", "é𝄞"]}],
    ],
    ids=["none", "empty-record", "empty-records", "empty-nested", "null", "bool-int-float",
         "float-specials", "percent-and-escapes"],
)
def test_edge_records(records):
    assert cli._records_json(records, False) == reference(records, False)
    if records:
        assert cli._records_json(records[:1], True) == reference(records, True)


def test_nested_record_lists():
    rows = [{"a": i, "g": {"z": i % 2}, "p": [i / 3] * 2} for i in range(5)]
    for payload in ({"n": 4, "counts": None, "rows": rows}, {"n": 2, "rows": []}):
        assert cli._records_json([payload], True) == reference([payload], True)


# Each odd list is valid JSON for json.dumps; the writer must refuse it, never lay it out.
ODD = {
    "keys": [{"a": 1}, {"b": 1}],
    "key-order": [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    "nested-length": [{"p": [0.5, 0.5]}, {"p": [0.5]}],
    "nested-keys": [{"g": {"z": 1}}, {"g": {"cz": 1}}],
    "nested-key-order": [{"g": {"z": 1, "cz": 0}}, {"g": {"cz": 0, "z": 1}}],
    "kind": [{"a": 1}, {"a": [1]}],
    "nested-kind": [{"g": {"z": 1}}, {"g": {"z": {"x": 1}}}],
    "row-keys": [{"rows": [{"a": 1}, {"b": 1}]}],
}


@pytest.mark.parametrize("records", ODD.values(), ids=ODD.keys())
def test_odd_records_raise(records):
    json.dumps(records, indent=2)
    with pytest.raises(SelfCheckError):
        cli._records_json(records, False)


class _Survey:
    def __init__(self, rows):
        self.rows = rows

    def as_dict(self):
        return {"n": 3, "rows": self.rows}


@pytest.mark.parametrize("case", ["keys", "key-order", "nested-length"])
def test_odd_records_exit_4(capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "entanglement_survey", lambda n: _Survey(ODD[case]))
    assert cli.main(["entangle", "--format", "json"]) == cli.EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: JSON writer:")
