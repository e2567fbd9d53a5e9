"""The README's Library example runs and prints what its comments say."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == ["qubits 3", "z 3", "cz 1 2", "balanced", "0.0"]
    assert float(lines[5]) == pytest.approx(1.0, abs=1e-12)
    assert ast.literal_eval(lines[6]) == pytest.approx((0.5, 0.5, 1.0), abs=1e-12)
    assert lines[7:] == ["0.5"]
