"""A failing property reports as one plain failure under the project's warning filters."""

from __future__ import annotations

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10))
def test_fails(k):
    assert k < 5


def test_after_the_failure():
    pass
"""


def test_failing_hypothesis_property_is_a_plain_failure(pytester):
    # The same settings as this suite, "error" on every warning included.
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.stdout.fnmatch_lines(["FAILED test_property.py::test_fails*"])
