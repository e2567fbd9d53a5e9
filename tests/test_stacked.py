"""A `--truth-file` batch run as stacks equals its tables run one at a time, bit for bit."""

from __future__ import annotations

import random

import numpy as np
import pytest

import djphase.dj_runner
import djphase.simulator
from djphase import (
    Mode,
    SelfCheckError,
    TruthTable,
    parse_truth_table,
    run_original,
    run_refined,
    sample_counts,
    zero_amplitude_formula,
)
from djphase.boolfn import qubit_mask
from djphase.cli import _histograms
from djphase.dj_runner import entanglement_profiles, run_tables
from djphase.oracle_compiler import gate_masks
from djphase.reports import canonical_balanced
from test_runner import hadamard_where_f_is_1

RUNNERS = {Mode.REFINED: run_refined, Mode.ORIGINAL: run_original}


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _balanced(n: int, rng: random.Random) -> TruthTable:
    ones = set(rng.sample(range(1 << n), 1 << (n - 1)))
    return TruthTable(n, tuple(int(i in ones) for i in range(1 << n)))


def mixed_tables() -> list[TruthTable]:
    """Balanced and constant tables for n = 1-6, 8 and 10, shuffled."""
    rng = random.Random(2013)
    tables = []
    for n in (1, 2, 3, 4, 5, 6, 8, 10):
        tables += [_balanced(n, rng) for _ in range(4)]
        tables += [TruthTable(n, (0,) * (1 << n)), TruthTable(n, (1,) * (1 << n))]
    rng.shuffle(tables)
    return tables


@pytest.mark.parametrize("mode", [Mode.REFINED, Mode.ORIGINAL])
def test_rows_equal_one_table_runs(mode):
    tables = mixed_tables()
    for t, out in zip(tables, run_tables(tables, mode)):
        alone = RUNNERS[mode](t)
        assert (out.verdict, out.mode, out.queries_used) == (alone.verdict, mode, 1)
        assert _bits(out.zero_amplitude) == _bits(alone.zero_amplitude), t.text
        assert np.array_equal(_bits(out.final_amplitudes), _bits(alone.final_amplitudes))
        assert np.array_equal(_bits(out.final_probabilities), _bits(alone.final_probabilities))
        if mode == Mode.ORIGINAL:
            assert _bits(out.working_qubit_purity) == _bits(alone.working_qubit_purity)
        else:
            assert out.working_qubit_purity is None
        assert abs(out.zero_amplitude - zero_amplitude_formula(t)) <= 1e-12, t.text


@pytest.mark.parametrize("mode", [Mode.REFINED, Mode.ORIGINAL])
@pytest.mark.parametrize("shots", [1, 64, 1000])
def test_histograms_equal_one_table_samples(mode, shots):
    tables = mixed_tables()
    probs = [out.final_probabilities for out in run_tables(tables, mode)]
    for t, p, hist in zip(tables, probs, _histograms(probs, shots, 11)):
        want = sample_counts(RUNNERS[mode](t).final_probabilities, shots, 11)
        assert hist == {format(i, f"0{t.n}b"): c for i, c in want.items()}, t.text


def _with_stray_cz(n, coeffs):
    # The gate gather with a cz 1 2 on each row whose ANF holds x1, at its place in the
    # gate order (column n, the first pair): f = x1 then reads a zero amplitude of 0.5
    # and f = x1 + x2 one of -0.5, neither 0 nor +-1; a table without x1 passes.
    positions, masks = gate_masks(n, coeffs)
    width = (1 << n) - 1
    rows = positions[masks == qubit_mask(n, (1,))] // width
    stray = np.full(len(rows), qubit_mask(n, (1, 2)))
    return np.append(positions, rows * width + n), np.append(masks, stray)


FAULTS = {
    Mode.REFINED: ("gate_masks", _with_stray_cz, "zero amplitude"),
    Mode.ORIGINAL: ("_apply_xor_oracle", hadamard_where_f_is_1, "working qubit purity"),
}


@pytest.mark.parametrize("mode", [Mode.REFINED, Mode.ORIGINAL])
def test_first_failing_table_in_file_order_is_reported(monkeypatch, mode):
    name, fault, kind = FAULTS[mode]
    monkeypatch.setattr(djphase.dj_runner, name, fault)
    # The n=3 stack runs first, but the n=4 table comes first in the file.
    wide = parse_truth_table("0000000011111111")  # x1
    narrow = parse_truth_table("00111100")  # x1 + x2
    messages = {}
    for t in (wide, narrow):
        with pytest.raises(SelfCheckError, match=kind) as info:
            RUNNERS[mode](t)
        messages[t] = str(info.value)
    assert messages[wide] != messages[narrow]
    zero, one = parse_truth_table("00000000"), parse_truth_table("11111111")
    for order, first in (([zero, wide, one, narrow], wide), ([zero, narrow, one, wide], narrow)):
        with pytest.raises(SelfCheckError) as info:
            run_tables(order, mode)
        assert str(info.value) == messages[first]


def test_a_bad_table_stops_the_batch_before_any_run(monkeypatch):
    monkeypatch.setattr(djphase.dj_runner, "hadamard_basis_state", None)  # any run fails here
    tables = [parse_truth_table("0110"), parse_truth_table("0111")]
    with pytest.raises(djphase.dj_runner.PromiseViolationError, match="0111"):
        run_tables(tables, Mode.REFINED)


def _complex_hadamard_basis_state(*args, **kwargs):
    state = djphase.simulator.hadamard_basis_state(*args, **kwargs)
    return djphase.simulator.StateVector(state.n, state.amps.astype(np.complex128))


def test_real_runs_print_the_floats_of_complex_runs(monkeypatch):
    # Runs hold float64 states.  Every float a run or a census prints, the purities that
    # the golden digests leave out included, must keep the bits of a complex128 run.
    rng = random.Random(1976)
    tables = mixed_tables() + [_balanced(n, rng) for n in (12, 12, 16)]
    census = [canonical_balanced(n) for n in (2, 3, 4)]
    real = {mode: run_tables(tables, mode) for mode in Mode}
    real_census = [entanglement_profiles(c) for c in census]
    monkeypatch.setattr(djphase.dj_runner, "hadamard_basis_state", _complex_hadamard_basis_state)
    for mode in Mode:
        for t, want, out in zip(tables, real[mode], run_tables(tables, mode)):
            assert want.final_amplitudes.dtype == np.float64
            assert out.final_amplitudes.dtype == np.complex128
            assert not out.final_amplitudes.imag.any(), t.text
            assert _bits(out.zero_amplitude) == _bits(want.zero_amplitude), t.text
            assert np.array_equal(_bits(out.final_amplitudes.real), _bits(want.final_amplitudes))
            assert np.array_equal(_bits(out.final_probabilities), _bits(want.final_probabilities))
            if mode == Mode.ORIGINAL:
                assert _bits(out.working_qubit_purity) == _bits(want.working_qubit_purity), t.text
    for tables_n, want in zip(census, real_census):
        got = entanglement_profiles(tables_n)
        assert np.array_equal(_bits([p.purities for p in got]), _bits([p.purities for p in want]))
        assert got == want
