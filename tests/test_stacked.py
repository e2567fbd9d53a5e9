"""A `--truth-file` batch run as stacks equals its tables run one at a time, bit for bit."""

from __future__ import annotations

import random

import numpy as np
import pytest

import djphase.cli
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
from djphase.boolfn import qubit_mask, stacks
from djphase.cli import _histogram_texts
from djphase.dj_runner import entanglement_profiles, run_stacks, run_tables
from djphase.oracle_compiler import gate_masks
from djphase.reports import canonical_balanced
from test_cli import _fault_layers, nan_layer
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
    for s in run_stacks(tables, mode):
        for i, hist in zip(s.rows, _histogram_texts(s.probabilities, shots, 11, None)):
            t = tables[i]
            want = sample_counts(RUNNERS[mode](t).final_probabilities, shots, 11)
            assert hist == "".join(f"\n  {k:0{t.n}b} {c}" for k, c in want.items()), t.text


@pytest.mark.parametrize(
    "mode,shots",
    [("refined", 0), ("refined", 64), ("original", 0), ("original", 64), ("classical", 0)],
)
def test_text_view_equals_each_table_alone(capsys, tmp_path, mode, shots):
    tables = [t.text for t in mixed_tables()]
    path = tmp_path / "tables.txt"
    path.write_text("\n".join(tables) + "\n", encoding="utf-8")
    flags = ["--mode", mode, "--shots", str(shots), "--seed", "7"]
    assert djphase.cli.main(["run", "--truth-file", str(path), *flags]) == 0
    batch = capsys.readouterr().out
    alone = []
    for text in tables:
        assert djphase.cli.main(["run", "--truth", text, *flags]) == 0
        alone.append(capsys.readouterr().out)
    assert batch == "\n".join(alone)


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


def _check_run_error(tables, mode, tol):
    """(type, message) of check_run on the first table it rejects, in order, or None."""
    for t in tables:
        try:
            djphase.dj_runner.check_run(t, mode, tol)
        except ValueError as exc:
            return type(exc), str(exc)
    return None


def _prologue_lists(mode, seed):
    """Shuffled lists of balanced and constant tables for n = 1-8, each with none, one
    or several of: promise violations and a table too large for mode."""
    rng = random.Random(seed)
    good = [_balanced(n, rng) for n in range(1, 9) for _ in range(3)]
    good += [TruthTable(n, bytes([v]) * (1 << n)) for n in range(1, 9) for v in (0, 1)]
    too_large = 21 if mode == Mode.REFINED else 20
    bad = [parse_truth_table("0111"), parse_truth_table("00000001" * 4),
           TruthTable(too_large, bytes(1 << too_large))]
    for extra in ([], bad[:1], bad[1:], bad, bad[::-1] + bad[:1]):
        tables = good + extra
        rng.shuffle(tables)
        yield tables


@pytest.mark.parametrize("mode", [Mode.REFINED, Mode.ORIGINAL])
@pytest.mark.parametrize("seed", range(4))
def test_stacked_prologue_raises_as_check_run(monkeypatch, mode, seed):
    # No run may start before every table is checked: any run fails on the None.
    monkeypatch.setattr(djphase.dj_runner, "hadamard_basis_state", None)
    for tables in _prologue_lists(mode, seed):
        for tol in (1e-9, 0.25, 0.0, 0.5, float("nan")):
            want = _check_run_error(tables, mode, tol)
            with pytest.raises(ValueError if want else TypeError) as info:
                run_stacks(tables, mode, tol)
            if want:
                assert (type(info.value), str(info.value)) == want


FAULTED = {
    Mode.REFINED: "final probabilities sum to nan",
    Mode.ORIGINAL: "working qubit purity nan",
}


@pytest.mark.parametrize("mode", [Mode.REFINED, Mode.ORIGINAL])
@pytest.mark.parametrize("seed", range(4))
def test_stacked_read_out_raises_as_the_first_failing_table(monkeypatch, mode, seed):
    # A NaN in the last state of every stack: that row fails its read-out, as its table
    # does alone, and the first of those rows in file order is reported.
    _fault_layers(monkeypatch, nan_layer)
    tables = next(_prologue_lists(mode, seed))
    last = [rows[-1] for rows in stacks([1 << (t.n + (mode == Mode.ORIGINAL)) for t in tables])]
    with pytest.raises(SelfCheckError) as alone:
        RUNNERS[mode](tables[min(last)])
    with pytest.raises(SelfCheckError) as info:
        run_stacks(tables, mode)
    assert str(info.value) == str(alone.value)
    assert str(info.value).startswith(FAULTED[mode])


def test_a_purity_drift_alone_fails_the_read_out(monkeypatch):
    # Each zero amplitude and sum still passes; only the purity band can fail the rows.
    purity = djphase.dj_runner.qubit_purity
    monkeypatch.setattr(djphase.dj_runner, "qubit_purity", lambda *a: purity(*a) - 1e-6)
    with pytest.raises(SelfCheckError, match=r"^working qubit purity 0\.999998\d* drifted"):
        run_stacks(mixed_tables(), Mode.ORIGINAL)


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
