"""Per-module timing of djphase from outside the package.

`Tracer.install` replaces each listed public function, in every djphase
module that binds it, with a wrapper that records its self time: the
time in the call minus the time in wrapped calls made inside it.  Some
wrappers also count work (gates, amplitudes, bytes) from the call's
arguments and result, and some bindings count the calls made through
them, such as `reports -> synthesis_report`.  Nothing in djphase changes;
`uninstall` puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("boolfn", "oracle_compiler", "simulator", "dj_runner", "reports", "verify", "cli")


def _count_anf(add, args, result):
    add("boolfn.anf_monomials", len(result.monomials))


def _count_gates(add, args, result):
    for gate in result.gates:
        kind = {"z": "gates_z", "cz": "gates_cz"}.get(gate.mnemonic, "gates_mcz")
        add(f"oracle_compiler.{kind}", 1)


def _count_text(add, args, result):
    add("oracle_compiler.circuit_text_bytes", len(result.encode()))


def _count_circuit(add, args, result):
    gates = len(args[1].gates)
    add("simulator.gates_applied", gates)
    add("simulator.amplitudes_swept", gates * args[0].amps.size)


def _count_hadamard_layer(add, args, result):
    add("simulator.gates_applied", args[0].n)
    add("simulator.amplitudes_swept", args[0].n * args[0].amps.size)


def _count_outcome(add, args, result):
    add("dj_runner.outcome_bytes", result.final_probabilities.nbytes + result.final_amplitudes.nbytes)


# (module, function, self-time metric, counter run on each result)
WRAPPED = (
    ("boolfn", "parse_truth_table", "boolfn.parse_s", None),
    ("boolfn", "moebius_transform", "boolfn.moebius_s", _count_anf),
    ("boolfn", "enumerate_balanced", "boolfn.enumerate_s", None),
    ("boolfn", "all_truth_tables", "boolfn.enumerate_s", None),
    ("oracle_compiler", "synthesize", "oracle_compiler.synthesize_s", _count_gates),
    ("oracle_compiler", "synthesis_report", "oracle_compiler.synthesis_report_s", None),
    ("oracle_compiler", "emit_text", "oracle_compiler.emit_text_s", _count_text),
    ("oracle_compiler", "parse_text", "oracle_compiler.parse_text_s", None),
    ("simulator", "apply_hadamard_all", "simulator.hadamard_layer_s", _count_hadamard_layer),
    ("simulator", "apply_circuit", "simulator.apply_circuit_s", _count_circuit),
    ("simulator", "entanglement_diagnostics", "simulator.entanglement_diagnostics_s", None),
    ("simulator", "equivalent_diagonal", "simulator.equivalent_diagonal_s", None),
    ("simulator", "sample_counts", "simulator.sample_s", None),
    ("simulator", "sample", "simulator.sample_s", None),
    ("dj_runner", "run_refined", "dj_runner.run_refined_s", _count_outcome),
    ("dj_runner", "run_original", "dj_runner.run_original_s", _count_outcome),
    ("dj_runner", "entanglement_profile", "dj_runner.entanglement_profile_s", None),
    ("reports", "enumeration_report", "reports.enumeration_report_s", None),
    ("reports", "entanglement_survey", "reports.entanglement_survey_s", None),
    ("reports", "canonical_balanced", "reports.canonical_balanced_s", None),
    ("verify", "run_verification", "verify.run_verification_s", None),
    ("cli", "main", "cli.self_s", None),
)

# Calls counted where the importing module binds the name.
BINDING_CALLS = {
    ("reports", "synthesis_report"): "reports.synthesis_report_calls",
    ("reports", "entanglement_profile"): "reports.entanglement_profile_calls",
    ("verify", "run_refined"): "verify.run_refined_calls",
    ("verify", "equivalent_diagonal"): "verify.equivalent_diagonal_calls",
}

# Inclusive time, in addition to the self time above.
INCLUSIVE = {"cli.self_s": "cli.main_s"}

# Every per-layer metric and its unit, in report order.
METRICS = {
    **{metric: "s" for _, _, metric, _ in WRAPPED},
    "cli.main_s": "s",
    "boolfn.anf_monomials": "count",
    "oracle_compiler.gates_z": "count",
    "oracle_compiler.gates_cz": "count",
    "oracle_compiler.gates_mcz": "count",
    "oracle_compiler.circuit_text_bytes": "bytes",
    "simulator.gates_applied": "count",
    "simulator.amplitudes_swept": "count",
    "dj_runner.outcome_bytes": "bytes",
    **{metric: "count" for metric in BINDING_CALLS.values()},
    "cli.output_bytes": "bytes",
}


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # time spent in wrapped children, per open call
        self._patched: list[tuple[object, str, object]] = []

    def add(self, metric: str, amount) -> None:
        self.totals[metric] += amount

    def reset(self) -> dict[str, float]:
        """Return the totals gathered since the last reset and start again."""
        totals, self.totals = dict(self.totals), defaultdict(float)
        return totals

    def _enter(self) -> float:
        self._stack.append([0.0])
        return perf_counter()

    def _leave(self, start: float, metric: str) -> None:
        elapsed = perf_counter() - start
        children = self._stack.pop()[0]
        self.totals[metric] += elapsed - children
        if metric in INCLUSIVE:
            self.totals[INCLUSIVE[metric]] += elapsed
        if self._stack:
            self._stack[-1][0] += elapsed

    def _wrap(self, fn, metric, counter, calls_metric):
        def wrapper(*args, **kwargs):
            if calls_metric:
                self.totals[calls_metric] += 1
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(start, metric)
            if counter:
                counter(self.add, args, result)
            return result

        def generator_wrapper(*args, **kwargs):
            # Time each step of the generator, not its creation.
            if calls_metric:
                self.totals[calls_metric] += 1
            it = fn(*args, **kwargs)
            while True:
                start = self._enter()
                try:
                    item = next(it, StopIteration)
                finally:
                    self._leave(start, metric)
                if item is StopIteration:
                    return
                yield item

        return generator_wrapper if inspect.isgeneratorfunction(fn) else wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"djphase.{name}") for name in MODULES}
        modules["__init__"] = importlib.import_module("djphase")
        for home, name, metric, counter in WRAPPED:
            original = getattr(modules[home], name)
            for mod_name, module in modules.items():
                if getattr(module, name, None) is original:
                    calls_metric = BINDING_CALLS.get((mod_name, name))
                    self._patched.append((module, name, original))
                    setattr(module, name, self._wrap(original, metric, counter, calls_metric))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
