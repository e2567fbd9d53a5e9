"""djphase benchmark: end-to-end command times, or per-module times when traced.

    python3 bench/run.py --workload wide-tables --seed 1 --seconds 40 --trace 0

Run from the repository root; djphase is imported from ./src.  A pass
runs each step of the workload: the djphase commands through
`djphase.cli.main(argv)` with --out into a scratch directory under
bench/results/, and `parse_text` and `equivalent_diagonal` as library
calls.  Passes repeat for --seconds, at least three.  The first output
of each step is checked by bench/checks.py and every later one must
repeat it exactly.  Each step's time is the mean of its samples in the
run, and setup_s is the median of fresh-interpreter runs spread over the
run.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  With --trace 1 each step runs once a pass and the
metrics are the per-module figures of bench/tracing.py.  See
bench/README.md.
"""

from __future__ import annotations

import os

# One thread of load: keep BLAS/LAPACK (used by the SVDs) single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

SHOTS = 64
SETUP_SAMPLES = 5  # at least this many, one after each pass
MIN_PASSES = 3
SAMPLED_INPUTS = 512  # inputs checked per circuit above checks.EXHAUSTIVE_MAX_N

# End-to-end metrics in report order; each step adds its time to one of
# them, and total_s sums every step.
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "synth_s": "s",
    "run_refined_s": "s",
    "run_original_s": "s",
    "circuit_parse_s": "s",
    "enumerate_s": "s",
    "entangle_s": "s",
    "verify_s": "s",
    "equivalence_s": "s",
}

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from djphase.cli import main
code = main(["run", "--truth", "01101001", "--format", "json", "--out", sys.argv[2]])
print(time.perf_counter() - start if code == 0 else "failed")
"""


@dataclass(frozen=True)
class Workload:
    tables: Callable[[int], list[inputs.Table]]
    synth_format: str
    census_ns: tuple[int, ...]
    # Samples per pass of the steps that take milliseconds here: more
    # samples of a short step make its mean steadier.
    repeats: dict[str, int]


# Every workload runs every step, so every end-to-end metric is reported
# for every workload; the workloads differ in which steps dominate.
WORKLOADS = {
    "wide-tables": Workload(
        inputs.wide_tables, "text", (3,), {"enumerate3": 10, "entangle3": 10, "verify": 3}
    ),
    "batch-small": Workload(
        inputs.batch_small, "json", (3,), {"enumerate3": 10, "entangle3": 10, "verify": 3}
    ),
    "census-verify": Workload(
        inputs.census_tables, "json", (3, 4),
        {"synth": 10, "circuit_parse": 10, "refined": 5, "original": 5,
         "enumerate3": 10, "entangle3": 10, "verify": 3},
    ),
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_djphase():
    if not (SRC / "djphase" / "__init__.py").is_file():
        fail(f"no djphase package under {SRC}; run from a djphase checkout")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"djphase.{name}") for name in tracing.MODULES}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "djphase":
        fail(f"imported djphase from {modules['cli'].__file__}, not {SRC}")
    return modules


def setup_sample(workdir: Path) -> tuple[float, list[str]]:
    """Import djphase in a fresh interpreter and run one n=3 table."""
    out = workdir / "setup.json"
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0 or proc.stdout.strip() == "failed":
        fail(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    verdict = json.loads(out.read_text())["verdict"]
    problems = [] if verdict == "balanced" else [f"set-up run gave {verdict} for balanced 01101001"]
    return float(proc.stdout), problems


def digest(output) -> str:
    text = output if isinstance(output, str) else repr(output)
    return hashlib.sha256(text.encode()).hexdigest()


class Bench:
    def __init__(self, dj, workload: Workload, seed: int, workdir: Path, tracer):
        self.dj = dj
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.tables = workload.tables(seed)
        self.truth_file = str(workdir / "tables.txt")
        Path(self.truth_file).write_text("".join(t.bits + "\n" for t in self.tables))
        rng = inputs.make_rng(seed)
        self.samples = {
            t.bits: rng.choice(1 << t.n, SAMPLED_INPUTS, replace=False)
            for t in self.tables
            if t.n > checks.EXHAUSTIVE_MAX_N
        }
        self.equivalence = [i for i, t in enumerate(self.tables) if t.equivalence]
        self.truth_tables = {
            i: dj["boolfn"].parse_truth_table(self.tables[i].bits) for i in self.equivalence
        }
        self.shots_seed = seed % 2**31
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.texts: list[str | None] = []  # circuits `synth` wrote
        self.circuits: dict[int, object] = {}  # those circuits parsed by `parse_text`

    def steps(self) -> list[tuple[str, str, Callable[[], tuple[float, object]]]]:
        """(step, end-to-end metric, run) in pass order."""
        f, w = self.truth_file, self.workload
        steps = [
            ("synth", "synth_s",
             lambda: self.cli("synth", ["synth", "--truth-file", f, "--format", w.synth_format])),
            ("circuit_parse", "circuit_parse_s", self.parse_circuits),
            ("refined", "run_refined_s", lambda: self.cli("refined", [
                "run", "--truth-file", f, "--format", "json",
                "--shots", str(SHOTS), "--seed", str(self.shots_seed)])),
            ("original", "run_original_s", lambda: self.cli("original", [
                "run", "--truth-file", f, "--mode", "original", "--format", "json"])),
        ]
        for command in ("enumerate", "entangle"):
            for n in w.census_ns:
                argv = [command, "-n", str(n), "--format", "json"]
                steps.append((f"{command}{n}", f"{command}_s", lambda a=argv: self.cli(a[0], a)))
        steps.append(("verify", "verify_s", lambda: self.cli("verify", ["verify", "--json"])))
        steps.append(("equivalence", "equivalence_s", self.sweep_equivalence))
        return steps

    def cli(self, name: str, argv: list[str]) -> tuple[float, str | None]:
        """Time one `djphase.cli.main(argv)`; the output is None when it fails."""
        out = self.workdir / f"{name}.out"
        out.unlink(missing_ok=True)
        stdout = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.dj["cli"].main(argv + (["--out", str(out)] if name != "verify" else []))
        except Exception as exc:  # an operation that crashes counts as failed
            print(f"bench: {name} raised {exc!r}", file=sys.stderr)
            code = None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            return elapsed, None
        text = out.read_text() if name != "verify" else stdout.getvalue()
        if self.tracer:
            self.tracer.add("cli.output_bytes", len(text.encode()))
        return elapsed, text

    def library(self, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            print(f"bench: {fn.__name__} raised {exc!r}", file=sys.stderr)
            self.failed += 1
            result = None
        return time.perf_counter() - start, result

    def parse_circuits(self) -> tuple[float, object]:
        total, self.circuits = 0.0, {}
        for i, text in enumerate(self.texts):
            if text is None:
                self.attempted += 1
                self.failed += 1
                continue
            elapsed, self.circuits[i] = self.library(self.dj["oracle_compiler"].parse_text, text)
            total += elapsed
        gates = {i: c and (c.n, [g.qubits for g in c.gates]) for i, c in self.circuits.items()}
        return total, gates

    def sweep_equivalence(self) -> tuple[float, object]:
        total, results = 0.0, {}
        for i in self.equivalence:
            if self.circuits.get(i) is None:
                self.attempted += 1
                self.failed += 1
                continue
            elapsed, results[i] = self.library(
                self.dj["simulator"].equivalent_diagonal, self.circuits[i], self.truth_tables[i]
            )
            total += elapsed
        return total, results

    def one_pass(self, repeat: bool) -> dict[str, list[float]]:
        """Run every step; returns each step's samples in this pass."""
        times: dict[str, list[float]] = {}
        for step, _, run in self.steps():
            for _ in range(self.workload.repeats.get(step, 1) if repeat else 1):
                gc.collect()  # each sample starts from a like heap, as a fresh command would
                elapsed, output = run()
                times.setdefault(step, []).append(elapsed)
                self.record(step, output)
        return times

    def record(self, step: str, output) -> None:
        """Check a step's first output; every later one must repeat it."""
        if step == "synth":
            self.texts = self.circuit_texts(output)
        if step not in self.digests:
            self.digests[step] = digest(output)
            if output is not None:
                self.problems += self.check(step, output)
        elif digest(output) != self.digests[step]:
            self.problems.append(f"step {step} gave other output than its first sample")

    def circuit_texts(self, synth_output: str | None) -> list[str | None]:
        if synth_output is None:
            return [None] * len(self.tables)
        if self.workload.synth_format == "json":
            return [p["circuit"] for p in json.loads(synth_output)]
        return checks.split_synth_text(synth_output)

    def check(self, step: str, output) -> list[str]:
        tables = self.tables
        if step == "synth" and self.workload.synth_format == "text":
            return checks.synth_text_problems(output, tables, self.xs_for)
        if step == "circuit_parse":
            return [
                problem
                for i, circuit in self.circuits.items() if circuit is not None
                for problem in checks.parsed_circuit_problems(circuit, self.texts[i])
            ]
        if step == "equivalence":
            return [
                problem
                for i, eq in output.items() if eq is not None
                for problem in checks.equivalence_problems(eq, tables[i].bits)
            ]
        if step.startswith("enumerate"):
            return checks.enumeration_problems(json.loads(output), int(step[len("enumerate"):]))
        if step.startswith("entangle"):
            return checks.survey_problems(json.loads(output), int(step[len("entangle"):]))
        if step == "verify":
            return checks.verify_problems(json.loads(output), 0)
        per_table = {
            "synth": lambda p, t: checks.synth_payload_problems(p, t, self.xs_for(t)),
            "refined": lambda p, t: checks.refined_payload_problems(p, t, SHOTS),
            "original": checks.original_payload_problems,
        }[step]
        payloads = json.loads(output)
        problems = [] if len(payloads) == len(tables) else [
            f"{step} gave {len(payloads)} payloads for {len(tables)} tables"
        ]
        for p, t in zip(payloads, tables):
            problems += per_table(p, t)
        return problems

    def xs_for(self, table):
        """Inputs to check a circuit on: all of them (None) up to EXHAUSTIVE_MAX_N."""
        return self.samples.get(table.bits)

    def warm_up(self) -> None:
        for mode in ("refined", "original"):
            self.dj["cli"].main(
                ["run", "--truth", "01101001", "--mode", mode, "--out", str(self.workdir / "warm.out")]
            )


def per_layer(layers: list[dict]) -> dict[str, dict]:
    """Mean self time over passes; counts, which every pass repeats, as they are."""
    metrics = {}
    for name, unit in tracing.METRICS.items():
        values = [layer.get(name, 0) for layer in layers]
        value = statistics.fmean(values) if unit == "s" else int(statistics.median_low(values))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def end_to_end(bench: Bench, passes: list[dict], setup: list[float]) -> dict[str, dict]:
    """Each step's mean sample over the run, summed into its metric and into total_s.

    The host this was built on switches between quiet and busy spells that
    last seconds to minutes.  A median snaps to whichever spell held most
    samples; the mean moves smoothly with the share of each, and its
    run-to-run spread was the smaller one (see README.md).
    """
    metrics = {name: {"value": 0.0, "unit": unit} for name, unit in END_TO_END.items()}
    for step, metric, _ in bench.steps():
        step_time = statistics.fmean(t for p in passes for t in p[step])
        metrics[metric]["value"] += step_time
        metrics["total_s"]["value"] += step_time
    metrics["setup_s"]["value"] = statistics.median(setup)
    metrics["peak_rss_mb"]["value"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dj = load_djphase()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as tmp:
        workdir = Path(tmp)
        tracer = tracing.Tracer() if args.trace else None
        bench = Bench(dj, WORKLOADS[args.workload], args.seed, workdir, tracer)
        setup: list[float] = []
        if not args.trace:
            setup_sample(workdir)  # also writes the bytecode cache, so it is not kept
        bench.warm_up()
        if tracer:
            tracer.install()
        passes, layers = [], []
        began = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(bench.one_pass(repeat=not args.trace))
            if tracer:
                layers.append(tracer.reset())
            else:
                seconds, problems = setup_sample(workdir)
                setup.append(seconds)
                bench.problems += problems
            pass_wall = time.perf_counter() - pass_start
            elapsed = time.perf_counter() - began
            if len(passes) >= MIN_PASSES and elapsed + pass_wall > args.seconds:
                break
        if tracer:
            tracer.uninstall()
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(workdir)[0])

    metrics = per_layer(layers) if args.trace else end_to_end(bench, passes, setup)
    for problem in bench.problems[:20]:
        print(f"bench: wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": passes, "layers": layers, "setup_samples": setup, "problems": bench.problems,
        "result": result,
    }
    suffix = "-trace" if args.trace else ""
    (RESULTS / f"{args.workload}-{args.seed}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    sums = sorted(sum(t[0] for t in p.values()) for p in passes)
    print(
        f"bench: {args.workload} seed {args.seed}: {len(passes)} passes, pass sums from "
        f"{sums[0]:.3f} to {sums[-1]:.3f} s, "
        f"{bench.attempted} operations, {bench.failed} failed, {len(bench.problems)} wrong",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
