"""Command-line front end.

Subcommands:

* synth: compile a truth table into a phase-oracle circuit.
* run: decide constant vs balanced in one oracle query.
* enumerate: census of balanced functions for one qubit count.
* entangle: post-oracle entanglement survey.
* verify: run the built-in verification suites.

Exit codes: 0 success; 2 bad input, including a --tol outside
1e-12 <= tol < 0.5, a `run --shots` outside 0..MAX_SHOTS or a negative
`--seed` (all checked before any table is read), and a table too large
for the run mode or for `synth` (n > 20); 3 promise violation; 4 a failed
`verify` suite or a failed self-check inside any other command.
JSON output is byte-identical across runs for the same inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boolfn import TruthTable, TruthTableError, parse_truth_table
from .oracle_compiler import CircuitParseError, emit_text, synthesis_report
from .reports import entanglement_survey, enumeration_report
from .dj_runner import (
    PromiseViolationError,
    SelfCheckError,
    check_tol,
    classical_decide,
    run_original,
    run_refined,
)
from .simulator import MAX_QUBITS, sample_counts
from .verify import run_verification

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROMISE = 3
EXIT_VERIFY = 4

MAX_SHOTS = 10**6


def _add_truth_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--truth", help="truth table as a 0/1 string, index 0 leftmost")
    group.add_argument(
        "--truth-file", help="file with one truth table per line; '#' starts a comment"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="djphase",
        description="Phase-oracle synthesis and one-query constant-vs-balanced runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="compile a truth table into a phase-oracle circuit")
    _add_truth_args(synth)
    synth.add_argument("--format", choices=("text", "json"), default="text")
    synth.add_argument("--out", help="write to this file instead of stdout")

    run = sub.add_parser("run", help="decide constant vs balanced in one query")
    _add_truth_args(run)
    run.add_argument("--mode", choices=("refined", "original", "classical"), default="refined")
    run.add_argument("--tol", type=float, default=1e-9, help="verdict tolerance")
    run.add_argument(
        "--shots", type=int, default=0, help="also sample the final distribution this many times"
    )
    run.add_argument("--seed", type=int, default=0, help="seed for --shots sampling")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--out", help="write to this file instead of stdout")

    enum_p = sub.add_parser("enumerate", help="census of balanced functions")
    enum_p.add_argument("-n", type=int, default=3, help="qubit count (2 to 4)")
    enum_p.add_argument("--format", choices=("table", "json"), default="table")
    enum_p.add_argument("--out", help="write to this file instead of stdout")

    ent = sub.add_parser("entangle", help="post-oracle entanglement survey")
    ent.add_argument("-n", type=int, default=3, help="qubit count (2 to 4)")
    ent.add_argument("--format", choices=("table", "json"), default="table")
    ent.add_argument("--out", help="write to this file instead of stdout")

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--json", action="store_true", help="emit results as JSON")
    return parser


def _load_tables(args: argparse.Namespace) -> list[TruthTable]:
    if args.truth is not None:
        return [parse_truth_table(args.truth)]
    tables = []
    with open(args.truth_file, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                tables.append(parse_truth_table(line))
    if not tables:
        raise TruthTableError(f"no truth tables found in {args.truth_file}")
    return tables


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _inline_circuit(circuit_text: str) -> str:
    return "; ".join(circuit_text.strip().splitlines())


def _synth_payload(t: TruthTable) -> dict:
    r = synthesis_report(t)
    return {**r.as_dict(), "dropped_global_sign": r.dropped_global_sign}


def cmd_synth(args: argparse.Namespace) -> int:
    tables = _load_tables(args)
    for t in tables:
        if t.n > MAX_QUBITS:
            raise ValueError(f"synth supports n <= {MAX_QUBITS}, got n={t.n}")
    single = args.truth is not None
    if args.format == "json":
        payloads = [_synth_payload(t) for t in tables]
        text = _json_text(payloads[0] if single else payloads)
    elif single:
        text = emit_text(synthesis_report(tables[0]).circuit)
    else:
        blocks = [
            f"# table {t.text}\n" + emit_text(synthesis_report(t).circuit) for t in tables
        ]
        text = "\n".join(blocks)
    _write_out(text, args.out)
    return EXIT_OK


def _run_payload(t: TruthTable, args: argparse.Namespace) -> dict:
    if args.mode == "classical":
        out = classical_decide(t)
        return {
            "truth_table": t.text,
            "mode": "classical",
            "verdict": out.verdict.value,
            "queries_used": out.queries_used,
        }
    runner = run_refined if args.mode == "refined" else run_original
    out = runner(t, tol=args.tol)
    payload = {
        "truth_table": t.text,
        "mode": out.mode.value,
        "verdict": out.verdict.value,
        "zero_amplitude": out.zero_amplitude,
        "queries_used": out.queries_used,
        "probabilities": out.final_probabilities.tolist(),
    }
    if out.working_qubit_purity is not None:
        payload["working_qubit_purity"] = out.working_qubit_purity
    if args.shots:
        counts = sample_counts(out.final_probabilities, args.shots, args.seed)
        payload["histogram"] = {format(i, f"0{t.n}b"): c for i, c in counts.items()}
    return payload


def _render_run_text(payload: dict) -> str:
    lines = [
        f"truth_table: {payload['truth_table']}",
        f"mode: {payload['mode']}",
        f"verdict: {payload['verdict']}",
    ]
    if "zero_amplitude" in payload:
        lines.append(f"zero_amplitude: {payload['zero_amplitude']!r}")
    lines.append(f"queries_used: {payload['queries_used']}")
    if "working_qubit_purity" in payload:
        lines.append(f"working_qubit_purity: {payload['working_qubit_purity']!r}")
    if "histogram" in payload:
        lines.append("histogram:")
        for bits, count in payload["histogram"].items():
            lines.append(f"  {bits} {count}")
    return "\n".join(lines) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    check_tol(args.tol)
    if not 0 <= args.shots <= MAX_SHOTS:
        raise ValueError(f"--shots must satisfy 0 <= shots <= {MAX_SHOTS}, got {args.shots}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    tables = _load_tables(args)
    single = args.truth is not None
    payloads = [_run_payload(t, args) for t in tables]
    if args.format == "json":
        text = _json_text(payloads[0] if single else payloads)
    else:
        text = "\n".join(_render_run_text(p) for p in payloads)
    _write_out(text, args.out)
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    report = enumeration_report(args.n)
    if args.format == "json":
        _write_out(_json_text(report.as_dict()), args.out)
        return EXIT_OK
    lines = [
        f"n = {report.n}",
        f"balanced functions: {report.total_balanced}",
        f"complement classes: {report.classes}",
    ]
    if report.type_counts is not None:
        lines.append(
            "type counts: " + "  ".join(f"{k}:{v}" for k, v in sorted(report.type_counts.items()))
        )
    lines.append("")
    dicts = [row.as_dict() for row in report.rows]
    anf_width = max(len(d["anf"]) for d in dicts)
    for d in dicts:
        ctype = d["type"] if d["type"] is not None else "-"
        tag = "product" if d["fully_product"] else "entangled"
        lines.append(
            f"{d['truth_table']}  type {ctype}  {tag:<9}  "
            f"{d['anf']:<{anf_width}}  {_inline_circuit(d['circuit'])}"
        )
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_entangle(args: argparse.Namespace) -> int:
    survey = entanglement_survey(args.n)
    if args.format == "json":
        _write_out(_json_text(survey.as_dict()), args.out)
        return EXIT_OK
    lines = [
        f"n = {survey.n}",
        f"complement classes: {survey.classes}",
        f"fully product: {survey.product_classes}",
        f"entangled: {survey.entangled_classes}",
        "",
    ]
    for row in survey.rows:
        ctype = row.construction_type if row.construction_type is not None else "-"
        purity_text = " ".join(f"{p:.6f}" for p in row.purities)
        tag = "product" if row.fully_product else "entangled"
        lines.append(f"{row.truth_table.text}  type {ctype}  purities {purity_text}  {tag}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    check_tol(args.tol)
    results = run_verification(tol=args.tol)
    if args.json:
        payload = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        sys.stdout.write(_json_text(payload))
    else:
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            print(f"[{tag}] {r.name}: {r.detail}")
        passed = sum(1 for r in results if r.passed)
        print(f"{passed}/{len(results)} suites passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


_HANDLERS = {
    "synth": cmd_synth,
    "run": cmd_run,
    "enumerate": cmd_enumerate,
    "entangle": cmd_entangle,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except PromiseViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROMISE
    except SelfCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (TruthTableError, CircuitParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
