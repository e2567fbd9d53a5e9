"""Command-line front end.

Subcommands:

* synth: compile a truth table into a phase-oracle circuit.
* run: decide constant vs balanced in one oracle query.
* enumerate: census of balanced functions for one qubit count.
* entangle: post-oracle entanglement survey.
* verify: run the built-in verification suites.

Each `cmd_*` handler returns its output text and exit code, and `main`
is the one place that writes it, to `--out` or to stdout.  A result has
one representation, the dict that `--format json` (`verify --json`)
dumps; the text views render that same dict.  `synth` text is the
circuit text format instead, so it never renders the ANF.

Exit codes: 0 success; 2 bad input, including a --tol outside
1e-12 <= tol < 0.5, a `run --shots` outside 0..MAX_SHOTS (above 0 with
`--mode classical`), a negative `--seed` or an `--out` whose directory does
not exist (all checked before any table is read), and a table too large for
the run mode or for `synth` (n > 20);
3 promise violation; 4 a failed `verify` suite or a failed self-check
inside any other command.
JSON output is byte-identical across runs for the same inputs, and equals
json.dumps(payload, indent=2) plus a newline without running the stdlib's
pure-Python indent encoder.  Every command fills one %-template per record, each
column of values encoded by one C-encoder call: _records_json takes records of
one shape, and _run_json groups `run` payloads by key tuple and value types,
each probability array and histogram one slot, as their lengths change from
table to table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .boolfn import TruthTable, TruthTableError, parse_truth_table, stacks
from .oracle_compiler import circuit_texts, report_dicts, synthesis_reports
from .reports import entanglement_survey, enumeration_report
from .dj_runner import (
    VERDICT_TOL,
    Mode,
    PromiseViolationError,
    SelfCheckError,
    check_tol,
    classical_decide,
    run_tables,
)
from .simulator import MAX_QUBITS, stacked_counts
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
    run.add_argument("--tol", type=float, default=VERDICT_TOL, help="verdict tolerance")
    run.add_argument(
        "--shots", type=int, default=0, help="also sample the final distribution this many times"
    )
    run.add_argument("--seed", type=int, default=0, help="seed for --shots sampling")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--out", help="write to this file instead of stdout")

    for name, help_text in (
        ("enumerate", "census of balanced functions"),
        ("entangle", "post-oracle entanglement survey"),
    ):
        census = sub.add_parser(name, help=help_text)
        census.add_argument("-n", type=int, default=3, help="qubit count (2 to 4)")
        census.add_argument("--format", choices=("table", "json"), default="table")
        census.add_argument("--out", help="write to this file instead of stdout")

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--tol", type=float, default=VERDICT_TOL)
    ver.add_argument("--json", action="store_true", help="emit results as JSON")
    return parser


def _load_tables(args: argparse.Namespace) -> list[TruthTable]:
    if args.truth is not None:
        return [parse_truth_table(args.truth)]
    tables = []
    with open(args.truth_file, encoding="utf-8-sig") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                tables.append(parse_truth_table(line))
    if not tables:
        raise TruthTableError(f"no truth tables found in {args.truth_file}")
    return tables


def _scalar_texts(values: list) -> list[str]:
    # One C-encoder call for many scalars; encoded JSON never holds a raw newline, so
    # each line is one scalar, or one item of a dict of scalars.
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n") if values else []


def _float_texts(values: np.ndarray) -> list[str]:
    """json.dumps's text of each float in a 1-D float64 array, each bit pattern encoded once.

    A probability vector holds few distinct values (squared Walsh coefficients), and
    float formatting is most of the cost of encoding it.  One sort of the uint64 view
    puts equal bit patterns side by side, so the first of each run gives every distinct
    pattern (-0.0 apart from 0.0); each entry finds its text by a binary search among
    them.  NaN and +-inf encode as json.dumps writes them.
    """
    bits = values.view(np.uint64)
    order = np.sort(bits)
    distinct = np.concatenate((order[:1], order[1:][order[1:] != order[:-1]]))
    texts = np.array(_scalar_texts(distinct.view(np.float64).tolist()), dtype=object)
    return texts[np.searchsorted(distinct, bits)].tolist()


def _block(open_: str, items: list[str], indent: str, close: str) -> str:
    """A JSON container as json.dumps(indent=2) lays it out, its first line at indent."""
    if not items:
        return open_ + close
    inner = indent + "  "
    return f"{open_}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{close}"


def _containers(items: list[str], sizes: list[int], brackets: str, indent: str) -> list[str]:
    """The text of each array or dict of a column, as _block lays it out at indent, the
    k-th made of the next sizes[k] of items.  Each one's first and last item take its
    brackets, so that its text is one join: a run's MB-sized probability text is
    copied by that join and by the final %, and no more."""
    inner = indent + "  "
    sep, open_, close = f",\n{inner}", f"{brackets[0]}\n{inner}", f"\n{indent}{brackets[1]}"
    out, start = [], 0
    for size in sizes:
        if not size:
            out.append(brackets)
            continue
        end = start + size
        items[start] = open_ + items[start]
        items[end - 1] += close
        out.append(sep.join(items[start:end]))
        start = end
    return out


def _run_column(values: list, kind: type, indent: str) -> list[str]:
    """The slot text of each value of one column of run payloads, all of type kind."""
    if kind is np.ndarray:
        texts = _float_texts(np.concatenate(values))
        return _containers(texts, [a.size for a in values], "[]", indent)
    if kind is dict:
        names = list(chain.from_iterable(values))
        if {*map(type, names)} - {str}:
            raise SelfCheckError("JSON writer: a key of a run payload's dict is not a str")
        items = _value_texts(list(chain.from_iterable(map(dict.values, values))))
        items = list(map(": ".join, zip(map(encode_basestring_ascii, names), items)))
        return _containers(items, list(map(len, values)), "{}", indent)
    return _value_texts(values)


def _run_json(payloads: list[dict], single: bool) -> str:
    """json.dumps(payload, indent=2) + "\n" of run payloads, a column at a time.

    payload is payloads[0] if single, else the list.  A value is a scalar, a float64
    array (the probabilities) or a dict of scalars under str keys (the histogram).
    Payloads that share their key tuple and value types (all of a run's) share one
    %-template per record.  Each column takes one C-encoder call: _value_texts for
    scalars, _float_texts over its arrays joined, and for dicts one string-encoder map
    over their keys and one _value_texts call over their values.  A single % fills the
    templates of all payloads, joined, with every slot's text in payload order.
    """
    groups: dict = {}
    for i, p in enumerate(payloads):
        groups.setdefault((tuple(p), tuple(map(type, p.values()))), []).append(i)
    indent = "  " if single else "    "
    templates: list = [None] * len(payloads)
    fills: list = [None] * len(payloads)
    for (keys, kinds), rows in groups.items():
        if {*map(type, keys)} - {str}:
            raise SelfCheckError("JSON writer: a key of a run payload is not a str")
        columns = [
            _run_column([payloads[i][key] for i in rows], kind, indent)
            for key, kind in zip(keys, kinds)
        ]
        template = _block("{", [_slot(key, "%s") for key in keys], indent[:-2], "}")
        for i, fill in zip(rows, zip(*columns) if columns else repeat(())):
            templates[i], fills[i] = template, fill
    document = templates[0] if single else _block("[", templates, "", "]")
    return (document + "\n") % tuple(chain.from_iterable(fills))


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _value_texts(values: list) -> list[str]:
    """The JSON text of each scalar.

    A column of floats alone goes through _float_texts, and a column of strs alone
    through the stdlib's own string encoder, mapped in C: an n=20 `synth` text is
    20 MB, and _scalar_texts would copy it three times more.
    """
    kinds = set(map(type, values))
    if not kinds <= _SCALARS:
        names = ", ".join(sorted(k.__name__ for k in kinds - _SCALARS))
        raise SelfCheckError(f"JSON writer: a {names} value where the shape has a scalar")
    if kinds == {float}:
        return _float_texts(np.array(values, dtype=np.float64))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    return _scalar_texts(values)


def _keys(dicts: list, where: str) -> tuple[str, ...]:
    """The one key tuple, in order, of every dict in dicts."""
    if set(map(type, dicts)) != {dict}:
        raise SelfCheckError(f"JSON writer: {where} is not a dict in every record")
    shapes = set(map(tuple, dicts))
    if len(shapes) != 1:
        raise SelfCheckError(f"JSON writer: records differ in the keys or key order of {where}")
    keys = shapes.pop()
    if not all(type(k) is str for k in keys):
        raise SelfCheckError(f"JSON writer: a key of {where} is not a str")
    return keys


def _slot(key: str, text: str) -> str:
    return json.dumps(key).replace("%", "%%") + ": " + text


def _template(records: list[dict], indent: str) -> tuple[str, list[list[str]]]:
    """One %-template for every record, its "{" at indent, and the texts of its slots.

    The shape is records[0]'s: a value is a scalar, a flat dict of scalars, a flat list
    or tuple of scalars, or a list of records (laid out by _records_text).  Each column
    is gathered by one comprehension and encoded by one _value_texts call.  A record
    that differs from records[0] in keys, key order, value kind or nested length
    raises SelfCheckError, so no record is laid out by another's shape.
    """
    inner = indent + "  "
    items, columns = [], []
    for key in _keys(records, "a record"):
        values = [r[key] for r in records]
        first, width = values[0], 1
        if type(first) is dict:
            sub = _keys(values, repr(key))
            width, text = len(sub), _block("{", [_slot(k, "%s") for k in sub], inner, "}")
            texts = _value_texts(list(chain.from_iterable(map(dict.values, values))))
        elif type(first) not in (list, tuple):
            texts, text = _value_texts(values), "%s"
        elif not set(map(type, values)) <= {list, tuple} or len(set(map(len, values))) != 1:
            raise SelfCheckError(f"JSON writer: {key!r} is not a list of one length in all records")
        elif first and type(first[0]) is dict:
            texts, text = [_records_text(v, inner) for v in values], "%s"
        else:
            width, text = len(first), _block("[", ["%s"] * len(first), inner, "]")
            texts = _value_texts(list(chain.from_iterable(values)))
        items.append(_slot(key, text))
        columns += (texts[j::width] for j in range(width))
    return _block("{", items, indent, "}"), columns


def _records_text(records: list[dict], indent: str, single: bool = False, end: str = "") -> str:
    """json.dumps(records[0] if single else records, indent=2) + end, first line at indent.

    The records share one shape (see _template).  One template per record, joined, is
    filled by a single % with every slot's text in record order, so no Python call
    runs per value.
    """
    if not records:
        return "[]" + end
    template, columns = _template(records, indent if single else indent + "  ")
    if not single:
        template = _block("[", [template] * len(records), indent, "]")
    return (template + end) % tuple(chain.from_iterable(zip(*columns)))


def _records_json(records: list[dict], single: bool) -> str:
    """json.dumps(records[0] if single else records, indent=2) + "\n" of same-shape records."""
    return _records_text(records, "", single, "\n")


def cmd_synth(args: argparse.Namespace) -> tuple[str, int]:
    tables = _load_tables(args)
    for t in tables:
        if t.n > MAX_QUBITS:
            raise ValueError(f"synth supports n <= {MAX_QUBITS}, got n={t.n}")
    single, as_json = args.truth is not None, args.format == "json"
    # One `stacks` stack at a time, from reports to texts, so that only one stack's
    # circuits are alive at once: a table of n >= 16 is synthesized alone.
    items: list = [None] * len(tables)
    for rows in stacks([1 << t.n for t in tables]):
        reports = synthesis_reports([tables[i] for i in rows])
        if as_json:
            stack = [
                {**d, "dropped_global_sign": r.dropped_global_sign}
                for r, d in zip(reports, report_dicts(reports))
            ]
        else:
            # The text view is the circuit text format itself, one block per table of a
            # file; the JSON dict would render every ANF only to drop it.
            stack = circuit_texts([r.circuit for r in reports])
            if not single:
                stack = [f"# table {r.truth_table.text}\n" + s for r, s in zip(reports, stack)]
        for i, item in zip(rows, stack):
            items[i] = item
    if as_json:
        return _records_json(items, single), EXIT_OK
    return items[0] if single else "\n".join(items), EXIT_OK


def _histograms(probs: list[np.ndarray], shots: int, seed: int) -> list[dict[str, int]]:
    """{bits: count} of `shots` draws from each distribution, equal sizes as one stack."""
    out: list = [None] * len(probs)
    for rows in stacks([p.size for p in probs]):
        counts = stacked_counts(np.array([probs[i] for i in rows]), shots, seed)
        width = probs[rows[0]].size.bit_length() - 1
        # Each distinct outcome of the stack is formatted once.
        labels = {k: format(k, f"0{width}b") for k in set().union(*counts)}
        for i, row in zip(rows, counts):
            out[i] = {labels[k]: count for k, count in row.items()}
    return out


def _run_payloads(tables: list[TruthTable], args: argparse.Namespace) -> list[dict]:
    if args.mode == "classical":
        return [
            {"truth_table": t.text, "mode": "classical", "verdict": out.verdict.value,
             "queries_used": out.queries_used}
            for t, out in zip(tables, map(classical_decide, tables))
        ]
    outcomes = run_tables(tables, Mode(args.mode), tol=args.tol)
    payloads = []
    for t, out in zip(tables, outcomes):
        payload = {
            "truth_table": t.text,
            "mode": out.mode.value,
            "verdict": out.verdict.value,
            "zero_amplitude": out.zero_amplitude,
            "queries_used": out.queries_used,
            "probabilities": out.final_probabilities,
        }
        if out.working_qubit_purity is not None:
            payload["working_qubit_purity"] = out.working_qubit_purity
        payloads.append(payload)
    if args.shots:
        probs = [out.final_probabilities for out in outcomes]
        for payload, hist in zip(payloads, _histograms(probs, args.shots, args.seed)):
            payload["histogram"] = hist
    return payloads


def cmd_run(args: argparse.Namespace) -> tuple[str, int]:
    check_tol(args.tol)
    if not 0 <= args.shots <= MAX_SHOTS:
        raise ValueError(f"--shots must satisfy 0 <= shots <= {MAX_SHOTS}, got {args.shots}")
    if args.shots and args.mode == "classical":
        raise ValueError(f"--shots must be 0 with --mode classical, got {args.shots}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    payloads = _run_payloads(_load_tables(args), args)
    if args.format == "json":
        return _run_json(payloads, args.truth is not None), EXIT_OK
    # One `key: value` line per field, in payload order; str(float) is repr(float).
    blocks = []
    for payload in payloads:
        lines = []
        for key, value in payload.items():
            if key == "histogram":
                lines += ["histogram:", *(f"  {bits} {count}" for bits, count in value.items())]
            elif key != "probabilities":
                lines.append(f"{key}: {value}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks), EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    report = enumeration_report(args.n).as_dict()
    if args.format == "json":
        return _records_json([report], True), EXIT_OK
    lines = [
        f"n = {report['n']}",
        f"balanced functions: {report['total_balanced']}",
        f"complement classes: {report['classes']}",
    ]
    if report["type_counts"] is not None:
        tally = "  ".join(f"{k}:{v}" for k, v in report["type_counts"].items())
        lines.append(f"type counts: {tally}")
    lines.append("")
    anf_width = max(len(row["anf"]) for row in report["rows"])
    for row in report["rows"]:
        ctype = row["type"] if row["type"] is not None else "-"
        tag = "product" if row["fully_product"] else "entangled"
        circuit = "; ".join(row["circuit"].strip().splitlines())
        lines.append(
            f"{row['truth_table']}  type {ctype}  {tag:<9}  "
            f"{row['anf']:<{anf_width}}  {circuit}"
        )
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_entangle(args: argparse.Namespace) -> tuple[str, int]:
    survey = entanglement_survey(args.n).as_dict()
    if args.format == "json":
        return _records_json([survey], True), EXIT_OK
    lines = [
        f"n = {survey['n']}",
        f"complement classes: {survey['classes']}",
        f"fully product: {survey['product_classes']}",
        f"entangled: {survey['entangled_classes']}",
        "",
    ]
    for row in survey["rows"]:
        ctype = row["type"] if row["type"] is not None else "-"
        purity_text = " ".join(f"{p:.6f}" for p in row["purities"])
        tag = "product" if row["fully_product"] else "entangled"
        lines.append(f"{row['truth_table']}  type {ctype}  purities {purity_text}  {tag}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    results = [asdict(r) for r in run_verification(tol=args.tol)]
    code = EXIT_OK if all(r["passed"] for r in results) else EXIT_VERIFY
    if args.json:
        return _records_json(results, False), code
    lines = [f"[{'PASS' if r['passed'] else 'FAIL'}] {r['name']}: {r['detail']}" for r in results]
    lines.append(f"{sum(r['passed'] for r in results)}/{len(results)} suites passed")
    return "\n".join(lines) + "\n", code


def _check_out(path: str) -> None:
    """Reject an --out that cannot be opened as a file, before any table is read."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"--out {path}: no such directory {folder}")
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")


_HANDLERS = {
    "synth": cmd_synth,
    "run": cmd_run,
    "enumerate": cmd_enumerate,
    "entangle": cmd_entangle,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its text to --out or stdout: the CLI's one output path."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = getattr(args, "out", None)  # verify has no --out
        if out is not None:
            _check_out(out)
        text, code = _HANDLERS[args.command](args)
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return code
    except (SelfCheckError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PromiseViolationError):
            return EXIT_PROMISE
        return EXIT_VERIFY if isinstance(exc, SelfCheckError) else EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
