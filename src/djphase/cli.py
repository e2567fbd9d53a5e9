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
dumps, or for `run` one column of texts per key; the text views render
that same dict or those columns.  `synth` text is the circuit text format
instead, so it never renders the ANF.

Exit codes: 0 success; 2 bad input, including a --tol outside
1e-12 <= tol < 0.5, a `run --shots` outside 0..MAX_SHOTS (above 0 with
`--mode classical`), a negative `--seed` or an `--out` whose directory does
not exist (all checked before any table is read), and a table too large for
the run mode or for `synth` (n > 20);
3 promise violation; 4 a failed `verify` suite or a failed self-check
inside any other command.
JSON output is byte-identical across runs for the same inputs, and equals
json.dumps(payload, indent=2) plus a newline without running the stdlib's
pure-Python indent encoder.  Every command fills one %-template per record
through _fill, each column of values encoded by one C-encoder call:
_records_json takes records of one shape, and `run` builds no record at all.
Its columns of texts come straight from each dj_runner.run_stacks stack's
arrays (_run_columns), a probability array or histogram being one slot, as
their lengths change from table to table; _columns_json lays them out, and the
text view fills its own template from the same columns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from itertools import accumulate, chain
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
    Verdict,
    check_tol,
    classical_decide,
    run_stacks,
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


def _fill(template: str, count: int, columns: list, indent: str, single: bool, end: str) -> str:
    """count records of one %-template, in a list at indent unless single, and end, filled
    by a single % with columns[j][r], the text of slot j of record r, in record order, so
    that no Python call runs per value."""
    if not single:
        template = _block("[", [template] * count, indent, "]")
    return (template + end) % tuple(chain.from_iterable(zip(*columns)))


def _records_text(records: list[dict], indent: str, single: bool = False, end: str = "") -> str:
    """json.dumps(records[0] if single else records, indent=2) + end, first line at indent.

    The records share one shape (see _template), laid out by _fill.
    """
    if not records:
        return "[]" + end
    template, columns = _template(records, indent if single else indent + "  ")
    return _fill(template, len(records), columns, indent, single, end)


def _columns_json(columns: dict[str, list[str]], single: bool) -> str:
    """json.dumps(records[0] if single else records, indent=2) + "\n", record r being
    {key: the value whose JSON text is columns[key][r]}.

    A text lays out a container as json.dumps would at the record's key indent (4
    spaces in a list, 2 if single), as _containers does.  A non-str key, or columns of
    unequal length, raises SelfCheckError.
    """
    if {*map(type, columns)} - {str}:
        raise SelfCheckError("JSON writer: a key of a run record is not a str")
    if len({*map(len, columns.values())}) != 1:
        raise SelfCheckError("JSON writer: the columns of run records differ in length")
    template = _block("{", [_slot(key, "%s") for key in columns], "" if single else "  ", "}")
    texts = list(columns.values())
    return _fill(template, len(texts[0]), texts, "", single, "\n")


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


def _histogram_texts(probs: np.ndarray, shots: int, seed: int, indent: str | None) -> list[str]:
    """The histogram of `shots` draws from each row of a (B, 2^n) stack: its {bits: count}
    JSON text at indent, or with indent None the text view's "\n  bits count" lines."""
    row_of, index, count = stacked_counts(probs, shots, seed)
    width = probs.shape[-1].bit_length() - 1
    # Each distinct (outcome, count) pair of the stack is formatted once.
    pairs, inverse = np.unique(index * (shots + 1) + count, return_inverse=True)
    item = "\n  %s %d" if indent is None else '"%s": %d'
    texts = [item % (format(p // (shots + 1), f"0{width}b"), p % (shots + 1))
             for p in pairs.tolist()]
    items = np.array(texts, dtype=object)[inverse].tolist()
    sizes = np.bincount(row_of, minlength=len(probs)).tolist()
    if indent is not None:
        return _containers(items, sizes, "{}", indent)
    ends = list(accumulate(sizes))
    return ["".join(items[a:b]) for a, b in zip([0, *ends], ends)]


def _run_columns(tables: list[TruthTable], args: argparse.Namespace, as_json: bool) -> dict:
    """The text of each value of a run's records, a column per key in record order: JSON
    texts, or the text view's, which prints a str bare and has no probabilities.

    Each run_stacks stack adds its part to every column from its arrays: texts, or the
    floats of a scalar column, encoded for all stacks at once.  One gather puts each
    column in file order.  A float prints alike in both views, as every float that a
    run passing its self-checks reads out is finite.
    """
    quote = encode_basestring_ascii if as_json else str
    if args.mode == "classical":
        outcomes = list(map(classical_decide, tables))
        return {
            "truth_table": [quote(t.text) for t in tables],
            "mode": [quote(args.mode)] * len(tables),
            "verdict": [quote(out.verdict.value) for out in outcomes],
            "queries_used": [str(out.queries_used) for out in outcomes],
        }
    # No state is printed: let each stack's go before the texts are built.
    runs = [s._replace(state=None) for s in run_stacks(tables, Mode(args.mode), args.tol)]
    verdicts = {v: quote(v.value) for v in Verdict}
    indent = "  " if args.truth is not None else "    "
    parts: dict = {}
    for s in runs:
        probs, size = s.probabilities, len(s.rows)
        stack = {
            "truth_table": [quote(tables[i].text) for i in s.rows],
            "mode": [quote(args.mode)] * size,
            "verdict": list(map(verdicts.__getitem__, s.verdicts)),
            "zero_amplitude": s.zeros,
            "queries_used": ["1"] * size,
        }
        if as_json:
            items = _float_texts(probs.ravel())
            stack["probabilities"] = _containers(items, [probs.shape[1]] * size, "[]", indent)
        if s.purities is not None:
            stack["working_qubit_purity"] = s.purities
        if args.shots:
            layout = indent if as_json else None
            stack["histogram"] = _histogram_texts(probs, args.shots, args.seed, layout)
        for key, part in stack.items():
            parts.setdefault(key, []).append(part)
    order = np.argsort(np.concatenate([s.rows for s in runs])).tolist()
    columns = {}
    for key, column in parts.items():
        if isinstance(column[0], np.ndarray):
            texts = _float_texts(np.concatenate(column))
        else:
            texts = list(chain.from_iterable(column))
        columns[key] = list(map(texts.__getitem__, order))
    return columns


def cmd_run(args: argparse.Namespace) -> tuple[str, int]:
    check_tol(args.tol)
    if not 0 <= args.shots <= MAX_SHOTS:
        raise ValueError(f"--shots must satisfy 0 <= shots <= {MAX_SHOTS}, got {args.shots}")
    if args.shots and args.mode == "classical":
        raise ValueError(f"--shots must be 0 with --mode classical, got {args.shots}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    tables = _load_tables(args)
    as_json = args.format == "json"
    columns = _run_columns(tables, args, as_json)
    if as_json:
        return _columns_json(columns, args.truth is not None), EXIT_OK
    # One `key: value` line per field, in record order; a blank line between records.
    template = "".join(f"{key}:%s\n" if key == "histogram" else f"{key}: %s\n" for key in columns)
    fills = tuple(chain.from_iterable(zip(*columns.values())))
    return "\n".join([template] * len(tables)) % fills, EXIT_OK


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
