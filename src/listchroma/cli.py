"""Command line front end: generate, solve, check and bench subcommands.

Instance files are DIMACS-flavored text with 1-based ids:

    c optional comments
    p mwlcp <n> <m> <ncolors>
    e <u> <v>                 (m edge lines)
    w <j> <weight>            (ncolors color lines)
    l <v> <len> <j1> ... <jlen>   (n list lines)

Internally everything is 0-based. Color ids in a file need not be contiguous
(normalization may drop colors), only distinct.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import AbstractContextManager, nullcontext
from itertools import product
from typing import TextIO

from .core import (
    ColoringError, Deadline, EmptyListError, Graph, Instance, build_instance, validate_coloring,
)
from .bnp import INFEASIBLE, NUMERICAL_FAILURE, OPTIMAL, TIME_LIMIT, SolveReport, solve
from .instgen import GENERATOR_NAME, GenConfig, generate
from .oracle import DEFAULT_CAP, TooLargeError, oracle_solve

SEED_ENV = "LISTCHROMA_SEED"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3
EXIT_NUMERICAL_FAILURE = 4


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _line_ints(lineno: int, parts: list[str], shape: str, fields_are: str) -> list[int]:
    """The integer fields of a line of the given shape, say 'e <u> <v>', after its plain words.

    One integer per <field>, any number for a last '<...s...>'. ParseError
    says which shape was expected, or that fields_are "must be integers".
    """
    words = shape.split()
    head = [word for word in words if word[0] != "<"]
    fields, arity = parts[len(head) :], len(words) - len(head)
    bad_arity = len(fields) < arity - 1 if shape.endswith("...>") else len(fields) != arity
    if parts[: len(head)] != head or bad_arity:
        raise ParseError(lineno, f"expected '{shape}'")
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise ParseError(lineno, f"{fields_are} must be integers") from None


def parse_instance(path: str) -> tuple[Instance, list[str]]:
    """Read an instance file; returns the instance and its comment lines.

    Malformed files raise ParseError with the offending line number. A
    well-formed file declaring an empty list raises EmptyListError instead:
    that is an infeasible instance, not a syntax problem. The error carries
    the file's comment lines as its comments attribute.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    comments: list[str] = []
    body: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("c"):
            comments.append(stripped)
            continue
        body.append((lineno, stripped.split()))

    if not body:
        raise ParseError(len(raw) + 1, "missing problem line")
    lineno, parts = body[0]
    n, m, ncolors = _line_ints(lineno, parts, "p mwlcp <n> <m> <ncolors>", "problem line counts")
    if n < 1 or m < 0 or ncolors < 1:
        raise ParseError(lineno, "problem line counts out of range")
    expected = 1 + m + ncolors + n
    if len(body) != expected:
        raise ParseError(
            body[-1][0],
            f"expected {expected - 1} data lines after the problem line, got {len(body) - 1}",
        )

    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    for lineno, parts in body[1 : 1 + m]:
        u, v = _line_ints(lineno, parts, "e <u> <v>", "edge endpoints")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"edge endpoint out of range 1..{n}")
        if u == v:
            raise ParseError(lineno, "self-loops are not allowed")
        key = (min(u, v), max(u, v))
        if key in seen_edges:
            raise ParseError(lineno, f"duplicate edge {key}")
        seen_edges.add(key)
        edges.append((u - 1, v - 1))

    weights: dict[int, int] = {}
    for lineno, parts in body[1 + m : 1 + m + ncolors]:
        j, wj = _line_ints(lineno, parts, "w <color> <weight>", "color id and weight")
        if j < 1:
            raise ParseError(lineno, "color ids are 1-based")
        if wj < 0:
            raise ParseError(lineno, "weights must be non-negative")
        if j - 1 in weights:
            raise ParseError(lineno, f"duplicate weight line for color {j}")
        weights[j - 1] = wj

    lists: dict[int, list[int]] = {}
    for lineno, parts in body[1 + m + ncolors :]:
        v, length, *cols = _line_ints(lineno, parts, "l <v> <len> <colors...>", "list line fields")
        if not 1 <= v <= n:
            raise ParseError(lineno, f"vertex {v} out of range 1..{n}")
        if v - 1 in lists:
            raise ParseError(lineno, f"duplicate list line for vertex {v}")
        if len(cols) != length:
            raise ParseError(lineno, f"declared length {length} but {len(cols)} colors")
        if len(set(cols)) != len(cols):
            raise ParseError(lineno, "duplicate color in list")
        for j in cols:
            if j - 1 not in weights:
                raise ParseError(lineno, f"list references undeclared color {j}")
        lists[v - 1] = [j - 1 for j in cols]
    try:
        inst = build_instance(
            Graph.from_edges(n, edges), weights.keys(), weights, [lists[v] for v in range(n)]
        )
    except EmptyListError as exc:
        exc.comments = comments
        raise
    return inst, comments


def write_instance(path: str, inst: Instance, comments: list[str] | None = None) -> None:
    edges = inst.graph.edges()
    lines = list(comments or [])
    lines.append(f"p mwlcp {inst.n} {len(edges)} {len(inst.colors)}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    lines.extend(f"w {j + 1} {inst.weights[j]}" for j in inst.colors)
    for v in range(inst.n):
        cols = sorted(inst.lists[v])
        lines.append(f"l {v + 1} {len(cols)} " + " ".join(str(j + 1) for j in cols))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# Every status a solve can end with, and the exit code of `solve` for it.
STATUS_EXIT = {
    OPTIMAL: EXIT_OK,
    INFEASIBLE: EXIT_INFEASIBLE,
    TIME_LIMIT: EXIT_TIME_LIMIT,
    NUMERICAL_FAILURE: EXIT_NUMERICAL_FAILURE,
}

# Statuses of a search that ended before settling its instance; the record
# may hold an incumbent.
UNSETTLED = (TIME_LIMIT, NUMERICAL_FAILURE)

# The SolveReport fields a solve reports, in output order: (record key,
# SolveReport attribute, text label). A field that is None, the weight of a
# solve without a coloring, is left out of both outputs.
REPORT_ROWS = (
    ("status", "status", "status"),
    ("weight", "weight", "weight"),
    ("nodes", "nodes", "nodes explored"),
    ("incumbent_node", "incumbent_node", "incumbent found at node"),
    ("columns", "columns_generated", "columns generated"),
    ("pricing_rounds", "pricing_rounds", "pricing rounds"),
    ("mwss_nodes", "mwss_nodes", "mwss nodes"),
)


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _parse_weights_flag(text: str) -> tuple[int, int] | None:
    if text == "unit":
        return None
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(
            f"invalid --weights {text!r}: expected 'unit' or 'LO:HI'"
        ) from None


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        cfg = GenConfig(
            n=args.n,
            p=args.p,
            c=args.c,
            q=args.q,
            seed=_default_seed(args.seed),
            weight_range=_parse_weights_flag(args.weights),
            empty_lists="reject" if args.strict_lists else "repair",
        )
        inst = generate(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    weights_desc = "unit" if cfg.weight_range is None else f"{cfg.weight_range[0]}:{cfg.weight_range[1]}"
    comments = [
        "c listchroma instance",
        f"c generator={GENERATOR_NAME} seed={cfg.seed}",
        f"c n={cfg.n} p={cfg.p} c={cfg.c} q={cfg.q} weights={weights_desc} empty_lists={cfg.empty_lists}",
    ]
    write_instance(args.out, inst, comments)
    print(f"wrote {args.out}: n={inst.n} m={inst.graph.m} ncolors={len(inst.colors)}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        inst, comments = parse_instance(args.input)
    except EmptyListError as exc:
        # an empty list after normalization means no coloring exists at all
        with _open_out(args.out) as out:
            _emit_report(SolveReport(INFEASIBLE), args, exc.comments, out)
        print(f"note: {exc.one_based()}", file=sys.stderr)
        return EXIT_INFEASIBLE

    # --out is opened before the solve, so an unwritable path costs no time
    with _open_out(args.out) as out:
        report = solve(inst, time_limit=args.time_limit)
        _emit_report(report, args, comments, out)
    return STATUS_EXIT[report.status]


def _open_out(path: str | None) -> AbstractContextManager[TextIO | None]:
    """The --out file opened for writing, or None in a context when no path is given."""
    return open(path, "w", encoding="utf-8") if path else nullcontext()


def _emit_report(
    report: SolveReport, args: argparse.Namespace, comments: list[str], out: TextIO | None
) -> None:
    """Print the text form; write the key=value record to out, the open --out file, if given.

    The coloring was validated when solve built it, so it is written as is.
    """
    rows = [
        (key, label, getattr(report, attr))
        for key, attr, label in REPORT_ROWS
        if getattr(report, attr) is not None
    ]
    assignment = [] if report.coloring is None else sorted(report.coloring.as_dict().items())
    text = [f"{label}: {value}" for _, label, value in rows]
    text.append(f"wall time: {report.wall_time:.2f} s")
    if report.coloring is not None:
        text.append("assignment:")
        text.extend(f"  vertex {v + 1} -> color {j + 1}" for v, j in assignment)
    print("\n".join(text))
    if out is None:
        return
    record = [f"{key}={value}" for key, _, value in rows]
    record.append(f"time_sec={report.wall_time:.4f}")
    record.append(f"input={args.input}")
    record.append(f"time_limit={'none' if args.time_limit is None else args.time_limit}")
    record.extend(f"assign.{v + 1}={j + 1}" for v, j in assignment)
    record.extend(f"echo.{i}={c}" for i, c in enumerate(comments))
    out.write("\n".join(record) + "\n")


def read_solution(path: str) -> tuple[str, dict[int, int], int | None]:
    """Read a machine-readable record: its status, assignment and weight (None if absent).

    A record that contradicts itself, an infeasible one with a weight or an
    assignment or a weight without an assignment, raises ValueError too.
    """
    status = weight = None
    assignment: dict[int, int] = {}
    seen: set[str] = set()  # status, weight and assign.<v>, v normalized
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, value = line.split("=", 1)
            if key == "weight" or key.startswith("assign."):
                try:
                    number = int(value)
                    vertex = 1 if key == "weight" else int(key[len("assign.") :])
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: {line!r} is not key=integer") from None
                if vertex < 1:
                    raise ValueError(f"{path}: line {lineno}: vertex id {vertex} is below 1")
                if key != "weight":
                    key = f"assign.{vertex}"
            elif key != "status":
                continue
            if key in seen:
                raise ValueError(f"{path}: line {lineno}: second {key} line")
            seen.add(key)
            if key == "status":
                status = value
            elif key == "weight":
                weight = number
            else:
                assignment[vertex - 1] = number - 1
    if status is None:
        raise ValueError(f"{path}: no status line")
    if status not in STATUS_EXIT:
        raise ValueError(f"{path}: unknown status {status!r}")
    if status == INFEASIBLE and (weight is not None or assignment):
        raise ValueError(f"{path}: an infeasible record states a weight or an assignment")
    if weight is not None and not assignment:
        raise ValueError(f"{path}: weight line without any assign.<v> line")
    return status, assignment, weight


def cmd_check(args: argparse.Namespace) -> int:
    try:
        inst, _ = parse_instance(args.input)
    except EmptyListError as exc:
        print(f"error: {args.input}: {exc.one_based()}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        status, assignment, stated = read_solution(args.solution)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    weight = None
    if status == OPTIMAL or (status in UNSETTLED and assignment):
        try:
            weight = validate_coloring(inst, assignment)
        except ColoringError as exc:
            print(f"FAIL: {exc.one_based()}")
            return EXIT_INPUT_ERROR
        if stated is not None and stated != weight:
            print(f"FAIL: record states weight {stated} but the assignment weighs {weight}")
            return EXIT_INPUT_ERROR
        print(f"solution valid, weight {weight}")

    if args.oracle:
        try:
            ores = oracle_solve(inst, cap=args.oracle_cap)
        except TooLargeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        if status == INFEASIBLE:
            if ores.feasible:
                print(f"FAIL: reported infeasible but oracle optimum is {ores.optimum}")
                return EXIT_INPUT_ERROR
            print("infeasibility confirmed by oracle")
        elif status == OPTIMAL:
            if not ores.feasible:
                print("FAIL: reported optimal but oracle says infeasible")
                return EXIT_INPUT_ERROR
            if weight != ores.optimum:
                print(f"FAIL: weight {weight} but oracle optimum is {ores.optimum}")
                return EXIT_INPUT_ERROR
            print("optimality confirmed by oracle")
        elif not ores.feasible:  # an unsettled record, compared if it holds an incumbent
            if weight is not None:
                print(f"FAIL: record holds a coloring of weight {weight} but oracle says infeasible")
                return EXIT_INPUT_ERROR
            print("oracle says infeasible")
        else:
            print(f"oracle optimum {ores.optimum}")
            if weight is not None and weight < ores.optimum:
                print(f"FAIL: weight {weight} is below the oracle optimum")
                return EXIT_INPUT_ERROR
            if weight == ores.optimum:
                print("incumbent is optimal")
            elif weight is not None:
                print(f"gap {weight - ores.optimum}")
    print("PASS")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    # every config is checked before the first solve, so a bad flag costs no time
    try:
        if args.instances < 1:
            raise ValueError(f"--instances must be at least 1, got {args.instances}")
        ns = [int(x) for x in args.n.split(",")]
        ps = [float(x) for x in args.p.split(",")]
        cs = [float(x) for x in args.c.split(",")]
        qs = [float(x) for x in args.q.split(",")]
        weight_range = _parse_weights_flag(args.weights)
        base_seed = _default_seed(args.seed)
        cells = [
            (cell, [
                GenConfig(*cell, seed=base_seed + 7919 * cell_idx + i, weight_range=weight_range)
                for i in range(args.instances)
            ])
            for cell_idx, cell in enumerate(product(ns, ps, cs, qs))
        ]
        for _, cfgs in cells:
            for cfg in cfgs:
                cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    # --out is opened before the first solve, so an unwritable path costs no time
    with _open_out(args.out) as out:
        rows = [
            f"{'n':>4} {'p':>5} {'c':>5} {'q':>5} {'nodes':>10} {'rounds':>10} {'time':>10} "
            f"{'solved':>7}"
        ]
        for (n, p, c, q), cfgs in cells:
            settled: list[SolveReport] = []
            for cfg in cfgs:
                report = solve(generate(cfg), time_limit=args.time_limit)
                if report.status not in UNSETTLED:
                    settled.append(report)
            solved = len(settled)
            nodes_avg = rounds_avg = time_avg = "--"
            if solved:
                nodes_avg = f"{sum(r.nodes for r in settled) / solved:.1f}"
                rounds_avg = f"{sum(r.pricing_rounds for r in settled) / solved:.1f}"
                time_avg = f"{sum(r.wall_time for r in settled) / solved:.2f}"
                if solved < args.instances:
                    time_avg += f"({solved})"
            rows.append(
                f"{n:>4} {p:>5} {c:>5} {q:>5} {nodes_avg:>10} {rounds_avg:>10} {time_avg:>10} "
                f"{solved}/{args.instances:<5}"
            )
        table = "\n".join(rows)
        print(table)
        if out is not None:
            out.write(table + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listchroma",
        description="Exact branch-and-price solver for minimum weighted list coloring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance file")
    g.add_argument("--n", type=int, required=True, help="number of vertices")
    g.add_argument("--p", type=float, required=True, help="edge probability")
    g.add_argument("--c", type=float, required=True, help="color ratio: ncolors = floor(c*n)")
    g.add_argument("--q", type=float, required=True, help="membership-to-list probability")
    g.add_argument("--weights", default="unit", help="'unit' or 'LO:HI' uniform integers")
    g.add_argument("--seed", type=int, default=None, help=f"PRNG seed (falls back to ${SEED_ENV})")
    g.add_argument("--strict-lists", action="store_true",
                   help="redraw the whole instance instead of repairing empty lists")
    g.add_argument("--out", required=True, help="output instance path")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("input", help="instance path")
    s.add_argument("--time-limit", type=float, default=None, help="seconds")
    s.add_argument("--out", default=None, help="write the machine-readable record here")
    s.set_defaults(func=cmd_solve)

    k = sub.add_parser("check", help="validate a solution record against an instance")
    k.add_argument("input", help="instance path")
    k.add_argument("solution", help="solution record path (key=value format)")
    k.add_argument("--oracle", action="store_true",
                   help="also compare against the brute-force oracle")
    k.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP, help="oracle vertex cap")
    k.set_defaults(func=cmd_check)

    b = sub.add_parser("bench", help="run a benchmark grid and print the table")
    b.add_argument("--n", default="50", help="comma-separated vertex counts")
    b.add_argument("--p", default="0.5", help="comma-separated edge probabilities")
    b.add_argument("--c", default="1.0", help="comma-separated color ratios")
    b.add_argument("--q", default="0.5", help="comma-separated list probabilities")
    b.add_argument("--instances", type=int, default=5, help="instances per cell")
    b.add_argument("--weights", default="unit", help="'unit' or 'LO:HI'")
    b.add_argument("--seed", type=int, default=None, help=f"base seed (falls back to ${SEED_ENV})")
    b.add_argument("--time-limit", type=float, default=None, help="seconds per instance")
    b.add_argument("--out", default=None, help="also write the table to this path")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means infeasible here
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_INPUT_ERROR
    try:  # solve and bench: a limit core.Deadline refuses, before any solve
        Deadline(getattr(args, "time_limit", None))
    except ValueError as exc:
        print(f"error: {str(exc).replace('time limit', '--time-limit', 1)}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except ParseError as exc:
        # a malformed instance file, in solve or check
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # an unreadable input or an unwritable --out, in any command
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
