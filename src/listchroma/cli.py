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
from dataclasses import dataclass, field

from .core import EmptyListError, Graph, Instance, build_instance, validate_coloring
from .bnp import INFEASIBLE, OPTIMAL, TIME_LIMIT, SolveReport, solve
from .instgen import GENERATOR_NAME, GenConfig, generate
from .oracle import TooLargeError, oracle_solve

SEED_ENV = "LISTCHROMA_SEED"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_instance(path: str) -> tuple[Instance, list[str]]:
    """Read an instance file; returns the instance and its comment lines.

    Malformed files raise ParseError with the offending line number. A
    well-formed file declaring an empty list raises EmptyListError instead:
    that is an infeasible instance, not a syntax problem.
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
    if len(parts) != 5 or parts[0] != "p" or parts[1] != "mwlcp":
        raise ParseError(lineno, "expected 'p mwlcp <n> <m> <ncolors>'")
    try:
        n, m, ncolors = int(parts[2]), int(parts[3]), int(parts[4])
    except ValueError:
        raise ParseError(lineno, "problem line counts must be integers") from None
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
        if len(parts) != 3 or parts[0] != "e":
            raise ParseError(lineno, "expected 'e <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, "edge endpoints must be integers") from None
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
        if len(parts) != 3 or parts[0] != "w":
            raise ParseError(lineno, "expected 'w <color> <weight>'")
        try:
            j, wj = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, "color id and weight must be integers") from None
        if j < 1:
            raise ParseError(lineno, "color ids are 1-based")
        if wj < 0:
            raise ParseError(lineno, "weights must be non-negative")
        if j - 1 in weights:
            raise ParseError(lineno, f"duplicate weight line for color {j}")
        weights[j - 1] = wj

    lists: dict[int, list[int]] = {}
    for lineno, parts in body[1 + m + ncolors :]:
        if len(parts) < 3 or parts[0] != "l":
            raise ParseError(lineno, "expected 'l <v> <len> <colors...>'")
        try:
            v = int(parts[1])
            length = int(parts[2])
            cols = [int(x) for x in parts[3:]]
        except ValueError:
            raise ParseError(lineno, "list line fields must be integers") from None
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
    inst = build_instance(
        Graph.from_edges(n, edges), weights.keys(), weights, [lists[v] for v in range(n)]
    )
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


@dataclass
class ResultRecord:
    """Solver outcome in both human-readable and key=value form."""

    status: str
    weight: int | None
    assignment: dict[int, int] | None
    nodes: int
    columns: int
    pricing_rounds: int
    mwss_nodes: int
    wall_time: float
    instance_path: str
    time_limit: float | None
    config_echo: list[str] = field(default_factory=list)

    def to_kv_lines(self) -> list[str]:
        lines = [
            f"status={self.status}",
            f"nodes={self.nodes}",
            f"columns={self.columns}",
            f"pricing_rounds={self.pricing_rounds}",
            f"mwss_nodes={self.mwss_nodes}",
            f"time_sec={self.wall_time:.4f}",
            f"input={self.instance_path}",
            f"time_limit={'none' if self.time_limit is None else self.time_limit}",
        ]
        if self.weight is not None:
            lines.insert(1, f"weight={self.weight}")
        if self.assignment is not None:
            lines.extend(
                f"assign.{v + 1}={j + 1}" for v, j in sorted(self.assignment.items())
            )
        lines.extend(f"echo.{i}={c}" for i, c in enumerate(self.config_echo))
        return lines

    def to_text(self) -> str:
        out = [
            f"status: {self.status}",
            f"nodes explored: {self.nodes}",
            f"columns generated: {self.columns}",
            f"pricing rounds: {self.pricing_rounds}",
            f"mwss nodes: {self.mwss_nodes}",
            f"wall time: {self.wall_time:.2f} s",
        ]
        if self.weight is not None:
            out.insert(1, f"weight: {self.weight}")
        if self.assignment is not None:
            out.append("assignment:")
            out.extend(
                f"  vertex {v + 1} -> color {j + 1}"
                for v, j in sorted(self.assignment.items())
            )
        return "\n".join(out)


def record_from_report(
    report: SolveReport,
    instance_path: str,
    time_limit: float | None,
    config_echo: list[str],
) -> ResultRecord:
    """The record of a solve; its coloring was validated when solve built it."""
    return ResultRecord(
        status=report.status,
        weight=report.weight,
        assignment=None if report.coloring is None else report.coloring.as_dict(),
        nodes=report.nodes,
        columns=report.columns_generated,
        pricing_rounds=report.pricing_rounds,
        mwss_nodes=report.mwss_nodes,
        wall_time=report.wall_time,
        instance_path=instance_path,
        time_limit=time_limit,
        config_echo=config_echo,
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
        cfg.validate()
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EmptyListError as exc:
        # an empty list after normalization means no coloring exists at all
        record = ResultRecord(
            status=INFEASIBLE,
            weight=None,
            assignment=None,
            nodes=0,
            columns=0,
            pricing_rounds=0,
            mwss_nodes=0,
            wall_time=0.0,
            instance_path=args.input,
            time_limit=args.time_limit,
        )
        _emit_record(record, args.out)
        print(f"note: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    report = solve(
        inst,
        time_limit=args.time_limit,
        use_assignment=not args.no_assignment,
    )
    record = record_from_report(report, args.input, args.time_limit, comments)
    _emit_record(record, args.out)
    if record.status == OPTIMAL:
        return EXIT_OK
    if record.status == INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_TIME_LIMIT


def _emit_record(record: ResultRecord, out_path: str | None) -> None:
    print(record.to_text())
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(record.to_kv_lines()) + "\n")


def read_solution(path: str) -> tuple[str, dict[int, int]]:
    """Read a machine-readable record: its status and assignment."""
    status = None
    assignment: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, value = line.split("=", 1)
            if key == "status":
                status = value
            elif key.startswith("assign."):
                assignment[int(key[len("assign.") :]) - 1] = int(value) - 1
    if status is None:
        raise ValueError(f"{path}: no status line")
    return status, assignment


def cmd_check(args: argparse.Namespace) -> int:
    try:
        inst, _ = parse_instance(args.input)
    except (OSError, ParseError, EmptyListError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        status, assignment = read_solution(args.solution)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    weight = None
    if status == OPTIMAL or (status == TIME_LIMIT and assignment):
        try:
            weight = validate_coloring(inst, assignment)
        except Exception as exc:
            print(f"FAIL: {exc}")
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
    print("PASS")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        ns = [int(x) for x in args.n.split(",")]
        ps = [float(x) for x in args.p.split(",")]
        cs = [float(x) for x in args.c.split(",")]
        qs = [float(x) for x in args.q.split(",")]
        weight_range = _parse_weights_flag(args.weights)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    base_seed = _default_seed(args.seed)

    rows = []
    header = f"{'n':>4} {'p':>5} {'c':>5} {'q':>5} {'nodes':>10} {'time':>10} {'solved':>7}"
    rows.append(header)
    cell_idx = 0
    for n in ns:
        for p in ps:
            for c in cs:
                for q in qs:
                    nodes_list: list[int] = []
                    time_list: list[float] = []
                    solved = 0
                    for i in range(args.instances):
                        cfg = GenConfig(
                            n=n, p=p, c=c, q=q,
                            seed=base_seed + 7919 * cell_idx + i,
                            weight_range=weight_range,
                        )
                        inst = generate(cfg)
                        report = solve(inst, time_limit=args.time_limit)
                        if report.status in (OPTIMAL, INFEASIBLE):
                            solved += 1
                            nodes_list.append(report.nodes)
                            time_list.append(report.wall_time)
                    if solved:
                        nodes_avg = f"{sum(nodes_list) / solved:.1f}"
                        time_avg = f"{sum(time_list) / solved:.2f}"
                        if solved < args.instances:
                            time_avg += f"({solved})"
                    else:
                        nodes_avg = "--"
                        time_avg = "--"
                    rows.append(
                        f"{n:>4} {p:>5} {c:>5} {q:>5} {nodes_avg:>10} {time_avg:>10} "
                        f"{solved}/{args.instances:<5}"
                    )
                    cell_idx += 1
    table = "\n".join(rows)
    print(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
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
    s.add_argument("--no-assignment", action="store_true",
                   help="disable the matching shortcut for all-complete nodes")
    s.set_defaults(func=cmd_solve)

    k = sub.add_parser("check", help="validate a solution record against an instance")
    k.add_argument("input", help="instance path")
    k.add_argument("solution", help="solution record path (key=value format)")
    k.add_argument("--oracle", action="store_true",
                   help="also compare against the brute-force oracle")
    k.add_argument("--oracle-cap", type=int, default=14, help="oracle vertex cap")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
