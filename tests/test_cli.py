import re
from pathlib import Path

import pytest

from listchroma import bnp, cli
from listchroma.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    EXIT_TIME_LIMIT,
    ParseError,
    main,
    parse_instance,
    read_solution,
    write_instance,
)
from listchroma.bnp import SolveReport, solve
from listchroma.core import Graph, NumericalFailure, build_instance
from listchroma.instgen import REJECT, GenConfig, generate
from listchroma.oracle import OracleResult

from helpers import k33_mirrored, make_instance


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SINGLE_VERTEX = """c tiny example
p mwlcp 1 0 2
w 1 5
w 2 3
l 1 2 1 2
"""


class TestParsing:
    def test_round_trip_generated_instances(self, tmp_path):
        for seed in range(12):
            inst = generate(
                GenConfig(n=9, p=0.4, c=1.1, q=0.5, seed=seed, weight_range=(0, 6))
            )
            path = tmp_path / f"i{seed}.col"
            write_instance(str(path), inst, ["c round trip"])
            back, comments = parse_instance(str(path))
            assert back == inst
            assert comments == ["c round trip"]

    def test_round_trip_with_dropped_color(self, tmp_path):
        # declared color 1 is in no list, so ids in the file are non-dense
        g = Graph.from_edges(2, [(0, 1)])
        inst = build_instance(g, [0, 1, 2], {0: 1, 1: 4, 2: 2}, [[0], [2]])
        assert inst.colors == (0, 2)
        path = tmp_path / "gap.col"
        write_instance(str(path), inst)
        back, _ = parse_instance(str(path))
        assert back == inst

    def test_single_vertex_file(self, tmp_path):
        inst, comments = parse_instance(write(tmp_path, "a.col", SINGLE_VERTEX))
        assert inst.n == 1
        assert inst.weights == {0: 5, 1: 3}
        assert comments == ["c tiny example"]

    @pytest.mark.parametrize(
        "mutation, lineno",
        [
            ("p mwlcp 2 1 1\ne 1 3\nw 1 1\nl 1 1 1\nl 2 1 1\n", 2),
            ("p mwlcp 2 1 1\ne 1 2\nw 1 -4\nl 1 1 1\nl 2 1 1\n", 3),
            ("p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 2 1\nl 2 1 1\n", 4),
            ("p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 1\nl 1 1 1\n", 5),
            ("p mwlcp 2 2 1\ne 1 2\ne 2 1\nw 1 1\nl 1 1 1\nl 2 1 1\n", 3),
            ("p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 2\nl 2 1 1\n", 4),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, mutation, lineno):
        path = write(tmp_path, "bad.col", mutation)
        with pytest.raises(ParseError) as err:
            parse_instance(path)
        assert err.value.lineno == lineno

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            ("c no problem line\n", 2, "missing problem line"),
            ("p mwlcp 2 1\n", 1, "expected 'p mwlcp <n> <m> <ncolors>'"),
            ("p mwlcp 2 x 1\n", 1, "problem line counts must be integers"),
            ("p mwlcp 0 0 1\n", 1, "problem line counts out of range"),
            (
                "p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 1\n",
                4,
                "expected 4 data lines after the problem line, got 3",
            ),
            ("p mwlcp 2 1 1\nf 1 2\nw 1 1\nl 1 1 1\nl 2 1 1\n", 2, "expected 'e <u> <v>'"),
            ("p mwlcp 2 1 1\ne 1 b\nw 1 1\nl 1 1 1\nl 2 1 1\n", 2, "edge endpoints must be integers"),
            ("p mwlcp 2 1 1\ne 1 3\nw 1 1\nl 1 1 1\nl 2 1 1\n", 2, "edge endpoint out of range 1..2"),
            ("p mwlcp 2 1 1\ne 2 2\nw 1 1\nl 1 1 1\nl 2 1 1\n", 2, "self-loops are not allowed"),
            (
                "p mwlcp 2 2 1\ne 1 2\nc comment\ne 2 1\nw 1 1\nl 1 1 1\nl 2 1 1\n",
                4,
                "duplicate edge (1, 2)",
            ),
            ("p mwlcp 2 1 1\ne 1 2\nw 1\nl 1 1 1\nl 2 1 1\n", 3, "expected 'w <color> <weight>'"),
            (
                "p mwlcp 2 1 1\ne 1 2\nw 1 1.5\nl 1 1 1\nl 2 1 1\n",
                3,
                "color id and weight must be integers",
            ),
            ("p mwlcp 2 1 1\ne 1 2\nw 0 1\nl 1 1 1\nl 2 1 1\n", 3, "color ids are 1-based"),
            ("p mwlcp 2 1 1\ne 1 2\nw 1 -4\nl 1 1 1\nl 2 1 1\n", 3, "weights must be non-negative"),
            (
                "p mwlcp 2 1 2\ne 1 2\nw 1 1\n\nw 1 2\nl 1 1 1\nl 2 1 1\n",
                5,
                "duplicate weight line for color 1",
            ),
            (
                "p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1\nl 2 1 1\n",
                4,
                "expected 'l <v> <len> <colors...>'",
            ),
            (
                "p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 a\nl 2 1 1\n",
                4,
                "list line fields must be integers",
            ),
            ("p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 3 1 1\nl 2 1 1\n", 4, "vertex 3 out of range 1..2"),
            (
                "p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 1\nl 1 1 1\n",
                5,
                "duplicate list line for vertex 1",
            ),
            (
                "p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 2 1\nl 2 1 1\n",
                4,
                "declared length 2 but 1 colors",
            ),
            (
                "p mwlcp 2 1 2\ne 1 2\nw 1 1\nw 2 1\nl 1 2 1 1\nl 2 1 1\n",
                5,
                "duplicate color in list",
            ),
            (
                "p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 2\nl 2 1 1\n",
                4,
                "list references undeclared color 2",
            ),
        ],
    )
    def test_every_error_names_its_line_and_problem(self, tmp_path, text, lineno, message):
        # one file per raise site of parse_instance
        with pytest.raises(ParseError) as err:
            parse_instance(write(tmp_path, "bad.col", text))
        assert (err.value.lineno, str(err.value)) == (lineno, f"line {lineno}: {message}")

    def test_missing_lines_detected(self, tmp_path):
        path = write(tmp_path, "short.col", "p mwlcp 2 0 1\nw 1 1\nl 1 1 1\n")
        with pytest.raises(ParseError):
            parse_instance(path)


class TestGenerateCommand:
    def test_benchmark_grid_cell(self, tmp_path):
        out = str(tmp_path / "g.col")
        code = main(
            ["generate", "--n", "50", "--p", "0.5", "--c", "1.0", "--q", "0.5",
             "--seed", "1", "--out", out]
        )
        assert code == EXIT_OK
        inst, comments = parse_instance(out)
        assert inst.n == 50
        assert len(inst.colors) == 50
        assert any("seed=1" in c for c in comments)

    def test_half_color_ratio(self, tmp_path):
        out = str(tmp_path / "g.col")
        assert main(
            ["generate", "--n", "50", "--p", "0.5", "--c", "0.5", "--q", "0.5",
             "--seed", "2", "--out", out]
        ) == EXIT_OK
        inst, _ = parse_instance(out)
        assert len(inst.colors) == 25

    def test_strict_lists_redraws(self, tmp_path):
        # the instgen config whose repaired and rejected draws differ
        out = str(tmp_path / "g.col")
        assert main(
            ["generate", "--n", "4", "--p", "0.5", "--c", "1.0", "--q", "0.05",
             "--seed", "11", "--strict-lists", "--out", out]
        ) == EXIT_OK
        inst, comments = parse_instance(out)
        assert any(c.endswith(" empty_lists=reject") for c in comments)
        cfg = GenConfig(n=4, p=0.5, c=1.0, q=0.05, seed=11, empty_lists=REJECT)
        assert inst == generate(cfg)

    def test_invalid_probability(self, tmp_path, capsys):
        code = main(
            ["generate", "--n", "10", "--p", "1.5", "--c", "1.0", "--q", "0.5",
             "--seed", "1", "--out", str(tmp_path / "x.col")]
        )
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed_flag", [["--seed", "-1"], []], ids=["flag", "env"])
    def test_negative_seed_names_the_problem(self, tmp_path, monkeypatch, capsys, seed_flag):
        # without --seed the environment's seed is the one checked
        monkeypatch.setenv("LISTCHROMA_SEED", "-1")
        out = tmp_path / "x.col"
        code = main(
            ["generate", "--n", "8", "--p", "0.5", "--c", "1.0", "--q", "0.5",
             *seed_flag, "--out", str(out)]
        )
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        explicit = str(tmp_path / "a.col")
        fallback = str(tmp_path / "b.col")
        main(["generate", "--n", "8", "--p", "0.5", "--c", "1.0", "--q", "0.5",
              "--seed", "9", "--out", explicit])
        monkeypatch.setenv("LISTCHROMA_SEED", "9")
        main(["generate", "--n", "8", "--p", "0.5", "--c", "1.0", "--q", "0.5",
              "--out", fallback])
        a, _ = parse_instance(explicit)
        b, _ = parse_instance(fallback)
        assert a == b

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "g.col")
        code = main(
            ["generate", "--n", "8", "--p", "0.5", "--c", "1.0", "--q", "0.5", "--out", out]
        )
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


class TestSolveCommand:
    def test_single_vertex_optimal(self, tmp_path, capsys):
        path = write(tmp_path, "a.col", SINGLE_VERTEX)
        out = str(tmp_path / "a.sol")
        code = main(["solve", path, "--out", out])
        assert code == EXIT_OK
        assert "weight: 3" in capsys.readouterr().out
        status, assignment, weight = read_solution(out)
        assert status == "optimal"
        assert assignment == {0: 1}
        assert weight == 3

    def test_infeasible_instance_exits_two(self, tmp_path):
        path = str(tmp_path / "k33.col")
        write_instance(path, k33_mirrored())
        assert main(["solve", path]) == EXIT_INFEASIBLE

    def test_zero_time_limit_exits_three(self, tmp_path):
        path = str(tmp_path / "p.col")
        from helpers import petersen

        write_instance(path, petersen())
        out = str(tmp_path / "p.sol")
        code = main(["solve", path, "--time-limit", "0", "--out", out])
        assert code == EXIT_TIME_LIMIT
        status, assignment, weight = read_solution(out)
        assert status == "time_limit"
        assert assignment == {}
        assert weight is None

    def test_record_carries_mwss_nodes(self, tmp_path, capsys):
        from helpers import petersen

        path = str(tmp_path / "p.col")
        write_instance(path, petersen())
        out = str(tmp_path / "p.sol")
        assert main(["solve", path, "--out", out]) == EXIT_OK
        expected = solve(petersen()).mwss_nodes
        assert expected > 0
        assert f"mwss nodes: {expected}" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            assert f"mwss_nodes={expected}" in fh.read().splitlines()

    def test_record_carries_the_incumbent_node(self, tmp_path, capsys):
        # the root's dive offers weight 4; the optimum 3 is a leaf at node 2
        inst = generate(GenConfig(n=10, p=0.5, c=1.0, q=0.5, seed=69))
        path = str(tmp_path / "i.col")
        write_instance(path, inst)
        out = str(tmp_path / "i.sol")
        assert main(["solve", path, "--out", out]) == EXIT_OK
        assert "incumbent found at node: 2" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            record = dict(line.split("=", 1) for line in fh.read().splitlines())
        assert (record["weight"], record["incumbent_node"]) == ("3", "2")
        assert int(record["incumbent_node"]) == solve(inst).incumbent_node

    @pytest.mark.parametrize("after_incumbent, weight", [(False, None), (True, 3)])
    def test_numerical_failure_exits_four_with_the_incumbent(
        self, tmp_path, monkeypatch, capsys, after_incumbent, weight
    ):
        # the root's dive offers weight 4, the SAME child of the root is a
        # leaf of the optimum 3, and the DIFFER child solves its LP after that
        # incumbent exists
        inst = generate(GenConfig(n=10, p=0.5, c=1.0, q=0.5, seed=69))
        offered = []
        real_update, real_solve_lp = bnp.update_incumbent, bnp.solve_lp

        def recording_update(current, candidate):
            offered.append(candidate.weight)
            return real_update(current, candidate)

        def failing_solve_lp(mp):
            if 3 in offered or not after_incumbent:
                raise NumericalFailure("LP solve failed: injected")
            return real_solve_lp(mp)

        monkeypatch.setattr(bnp, "update_incumbent", recording_update)
        monkeypatch.setattr(bnp, "solve_lp", failing_solve_lp)
        path = str(tmp_path / "i.col")
        write_instance(path, inst)
        out = str(tmp_path / "i.sol")
        assert main(["solve", path, "--out", out]) == EXIT_NUMERICAL_FAILURE
        assert offered == ([4, 3] if after_incumbent else [])
        assert "status: numerical_failure" in capsys.readouterr().out
        status, assignment, stated = read_solution(out)
        assert status == "numerical_failure"
        assert stated == weight
        assert len(assignment) == (10 if after_incumbent else 0)
        if after_incumbent:
            assert main(["check", path, out, "--oracle"]) == EXIT_OK
            assert capsys.readouterr().out.endswith(
                "oracle optimum 3\nincumbent is optimal\nPASS\n"
            )

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "bad.col", "p mwlcp nope\n")
        assert main(["solve", path]) == EXIT_INPUT_ERROR
        assert "line" in capsys.readouterr().err

    def test_declared_empty_list_is_infeasible_not_a_parse_error(self, tmp_path):
        path = write(
            tmp_path, "empty.col", "p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 1\nl 2 0\n"
        )
        assert main(["solve", path]) == EXIT_INFEASIBLE

    def test_empty_list_note_names_the_file_vertex(self, tmp_path, capsys):
        path = write(tmp_path, "empty.col", EMPTY_LIST)
        assert main(["solve", path]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == "note: vertex 2 has an empty color list\n"

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.col")]) == EXIT_INPUT_ERROR

    def test_unwritable_out_exits_one(self, tmp_path, monkeypatch, capsys):
        # --out is opened before the solve, so an unwritable path costs no time
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before opening --out")

        monkeypatch.setattr(cli, "solve", no_solve)
        path = write(tmp_path, "a.col", SINGLE_VERTEX)
        out = str(tmp_path / "missing" / "a.sol")
        assert main(["solve", path, "--out", out]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    @pytest.mark.parametrize("limit, shown", [("nan", "nan"), ("-1", "-1.0")])
    def test_invalid_time_limit_exits_one_before_solving(
        self, tmp_path, monkeypatch, capsys, limit, shown
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with an invalid time limit")

        monkeypatch.setattr(cli, "solve", no_solve)
        path = write(tmp_path, "a.col", SINGLE_VERTEX)
        assert main(["solve", path, "--time-limit", limit]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --time-limit must be a number >= 0, got {shown}\n"
        )

    def test_weights_beyond_float64_exit_four(self, tmp_path, capsys):
        # big-M = 2 * 10**16 + 2 is beyond 2**53 (see test_bnp for the bound)
        path = str(tmp_path / "big.col")
        weights = {0: 10**16 + 1, 1: 10**16}
        write_instance(path, make_instance(3, [(0, 1)], [[0, 1]] * 3, weights=weights))
        assert main(["solve", path]) == EXIT_NUMERICAL_FAILURE
        assert capsys.readouterr().out.startswith("status: numerical_failure\n")

    def test_usage_errors_exit_one_not_two(self, capsys):
        assert main(["solve", "--bogus-flag", "x.col"]) == EXIT_INPUT_ERROR
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()


EMPTY_LIST = "c empty\np mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 1\nl 2 0\n"

PETERSEN_TEXT = """status: optimal
weight: 3
nodes explored: 1
incumbent found at node: 1
columns generated: 7
pricing rounds: 4
mwss nodes: 33
assignment:
  vertex 1 -> color 1
  vertex 2 -> color 2
  vertex 3 -> color 1
  vertex 4 -> color 2
  vertex 5 -> color 3
  vertex 6 -> color 2
  vertex 7 -> color 1
  vertex 8 -> color 3
  vertex 9 -> color 3
  vertex 10 -> color 2
"""

PETERSEN_RECORD = """status=optimal
weight=3
nodes=1
incumbent_node=1
columns=7
pricing_rounds=4
mwss_nodes=33
input=p.col
time_limit=none
assign.1=1
assign.2=2
assign.3=1
assign.4=2
assign.5=3
assign.6=2
assign.7=1
assign.8=3
assign.9=3
assign.10=2
echo.0=c petersen
"""

K33_TEXT = """status: infeasible
nodes explored: 3
columns generated: 8
pricing rounds: 6
mwss nodes: 44
"""

K33_RECORD = """status=infeasible
nodes=3
columns=8
pricing_rounds=6
mwss_nodes=44
input=k.col
time_limit=none
"""

ZERO_COUNTS_TEXT = """status: {status}
nodes explored: 0
columns generated: 0
pricing rounds: 0
mwss nodes: 0
"""

ZERO_COUNTS_RECORD = """status={status}
nodes=0
columns=0
pricing_rounds=0
mwss_nodes=0
input={input}
time_limit={time_limit}
"""


def _without_times(text):
    """Drop the wall-clock lines, the only ones that differ between runs."""
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith(("time_sec=", "wall time:"))
    )


class TestGoldenOutput:
    """The full text output and key=value record of four solves, line for line."""

    @pytest.mark.parametrize(
        "case, code, text, record",
        [
            ("optimal", EXIT_OK, PETERSEN_TEXT, PETERSEN_RECORD),
            ("infeasible", EXIT_INFEASIBLE, K33_TEXT, K33_RECORD),
            (
                "empty_list",
                EXIT_INFEASIBLE,
                ZERO_COUNTS_TEXT.format(status="infeasible"),
                ZERO_COUNTS_RECORD.format(status="infeasible", input="e.col", time_limit="none")
                + "echo.0=c empty\n",
            ),
            (
                "time_limit_zero",
                EXIT_TIME_LIMIT,
                ZERO_COUNTS_TEXT.format(status="time_limit"),
                ZERO_COUNTS_RECORD.format(status="time_limit", input="p.col", time_limit="0.0")
                + "echo.0=c petersen\n",
            ),
        ],
    )
    def test_solve_output(self, tmp_path, monkeypatch, capsys, case, code, text, record):
        from helpers import petersen

        monkeypatch.chdir(tmp_path)
        write_instance("p.col", petersen(), ["c petersen"])
        write_instance("k.col", k33_mirrored())
        write(tmp_path, "e.col", EMPTY_LIST)
        argv = {
            "optimal": ["solve", "p.col"],
            "infeasible": ["solve", "k.col"],
            "empty_list": ["solve", "e.col"],
            "time_limit_zero": ["solve", "p.col", "--time-limit", "0"],
        }[case]
        assert main(argv + ["--out", "out.sol"]) == code
        assert _without_times(capsys.readouterr().out) == text
        with open("out.sol", encoding="utf-8") as fh:
            assert _without_times(fh.read()) == record


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_instance_example() -> str:
    """The first fenced block under the README's "Instance file format" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Instance file format"):]
    start = section.index("```\n") + len("```\n")
    return section[start:section.index("```", start)]


class TestReadmeExample:
    def test_instance_example_parses_and_solves(self, tmp_path, capsys):
        path = write(tmp_path, "readme.col", readme_instance_example())
        inst, _ = parse_instance(path)
        assert inst.n == 3
        assert solve(inst).weight == 5
        assert main(["solve", path]) == EXIT_OK
        assert "weight: 5" in capsys.readouterr().out


class TestCheckCommand:
    def test_solver_output_passes(self, tmp_path, capsys):
        inst = generate(GenConfig(n=8, p=0.5, c=1.0, q=0.6, seed=4))
        path = str(tmp_path / "i.col")
        write_instance(path, inst)
        sol = str(tmp_path / "i.sol")
        main(["solve", path, "--out", sol])
        assert main(["check", path, sol, "--oracle"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_violated_edge_reported(self, tmp_path, capsys):
        inst = make_instance(2, [(0, 1)], [[0, 1], [0, 1]])
        path = str(tmp_path / "i.col")
        write_instance(path, inst)
        sol = write(tmp_path, "i.sol", "status=optimal\nassign.1=1\nassign.2=1\n")
        assert main(["check", path, sol]) == EXIT_INPUT_ERROR
        assert "edge" in capsys.readouterr().out

    def test_edge_named_by_file_ids(self, tmp_path, capsys):
        path = write(tmp_path, "i.col", "p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 1\nl 2 1 1\n")
        sol = write(tmp_path, "i.sol", "status=optimal\nassign.1=1\nassign.2=1\n")
        assert main(["check", path, sol]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().out == "FAIL: edge (1,2) is monochromatic\n"

    def test_off_list_color_named_by_file_ids(self, tmp_path, capsys):
        path = write(tmp_path, "i.col", "p mwlcp 2 0 2\nw 1 1\nw 2 1\nl 1 2 1 2\nl 2 1 1\n")
        sol = write(tmp_path, "i.sol", "status=optimal\nassign.1=1\nassign.2=2\n")
        assert main(["check", path, sol]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().out == "FAIL: color 2 not in the list of vertex 2\n"

    def test_empty_list_named_by_file_ids(self, tmp_path, capsys):
        path = write(tmp_path, "e.col", EMPTY_LIST)
        sol = write(tmp_path, "e.sol", "status=infeasible\n")
        assert main(["check", path, sol]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {path}: vertex 2 has an empty color list\n"

    def test_malformed_instance_named_by_file_and_line(self, tmp_path, capsys):
        path = write(tmp_path, "i.col", "p mwlcp 2 1 1\ne 1 1\nw 1 1\nl 1 1 1\nl 2 1 1\n")
        sol = write(tmp_path, "i.sol", "status=infeasible\n")
        assert main(["check", path, sol]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line 2: self-loops are not allowed\n"

    @pytest.mark.parametrize(
        "stated, code, out",
        [
            ("weight=5\n", EXIT_OK, "solution valid, weight 5\nPASS\n"),
            ("", EXIT_OK, "solution valid, weight 5\nPASS\n"),
            ("weight=1\n", EXIT_INPUT_ERROR,
             "FAIL: record states weight 1 but the assignment weighs 5\n"),
        ],
    )
    def test_stated_weight_compared(self, tmp_path, capsys, stated, code, out):
        # the only color weighs 5
        path = write(tmp_path, "i.col", "p mwlcp 2 0 1\nw 1 5\nl 1 1 1\nl 2 1 1\n")
        sol = write(tmp_path, "i.sol", f"status=optimal\n{stated}assign.1=1\nassign.2=1\n")
        assert main(["check", path, sol]) == code
        assert capsys.readouterr().out == out

    def test_unknown_status_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "i.col", "p mwlcp 2 0 1\nw 1 5\nl 1 1 1\nl 2 1 1\n")
        sol = write(tmp_path, "i.sol", "status=banana\nassign.1=1\nassign.2=1\n")
        with pytest.raises(ValueError, match="unknown status 'banana'"):
            read_solution(sol)
        assert main(["check", path, sol]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err == f"error: {sol}: unknown status 'banana'\n"

    @pytest.mark.parametrize(
        "record, message",
        [
            ("assign.1=x\n", "line 2: 'assign.1=x' is not key=integer"),
            ("assign.y=1\n", "line 2: 'assign.y=1' is not key=integer"),
            ("weight=5.5\nassign.1=1\n", "line 2: 'weight=5.5' is not key=integer"),
            ("assign.1=1\nassign.0=1\n", "line 3: vertex id 0 is below 1"),
            ("assign.-2=1\n", "line 2: vertex id -2 is below 1"),
            ("status=infeasible\n", "line 2: second status line"),
            ("weight=5\nweight=6\n", "line 3: second weight line"),
            ("assign.1=1\nassign.01=1\n", "line 3: second assign.1 line"),
        ],
    )
    def test_malformed_record_named_by_file_and_line(self, tmp_path, capsys, record, message):
        path = write(tmp_path, "i.col", "p mwlcp 1 0 1\nw 1 5\nl 1 1 1\n")
        sol = write(tmp_path, "i.sol", f"status=optimal\n{record}")
        with pytest.raises(ValueError, match=message):
            read_solution(sol)
        assert main(["check", path, sol]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {sol}: {message}\n"

    @pytest.mark.parametrize(
        "record, message",
        [
            # the record colors both ends of the edge 1
            ("status=infeasible\nweight=1\nassign.1=1\nassign.2=1\n",
             "an infeasible record states a weight or an assignment"),
            ("status=infeasible\nweight=1\n",
             "an infeasible record states a weight or an assignment"),
            ("status=infeasible\nassign.1=1\nassign.2=2\n",
             "an infeasible record states a weight or an assignment"),
            ("status=time_limit\nweight=0\n", "weight line without any assign.<v> line"),
            ("status=optimal\nweight=2\n", "weight line without any assign.<v> line"),
        ],
    )
    def test_contradictory_record_rejected(self, tmp_path, capsys, record, message):
        path = write(tmp_path, "i.col", "p mwlcp 2 1 2\ne 1 2\nw 1 1\nw 2 1\nl 1 2 1 2\nl 2 2 1 2\n")
        sol = write(tmp_path, "i.sol", record)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_solution(sol)
        assert main(["check", path, sol]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {sol}: {message}\n"

    def test_oracle_search_too_deep_for_python_exits_one(self, tmp_path, capsys):
        # 600 isolated vertices on one color: within --oracle-cap, but the
        # oracle's search recurses twice per vertex
        inst = make_instance(600, [], [[0]] * 600)
        path = str(tmp_path / "deep.col")
        write_instance(path, inst)
        sol = str(tmp_path / "deep.sol")
        assert main(["solve", path, "--out", sol]) == EXIT_OK
        capsys.readouterr()
        assert main(["check", path, sol, "--oracle", "--oracle-cap", "1000"]) == EXIT_INPUT_ERROR
        assert "recursion limit" in capsys.readouterr().err

    def test_oracle_flags_suboptimal_weight(self, tmp_path, capsys):
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 1, 1: 5})
        path = str(tmp_path / "i.col")
        write_instance(path, inst)
        # feasible but uses the expensive color
        sol = write(tmp_path, "i.sol", "status=optimal\nassign.1=2\nassign.2=2\n")
        assert main(["check", path, sol]) == EXIT_OK
        assert main(["check", path, sol, "--oracle"]) == EXIT_INPUT_ERROR


    # the only edge forces the two colors, which weigh 1 and 5
    TWO_COLORS = "p mwlcp 2 1 2\ne 1 2\nw 1 1\nw 2 5\nl 1 2 1 2\nl 2 2 1 2\n"

    @pytest.mark.parametrize(
        "record, out",
        [
            ("", "oracle optimum 6\nPASS\n"),
            ("assign.1=1\nassign.2=2\n",
             "solution valid, weight 6\noracle optimum 6\nincumbent is optimal\nPASS\n"),
        ],
    )
    def test_oracle_on_time_limit_record(self, tmp_path, capsys, record, out):
        path = write(tmp_path, "i.col", self.TWO_COLORS)
        sol = write(tmp_path, "i.sol", f"status=time_limit\n{record}")
        assert main(["check", path, sol, "--oracle"]) == EXIT_OK
        assert capsys.readouterr().out == out

    def test_oracle_reports_gap_of_time_limit_incumbent(self, tmp_path, capsys):
        # on an edgeless pair one cheap color suffices; the record uses both
        path = write(tmp_path, "i.col", "p mwlcp 2 0 2\nw 1 1\nw 2 5\nl 1 2 1 2\nl 2 2 1 2\n")
        sol = write(tmp_path, "i.sol", "status=time_limit\nassign.1=1\nassign.2=2\n")
        assert main(["check", path, sol, "--oracle"]) == EXIT_OK
        assert capsys.readouterr().out == "solution valid, weight 6\noracle optimum 1\ngap 5\nPASS\n"

    @pytest.mark.parametrize(
        "optimum, out",
        [
            (None, "FAIL: record holds a coloring of weight 6 but oracle says infeasible\n"),
            (7, "oracle optimum 7\nFAIL: weight 6 is below the oracle optimum\n"),
        ],
    )
    def test_oracle_contradicted_by_time_limit_incumbent(
        self, tmp_path, monkeypatch, capsys, optimum, out
    ):
        # a valid coloring of weight 6 proves an optimum of at most 6
        monkeypatch.setattr(cli, "oracle_solve", lambda inst, cap: OracleResult(optimum, None, 0))
        path = write(tmp_path, "i.col", self.TWO_COLORS)
        sol = write(tmp_path, "i.sol", "status=time_limit\nassign.1=1\nassign.2=2\n")
        assert main(["check", path, sol, "--oracle"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().out == "solution valid, weight 6\n" + out


class TestBenchCommand:
    def test_small_grid_solves_all(self, tmp_path, capsys):
        out = str(tmp_path / "bench.txt")
        code = main(
            ["bench", "--n", "12", "--p", "0.5", "--c", "1.0", "--q", "0.5",
             "--instances", "3", "--seed", "0", "--out", out]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "nodes" in text and "time" in text
        assert "3/3" in text

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "0"], "p must be in (0, 1]"),
            (["--weights", "5:3"], "weight range must satisfy 0 <= lo <= hi"),
            # the first cell is valid, and still nothing is solved
            (["--p", "0.5,0"], "p must be in (0, 1]"),
            (["--instances", "0"], "--instances must be at least 1, got 0"),
            (["--instances", "-2"], "--instances must be at least 1, got -2"),
            (["--time-limit", "nan"], "--time-limit must be a number >= 0, got nan"),
            (["--time-limit", "-1"], "--time-limit must be a number >= 0, got -1.0"),
            # {tmp} is the test's own temporary directory
            (["--out", "{tmp}/missing/bench.txt"],
             "[Errno 2] No such file or directory: '{tmp}/missing/bench.txt'"),
            (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        ],
    )
    def test_invalid_config_exits_one_before_solving(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before every config was checked")

        monkeypatch.setattr(cli, "solve", no_solve)
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        assert main(["bench", "--n", "12", "--instances", "2", *flags]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(tmp=tmp_path)}\n"

    def test_negative_env_seed_exits_one_before_solving(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with a negative seed")

        monkeypatch.setattr(cli, "solve", no_solve)
        monkeypatch.setenv("LISTCHROMA_SEED", "-1")
        assert main(["bench", "--n", "12", "--instances", "1"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"

    def test_rounds_column_averages_settled_instances(self, monkeypatch, capsys):
        # two instances of the cell: one settles in 4 nodes and 6 rounds, the
        # other times out; the table averages only the settled one
        reports = iter([
            SolveReport("optimal", nodes=4, pricing_rounds=6, wall_time=0.5),
            SolveReport("time_limit", nodes=9, pricing_rounds=30, wall_time=1.0),
        ])
        monkeypatch.setattr(cli, "solve", lambda inst, time_limit=None: next(reports))
        assert main(["bench", "--n", "12", "--instances", "2", "--seed", "0"]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        assert header.split() == ["n", "p", "c", "q", "nodes", "rounds", "time", "solved"]
        assert row.split() == ["12", "0.5", "1.0", "0.5", "4.0", "6.0", "0.50(1)", "1/2"]

    def test_exhausted_budget_prints_dashes(self, capsys):
        code = main(
            ["bench", "--n", "12", "--p", "0.5", "--c", "1.0", "--q", "0.5",
             "--instances", "2", "--seed", "0", "--time-limit", "0"]
        )
        assert code == EXIT_OK
        assert "--" in capsys.readouterr().out
