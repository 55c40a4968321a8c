import pytest

from listchroma.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_TIME_LIMIT,
    ParseError,
    main,
    parse_instance,
    read_solution,
    write_instance,
)
from listchroma.bnp import solve
from listchroma.core import Graph, build_instance
from listchroma.instgen import GenConfig, generate

from conftest import k33_mirrored, make_instance


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

    def test_invalid_probability(self, tmp_path, capsys):
        code = main(
            ["generate", "--n", "10", "--p", "1.5", "--c", "1.0", "--q", "0.5",
             "--seed", "1", "--out", str(tmp_path / "x.col")]
        )
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

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


class TestSolveCommand:
    def test_single_vertex_optimal(self, tmp_path, capsys):
        path = write(tmp_path, "a.col", SINGLE_VERTEX)
        out = str(tmp_path / "a.sol")
        code = main(["solve", path, "--out", out])
        assert code == EXIT_OK
        assert "weight: 3" in capsys.readouterr().out
        status, assignment = read_solution(out)
        assert status == "optimal"
        assert assignment == {0: 1}

    def test_infeasible_instance_exits_two(self, tmp_path):
        path = str(tmp_path / "k33.col")
        write_instance(path, k33_mirrored())
        assert main(["solve", path]) == EXIT_INFEASIBLE

    def test_zero_time_limit_exits_three(self, tmp_path):
        path = str(tmp_path / "p.col")
        from conftest import petersen

        write_instance(path, petersen())
        out = str(tmp_path / "p.sol")
        code = main(["solve", path, "--time-limit", "0", "--out", out])
        assert code == EXIT_TIME_LIMIT
        status, assignment = read_solution(out)
        assert status == "time_limit"
        assert assignment == {}

    def test_record_carries_mwss_nodes(self, tmp_path, capsys):
        from conftest import petersen

        path = str(tmp_path / "p.col")
        write_instance(path, petersen())
        out = str(tmp_path / "p.sol")
        assert main(["solve", path, "--out", out]) == EXIT_OK
        expected = solve(petersen()).mwss_nodes
        assert expected > 0
        assert f"mwss nodes: {expected}" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            assert f"mwss_nodes={expected}" in fh.read().splitlines()

    def test_record_carries_mwss_cache_hits(self, tmp_path, capsys):
        path = str(tmp_path / "inst.col")
        # q=0.9, weights 1-10: colors with equal lists but different weights are
        # separate classes on one vertex set, so later classes reuse searches
        inst = generate(GenConfig(n=12, p=0.5, c=1.0, q=0.9, seed=1, weight_range=(1, 10)))
        write_instance(path, inst)
        out = str(tmp_path / "inst.sol")
        assert main(["solve", path, "--out", out]) == EXIT_OK
        expected = solve(inst).mwss_cache_hits
        assert expected > 0
        assert f"mwss cache hits: {expected}" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            assert f"mwss_cache_hits={expected}" in fh.read().splitlines()

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "bad.col", "p mwlcp nope\n")
        assert main(["solve", path]) == EXIT_INPUT_ERROR
        assert "line" in capsys.readouterr().err

    def test_declared_empty_list_is_infeasible_not_a_parse_error(self, tmp_path):
        path = write(
            tmp_path, "empty.col", "p mwlcp 2 1 1\ne 1 2\nw 1 1\nl 1 1 1\nl 2 0\n"
        )
        assert main(["solve", path]) == EXIT_INFEASIBLE

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.col")]) == EXIT_INPUT_ERROR

    def test_usage_errors_exit_one_not_two(self, capsys):
        assert main(["solve", "--bogus-flag", "x.col"]) == EXIT_INPUT_ERROR
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()


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

    def test_oracle_flags_suboptimal_weight(self, tmp_path, capsys):
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 1, 1: 5})
        path = str(tmp_path / "i.col")
        write_instance(path, inst)
        # feasible but uses the expensive color
        sol = write(tmp_path, "i.sol", "status=optimal\nassign.1=2\nassign.2=2\n")
        assert main(["check", path, sol]) == EXIT_OK
        assert main(["check", path, sol, "--oracle"]) == EXIT_INPUT_ERROR


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

    def test_exhausted_budget_prints_dashes(self, capsys):
        code = main(
            ["bench", "--n", "12", "--p", "0.5", "--c", "1.0", "--q", "0.5",
             "--instances", "2", "--seed", "0", "--time-limit", "0"]
        )
        assert code == EXIT_OK
        assert "--" in capsys.readouterr().out
