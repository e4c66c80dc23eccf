from itertools import combinations
from pathlib import Path

import pytest

from distance_games import (
    REDUCTIONS,
    ParameterViolationError,
    Position,
    format_ruleset,
    gen_gnp,
    gen_random_bipartite,
    parse_graph,
    serialize,
)
from distance_games.cli import main
from distance_games.gadgets import MAX_GADGET_SIZE
from distance_games.rules import distance_game


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_path_roundtrips(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "path", "--n", "3")
        assert code == 0
        g, _, _ = parse_graph(out)
        assert g.vertex_count == 3 and g.edge_count == 2

    def test_gnp_requires_seed(self, capsys):
        code, _, err = run(capsys, "gen", "--kind", "gnp", "--n", "4", "--prob", "0.5")
        assert code == 2 and "seed" in err

    def test_bigraph_emission(self, capsys, tmp_path):
        out_path = tmp_path / "b.graph"
        code, _, _ = run(capsys, "gen", "--kind", "kpq", "--p", "1", "--q", "2",
                         "--bigraph", "--out", str(out_path))
        assert code == 0
        _, _, rs = parse_graph(out_path.read_text())
        assert rs.variant == "bigraph"

    def test_same_seed_identical_output(self, capsys):
        args = ("gen", "--kind", "gnp", "--n", "6", "--prob", "0.4", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestSolve:
    def test_snort_k2_first_wins(self, capsys, tmp_path):
        board = tmp_path / "k2.graph"
        run(capsys, "gen", "--kind", "path", "--n", "2", "--out", str(board))
        code, out, _ = run(capsys, "solve", "--in", str(board))
        assert code == 0
        assert "outcome FirstWins" in out
        assert "best-move L v0" in out

    def test_too_deep_board_is_input_error(self, capsys, tmp_path):
        board = tmp_path / "edgeless.graph"
        run(capsys, "gen", "--kind", "gnp", "--n", "1200", "--prob", "0",
            "--seed", "1", "--out", str(board))
        assert_input_error(capsys, "solve", "--in", str(board), mentions="1200 plies")

    def test_illegal_position_rejected(self, capsys, tmp_path):
        board = tmp_path / "bad.graph"
        board.write_text(
            "ruleset D=1 S=\nvertex a colour=B\nvertex b colour=R\nedge a b\n"
        )
        code, _, err = run(capsys, "solve", "--in", str(board))
        assert code == 2 and "violates" in err


class TestGadget:
    def test_zero_size_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gadget", "--r", "0")
        assert code == 2 and "error" in err

    def test_emit_and_check(self, capsys):
        code, out, _ = run(capsys, "gadget", "--r", "2", "--check", "D=1,2 S=")
        assert code == 0
        assert "vertex g0.v" in out
        assert out.count("PASS") == 3

    def test_path_gadget_with_check(self, capsys):
        code, out, _ = run(capsys, "gadget", "--r", "3", "--t", "2",
                           "--check", "D=1 S=1,2,3")
        assert code == 0 and "PASS" in out

    def test_bad_hypothesis_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gadget", "--r", "3", "--check", "D=1,2 S=")
        assert code == 2 and "subset" in err

    @pytest.mark.parametrize("argv, what", [
        (["--r", str(MAX_GADGET_SIZE + 1)], "gadget size r"),
        (["--r", "2", "--t", str(MAX_GADGET_SIZE + 1)], "path length t"),
        (["--r", "2", "--check", "D=1,2 S=", "--probes", str(MAX_GADGET_SIZE + 1)],
         "probes"),
    ])
    def test_size_above_cap_writes_nothing(self, capsys, tmp_path, argv, what):
        out_path = tmp_path / "g.graph"
        assert_input_error(capsys, "gadget", *argv, "--out", str(out_path),
                           mentions=f"{what} must be between")
        assert not out_path.exists()


class TestReduce:
    def make_bgnk(self, capsys, tmp_path):
        board = tmp_path / "bgnk.graph"
        run(capsys, "gen", "--kind", "kpq", "--p", "1", "--q", "1",
            "--bigraph", "--out", str(board))
        return board

    def test_bgnk_to_d12(self, capsys, tmp_path):
        board = self.make_bgnk(capsys, tmp_path)
        out_path = tmp_path / "out.graph"
        code, out, _ = run(capsys, "reduce", "--in", str(board),
                           "--to", "D=1,2 S=", "--out", str(out_path))
        assert code == 0 and "target-vertices=10" in out
        g, pos, rs = parse_graph(out_path.read_text())
        assert g.vertex_count == 10 and pos.stone_count == 4
        mapping = Path(str(out_path) + ".map").read_text().splitlines()
        assert mapping == ["l0 -> l0", "r0 -> r0"]

    def test_snort_family_selected_by_shape(self, capsys, tmp_path):
        board = tmp_path / "k2.graph"
        run(capsys, "gen", "--kind", "path", "--n", "2", "--out", str(board))
        out_path = tmp_path / "out.graph"
        code, _, _ = run(capsys, "reduce", "--in", str(board),
                         "--to", "D=1,2,3 S=1", "--out", str(out_path))
        assert code == 0
        g, _, rs = parse_graph(out_path.read_text())
        assert rs.d == {1, 2, 3} and rs.s == {1}
        assert g.distance("v0", "v1") == 3

    def test_source_mismatch(self, capsys, tmp_path):
        board = self.make_bgnk(capsys, tmp_path)
        code, _, err = run(capsys, "reduce", "--from", "snort", "--in", str(board),
                           "--to", "D=1,2 S=", "--out", str(tmp_path / "x.graph"))
        assert code == 2 and "bgnk" in err

    def test_source_as_textual_ruleset(self, capsys, tmp_path):
        board = tmp_path / "k2.graph"
        run(capsys, "gen", "--kind", "path", "--n", "2", "--out", str(board))
        code, _, _ = run(capsys, "reduce", "--from", "D=1 S=", "--in", str(board),
                         "--to", "D=1,2 S=1", "--out", str(tmp_path / "y.graph"))
        assert code == 0

    def test_out_of_range_needs_flag(self, capsys, tmp_path):
        board = self.make_bgnk(capsys, tmp_path)
        out_path = tmp_path / "w.graph"
        code, _, err = run(capsys, "reduce", "--in", str(board),
                           "--to", "D=1,2 S=1,2,3,4", "--out", str(out_path))
        assert code == 2 and "allow_out_of_range" in err
        code, _, _ = run(capsys, "reduce", "--in", str(board),
                         "--to", "D=1,2 S=1,2,3,4", "--out", str(out_path),
                         "--allow-out-of-range")
        assert code == 0

    @pytest.mark.parametrize("name", list(REDUCTIONS))
    def test_reduce_builds_what_the_registry_builds(self, capsys, tmp_path, name):
        """For every target with D, S within {1,2,3} that this spec is the
        first of its source kind to accept and can build, `reduce` writes
        the board and map of `spec.build`."""
        spec = REDUCTIONS[name]
        if spec.bipartite:
            g, bipartition = gen_random_bipartite(2, 3, 0.6, 1)
        else:
            g, bipartition = gen_gnp(5, 0.5, 1), None
        subsets = [frozenset(c) for n in range(4) for c in combinations((1, 2, 3), n)]
        checked = 0
        for d in subsets:
            for s in subsets:
                target = distance_game(d, s)
                first = next((other for other in REDUCTIONS.values()
                              if other.source == spec.source
                              and other.accepts(target) is not None), None)
                if first is not spec:
                    continue
                try:
                    ri = spec.build(g, bipartition, spec.accepts(target))
                except ParameterViolationError:
                    continue
                assert ri.target_ruleset == target
                board = tmp_path / "source.graph"
                board.write_text(serialize(g, Position(), ri.source_ruleset))
                out_path = tmp_path / "out.graph"
                code, _, _ = run(capsys, "reduce", "--in", str(board),
                                 "--to", format_ruleset(target), "--out", str(out_path))
                assert code == 0, format_ruleset(target)
                assert out_path.read_text() == serialize(
                    ri.target_graph, ri.initial_position, ri.target_ruleset)
                assert Path(str(out_path) + ".map").read_text() == "".join(
                    f"{a} -> {b}\n" for a, b in ri.embedded)
                checked += 1
        assert checked

    def test_unreachable_target(self, capsys, tmp_path):
        board = tmp_path / "k2.graph"
        run(capsys, "gen", "--kind", "path", "--n", "2", "--out", str(board))
        code, _, err = run(capsys, "reduce", "--in", str(board),
                           "--to", "D=2 S=", "--out", str(tmp_path / "x.graph"))
        assert code == 2 and "interval" in err


class TestVerify:
    def test_passing_corpus_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--reduction", "snort-family",
                           "--corpus", "exhaustive:3", "--params", "n=2", "s=empty")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("summary status=PASS")

    def test_failing_corpus_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--reduction", "bgnk-window",
                           "--corpus", "exhaustive:4",
                           "--params", "d=1-2", "k=4", "allow_out_of_range=true")
        assert code == 1
        assert any(line.startswith("FAIL check=play-for-play")
                   for line in out.splitlines())

    def test_param_grid_values(self, capsys):
        code, out, _ = run(capsys, "verify", "--reduction", "snort-family",
                           "--corpus", "exhaustive:2", "--params", "n=2,3", "s=empty,1")
        assert code == 0
        # 4 graphs (n=0,1,2 vertices) x 4 parameter combinations
        assert "total=16" in out.strip().splitlines()[-1]

    def test_param_keys_are_case_insensitive(self, capsys):
        code, out, _ = run(capsys, "verify", "--reduction", "snort-family",
                           "--corpus", "exhaustive:2", "--params", "n=2,3", "S=empty")
        assert code == 0
        assert "total=8" in out.strip().splitlines()[-1]

    def test_bad_param_name(self, capsys):
        code, _, err = run(capsys, "verify", "--reduction", "snort-family",
                           "--corpus", "exhaustive:2", "--params", "zz=1")
        assert code == 2 and "zz" in err


def assert_input_error(capsys, *argv, mentions=""):
    """Exit 2, nothing on stdout, one `error:` line on stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert mentions in err


class TestBadVerifyInput:
    def verify(self, capsys, *argv, mentions=""):
        assert_input_error(capsys, "verify", *argv, mentions=mentions)

    def test_non_numeric_corpus_bound(self, capsys):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:x",
                    "--params", "n=2", mentions="exhaustive:x")

    def test_non_numeric_int_param(self, capsys):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:2",
                    "--params", "n=x", mentions="'x' for n")

    def test_non_numeric_set_param(self, capsys):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:2",
                    "--params", "n=2", "s=a", mentions="'a' for s")

    def test_bad_flag_param(self, capsys):
        self.verify(capsys, "--reduction", "bgnk-window", "--corpus", "exhaustive:2",
                    "--params", "d=1-2", "k=3", "allow_out_of_range=maybe",
                    mentions="'maybe' for allow_out_of_range")

    def test_non_numeric_depth_cap(self, capsys):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:2",
                    "--params", "n=2", "--depth-cap", "foo", mentions="foo")

    def test_negative_depth_cap(self, capsys):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:2",
                    "--params", "n=2", "--depth-cap", "-1", mentions="-1")

    @pytest.mark.parametrize("reduction, params, missing", [
        ("snort-family", [], "n"),
        ("col-family", ["d=1"], "k"),
        ("node-kayles-equalmax", ["s=1"], "d"),
        ("bgnk-window", [], "d, k"),
    ])
    def test_missing_required_param(self, capsys, reduction, params, missing):
        self.verify(capsys, "--reduction", reduction, "--corpus", "exhaustive:2",
                    "--params", *params, mentions=f"{reduction} needs parameter(s) {missing}")

    def test_reversed_range(self, capsys):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:2",
                    "--params", "n=2", "s=3-1", mentions="'3-1'")

    def test_repeated_param(self, capsys):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:2",
                    "--params", "n=2", "N=3", mentions="n given twice")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, capsys, jobs):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:2",
                    "--params", "n=2", "--jobs", jobs, mentions="jobs")

    @pytest.mark.parametrize("reduction, corpus, params", [
        ("snort-family", "exhaustive:1", ["n=200000"]),
        ("col-family", "exhaustive:0", ["k=65"]),
        ("bgnk-window", "exhaustive:0", ["d=1-2", "k=65", "allow_out_of_range=true"]),
    ])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_reduction_bound_above_cap_on_edgeless_graphs(self, capsys, reduction,
                                                          corpus, params, jobs):
        self.verify(capsys, "--reduction", reduction, "--corpus", corpus,
                    "--params", *params, "--jobs", jobs, mentions=f"{MAX_GADGET_SIZE}, got")

    @pytest.mark.parametrize("value, piece", [
        ("1-1000000", "1-1000000"), ("1+65", "65"), ("65-70", "65-70"),
    ])
    def test_set_value_above_cap(self, capsys, value, piece):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:1",
                    "--params", "n=2", f"s={value}",
                    mentions=f"{piece!r}; elements must be at most {MAX_GADGET_SIZE}")


class TestDot:
    def test_highlight_gadgets(self, capsys, tmp_path):
        board = tmp_path / "bgnk.graph"
        run(capsys, "gen", "--kind", "kpq", "--p", "1", "--q", "1",
            "--bigraph", "--out", str(board))
        reduced = tmp_path / "red.graph"
        run(capsys, "reduce", "--in", str(board), "--to", "D=1,2 S=",
            "--out", str(reduced))
        code, out, _ = run(capsys, "dot", "--in", str(reduced),
                           "--highlight", "gadgets")
        assert code == 0
        assert "dashed" in out and "fillcolor=blue" in out and "--" in out

    def test_plain_board(self, capsys, tmp_path):
        board = tmp_path / "p.graph"
        run(capsys, "gen", "--kind", "path", "--n", "2", "--out", str(board))
        code, out, _ = run(capsys, "dot", "--in", str(board))
        assert code == 0 and '"v0" -- "v1";' in out


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "solve", "--bogus", "x")[0] == 2

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "solve", "--in", "/nonexistent/file.graph")
        assert code == 2
