import io
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

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
from distance_games import cli, gadgets, graph
from distance_games.cli import _GEN_KINDS, main
from distance_games.gadgets import MAX_GADGET_SIZE, MAX_TARGET_VERTICES
from distance_games.graph import (
    MAX_GENERATED_VERTICES,
    MAX_RANDOM_CORPUS_GRAPHS,
    MAX_RANDOM_CORPUS_PAIRS,
)
from distance_games.rules import distance_game

from helpers import bfs_distance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def never_called(*args, **kwargs):
    pytest.fail("called before the --out path was checked")


# Each command that writes an --out, with a patch that fails the test once
# the command starts its work.
WRITERS_BEFORE_ANY_WORK = [
    (["gen", "--kind", "path", "--n", "3"],
     lambda mp: mp.setitem(_GEN_KINDS, "path", (never_called, {"n": 0}))),
    (["reduce", "--in", "p.graph", "--to", "D=1,2 S="],
     lambda mp: mp.setattr(cli, "_read_board", never_called)),
    (["gadget", "--r", "3"],
     lambda mp: mp.setattr(gadgets, "forbidden_vertex_gadget", never_called)),
    (["dot", "--in", "p.graph"], lambda mp: mp.setattr(cli, "_read_board", never_called)),
]


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
    ])
    def test_size_above_cap_writes_nothing(self, capsys, tmp_path, argv, what):
        out_path = tmp_path / "g.graph"
        assert_input_error(capsys, "gadget", *argv, "--out", str(out_path),
                           mentions=f"{what} must be between")
        assert not out_path.exists()

    def test_probes_flag_is_refused(self, capsys, tmp_path):
        # The check hangs one probe off each port; there is no count to set.
        out_path = tmp_path / "g.graph"
        assert_input_error(capsys, "gadget", "--r", "2", "--check", "D=1,2 S=",
                           "--probes", "2", "--out", str(out_path),
                           mentions="unrecognized arguments: --probes 2")
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
        assert g.vertex_count == 10 and pos.occupied.bit_count() == 4
        assert "map=" not in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bgnk.graph", "out.graph"]

    def test_snort_family_selected_by_shape(self, capsys, tmp_path):
        board = tmp_path / "k2.graph"
        run(capsys, "gen", "--kind", "path", "--n", "2", "--out", str(board))
        out_path = tmp_path / "out.graph"
        code, _, _ = run(capsys, "reduce", "--in", str(board),
                         "--to", "D=1,2,3 S=1", "--out", str(out_path))
        assert code == 0
        g, _, rs = parse_graph(out_path.read_text())
        assert rs.d == {1, 2, 3} and rs.s == {1}
        assert bfs_distance(g, "v0", "v1") == 3

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
        the board of `spec.build`, and no other file."""
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
                assert not Path(str(out_path) + ".map").exists()
                checked += 1
        assert checked

    def test_unreachable_target(self, capsys, tmp_path):
        board = tmp_path / "k2.graph"
        run(capsys, "gen", "--kind", "path", "--n", "2", "--out", str(board))
        code, _, err = run(capsys, "reduce", "--in", str(board),
                           "--to", "D=2 S=", "--out", str(tmp_path / "x.graph"))
        assert code == 2 and "interval" in err

    def test_empty_out_path_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # Not the board on stdout ahead of the summary line, as "" as a path would give.
        board = tmp_path / "k2.graph"
        run(capsys, "gen", "--kind", "path", "--n", "2", "--out", str(board))
        monkeypatch.chdir(tmp_path)
        assert_input_error(capsys, "reduce", "--in", str(board), "--to", "D=1,2 S=",
                           "--out", "", mentions="--out")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k2.graph"]

    @pytest.mark.parametrize("command", ["reduce", "dot"])
    @pytest.mark.parametrize("out", ["p.graph", "./p.graph"])
    def test_out_over_in_writes_nothing(self, capsys, tmp_path, monkeypatch, command, out):
        # Not the input board overwritten by its own reduction or drawing.
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "--kind", "path", "--n", "3", "--out", "p.graph")
        before = (tmp_path / "p.graph").read_bytes()
        extra = ("--to", "D=1,2 S=") if command == "reduce" else ()
        assert_input_error(capsys, command, "--in", "p.graph", *extra, "--out", out,
                           mentions=f"the --out path {out} is also the --in path")
        assert (tmp_path / "p.graph").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["p.graph"]

    @pytest.mark.parametrize("existing", [[], ["t.graph"]])
    def test_failed_write_writes_nothing(self, capsys, tmp_path, monkeypatch, existing):
        # Not a file made anywhere, and not an old board at another path changed.
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "--kind", "path", "--n", "3", "--out", "p.graph")
        for name in existing:
            (tmp_path / name).write_text("old bytes\n")
        assert_input_error(capsys, "reduce", "--in", "p.graph", "--to", "D=1,2 S=",
                           "--out", "nodir/t.graph",
                           mentions="No such file or directory: 'nodir/t.graph'")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["p.graph", *existing])
        for name in existing:
            assert (tmp_path / name).read_text() == "old bytes\n"

    @pytest.mark.parametrize("argv, patch", WRITERS_BEFORE_ANY_WORK)
    def test_missing_out_directory_refused_before_any_work(self, capsys, tmp_path,
                                                           monkeypatch, argv, patch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "--kind", "path", "--n", "3", "--ruleset", "D=1 S=", "--out", "p.graph")
        patch(monkeypatch)
        code, out, err = run(capsys, *argv, "--out", "nodir/x.graph")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: 'nodir/x.graph'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["p.graph"]

    @pytest.mark.parametrize("argv, patch", WRITERS_BEFORE_ANY_WORK)
    def test_out_under_a_file_refused_before_any_work(self, capsys, tmp_path,
                                                      monkeypatch, argv, patch):
        # The write would fail on the file afile as a directory; the refusal
        # comes first, with the same error, and afile is left as it was.
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "--kind", "path", "--n", "3", "--ruleset", "D=1 S=", "--out", "p.graph")
        (tmp_path / "afile").write_text("old bytes\n")
        patch(monkeypatch)
        for path in ("afile/x.graph", "afile/sub/x.graph"):
            code, out, err = run(capsys, *argv, "--out", path)
            assert (code, out) == (2, "")
            assert err == f"error: [Errno 20] Not a directory: {path!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "p.graph"]
        assert (tmp_path / "afile").read_text() == "old bytes\n"

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "path", "--n", "2"],
        ["reduce", "--in", "p.graph", "--to", "D=1,2 S="],
        ["gadget", "--r", "3"],
        ["dot", "--in", "p.graph"],
    ])
    @pytest.mark.parametrize("out", ["afile/", "newdir/", "adir", "adir/"])
    def test_out_naming_a_directory_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                   argv, out):
        # Not the file afile overwritten through "afile/", nor a file newdir made.
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "--kind", "path", "--n", "3", "--ruleset", "D=1 S=", "--out", "p.graph")
        (tmp_path / "afile").write_text("old bytes\n")
        (tmp_path / "adir").mkdir()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert_input_error(capsys, *argv, "--out", out,
                           mentions=f"the --out path {out} names a directory\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile", "p.graph"]
        assert not any((tmp_path / "adir").iterdir())


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
        for reduction, params, total, written in [
            # 4 graphs (n=0,1,2 vertices) x 4 parameter combinations
            ("snort-family", ["n=2,3", "s=empty,1"], 16,
             ["n=2;s=empty", "n=2;s=1", "n=3;s=empty", "n=3;s=1"]),
            ("snort-family", ["n=4", "s=2,1-3,1+3"], 12,
             ["n=4;s=2", "n=4;s=1+2+3", "n=4;s=1+3"]),
            # 5 bipartite graphs with at most one vertex a side
            ("bgnk-window", ["d=1-2", "k=3", "allow_out_of_range=TRUE"], 5,
             ["allow_out_of_range=true;d=1+2;k=3"]),
        ]:
            code, out, _ = run(capsys, "verify", "--reduction", reduction,
                               "--corpus", "exhaustive:2", "--params", *params)
            assert code == 0
            lines = out.strip().splitlines()
            assert f"total={total}" in lines[-1]
            assert list(dict.fromkeys(line.split("params=")[1] for line in lines[:-1])) == written
            # Each value is written as text that reads back to the same value.
            for text in written:
                code, out, _ = run(capsys, "verify", "--reduction", reduction,
                                   "--corpus", "exhaustive:0", "--params", *text.split(";"))
                assert code == 0 and out.splitlines()[0].endswith(f" params={text}")

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

    # The splice checks the gadget size first, so the error names the
    # value the user gave rather than the path length derived from it.
    @pytest.mark.parametrize("reduction, corpus, params", [
        ("snort-family", "exhaustive:1", ["n=200000"]),
        ("col-family", "exhaustive:0", ["k=65"]),
        ("bgnk-window", "exhaustive:0", ["d=1-2", "k=65", "allow_out_of_range=true"]),
        ("col-family", "exhaustive:1", ["k=1000"]),
    ])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_reduction_bound_above_cap_on_edgeless_graphs(self, capsys, reduction,
                                                          corpus, params, jobs):
        got = next(p[2:] for p in params if p[:2] in ("n=", "k="))
        self.verify(capsys, "--reduction", reduction, "--corpus", corpus,
                    "--params", *params, "--jobs", jobs,
                    mentions=f"gadget size r must be between 1 and {MAX_GADGET_SIZE}, got {got}\n")

    @pytest.mark.parametrize("value, piece", [
        ("1-1000000", "1-1000000"), ("1+65", "65"), ("65-70", "65-70"),
    ])
    def test_set_value_above_cap(self, capsys, value, piece):
        self.verify(capsys, "--reduction", "snort-family", "--corpus", "exhaustive:1",
                    "--params", "n=2", f"s={value}",
                    mentions=f"{piece!r}; elements must be at most {MAX_GADGET_SIZE}")


# Python's int() takes each of these; integers in text input are an optional
# ASCII '-' and ASCII digits only.
NOT_ASCII_INTEGERS = ["1_0", "\u0663", " 3"]


@pytest.mark.parametrize("bad", NOT_ASCII_INTEGERS)
class TestIntegersAreAsciiDigits:
    def test_board_ruleset(self, capsys, tmp_path, bad):
        board = tmp_path / "b.graph"
        board.write_text(f"ruleset D=1,{bad} S=\nvertex a\n", encoding="utf-8")
        assert_input_error(capsys, "solve", "--in", str(board), mentions="error: line 1: ")

    @pytest.mark.parametrize("param", ["n", "s"])
    def test_params(self, capsys, bad, param):
        values = {"n": "2", param: bad}
        assert_input_error(capsys, "verify", "--reduction", "snort-family",
                           "--corpus", "exhaustive:1", "--params",
                           *(f"{k}={v}" for k, v in values.items()),
                           mentions=f"bad value {bad!r} for {param}")

    def test_depth_cap(self, capsys, bad):
        assert_input_error(capsys, "verify", "--reduction", "snort-family",
                           "--corpus", "exhaustive:1", "--params", "n=2", "--depth-cap", bad,
                           mentions=f"bad depth cap {bad!r}")

    @pytest.mark.parametrize("corpus", ["exhaustive:{}", "random:{}:3:0.5:1",
                                        "random:2:{}:0.5:1", "random:2:3:0.5:{}"])
    def test_corpus(self, capsys, bad, corpus):
        assert_input_error(capsys, "verify", "--reduction", "snort-family",
                           "--corpus", corpus.format(bad), "--params", "n=2",
                           mentions=f"bad corpus spec {corpus.format(bad)!r}")

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "path", "--n"],
        ["gen", "--kind", "kpq", "--p", "2", "--q"],
        ["gen", "--kind", "gnp", "--n", "3", "--seed"],
        ["gadget", "--r"],
        ["gadget", "--r", "2", "--t"],
        ["verify", "--reduction", "snort-family", "--corpus", "exhaustive:1",
         "--params", "n=2", "--jobs"],
    ])
    def test_int_flags(self, capsys, bad, argv):
        assert_input_error(capsys, *argv, bad, mentions=f"invalid int value: {bad!r}")


# float() reads each of these; a probability is ASCII digits, optionally
# followed by '.' and more ASCII digits.
NOT_DECIMALS = ["0.2_5", " 0.5 ", "-0.5", "nan", "inf", ".5", "1e-3"]


@pytest.mark.parametrize("bad", NOT_DECIMALS)
class TestProbabilitiesAreDecimals:
    def test_prob_flag(self, capsys, bad):
        assert_input_error(capsys, "gen", "--kind", "gnp", "--n", "3", "--prob", bad,
                           "--seed", "1", mentions=f"argument --prob: invalid float value: {bad!r}")

    # An empty random corpus draws no graph, so its PROB is checked only here.
    @pytest.mark.parametrize("count", ["0", "2"])
    def test_corpus(self, capsys, bad, count):
        corpus = f"random:{count}:3:{bad}:1"
        assert_input_error(capsys, "verify", "--reduction", "snort-family",
                           "--corpus", corpus, "--params", "n=2",
                           mentions=f"bad corpus spec {corpus!r}")


class TestGeneratedSizeBounds:
    """Generated boards and random corpora stay within fixed bounds: a
    request past them is refused before anything is built."""

    @pytest.mark.parametrize("argv, size", [
        (["--kind", "path", "--n", "100000000"], "n = 100000000"),
        (["--kind", "cycle", "--n", str(MAX_GENERATED_VERTICES + 1)],
         f"n = {MAX_GENERATED_VERTICES + 1}"),
        (["--kind", "gnp", "--n", "30000", "--prob", "0", "--seed", "1"], "n = 30000"),
        (["--kind", "kpq", "--p", "2000", "--q", "2000"], "p + q = 4000"),
        (["--kind", "bipartite", "--p", "1", "--q", str(MAX_GENERATED_VERTICES),
          "--seed", "1"], f"p + q = {MAX_GENERATED_VERTICES + 1}"),
    ])
    def test_gen_above_the_vertex_bound(self, capsys, argv, size):
        assert_input_error(
            capsys, "gen", *argv,
            mentions=f"{size} exceeds the bound of {MAX_GENERATED_VERTICES} generated vertices",
        )

    def test_gen_at_the_vertex_bound(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "path", "--n", str(MAX_GENERATED_VERTICES))
        assert code == 0
        assert parse_graph(out)[0].vertex_count == MAX_GENERATED_VERTICES

    @pytest.mark.parametrize("reduction, params", [
        ("snort-family", ["n=2"]), ("bgnk-d12", []),
    ])
    def test_random_corpus_count_above_bound(self, capsys, reduction, params):
        assert_input_error(capsys, "verify", "--reduction", reduction,
                           "--corpus", "random:100000000:5:0.5:1", "--params", *params,
                           mentions=f"exceeds the bound of {MAX_RANDOM_CORPUS_GRAPHS}")

    @pytest.mark.parametrize("reduction, params", [
        ("snort-family", ["n=2"]), ("bgnk-d12", []),
    ])
    def test_random_corpus_size_above_bound(self, capsys, reduction, params):
        size = MAX_GENERATED_VERTICES + 1
        assert_input_error(capsys, "verify", "--reduction", reduction,
                           "--corpus", f"random:1:{size}:0.5:1", "--params", *params,
                           mentions=f"= {size} exceeds the bound of {MAX_GENERATED_VERTICES}")

    @pytest.mark.parametrize("reduction, params, pairs_per_graph", [
        ("snort-family", ["n=2"], MAX_GENERATED_VERTICES * (MAX_GENERATED_VERTICES - 1) // 2),
        ("bgnk-d12", [], (MAX_GENERATED_VERTICES // 2) ** 2),
    ])
    def test_random_corpus_pairs_above_bound(self, capsys, reduction, params,
                                             pairs_per_graph):
        # One graph more than the pair bound admits at the vertex bound.
        count = MAX_RANDOM_CORPUS_PAIRS // pairs_per_graph + 1
        assert_input_error(capsys, "verify", "--reduction", reduction, "--corpus",
                           f"random:{count}:{MAX_GENERATED_VERTICES}:1.0:1", "--params", *params,
                           mentions=f"above the bound of {MAX_RANDOM_CORPUS_PAIRS}")


def interval(k: int) -> str:
    return ",".join(map(str, range(1, k + 1)))


class TestTargetSizeBound:
    """A reduction whose target would pass MAX_TARGET_VERTICES is refused
    from its planned size, before any target vertex is added."""

    def board(self, capsys, tmp_path, *gen_argv):
        path = tmp_path / "source.graph"
        code, _, _ = run(capsys, "gen", *gen_argv, "--out", str(path))
        assert code == 0
        return str(path)

    def test_spliced_edges_past_the_bound(self, capsys, tmp_path):
        # 41 edges, each spliced with 63 size-64 blockers of 98 vertices.
        board = self.board(capsys, tmp_path, "--kind", "path", "--n", "42")
        planned = 42 + 41 * 63 * 98
        assert planned > MAX_TARGET_VERTICES
        assert_input_error(capsys, "reduce", "--in", board, "--to", f"D={interval(64)} S=",
                           "--out", str(tmp_path / "t.graph"),
                           mentions=f"{planned} vertices, above the bound of "
                                    f"{MAX_TARGET_VERTICES}")
        assert not (tmp_path / "t.graph").exists()

    def test_anchor_paths_past_the_bound(self, capsys, tmp_path):
        # No edge to splice; 50 side vertices, each anchored through 62
        # size-63 blockers of 96 vertices, and the two shared stones.
        board = self.board(capsys, tmp_path, "--kind", "bipartite", "--p", "25", "--q", "25",
                           "--prob", "0", "--seed", "1", "--bigraph")
        planned = 50 + 50 * 62 * 96 + 2
        assert planned > MAX_TARGET_VERTICES
        assert_input_error(capsys, "reduce", "--in", board, "--to", f"D=32 S={interval(63)}",
                           "--out", str(tmp_path / "t.graph"),
                           mentions=f"{planned} vertices, above the bound of "
                                    f"{MAX_TARGET_VERTICES}")

    @pytest.mark.parametrize("gen_argv, to, size", [
        # 3 source vertices and 2 edges, each spliced with one 5-vertex blocker.
        (["--kind", "path", "--n", "3"], "D=1,2 S=", 13),
        # 2 side vertices, one edge spliced with a 6-vertex blocker, two anchor
        # paths of two 6-vertex blockers and two shared stones.
        (["--kind", "kpq", "--p", "1", "--q", "1", "--bigraph"], "D=1,2 S=1,2,3", 34),
    ], ids=["snort-family", "bgnk-window"])
    def test_planned_size_is_exact(self, capsys, tmp_path, monkeypatch, gen_argv, to, size):
        board = self.board(capsys, tmp_path, *gen_argv)
        out = str(tmp_path / "t.graph")
        monkeypatch.setattr(gadgets, "MAX_TARGET_VERTICES", size)
        code, stdout, _ = run(capsys, "reduce", "--in", board, "--to", to, "--out", out)
        assert code == 0 and f"target-vertices={size} " in stdout
        monkeypatch.setattr(gadgets, "MAX_TARGET_VERTICES", size - 1)
        assert_input_error(capsys, "reduce", "--in", board, "--to", to, "--out", out,
                           mentions=f"the target would have {size} vertices")


class TestBallBudget:
    """A ball that does not fit its graph's ball memo budget is an input
    error: exit 2 and one `error:` line."""

    def test_solve_past_the_budget(self, capsys, tmp_path, monkeypatch):
        board = tmp_path / "p.graph"
        run(capsys, "gen", "--kind", "path", "--n", "40", "--ruleset", "D=1,2,3 S=",
            "--out", str(board))
        # The neighbour masks fit (40 vertices at 5 bytes), a whole row does not.
        monkeypatch.setattr(graph, "MAX_BALL_MEMO_BYTES", 40 * 5 + 100)
        assert_input_error(capsys, "solve", "--in", str(board),
                           mentions="ball memo of this 40-vertex graph")

    def test_verify_past_the_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(graph, "MAX_BALL_MEMO_BYTES", 10)
        assert_input_error(capsys, "verify", "--reduction", "snort-family",
                           "--corpus", "exhaustive:2", "--params", "n=3",
                           mentions="ball memo")


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


class TestUndecodableBoard:
    @pytest.mark.parametrize("argv", [
        ("solve",),
        ("reduce", "--to", "D=1,2 S="),
        ("dot",),
    ])
    def test_non_utf8_board_is_input_error(self, capsys, tmp_path, argv):
        board = tmp_path / "bad.graph"
        board.write_bytes(b"\xff\xfe\x00")
        out_path = tmp_path / "out.graph"
        extra = ("--out", str(out_path)) if argv[0] == "reduce" else ()
        assert_input_error(capsys, *argv, "--in", str(board), *extra,
                           mentions="not UTF-8")
        assert not out_path.exists()


class TestUsageErrors:
    """A usage error is an input error: exit 2 and one `error:` line."""

    def test_unknown_flag(self, capsys):
        assert_input_error(capsys, "solve", "--in", "x", "--bogus", "x",
                           mentions="unrecognized arguments: --bogus x")

    def test_missing_subcommand(self, capsys):
        assert_input_error(capsys, mentions="required: command")

    @pytest.mark.parametrize("argv, mentions", [
        (["gen", "--kind", "bogus"], "invalid choice: 'bogus'"),
        (["gen", "--kind", "path", "--n", "x"], "invalid int value: 'x'"),
        (["gen", "--kind", "kpq", "--n", "5"], "kpq takes no --n; it reads --p, --q"),
        (["gen", "--kind", "path", "--seed", "1"], "path takes no --seed; it reads --n"),
        (["gen", "--kind", "cycle", "--n", "3", "--prob", "0.5"], "cycle takes no --prob"),
        (["gen", "--kind", "gnp", "--n", "3", "--p", "2", "--seed", "1"], "gnp takes no --p"),
        (["verify", "--reduction", "nope", "--corpus", "exhaustive:1"], "invalid choice: 'nope'"),
        (["verify", "--reduction", "snort-family", "--corpus", "exhaustive:1", "--jobs", "x"],
         "invalid int value: 'x'"),
        (["solve", "--in", "x", "a\nb"], "unrecognized arguments: a\\nb"),
        (["reduce", "--in", "x", "--to", "D=1,2 S=", "--out", "t.graph", "--map", "m.map"],
         "unrecognized arguments: --map m.map"),
        (["reduce", "--in", "x", "--to", "D=1,2 S=", "--out", "t.graph", "--from", "snort"],
         "unrecognized arguments: --from snort"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, mentions):
        assert_input_error(capsys, *argv, mentions=mentions)

    def test_allow_out_of_range_only_where_a_reduction_reads_it(self, capsys, tmp_path):
        board, out_path = tmp_path / "p.graph", tmp_path / "t.graph"
        run(capsys, "gen", "--kind", "path", "--n", "6", "--ruleset", "D=1 S=",
            "--out", str(board))
        assert_input_error(capsys, "reduce", "--in", str(board), "--to", "D=1,2 S=",
                           "--out", str(out_path), "--allow-out-of-range",
                           mentions="snort-family takes no --allow-out-of-range")
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: distance-games") and err == ""

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "solve", "--in", "/nonexistent/file.graph")
        assert code == 2


class TestBoardBounds:
    """A board past the vertex or edge-line bound is refused while it is
    read: exit 2 and one `error:` line naming the first line past it."""

    @pytest.mark.parametrize("command", ["solve", "reduce", "dot"])
    def test_at_and_past_the_vertex_bound(self, capsys, tmp_path, monkeypatch, command):
        board = tmp_path / "p.graph"
        run(capsys, "gen", "--kind", "path", "--n", "4", "--out", str(board))
        # D=1 from Snort is the identity reduction: the target is the board.
        extra = ("--to", "D=1 S=", "--out", str(tmp_path / "t.graph")) \
            if command == "reduce" else ()
        monkeypatch.setattr(gadgets, "MAX_TARGET_VERTICES", 4)
        assert run(capsys, command, "--in", str(board), *extra)[0] == 0
        monkeypatch.setattr(gadgets, "MAX_TARGET_VERTICES", 3)
        # Lines 1 and 2 are the ruleset and variant; the fourth vertex is line 6.
        assert_input_error(capsys, command, "--in", str(board), *extra,
                           mentions="line 6: more than 3 vertices")

    def test_past_the_edge_line_bound(self, capsys, tmp_path, monkeypatch):
        board = tmp_path / "p.graph"
        run(capsys, "gen", "--kind", "path", "--n", "4", "--out", str(board))
        monkeypatch.setattr(graph, "MAX_RANDOM_CORPUS_PAIRS", 3)
        assert run(capsys, "solve", "--in", str(board))[0] == 0
        monkeypatch.setattr(graph, "MAX_RANDOM_CORPUS_PAIRS", 2)
        assert_input_error(capsys, "solve", "--in", str(board),
                           mentions="line 9: more than 2 edge lines")


_HUGE = 10**12
# The source kinds `reduce` accepts, as (D, S), and a ruleset that is none.
_BOARD_RULESETS = [("1", ""), ("", "1"), ("1", "1"), ("1,2", "3")]


@st.composite
def board_bytes(draw):
    """A board file of at most 8 vertices, valid or mutated: truncated
    lines, repeated vertices, self-loops, unknown attributes, a huge
    distance, invalid UTF-8 bytes."""
    n = draw(st.integers(0, 8))
    bigraph = draw(st.booleans())
    d, s = ("1", "1") if bigraph else draw(st.sampled_from(_BOARD_RULESETS))
    lines = [f"ruleset D={d} S={s}"]
    if bigraph:
        lines.append("variant bigraph")
    one_in_four = st.sampled_from([False, False, False, True])
    stones = draw(one_in_four)
    for i in range(n):
        colour = draw(st.sampled_from(["", " colour=B", " colour=R"])) if stones else ""
        owner = draw(st.sampled_from([" owner=L", " owner=R"])) if bigraph else ""
        lines.append(f"vertex v{i}{colour}{owner}")
    if n > 1:
        ends = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=12))
        pairs = [(a, b if a != b else (a + 1) % n) for a, b in pairs]
        lines += [f"edge v{a} v{b}" for a, b in pairs]
    mutations = st.lists(st.sampled_from(
        ["truncate", "repeat", "self-loop", "attribute", "huge"]), min_size=1, max_size=3)
    for mutation in draw(mutations) if draw(one_in_four) else ():
        k = draw(st.integers(0, len(lines) - 1))
        if mutation == "truncate":
            lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
        elif mutation == "repeat":
            lines.insert(k, lines[k])
        elif mutation == "self-loop":
            lines.append(f"edge v{k} v{k}")
        elif mutation == "attribute":
            lines[k] += draw(st.sampled_from([" colour=G", " shape=box", " owner", " ="]))
        else:
            lines[0] = lines[0].replace("D=", f"D={_HUGE},", 1)
    data = ("\n".join(lines) + "\n").encode()
    if draw(one_in_four):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[k:]
    return data


@st.composite
def ruleset_texts(draw):
    """A `--to` ruleset, valid or mutated, with distances of at most 4."""
    dists = st.lists(st.integers(1, 4), max_size=3).map(lambda xs: ",".join(map(str, xs)))
    # Half the time a target one of the five reductions reaches.
    text = draw(st.one_of(
        st.sampled_from(["D=1,2 S=", "D=1,2,3 S=1", "D=1 S=1,2", "D=1,2 S=1,2",
                         "D=1,2 S=1,2,3", "D=1,2 S=1"]),
        st.builds("D={} S={}".format, dists, dists)))
    mutation = draw(st.sampled_from(["", "", "", "", "", "drop", "junk", "zero", "word",
                                     "extra"]))
    if mutation == "drop":
        text = text[:draw(st.integers(0, len(text)))]
    elif mutation == "junk":
        text = text.replace("D=", "D=,", 1)
    elif mutation == "zero":
        text = text.replace("S=", "S=0,", 1)
    elif mutation == "word":
        text = text.replace("S=", "S=x", 1)
    elif mutation == "extra":
        text += " T=1"
    return text


_PARAM_VALUES = {
    "int": ["1", "2", "3", "4"],
    "set": ["empty", "1", "1-2", "2-4", "1+3"],
    "flag": ["true", "false"],
}


@st.composite
def verify_argvs(draw):
    """A `verify` argument vector over corpora of at most 4 vertices, valid
    or mutated: a malformed corpus, a bad value (3-1, 65, 0), a junk,
    repeated or missing parameter, a bad depth cap, a job count below 1 or
    not an integer, an unknown reduction."""
    corpus = draw(st.one_of(
        st.builds("exhaustive:{}".format, st.integers(0, 3)),
        st.builds("random:{}:{}:{}:{}".format, st.integers(0, 2), st.integers(0, 4),
                  st.sampled_from(["0", "0.5", "1"]), st.integers(0, 9))))
    reduction = draw(st.sampled_from(sorted(REDUCTIONS)))
    params = []
    for key, kind in REDUCTIONS[reduction].param_types:
        values = draw(st.lists(st.sampled_from(_PARAM_VALUES[kind]), min_size=1, max_size=2))
        params.append(f"{key}={','.join(values)}")
    depth_cap, jobs = draw(st.sampled_from(["auto", "full", "0", "3"])), "1"
    mutations = st.lists(st.sampled_from(
        ["corpus", "value", "junk", "drop", "depth", "jobs", "reduction"]),
        min_size=1, max_size=2)
    for mutation in draw(mutations) if draw(st.booleans()) else ():
        if mutation == "corpus":
            corpus = draw(st.sampled_from(["exhaustive", "exhaustive:x", "exhaustive:-1",
                                           "random:1:2", "random:1:2:1.5:1", "random:1:2:x:1",
                                           "bogus:2", ""]))
        elif mutation == "value" and params:
            k = draw(st.integers(0, len(params) - 1))
            params[k] += "," + draw(st.sampled_from(["0", "65", "3-1", "x", "", "1+65"]))
        elif mutation == "junk":
            params.insert(draw(st.integers(0, len(params))),
                          draw(st.sampled_from(["zz=1", "n", "=2", "s=1", "N=3", "d=1"])))
        elif mutation == "drop" and params:
            del params[draw(st.integers(0, len(params) - 1))]
        elif mutation == "depth":
            depth_cap = draw(st.sampled_from(["-1", "x", "", "1.5"]))
        elif mutation == "jobs":
            jobs = str(draw(st.sampled_from([-2, -1, 0, "x"])))
        elif mutation == "reduction":
            reduction = draw(st.sampled_from(["nope", "", "Snort-Family"]))
    return ["verify", "--reduction", reduction, "--corpus", corpus, "--params", *params,
            "--depth-cap", depth_cap, "--jobs", jobs]


@st.composite
def gadget_argvs(draw):
    """A `gadget` argument vector with `--r` and `--t` mostly from 1 to 5,
    now and then -1, 0 or past the cap, and a valid or mutated `--check`
    ruleset."""
    def size():
        bad = draw(st.sampled_from([False, False, False, True]))
        return str(draw(st.sampled_from([-1, 0, MAX_GADGET_SIZE + 1]) if bad
                        else st.integers(1, 5)))

    argv = ["gadget", "--r", size()]
    if draw(st.booleans()):
        argv += ["--t", size()]
    if draw(st.booleans()):
        argv += ["--check", draw(ruleset_texts())]
    return argv


@st.composite
def gen_argvs(draw):
    """A `gen` argument vector of any kind or one outside the choices. Each
    flag the kind reads is mostly given, and now and then one it does not
    read: `--n`, `--p` and `--q` mostly from 0 to 6, now and then -1, past
    the vertex bound or not an integer; `--prob` in or outside [0, 1];
    `--seed`. Then `--bigraph` on any kind, a valid or mutated `--ruleset`,
    and now and then an unknown flag."""
    def size():
        bad = draw(st.sampled_from([False, False, False, True]))
        return str(draw(st.sampled_from([-1, MAX_GENERATED_VERTICES + 1, "x", "1.5"]) if bad
                        else st.integers(0, 6)))

    values = {
        "n": size, "p": size, "q": size,
        "prob": lambda: draw(st.sampled_from(["0", "0.5", "1", "-0.5", "1.5", "nan", "inf"])),
        "seed": lambda: str(draw(st.integers(0, 9))),
    }
    kind = draw(st.sampled_from([*_GEN_KINDS, "bogus"]))
    reads = _GEN_KINDS[kind][1] if kind in _GEN_KINDS else ()
    argv = ["gen", "--kind", kind]
    for flag, value in values.items():
        if draw(st.integers(0, 7)) < (6 if flag in reads else 1):
            argv += [f"--{flag}", value()]
    if draw(st.booleans()):
        argv.append("--bigraph")
    if draw(st.booleans()):
        argv += ["--ruleset", draw(ruleset_texts())]
    if draw(st.sampled_from([False, False, False, True])):
        argv.append("--bogus")
    return argv


@st.composite
def reduce_flags(draw):
    """`reduce`'s `--out` and `--allow-out-of-range`: an `--out` that is new,
    the `--in` path (also spelled with `./`), in a missing directory, or
    empty (named here by role); now and then the removed `--map` or `--from`,
    which are unknown flags."""
    out = draw(st.sampled_from(["new", "new", "new", "in", "./in", "nodir", ""]))
    unknown = draw(st.sampled_from([None, None, None, "--map=t.map", "--from=snort"]))
    return out, draw(st.booleans()), unknown


def assert_exit_contract(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)


class TestExitCodeContract:
    """Every run of `gen`, `solve`, `reduce`, `dot`, `verify` or `gadget`
    exits 0, 1 or 2; an exit 2 writes exactly one `error:` line and no
    traceback."""

    @given(data=board_bytes(), to=ruleset_texts(), highlight=st.booleans())
    @settings(max_examples=60)
    def test_mutated_boards_and_rulesets(self, tmp_path_factory, data, to, highlight):
        work = tmp_path_factory.mktemp("exit")
        board = work / "board.graph"
        board.write_bytes(data)
        out = work / "target.graph"
        commands = [
            ["solve", "--in", str(board)],
            ["reduce", "--in", str(board), f"--to={to}", "--out", str(out)],
            ["dot", "--in", str(board)] + (["--highlight", "gadgets"] if highlight else []),
        ]
        for argv in commands:
            assert_exit_contract(argv)

    @given(argv=st.one_of(verify_argvs(), gadget_argvs()))
    @settings(max_examples=200)
    def test_mutated_verify_and_gadget_arguments(self, argv):
        assert_exit_contract(argv)

    @given(argv=gen_argvs())
    @settings(max_examples=200)
    def test_mutated_gen_arguments(self, argv):
        assert_exit_contract(argv)

    @given(data=board_bytes(), to=ruleset_texts(), flags=reduce_flags())
    @settings(max_examples=100)
    def test_mutated_reduce_flags(self, tmp_path_factory, data, to, flags):
        work = tmp_path_factory.mktemp("reduce")
        board = work / "board.graph"
        board.write_bytes(data)
        out, allow, unknown = flags
        paths = {"new": work / "target.graph", "in": board, "./in": f"{work}/./{board.name}",
                 "nodir": work / "nodir" / "target.graph", "": ""}
        argv = ["reduce", "--in", str(board), f"--to={to}", f"--out={paths[out]}"]
        if allow:
            argv.append("--allow-out-of-range")
        if unknown is not None:
            argv.append(unknown)
        assert_exit_contract(argv)
        if out != "new":
            assert board.read_bytes() == data
            assert sorted(p.name for p in work.iterdir()) == ["board.graph"]
