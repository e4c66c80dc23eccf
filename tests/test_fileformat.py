import random

import pytest

from distance_games import gadgets, graph
from distance_games import (
    Colour,
    FormatError,
    InvalidParameterError,
    Position,
    bigraph_node_kayles,
    gen_complete_bipartite,
    gen_gnp,
    gen_path,
    node_kayles,
    parse_graph,
    parse_ruleset_text,
    serialize,
    snort,
    to_dot,
)

from helpers import build_graph


class TestParse:
    def test_minimal(self):
        g, pos, rs = parse_graph("vertex a\nvertex b\nedge a b\n")
        assert g.vertex_count == 2 and g.edge_count == 1
        assert pos.stone_count == 0
        assert rs == snort()  # default when no ruleset line

    def test_ruleset_and_colours(self):
        text = "ruleset D=1,2 S=\nvertex a colour=B\nvertex b colour=R\n"
        g, pos, rs = parse_graph(text)
        assert rs.d == {1, 2} and rs.s == frozenset()
        assert pos.colour_at(0) is Colour.BLUE
        assert pos.colour_at(1) is Colour.RED

    def test_comments_and_blanks(self):
        g, _, _ = parse_graph("# header\n\nvertex a  # trailing\n")
        assert g.names == ("a",)

    def test_bigraph_owners(self):
        text = (
            "ruleset D=1 S=1\nvariant bigraph\n"
            "vertex a owner=L\nvertex b owner=R\nedge a b\n"
        )
        _, _, rs = parse_graph(text)
        assert rs == bigraph_node_kayles([0], [1])

    def test_bigraph_defaults_to_node_kayles_sets(self):
        text = "variant bigraph\nvertex a owner=L\n"
        _, _, rs = parse_graph(text)
        assert rs.d == {1} and rs.s == {1}

    def test_unknown_vertex_in_edge_has_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_graph("vertex a\nedge a b\n")
        assert err.value.line == 2

    def test_edge_before_its_vertex_fails_on_the_edge_line(self):
        with pytest.raises(FormatError) as err:
            parse_graph("vertex a\n# comment\nedge a b\nvertex b\n")
        assert err.value.line == 3
        assert "'b'" in str(err.value)

    def test_stones_past_index_64_match_placing_each(self):
        rng = random.Random(5)
        colours = {i: rng.choice(list(Colour)) for i in rng.sample(range(200), 70)}
        colours.update({64: Colour.BLUE, 65: Colour.RED, 199: Colour.BLUE})
        letter = {Colour.BLUE: "B", Colour.RED: "R"}
        text = "".join(
            f"vertex v{i}" + (f" colour={letter[colours[i]]}" if i in colours else "") + "\n"
            for i in range(200)
        )
        expected = Position()
        for i, colour in colours.items():
            expected = expected.place(i, colour)
        _, pos, _ = parse_graph(text)
        assert pos == expected
        assert pos.stone_count == len(colours)

    def test_invalid_colour_token(self):
        with pytest.raises(FormatError) as err:
            parse_graph("vertex a colour=G\n")
        assert err.value.line == 1

    def test_owner_without_bigraph_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_graph("vertex a owner=L\n")
        assert err.value.line == 1

    def test_bigraph_missing_owner_rejected(self):
        with pytest.raises(FormatError):
            parse_graph("variant bigraph\nvertex a owner=L\nvertex b\n")

    def test_bigraph_with_wrong_sets_rejected(self):
        with pytest.raises(FormatError):
            parse_graph("ruleset D=1,2 S=\nvariant bigraph\nvertex a owner=L\n")

    def test_unknown_directive(self):
        with pytest.raises(FormatError) as err:
            parse_graph("vertices a b\n")
        assert err.value.line == 1

    def test_duplicate_ruleset_line(self):
        with pytest.raises(FormatError):
            parse_graph("ruleset D=1 S=\nruleset D=1 S=\n")

    def test_duplicate_colour_attribute(self):
        with pytest.raises(FormatError) as err:
            parse_graph("vertex a\nvertex b colour=B colour=R\n")
        assert err.value.line == 2
        assert "duplicate colour attribute" in str(err.value)

    def test_duplicate_owner_attribute(self):
        with pytest.raises(FormatError) as err:
            parse_graph("variant bigraph\nvertex a owner=L owner=R\n")
        assert err.value.line == 2
        assert "duplicate owner attribute" in str(err.value)


class TestParseErrorPrecedence:
    """Each bad line is reported with its own message and line number."""

    @pytest.mark.parametrize("text, line, message", [
        ("vertex a\nedge a a\n", 2, "self-loop at 'a'"),
        ("vertex a\n\nvertex a\n", 3, "vertex 'a' already present"),
        ("vertex a\nedge x a\n", 2, "unknown vertex 'x'"),
        ("vertex a\nedge a x\n", 2, "unknown vertex 'x'"),
        # Both names unknown: the first one is named.
        ("vertex a\nedge x y\n", 2, "unknown vertex 'x'"),
        # An unknown name given twice is unknown before it is a self-loop.
        ("vertex a\nedge x x\n", 2, "unknown vertex 'x'"),
        # The first bad line wins over a later one.
        ("vertex a\nedge a a\nvertex a\n", 2, "self-loop at 'a'"),
        ("vertex a\nvertex a\nedge a a\n", 2, "vertex 'a' already present"),
    ])
    def test_message_and_line(self, text, line, message):
        with pytest.raises(FormatError) as err:
            parse_graph(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_edge_in_both_orientations_is_kept_once(self):
        g, _, _ = parse_graph("vertex a\nvertex b\nedge a b\nedge b a\nedge a b\n")
        assert g.edge_count == 1
        assert list(g.edges()) == [(0, 1)]


class TestParseBounds:
    """A board holds at most MAX_TARGET_VERTICES vertices and
    MAX_RANDOM_CORPUS_PAIRS edge lines, read when parse_graph is called."""

    @staticmethod
    def board(vertices, edge_lines):
        names = [f"v{i}" for i in range(vertices)]
        lines = [f"vertex {name}" for name in names]
        lines += [f"edge v0 v{1 + k % (vertices - 1)}" for k in range(edge_lines)]
        return "ruleset D=1 S=\n" + "\n".join(lines) + "\n"

    def test_vertices_at_and_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(gadgets, "MAX_TARGET_VERTICES", 5)
        g, _, _ = parse_graph(self.board(5, 3))
        assert g.vertex_count == 5
        with pytest.raises(FormatError) as err:
            parse_graph(self.board(6, 3))
        # The sixth vertex line is the seventh line of the board.
        assert err.value.line == 7
        assert str(err.value) == "line 7: more than 5 vertices, the bound on a board"

    def test_edge_lines_at_and_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_RANDOM_CORPUS_PAIRS", 6)
        # Repeated edges count as lines: 6 lines, 3 distinct edges.
        g, _, _ = parse_graph(self.board(4, 6))
        assert g.edge_count == 3
        with pytest.raises(FormatError) as err:
            parse_graph(self.board(4, 7))
        assert err.value.line == 12
        assert str(err.value) == "line 12: more than 6 edge lines, the bound on a board"


class TestStrayStones:
    """A stone past the last vertex is refused, not dropped from the output."""

    @pytest.mark.parametrize("write", [serialize, to_dot])
    def test_stone_past_the_last_vertex_is_named(self, write):
        with pytest.raises(InvalidParameterError, match="index 1 "):
            write(gen_path(1), Position(blue=0b110))
        with pytest.raises(InvalidParameterError, match="index 70 "):
            write(gen_path(3), Position(blue=0b1, red=1 << 70))

    @pytest.mark.parametrize("write, line", [
        (serialize, "vertex v1 colour=B\n"),
        (to_dot, '  "v1" [style="filled", fillcolor=blue, fontcolor=white];\n'),
    ])
    def test_stone_on_the_last_vertex_is_written(self, write, line):
        assert line in write(gen_path(2), Position(blue=0b10))


class TestRoundTrip:
    def test_fixpoint(self):
        text = "vertex b\nvertex a colour=B\nedge b a\nruleset D=2,1 S=\n"
        once = serialize(*parse_graph(text))
        twice = serialize(*parse_graph(once))
        assert once == twice

    def test_canonical_order(self):
        g, pos, rs = parse_graph("ruleset D=1 S=\nvertex a\nvertex b\nedge a b\n")
        assert serialize(g, pos, rs).splitlines() == [
            "ruleset D=1 S=",
            "variant distance",
            "vertex a",
            "vertex b",
            "edge a b",
        ]

    def test_bigraph_round_trip(self):
        g, bip = gen_complete_bipartite(2, 1)
        rs = bigraph_node_kayles(*bip)
        text = serialize(g, Position(), rs)
        assert serialize(*parse_graph(text)) == text

    def test_generated_graphs_round_trip(self):
        for seed in range(5):
            text = serialize(gen_gnp(6, 0.5, seed))
            assert serialize(*parse_graph(text)) == text


class TestSerializableNames:
    SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]

    def test_refuses_whitespace_and_hash(self):
        assert len(self.SPACES) > 20 and "\u3000" in self.SPACES
        for bad in self.SPACES + ["#"]:
            g = build_graph(["ok", f"a{bad}b"], [])
            with pytest.raises(FormatError) as err:
                serialize(g)
            assert str(err.value) == f"vertex name {'a' + bad + 'b'!r} is not serializable"

    def test_first_bad_name_is_named(self):
        g = build_graph(["a", "b c", "d#e"], [])
        with pytest.raises(FormatError, match="'b c'"):
            serialize(g)

    def test_accepts_every_other_code_point(self):
        refused = set(self.SPACES) | {"#"}
        name = "".join(chr(c) for c in range(0x110000) if chr(c) not in refused)
        g = build_graph([name, 'p"u\\n,c;t=é∀😀'], [])
        text = serialize(g)
        assert text.splitlines()[2] == f"vertex {name}"


class TestRulesetText:
    def test_parse_and_format(self):
        rs = parse_ruleset_text("D=1,3 S=")
        assert rs.d == {1, 3} and rs.s == frozenset()
        assert parse_ruleset_text("D=1 S=1") == node_kayles()

    def test_bad_text(self):
        with pytest.raises(FormatError):
            parse_ruleset_text("D=1")
        with pytest.raises(FormatError):
            parse_ruleset_text("D=x S=")


class TestDot:
    def test_empty_graph(self):
        from distance_games import Graph

        assert to_dot(Graph()) == "graph {\n}\n"

    def test_blue_stone_fill(self):
        g = gen_path(1)
        out = to_dot(g, Position().place(0, Colour.BLUE))
        assert "fillcolor=blue" in out and "filled" in out

    def test_edge_line(self):
        out = to_dot(gen_path(2))
        assert '"v0" -- "v1";' in out

    def test_highlight_dashed(self):
        out = to_dot(gen_path(1), highlight=["v0"])
        assert "dashed" in out
