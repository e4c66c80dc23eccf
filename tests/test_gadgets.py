import os
import subprocess
import sys
from pathlib import Path

import pytest

import distance_games
from distance_games import (
    Graph,
    InvalidParameterError,
    ParameterViolationError,
    Player,
    Position,
    check_gadget_lemma,
    forbidden_path,
    forbidden_vertex_gadget,
    gen_cycle,
    is_legal,
    reduce_bgnk_to_d12,
    reduce_bgnk_window,
    reduce_snort_family,
    stones_position,
)
from distance_games.gadgets import MAX_GADGET_SIZE, GadgetInstance, embed_gadget, splice_edges

from helpers import (
    bfs_distance, block_at, build_graph, gadget_view, has_edge, reference_forbidden_path,
)


def host_of(gadget) -> Graph:
    g = Graph()
    embed_gadget(g, gadget)
    return g.freeze()


def expected_counts(r: int) -> tuple[int, int]:
    # One shared segment of m edges, two branches of q edges, plus the
    # shortcut edge when r is even.
    if r % 2:
        q, m = (r + 1) // 2, (r - 1) // 2
    else:
        q, m = r // 2 + 1, r // 2 - 1
    return m + 2 * q + 1, m + 2 * q + (1 if r % 2 == 0 else 0)


class TestForbiddenVertexGadget:
    def test_r1_shape(self):
        f = forbidden_vertex_gadget(1)
        g = host_of(f)
        assert g.vertex_count == 3 and g.edge_count == 2
        assert bfs_distance(g, "g0.v", "g0.R") == 1
        assert bfs_distance(g, "g0.v", "g0.B") == 1
        assert bfs_distance(g, "g0.R", "g0.B") == 2

    def test_r2_shape(self):
        f = forbidden_vertex_gadget(2)
        g = host_of(f)
        assert g.vertex_count == 5 and g.edge_count == 5
        assert has_edge(g, "g0.x1", "g0.y1")  # the even-size shortcut
        assert bfs_distance(g, "g0.R", "g0.B") == 3

    def test_r3_no_shortcut(self):
        f = forbidden_vertex_gadget(3)
        g = host_of(f)
        assert not any(
            {f.vertices[a], f.vertices[b]} == {"g0.x1", "g0.y1"} for a, b in f.edges
        )
        assert bfs_distance(g, "g0.R", "g0.B") == 4

    @pytest.mark.parametrize("r", range(1, 9))
    def test_distance_arithmetic(self, r):
        f = forbidden_vertex_gadget(r)
        g = host_of(f)
        assert bfs_distance(g, "g0.v", "g0.R") == r
        assert bfs_distance(g, "g0.v", "g0.B") == r
        assert bfs_distance(g, "g0.R", "g0.B") == r + 1

    @pytest.mark.parametrize("r", range(1, 9))
    def test_counts_match_formula(self, r):
        f = forbidden_vertex_gadget(r)
        nv, ne = expected_counts(r)
        assert (len(f.vertices), len(f.edges)) == (nv, ne)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_every_uncoloured_vertex_near_both_stones(self, r):
        f = forbidden_vertex_gadget(r)
        g = host_of(f)
        for v in f.uncoloured:
            assert bfs_distance(g, v, "g0.R") <= r
            assert bfs_distance(g, v, "g0.B") <= r

    def test_invalid_size(self):
        with pytest.raises(InvalidParameterError):
            forbidden_vertex_gadget(0)


class TestForbiddenPath:
    def test_degenerate_single_copy(self):
        fp = forbidden_path(1, 3)
        assert fp.port("left") == fp.port("right")

    def test_fp22_counts(self):
        fp = forbidden_path(2, 2)
        assert len(fp.vertices) == 10  # two 5-vertex copies
        assert len(fp.edges) == 11     # one linking edge

    def test_port_to_port_distance(self):
        for t in (1, 2, 3):
            for r in (2, 3, 4):
                fp = forbidden_path(t, r)
                g = host_of(fp)
                assert bfs_distance(g, fp.port("left"), fp.port("right")) == t - 1

    def test_probe_to_probe_distance(self):
        fp = forbidden_path(3, 4)
        g = Graph()
        embed_gadget(g, fp)
        g.add_vertex("x")
        g.add_vertex("y")
        g.add_edge("x", fp.port("left"))
        g.add_edge("y", fp.port("right"))
        assert bfs_distance(g, fp.port("left"), fp.port("right")) == 2
        assert bfs_distance(g, "x", "y") == 4

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            forbidden_path(0, 2)
        with pytest.raises(InvalidParameterError):
            forbidden_path(2, 0)


class TestEdgeReplacement:
    def test_k2_single_hop(self):
        g = build_graph("ab", [("a", "b")])
        new, _ = splice_edges(g, 1, 1)
        assert bfs_distance(new, "a", "b") == 2
        assert not has_edge(new, "a", "b")

    def test_triangle_all_edges(self):
        g = gen_cycle(3)
        new, placements = splice_edges(g, 2, 3)
        assert len(placements) == 3
        for u in range(3):
            for v in range(u + 1, 3):
                assert bfs_distance(new, u, v) == 3
        # Disjoint copies, one after another, each under its own prefix.
        end = 3
        for gid, (first, shape) in enumerate(placements):
            assert first == end
            end += len(shape.vertices)
            assert new.names[first:end] == reference_forbidden_path(2, 3, f"g{gid}").vertices
        assert end == new.vertex_count

    def test_original_indices_preserved(self):
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        new, _ = splice_edges(g, 1, 2)
        for i, name in enumerate(g.names):
            assert new.index_of(name) == i

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_every_edge_or_none(self, r):
        g = build_graph("abcde", [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")])
        edges = list(g.edges())
        # t = 0 keeps every edge and places nothing.
        same, placements = splice_edges(g, 0, r)
        assert (same.names, list(same.edges()), placements) == (g.names, edges, [])
        for t in (1, 3):
            new, placements = splice_edges(g, t, r)
            assert len(placements) == len(edges)
            # No source edge survives, and copy k joins the ends of edge k.
            for (i, j), (first, shape) in zip(edges, placements):
                assert not has_edge(new, i, j)
                assert has_edge(new, i, first + shape.port("left"))
                assert has_edge(new, first + shape.port("right"), j)
                assert bfs_distance(new, i, j) == t + 1


class TestGadgetLemmaCheck:
    def test_f2_under_d_interval(self):
        report = check_gadget_lemma(forbidden_vertex_gadget(2), {1, 2}, set())
        assert report.passed

    def test_f4_roles_swapped(self):
        report = check_gadget_lemma(forbidden_vertex_gadget(4), {1, 2}, {1, 2, 3, 4})
        assert report.passed

    def test_hypothesis_too_small(self):
        with pytest.raises(ParameterViolationError, match="need d or s equal to"):
            check_gadget_lemma(forbidden_vertex_gadget(3), {1, 2}, set())

    def test_gadget_without_radius_rejected(self):
        with pytest.raises(ParameterViolationError, match="gadget carries no blocking radius"):
            check_gadget_lemma(TestStonesAndPortsArePositions.build(), {1}, set())

    def test_hypothesis_superset_rejected(self):
        with pytest.raises(ParameterViolationError, match="need d or s equal to"):
            check_gadget_lemma(forbidden_vertex_gadget(2), {1, 2}, {1, 2, 3})

    @pytest.mark.parametrize("r", range(1, MAX_GADGET_SIZE + 1))
    def test_lemma_holds_at_every_size(self, r):
        # The reductions build blockers up to the cap, so the lemma is
        # checked at every size they can ask for.
        full, one = frozenset(range(1, r + 1)), frozenset({1})
        forms = [(full, frozenset()), (frozenset(), full), (full, full), (full, one), (one, full)]
        for gadget, checked in ((forbidden_vertex_gadget(r), forms),
                                (forbidden_path(2, r), forms[:2])):
            for d, s in checked:
                report = check_gadget_lemma(gadget, d, s)
                assert report.passed, (r, sorted(d), sorted(s), report.lines())

    def test_forbidden_path_checks_too(self):
        report = check_gadget_lemma(forbidden_path(2, 3), {1, 2, 3}, {1})
        assert report.passed

    def test_port_vertex_actually_unplayable(self):
        f = forbidden_vertex_gadget(2)
        g = host_of(f)
        from distance_games import distance_game

        rs = distance_game({1, 2}, set())
        pos = stones_position([(0, f)])
        for player in (Player.LEFT, Player.RIGHT):
            assert not is_legal(g, rs, pos, "g0.v", player)

    def test_broken_gadget_detected(self):
        # Drop the blue stone: the port stays blockable only for one colour.
        f = forbidden_vertex_gadget(2)
        broken = type(f)(
            vertices=f.vertices,
            edges=f.edges,
            stones=Position(red=f.stones.red),
            ports=f.ports,
            radius=f.radius,
        )
        report = check_gadget_lemma(broken, {1, 2}, set())
        assert not report.passed
        # The lemma host names the copy as the CLI board does, under g0.
        assert report.checks[0].detail == "g0.v playable by RIGHT"

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_stone_near_a_probe_detected(self, r):
        # An extra red stone .S joined to the port is two steps from the
        # port's probe, inside the forbidden radius r.
        f = forbidden_vertex_gadget(r)
        n = len(f.vertices)
        near = GadgetInstance(
            vertices=f.vertices + (".S",),
            edges=f.edges + ((f.port("v"), n),),
            stones=f.stones.place(n, Player.RIGHT),
            ports=f.ports,
            radius=r,
        )
        check = check_gadget_lemma(near, range(1, r + 1), ()).checks[2]
        assert (check.name, check.passed) == ("probes-unaffected", False)
        assert check.detail == "probe.v.0 at distance 2 from stone g0.S"


class TestStonesAndPortsArePositions:
    """Stones must be a `Position` over the gadget's positions and a port an
    int position of its vertices; anything else is refused on construction,
    also under `python -O`."""

    # Each refused value: its id, the field it is given for, its source text
    # (so that the `python -O` case builds the same ones) and the message.
    BAD = [
        ("past-end-stone", "stones", "Position(red=1 << 3)",
         "gadget stone at vertex index 3 is past the last vertex (the graph has 3)"),
        ("negative-stone", "stones", "Position(red=-1)", "stone masks must be >= 0"),
        ("both-colours-stone", "stones", "Position(blue=0b100, red=0b100)",
         "a vertex cannot hold both colours"),
        ("pairs-stone", "stones", "((2, 'R'),)", "gadget stones ((2, 'R'),) are not a Position"),
        ("name-stone", "stones", "'g0.R'", "gadget stones 'g0.R' are not a Position"),
        ("bool-stone", "stones", "True", "gadget stones True are not a Position"),
        ("past-end-port", "port", "3", "gadget port 3 is not a position of its 3 vertices"),
        ("negative-port", "port", "-1", "gadget port -1 is not a position of its 3 vertices"),
        ("name-port", "port", "'g0.v'", "gadget port 'g0.v' is not a position of its 3 vertices"),
        ("bool-port", "port", "True", "gadget port True is not a position of its 3 vertices"),
    ]

    @staticmethod
    def build(stones=Position(red=0b100), port=0):
        return GadgetInstance(
            vertices=("g0.v", "g0.c1", "g0.R"),
            edges=((0, 1), (1, 2)),
            stones=stones,
            ports=(("v", port),),
        )

    def test_positions_accepted(self):
        gadget = self.build()
        assert (gadget.port("v"), gadget.uncoloured) == (0, (0, 1))

    def test_unknown_port_role_refused(self):
        with pytest.raises(InvalidParameterError, match="gadget has no port 'nope'"):
            self.build().port("nope")

    @pytest.mark.parametrize("where, text, message", [b[1:] for b in BAD],
                             ids=[b[0] for b in BAD])
    def test_refused(self, where, text, message):
        with pytest.raises(InvalidParameterError) as err:
            self.build(**{where: eval(text)})
        assert str(err.value) == message

    def test_refused_under_python_O(self):
        code = (
            "from distance_games import GadgetInstance, InvalidParameterError, Position\n"
            "refused = 0\n"
            f"for where, text in {[b[1:3] for b in self.BAD]!r}:\n"
            "    try:\n"
            "        kw = {'stones': Position(red=0b100), 'port': 0, where: eval(text)}\n"
            "        GadgetInstance(('a', 'b', 'c'), ((0, 1), (1, 2)),\n"
            "                       kw['stones'], (('v', kw['port']),))\n"
            "    except InvalidParameterError:\n"
            "        refused += 1\n"
            "print(refused, __debug__)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(distance_games.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == [str(len(self.BAD)), "False"]

    def test_reduced_stones_sit_on_their_gadgets(self):
        # Position p of a copy is target index first + p, so each copy's
        # block of the target holds exactly its shape's stones, and the
        # blue and red stones are the vertices whose names end in ".B" and
        # ".R".
        path = build_graph("abc", [("a", "b"), ("b", "c")])
        for ri in (reduce_snort_family(gen_cycle(5), 3),
                   reduce_bgnk_window(path, ["a", "c"], ["b"], {1, 2}, 3),
                   reduce_bgnk_to_d12(path, ["a", "c"], ["b"]),
                   reduce_bgnk_to_d12(path, ["a", "c"], ["b"], {1})):
            g, pos = ri.target_graph, ri.initial_position
            for first, shape in ri.gadgets:
                _, _, placed = block_at(g, pos, first, len(shape.vertices))
                assert placed == shape.stones
            named = [sum(1 << i for i, name in enumerate(g.names) if name.endswith(end))
                     for end in (".B", ".R")]
            assert pos == Position(*named)


class TestFreshNaming:
    def test_instances_disjoint_in_one_graph(self):
        g = Graph()
        shape = forbidden_vertex_gadget(3)
        embed_gadget(g, shape)
        embed_gadget(g, shape, "g1")  # a name clash would be refused
        assert g.names == tuple(f"g{k}{v}" for k in range(2) for v in shape.vertices)


class TestRenamedCopies:
    """A copy in a host graph is its shape's names under the copy's prefix,
    at its placement; everything else it shares with the shape."""

    PREFIXES = ("g0", "g17", "x.y", "é")

    @pytest.mark.parametrize("t", range(1, 9))
    @pytest.mark.parametrize("r", range(1, 9))
    def test_renamed_shape_equals_fresh_copies(self, t, r):
        # Dataclass equality: vertices, edges, stones, ports, radius and
        # span; the shape's names carry no prefix.
        shape = forbidden_path(t, r)
        assert shape == reference_forbidden_path(t, r)
        for prefix in self.PREFIXES:
            expected = reference_forbidden_path(t, r, prefix)
            host = build_graph(["host0"], [])
            first = embed_gadget(host, shape, prefix)
            assert first == 1
            pos = stones_position([(first, shape)])
            assert block_at(host, pos, first, len(shape.vertices)) == gadget_view(expected)

    @pytest.mark.parametrize("t", range(1, 9))
    @pytest.mark.parametrize("r", range(1, 9))
    def test_copies_share_the_local_edges_of_their_shape(self, t, r):
        # Every copy a splice places is the one cached shape; its copies
        # follow one another, each as long as the shape.
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        new, paths = splice_edges(g, t, r)
        shape = forbidden_path(t, r)
        assert all(placed is shape for _, placed in paths)
        size = len(shape.vertices)
        assert [first for first, _ in paths] == [3, 3 + size]
        assert new.vertex_count == 3 + 2 * size

    def test_forbidden_path_is_cached_and_bounded(self):
        assert forbidden_path(2, 3) is forbidden_path(2, 3)
        assert forbidden_path.cache_info().maxsize == 16
        with pytest.raises(InvalidParameterError):
            forbidden_path(0, 3)

    @pytest.mark.parametrize("t, r", [(1, 1), (2, 3), (3, 4)])
    def test_spliced_paths_equal_fresh_copies(self, t, r):
        g = build_graph("abcd", [("a", "b"), ("b", "c"), ("a", "d")])
        new, paths = splice_edges(g, t, r)
        pos = stones_position(paths)
        for gid, ((i, j), (first, shape)) in enumerate(zip(g.edges(), paths)):
            expected = reference_forbidden_path(t, r, f"g{gid}")
            assert block_at(new, pos, first, len(shape.vertices)) == gadget_view(expected)
            # Copy g{gid} stands in for edge (i, j).
            assert has_edge(new, i, first + expected.port("left"))
            assert has_edge(new, first + expected.port("right"), j)

    def test_window_anchors_equal_fresh_copies(self):
        g = build_graph("abc", [("a", "b"), ("c", "b")])
        ri = reduce_bgnk_window(g, ["a", "c"], ["b"], {1, 2}, 3)
        new, pos = ri.target_graph, ri.initial_position
        # g0, g1 are the spliced edges, g2, g3 and g5 the anchors of a, c
        # and b, and g4, g6 the two shared stones.
        expected = {0: (1, None), 1: (1, None), 2: (2, "a"), 3: (2, "c"), 5: (2, "b")}
        shared = {4: ("R", Position(red=1)), 6: ("B", Position(blue=1))}
        assert len(ri.gadgets) == len(expected) + len(shared)
        for gid, (first, shape) in enumerate(ri.gadgets):
            view = block_at(new, pos, first, len(shape.vertices))
            if gid in shared:
                letter, stones = shared[gid]
                assert view == ((f"g{gid}.{letter}",), set(), stones)
                continue
            t, anchored = expected[gid]
            fresh = reference_forbidden_path(t, 3, f"g{gid}")
            assert view == gadget_view(fresh)
            if anchored is not None:
                assert has_edge(new, anchored, first + fresh.port("left"))
