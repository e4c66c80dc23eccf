import dataclasses

import pytest

from distance_games import (
    REDUCTIONS,
    GadgetInstance,
    InvalidParameterError,
    ParameterViolationError,
    Player,
    Position,
    ReducedInstance,
    bigraph_node_kayles,
    col,
    distance_game,
    gen_cycle,
    gen_path,
    is_legal,
    node_kayles,
    position_is_legal,
    reduce_bgnk_to_d12,
    reduce_bgnk_window,
    reduce_col_family,
    reduce_node_kayles_equalmax,
    reduce_snort_family,
    serialize,
    snort,
)

from distance_games import reductions
from distance_games.gadgets import MAX_GADGET_SIZE
from distance_games.reductions import source_kind
from helpers import bfs_distance, build_graph, has_edge, stones

L, R = Player.LEFT, Player.RIGHT


def single_edge_bipartite():
    g = build_graph("ab", [("a", "b")])
    return g, [0], [1]


def shared_stone(ri, player):
    """Target index of the bgnk-window stone of one player's colour: the
    one-vertex copy that holds it."""
    stone = Position().place(0, player)
    return next(first for first, shape in ri.gadgets
                if len(shape.vertices) == 1 and shape.stones == stone)


class TestBgnkToD12:
    def test_empty_s_variant_shape(self):
        g, left, right = single_edge_bipartite()
        ri = reduce_bgnk_to_d12(g, left, right, s=frozenset())
        assert ri.target_graph.vertex_count == 10  # 2 + two 4-vertex anchors
        assert ri.target_ruleset == distance_game({1, 2}, set())
        assert ri.source_ruleset.ownership is not None
        # Right is locked out of the left side by the blue stone two away.
        assert not is_legal(ri.target_graph, ri.target_ruleset, ri.initial_position, "a", R)
        assert is_legal(ri.target_graph, ri.target_ruleset, ri.initial_position, "a", L)

    def test_s_one_variant_shape(self):
        g, left, right = single_edge_bipartite()
        ri = reduce_bgnk_to_d12(g, left, right, s=frozenset({1}))
        assert ri.target_graph.vertex_count == 6  # 2 + two 2-vertex anchors
        assert ri.target_ruleset == distance_game({1, 2}, {1})
        for player in (L, R):
            assert not is_legal(
                ri.target_graph, ri.target_ruleset, ri.initial_position, "g0.v", player
            )

    def test_empty_side_omits_its_anchor(self):
        g = build_graph("b", [])
        ri = reduce_bgnk_to_d12(g, [], [0], s=frozenset())
        assert len(ri.gadgets) == 1
        # The right side's anchor: a red stone next to its attachment, named
        # under the first prefix.
        first, shape = ri.gadgets[0]
        assert shape.stones == Position(blue=1 << 3, red=1 << 1)
        assert ri.target_graph.names[first:] == ("g0.v2", "g0.R", "g0.v1", "g0.B")
        assert has_edge(ri.target_graph, "b", first + shape.port("attach"))

    def test_other_s_rejected(self):
        g, left, right = single_edge_bipartite()
        with pytest.raises(ParameterViolationError):
            reduce_bgnk_to_d12(g, left, right, s=frozenset({2}))

    def test_not_bipartite_rejected(self):
        g = build_graph("ab", [("a", "b")])
        with pytest.raises(InvalidParameterError, match="edge 'a' -- 'b' stays inside one side"):
            reduce_bgnk_to_d12(g, [0, 1], [], s=frozenset())
        with pytest.raises(InvalidParameterError, match="sides do not cover every vertex"):
            reduce_bgnk_to_d12(g, [0], [], s=frozenset())
        with pytest.raises(InvalidParameterError, match="sides overlap"):
            reduce_bgnk_to_d12(g, [0], [0, 1], s=frozenset())


class TestSnortFamily:
    def test_k2_n3(self):
        g = build_graph("ab", [("a", "b")])
        ri = reduce_snort_family(g, 3)
        assert bfs_distance(ri.target_graph, "a", "b") == 3
        assert ri.target_ruleset == distance_game({1, 2, 3}, set())
        assert ri.source_ruleset == snort()

    def test_k2_n3_with_s(self):
        g = build_graph("ab", [("a", "b")])
        ri = reduce_snort_family(g, 3, {1, 2})
        assert ri.target_ruleset == distance_game({1, 2, 3}, {1, 2})

    def test_s_at_n_rejected(self):
        g = build_graph("ab", [("a", "b")])
        with pytest.raises(ParameterViolationError):
            reduce_snort_family(g, 2, {2})

    def test_degenerate_identity(self):
        g = build_graph("ab", [("a", "b")])
        ri = reduce_snort_family(g, 1)
        assert ri.target_ruleset == snort()
        assert ri.target_graph.vertex_count == 2
        assert ri.gadgets == ()
        assert ri.initial_position == Position()


class TestEqualMax:
    def test_triangle_full_sets(self):
        g = gen_cycle(3)
        ri = reduce_node_kayles_equalmax(g, {1, 2, 3}, {1, 2, 3})
        for u in range(3):
            for v in range(u + 1, 3):
                assert bfs_distance(ri.target_graph, u, v) == 3

    def test_partial_other_set_accepted(self):
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        ri = reduce_node_kayles_equalmax(g, {1, 3}, {1, 2, 3})
        assert ri.target_ruleset == distance_game({1, 3}, {1, 2, 3})

    def test_unequal_maxima_rejected(self):
        g = build_graph("ab", [("a", "b")])
        with pytest.raises(ParameterViolationError):
            reduce_node_kayles_equalmax(g, {1, 2}, {1, 3})

    def test_no_full_interval_rejected(self):
        g = build_graph("ab", [("a", "b")])
        with pytest.raises(ParameterViolationError):
            reduce_node_kayles_equalmax(g, {1, 3}, {2, 3})

    def test_degenerate_identity(self):
        g = build_graph("ab", [("a", "b")])
        ri = reduce_node_kayles_equalmax(g, {1}, {1})
        assert ri.target_ruleset == node_kayles()
        assert ri.gadgets == ()


class TestColFamily:
    def test_k2(self):
        g = build_graph("ab", [("a", "b")])
        ri = reduce_col_family(g, 2)
        assert bfs_distance(ri.target_graph, "a", "b") == 2
        assert ri.target_ruleset == distance_game(set(), {1, 2})

    def test_k3_with_d(self):
        g = build_graph("ab", [("a", "b")])
        ri = reduce_col_family(g, 3, {1, 2})
        assert ri.target_ruleset == distance_game({1, 2}, {1, 2, 3})

    def test_d_at_k_rejected(self):
        g = build_graph("ab", [("a", "b")])
        with pytest.raises(ParameterViolationError):
            reduce_col_family(g, 2, {2})


class TestBgnkWindow:
    def test_k2_n3_k4_distances(self):
        g, left, right = single_edge_bipartite()
        ri = reduce_bgnk_window(g, left, right, d={1, 2, 3}, k=4)
        assert bfs_distance(ri.target_graph, "a", "b") == 3
        shared_red = shared_stone(ri, R)
        assert bfs_distance(ri.target_graph, "a", shared_red) == 4
        pos = ri.initial_position
        assert is_legal(ri.target_graph, ri.target_ruleset, pos, "a", L)
        assert not is_legal(ri.target_graph, ri.target_ruleset, pos, "a", R)

    def test_same_side_separation_through_shared_stone(self):
        g = build_graph("xzy", [])
        g.add_edge("x", "y")
        g.add_edge("z", "y")
        ri = reduce_bgnk_window(g, ["x", "z"], ["y"], d={1, 2, 3}, k=5)
        shared_red = shared_stone(ri, R)
        # Through the shared stone the two left vertices are 2k apart,
        # and through the spliced edges 2n; both exceed k here.
        assert bfs_distance(ri.target_graph, "x", shared_red) == 5
        assert bfs_distance(ri.target_graph, "z", shared_red) == 5
        assert bfs_distance(ri.target_graph, "x", "z") == 6  # 2n via y

    def test_out_of_range_guard_and_override(self):
        g, left, right = single_edge_bipartite()
        with pytest.raises(ParameterViolationError):
            reduce_bgnk_window(g, left, right, d={1, 2}, k=4)
        ri = reduce_bgnk_window(g, left, right, d={1, 2}, k=4, allow_out_of_range=True)
        assert ri.target_ruleset == distance_game({1, 2}, {1, 2, 3, 4})

    def test_n_must_exceed_one(self):
        g, left, right = single_edge_bipartite()
        with pytest.raises(ParameterViolationError):
            reduce_bgnk_window(g, left, right, d={1}, k=3)


class TestInstanceShape:
    @pytest.fixture
    def instances(self):
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        gb, left, right = build_graph("ab", [("a", "b")]), [0], [1]
        return [
            reduce_snort_family(g, 2),
            reduce_col_family(g, 2),
            reduce_node_kayles_equalmax(g, {1, 2}, {1, 2}),
            reduce_bgnk_to_d12(gb, left, right, s=frozenset()),
            reduce_bgnk_window(gb, left, right, d={1, 2, 3}, k=4),
        ]

    def test_embedding_is_identity_on_names(self, instances):
        for ri in instances:
            for idx, name in enumerate(ri.source_graph.names):
                assert ri.target_graph.index_of(name) == idx

    def test_target_must_start_with_the_source_names_in_order(self):
        src = build_graph("ab", [("a", "b")])

        def instance(target_names, gadgets=()):
            return ReducedInstance(src, snort(), build_graph(target_names, []), snort(),
                                   Position(), gadgets)

        one = GadgetInstance(("x",), (), Position(), ())
        assert instance("abx", [(2, one)]).target_graph.names == ("a", "b", "x")
        for names in ("ba", "xab", "a", ""):
            with pytest.raises(InvalidParameterError):
                instance(names)

    def test_gadgets_must_tile_the_rest_of_the_target(self):
        src = build_graph("ab", [("a", "b")])
        one = GadgetInstance(("x",), (), Position(), ())
        two = GadgetInstance(("x", "y"), (), Position(), ())

        def instance(target_names, gadgets):
            return ReducedInstance(src, snort(), build_graph(target_names, []), snort(),
                                   Position(), gadgets)

        assert instance("ab", ()).gadgets == ()
        assert len(instance("abxyz", [(2, two), (4, one)]).gadgets) == 2
        for names, gadgets, why in [
            # No copy, one vertex past the source.
            ("abx", (), "end at target index 2, not at the target's 3"),
            # A copy that skips a vertex, overlaps the one before, or
            # starts inside the source.
            ("abxy", [(3, one)], "starts at target index 3, not at 2"),
            ("abxyz", [(2, two), (3, two)], "starts at target index 3, not at 4"),
            ("abxy", [(1, one), (2, two)], "starts at target index 1, not at 2"),
            # Copies that stop short of the last vertex, or run past it.
            ("abxyz", [(2, two)], "end at target index 4, not at the target's 5"),
            ("abx", [(2, two)], "end at target index 4, not at the target's 3"),
        ]:
            with pytest.raises(InvalidParameterError, match=why):
                instance(names, gadgets)

    def test_stones_must_lie_on_the_target(self):
        ri = reduce_snort_family(gen_path(3), 2)
        n = ri.target_graph.vertex_count
        assert dataclasses.replace(ri, initial_position=Position(red=1 << n - 1))
        with pytest.raises(InvalidParameterError) as err:
            dataclasses.replace(ri, initial_position=Position(blue=1, red=1 << n))
        assert str(err.value) == (
            f"stone at vertex index {n} is past the last vertex (the graph has {n})"
        )

    def test_initial_position_is_legal(self, instances):
        for ri in instances:
            assert position_is_legal(ri.target_graph, ri.target_ruleset, ri.initial_position)

    def test_every_stone_inside_a_gadget(self, instances):
        for ri in instances:
            inside = {first + p for first, shape in ri.gadgets
                      for p in range(len(shape.vertices))}
            for i, _ in stones(ri.initial_position):
                assert i in inside

    def test_originals_initially_legal_for_permitted_players(self, instances):
        for ri in instances:
            ownership = ri.source_ruleset.ownership
            for name in ri.source_graph.names:
                src_idx = ri.source_graph.index_of(name)
                players = [L, R] if ownership is None else (
                    [L] if ownership.left >> src_idx & 1 else [R]
                )
                for player in players:
                    assert is_legal(
                        ri.target_graph, ri.target_ruleset,
                        ri.initial_position, name, player,
                    ), (name, player, ri.target_ruleset)

    def test_gadget_vertices_initially_illegal(self, instances):
        for ri in instances:
            for first, shape in ri.gadgets:
                for p in shape.uncoloured:
                    for player in (L, R):
                        assert not is_legal(
                            ri.target_graph, ri.target_ruleset,
                            ri.initial_position, first + p, player,
                        )

    def test_edge_distance_postconditions(self):
        # Former edge endpoints must land at exactly the stretch each
        # construction promises: n for the cross-colour and two-sided
        # families, m for equal-max, k for the same-colour family.
        g = build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        cases = [
            (reduce_snort_family(g, 3, {1}), 3),
            (reduce_node_kayles_equalmax(g, {1, 2}, {2}), 2),
            (reduce_col_family(g, 3, {2}), 3),
        ]
        bip = build_graph("lLrR", [])
        bip.add_edge("l", "r")
        bip.add_edge("L", "r")
        bip.add_edge("L", "R")
        cases.append((reduce_bgnk_window(bip, ["l", "L"], ["r", "R"], d={1, 2, 3}, k=5), 3))
        for ri, stretch in cases:
            for i, j in ri.source_graph.edges():
                u, v = ri.source_graph.name_of(i), ri.source_graph.name_of(j)
                assert bfs_distance(ri.target_graph, u, v) == stretch, (u, v, stretch)

    def test_window_anchor_stone_distances(self):
        g = build_graph("ab", [("a", "b")])
        ri = reduce_bgnk_window(g, [0], [1], d={1, 2}, k=3)
        red, blue = shared_stone(ri, R), shared_stone(ri, L)
        assert bfs_distance(ri.target_graph, "a", red) == 3
        assert bfs_distance(ri.target_graph, "b", blue) == 3

    def test_stone_colours_balanced_in_blockers(self, instances):
        for ri in instances:
            for _, shape in ri.gadgets:
                if shape.radius is not None:
                    assert shape.stones.blue.bit_count() == shape.stones.red.bit_count()

    def test_deterministic_serialization(self):
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        one = reduce_snort_family(g, 3, {1})
        two = reduce_snort_family(g, 3, {1})
        assert serialize(one.target_graph, one.initial_position, one.target_ruleset) == \
            serialize(two.target_graph, two.initial_position, two.target_ruleset)

    def test_polynomial_size(self):
        # |V'| = |V| + |E| * t * size(F(r)) for the edge-splicing families,
        # plus |V| * (k-1) * size(F(k)) + shared stones for the window form.
        def f_size(r):
            q, m = ((r + 1) // 2, (r - 1) // 2) if r % 2 else (r // 2 + 1, r // 2 - 1)
            return m + 2 * q + 1

        g = gen_cycle(3)
        ri = reduce_node_kayles_equalmax(g, {1, 2, 3}, {1, 2, 3})
        assert ri.target_graph.vertex_count == 3 + 3 * 2 * f_size(3)
        ri = reduce_snort_family(g, 4)
        assert ri.target_graph.vertex_count == 3 + 3 * 3 * f_size(4)
        ri = reduce_col_family(g, 2)
        assert ri.target_graph.vertex_count == 3 + 3 * 1 * f_size(2)

        gb = build_graph("ab", [("a", "b")])
        ri = reduce_bgnk_window(gb, [0], [1], d={1, 2, 3}, k=4)
        expected = 2 + 1 * 2 * f_size(4) + 2 * 3 * f_size(4) + 2
        assert ri.target_graph.vertex_count == expected


class TestRegistryBuild:
    # The module-level function each spec builds through; perfbench's tracer
    # wraps these names on `reductions` and counts every build.
    FUNCTIONS = {
        "bgnk-d12": ("reduce_bgnk_to_d12", {"s": frozenset()}),
        "snort-family": ("reduce_snort_family", {"n": 2}),
        "node-kayles-equalmax": ("reduce_node_kayles_equalmax",
                                 {"d": frozenset({1, 2}), "s": frozenset({1, 2})}),
        "col-family": ("reduce_col_family", {"k": 2}),
        "bgnk-window": ("reduce_bgnk_window", {"d": frozenset({1, 2}), "k": 3}),
    }

    def test_every_reduction_listed(self):
        assert set(self.FUNCTIONS) == set(REDUCTIONS)

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_build_calls_module_function_at_call_time(self, monkeypatch, name):
        attr, params = self.FUNCTIONS[name]
        original = getattr(reductions, attr)
        calls = []

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result)
            return result

        monkeypatch.setattr(reductions, attr, counting)
        g, left, right = single_edge_bipartite()
        spec = REDUCTIONS[name]
        ri = spec.build(g, (left, right) if spec.bipartite else None, params)
        assert len(calls) == 1 and calls[0] is ri

    @pytest.mark.parametrize("params, message", [
        ({"n": 2, "k": 3, "zz": 1}, r"snort-family takes \['n', 's'\], each with values; got k="),
        ({"s": frozenset()}, r"snort-family needs parameter\(s\) n"),
        ({}, r"snort-family needs parameter\(s\) n"),
    ])
    def test_build_refuses_what_check_params_refuses(self, params, message):
        with pytest.raises(InvalidParameterError, match=message):
            REDUCTIONS["snort-family"].build(build_graph("abc", [("a", "b"), ("b", "c")]),
                                             None, params)


class TestSourceKind:
    @pytest.mark.parametrize("rs, kind", [
        (snort(), "snort"), (col(), "col"), (node_kayles(), "node-kayles"),
        # Equal rulesets built separately name the same kind.
        (distance_game([1], []), "snort"), (distance_game([], [1]), "col"),
        (distance_game([1], [1]), "node-kayles"),
        (bigraph_node_kayles([0], [1]), "bgnk"),
        (distance_game([1, 2], []), None),
    ])
    def test_kind(self, rs, kind):
        assert source_kind(rs) == kind


OVER_CAP = MAX_GADGET_SIZE + 1


class TestBoundsCapped:
    """Reduction bounds above the gadget cap are refused even when the source
    has no edge to splice, before any target ruleset is built."""

    @pytest.mark.parametrize("build", [
        lambda g: reduce_snort_family(g, OVER_CAP),
        lambda g: reduce_col_family(g, OVER_CAP),
        lambda g: reduce_node_kayles_equalmax(g, range(1, OVER_CAP + 1), {OVER_CAP}),
        lambda g: reduce_bgnk_window(g, range(g.vertex_count), [], d={1, 2}, k=OVER_CAP,
                                     allow_out_of_range=True),
    ], ids=["snort-family", "col-family", "node-kayles-equalmax", "bgnk-window"])
    @pytest.mark.parametrize("names", ["", "ab"], ids=["empty", "edgeless"])
    def test_over_cap_refused_on_edgeless_graph(self, build, names):
        g = build_graph(names, [])
        with pytest.raises(InvalidParameterError, match=str(OVER_CAP)):
            build(g)

    def test_cap_itself_accepted_on_edgeless_graph(self):
        g = build_graph("ab", [])
        ri = reduce_snort_family(g, MAX_GADGET_SIZE)
        assert ri.target_ruleset == distance_game(range(1, MAX_GADGET_SIZE + 1), ())
        assert ri.target_graph.vertex_count == 2 and not ri.gadgets
