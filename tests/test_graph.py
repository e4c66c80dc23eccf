import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from distance_games import (
    CorpusTooLargeError,
    DuplicateVertexError,
    FrozenGraphError,
    Graph,
    InvalidParameterError,
    Player,
    Position,
    SelfLoopError,
    UnknownVertexError,
    all_labelled_bipartite,
    forbidden_path,
    all_labelled_graphs,
    gen_complete_bipartite,
    gen_cycle,
    gen_gnp,
    gen_path,
    gen_random_bipartite,
    is_legal,
    node_kayles,
    serialize,
)
from distance_games.gadgets import embed_gadget, path_shape

from helpers import ball_distances, bfs_distance, build_graph, graph_from_edge_mask


class TestConstruction:
    def test_first_insertion_gets_index_zero(self):
        g = Graph()
        assert g.add_vertex("a") == 0

    def test_sequential_indexing(self):
        g = build_graph(["a"], [])
        assert g.add_vertex("b") == 1

    def test_duplicate_name_rejected(self):
        g = build_graph(["a"], [])
        with pytest.raises(DuplicateVertexError):
            g.add_vertex("a")

    def test_edge_count_and_idempotence(self):
        g = build_graph(["a", "b"], [])
        g.add_edge("a", "b")
        assert g.edge_count == 1
        g.add_edge("b", "a")
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        g = build_graph(["a"], [])
        with pytest.raises(SelfLoopError):
            g.add_edge("a", "a")

    def test_unknown_vertex_rejected(self):
        g = build_graph(["a"], [])
        with pytest.raises(UnknownVertexError):
            g.add_edge("a", "b")

    def test_freeze_blocks_mutation(self):
        g = build_graph(["a", "b"], [("a", "b")]).freeze()
        with pytest.raises(FrozenGraphError):
            g.add_vertex("c")
        with pytest.raises(FrozenGraphError):
            g.add_edge("a", "b")
        assert g.copy().add_vertex("c") == 2  # copies thaw


class TestAddBlock:
    def test_returns_first_index_and_offsets_pairs(self):
        g = build_graph("xy", [("x", "y")])
        assert g.add_block(["a", "b", "c"], [(0, 1), (2, 1)]) == 2
        assert g.names == ("x", "y", "a", "b", "c")
        assert list(g.edges()) == [(0, 1), (2, 3), (3, 4)]
        assert g.neighbors("b") == (2, 4)
        assert g.has_edge("c", "b") and not g.has_edge("c", "a")

    def test_edges_added_in_any_order_stay_sorted(self):
        pairs = list(itertools.combinations(range(4), 2))
        for order in itertools.permutations(pairs):
            g = build_graph("abcd", [])
            for k, (i, j) in enumerate(order):
                g.add_edge(*((i, j) if k % 2 else (j, i)))
            assert list(g.edges()) == pairs
            assert all(g.neighbors(v) == tuple(w for w in range(4) if w != v)
                       for v in range(4))

    def test_repeated_pair_adds_one_edge(self):
        g = Graph()
        g.add_block("ab", [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert g.neighbors("a") == (1,)

    @pytest.mark.parametrize("names, pairs, error", [
        (["a", "x"], [], DuplicateVertexError),     # already in the graph
        (["a", "b", "a"], [], DuplicateVertexError),  # twice in the block
        (["a", ""], [], InvalidParameterError),
        (["a", "b"], [(0, 2)], UnknownVertexError),
        (["a", "b"], [(-1, 0)], UnknownVertexError),
        (["a", "b"], [(0, 1), (1, 1)], SelfLoopError),
    ])
    def test_errors_leave_the_graph_unchanged(self, names, pairs, error):
        g = build_graph("xy", [("x", "y")])
        with pytest.raises(error):
            g.add_block(names, pairs)
        assert (g.names, list(g.edges())) == (("x", "y"), [(0, 1)])
        assert not g.has_vertex("a")

    def test_frozen_graph_rejects_a_block(self):
        g = build_graph("x", []).freeze()
        with pytest.raises(FrozenGraphError):
            g.add_block(["a"])

    @pytest.mark.parametrize("t", range(1, 9))
    @pytest.mark.parametrize("r", range(1, 9))
    def test_embed_equals_per_edge_construction(self, t, r):
        # A renamed copy, as the reductions embed, and a path built afresh.
        for gadget in (path_shape(t, r).renamed("g7"), forbidden_path(t, r)):
            self.check_embed(gadget)

    @staticmethod
    def check_embed(gadget):
        block = build_graph(["host0", "host1"], [("host0", "host1")])
        embed_gadget(block, gadget)
        per_edge = build_graph(["host0", "host1", *gadget.vertices],
                               [("host0", "host1"), *gadget.edges])
        assert block.names == per_edge.names
        assert list(block.edges()) == list(per_edge.edges())
        assert block.edge_count == per_edge.edge_count
        for v in range(block.vertex_count):
            assert block.neighbors(v) == per_edge.neighbors(v)


# One step of a random construction: ("vertex", name), ("edge", u, v) with u
# and v names or indices, or ("block", names, pairs).
_NAMES = st.sampled_from(["a", "b", "c", "d", "e", ""])
_VERTEX_REF = st.one_of(_NAMES, st.integers(-1, 5))
_STEP = st.one_of(
    st.tuples(st.just("vertex"), _NAMES),
    st.tuples(st.just("edge"), _VERTEX_REF, _VERTEX_REF),
    st.tuples(
        st.just("block"),
        st.lists(_NAMES, max_size=4),
        st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), max_size=6),
    ),
)


class _EdgeSetModel:
    """Reference graph: a list of names and a set of (i, j) pairs, i < j.
    Each mutation returns the error types the graph may raise for it (any
    one of them when several faults coincide), or an empty set."""

    def __init__(self):
        self.names: list[str] = []
        self.edges: set[tuple[int, int]] = set()
        self.frozen = False

    def resolve(self, v):
        if isinstance(v, str):
            return self.names.index(v) if v in self.names else None
        return v if 0 <= v < len(self.names) else None

    def add_vertex(self, name):
        if self.frozen:
            return {FrozenGraphError}
        if not name:
            return {InvalidParameterError}
        if name in self.names:
            return {DuplicateVertexError}
        self.names.append(name)
        return set()

    def add_edge(self, u, v):
        if self.frozen:
            return {FrozenGraphError}
        i, j = self.resolve(u), self.resolve(v)
        if i is None or j is None:
            return {UnknownVertexError}
        if i == j:
            return {SelfLoopError}
        self.edges.add((min(i, j), max(i, j)))
        return set()

    def add_block(self, names, pairs):
        if self.frozen:
            return {FrozenGraphError}
        errors = set()
        if "" in names:
            errors.add(InvalidParameterError)
        if len(set(names)) != len(names) or set(names) & set(self.names):
            errors.add(DuplicateVertexError)
        for a, b in pairs:
            if not (0 <= a < len(names) and 0 <= b < len(names)):
                errors.add(UnknownVertexError)
            elif a == b:
                errors.add(SelfLoopError)
        if not errors:
            first = len(self.names)
            self.names.extend(names)
            self.edges |= {(first + min(a, b), first + max(a, b)) for a, b in pairs}
        return errors

    def distances_from(self, u):
        out, frontier = {u: 0}, [u]
        while frontier:
            nxt = []
            for x in frontier:
                for i, j in self.edges:
                    for y in ((j,) if i == x else (i,) if j == x else ()):
                        if y not in out:
                            out[y] = out[x] + 1
                            nxt.append(y)
            frontier = nxt
        return out


class TestAgainstEdgeSetModel:
    @settings(max_examples=300)
    @given(st.lists(_STEP, max_size=30), st.integers(0, 40))
    def test_random_constructions(self, steps, freeze_at):
        """Steps from `freeze_at` on run against a frozen graph."""
        g, model = Graph(), _EdgeSetModel()
        for k, (kind, *args) in enumerate(steps):
            if k == freeze_at:
                g.freeze()
                model.frozen = True
            errors = getattr(model, f"add_{kind}")(*args)
            if errors:
                with pytest.raises(tuple(errors)):
                    getattr(g, f"add_{kind}")(*args)
            else:
                getattr(g, f"add_{kind}")(*args)
            self.check_same(g, model)

    @staticmethod
    def check_same(g, model):
        n = len(model.names)
        assert g.names == tuple(model.names)
        assert list(g.edges()) == sorted(model.edges)
        assert g.edge_count == len(model.edges)
        for i in range(n):
            assert g.neighbors(i) == tuple(
                sorted(j for e in model.edges if i in e for j in e if j != i)
            )
            for j in range(n):
                assert g.has_edge(i, j) == ((min(i, j), max(i, j)) in model.edges)
            distances = model.distances_from(i)
            for radius in range(4):
                assert ball_distances(g.ball(i, radius)) == {
                    v: d for v, d in distances.items() if 0 < d <= radius
                }


class TestDistance:
    def test_path_distance(self):
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        assert g.distance("a", "c") == 2

    def test_distance_to_self_is_zero(self):
        g = build_graph("ab", [])
        assert g.distance("a", "a") == 0

    def test_disconnected_is_none(self):
        g = build_graph("ab", [])
        assert g.distance("a", "b") is None

    @given(st.integers(2, 6), st.integers(0, 2**15 - 1), st.integers(0))
    def test_matches_reference_bfs_and_symmetry(self, n, mask, pick):
        g = graph_from_edge_mask(n, mask)
        pairs = list(itertools.combinations(range(n), 2))
        u, v = pairs[pick % len(pairs)]
        d = g.distance(u, v)
        assert d == bfs_distance(g, u, v)
        assert d == g.distance(v, u)

    def test_triangle_inequality_sampled(self):
        rng = random.Random(7)
        for seed in range(5):
            g = gen_gnp(8, 0.3, seed)
            for _ in range(30):
                a, b, c = rng.sample(range(8), 3)
                ab, bc, ac = g.distance(a, b), g.distance(b, c), g.distance(a, c)
                if ab is not None and bc is not None:
                    assert ac is not None and ac <= ab + bc


class TestBall:
    def test_path_ball(self):
        g = build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert ball_distances(g.ball("a", 2)) == {1: 1, 2: 2}

    def test_radius_zero(self):
        g = build_graph("ab", [("a", "b")])
        assert g.ball("a", 0) == ()
        assert ball_distances(g.ball("a", 0)) == {}

    def test_isolated_vertex_large_radius(self):
        g = build_graph("a", [])
        assert g.ball("a", 5) == ()

    def test_ball_equals_distance_filter_on_random_graphs(self):
        for seed in range(4):
            g = gen_gnp(50, 0.08, seed)
            for u in range(0, 50, 7):
                for radius in (1, 2, 4):
                    expected = {
                        w: g.distance(u, w)
                        for w in range(50)
                        if g.distance(u, w) is not None and 0 < g.distance(u, w) <= radius
                    }
                    assert ball_distances(g.ball(u, radius)) == expected

    def test_cache_invalidated_on_mutation(self):
        g = build_graph("abc", [("a", "b")])
        assert ball_distances(g.ball("a", 2)) == {1: 1}
        g.add_edge("b", "c")
        assert ball_distances(g.ball("a", 2)) == {1: 1, 2: 2}

    def test_layers_are_exact_distance_masks(self):
        g = build_graph("abcde", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        assert g.ball("a", 3) == (0b00110, 0b01000)
        assert g.ball("d", 1) == (0b00110,)
        assert g.ball("e", 2) == ()

    def test_returned_ball_cannot_be_modified(self):
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        layers = g.ball("a", 1)
        with pytest.raises(TypeError):
            layers[0] = 0b100
        with pytest.raises(AttributeError):
            layers.append(0b100)
        assert g.ball("a", 1) == (0b010,)
        assert is_legal(g, node_kayles(), Position(blue=0b100), "a", Player.LEFT)

    def test_add_edge_invalidates_cached_ball(self):
        g = build_graph("abc", [("a", "b")])
        before = g.ball("a", 2)
        assert g.ball("a", 2) is before
        g.add_edge("b", "c")
        after = g.ball("a", 2)
        assert after == (0b010, 0b100)
        assert g.ball("a", 2) is after

    def test_add_vertex_invalidates_cached_ball(self):
        g = build_graph("ab", [("a", "b")])
        before = g.ball("a", 2)
        g.add_vertex("c")
        assert g.ball("c", 2) == ()
        after = g.ball("a", 2)
        assert after == before == (0b010,) and after is not before
        g.add_edge("b", "c")
        assert g.ball("a", 2) == (0b010, 0b100)
        assert g.ball("c", 1) == (0b010,)

    def test_add_block_invalidates_cached_ball(self):
        g = build_graph("ab", [("a", "b")])
        before = g.ball("a", 1)
        first = g.add_block(["c", "d", "e"], [(0, 1), (1, 2)])
        assert first == 2
        assert g.ball("c", 2) == (0b01000, 0b10000)
        after = g.ball("a", 1)
        assert after == before == (0b00010,) and after is not before
        g.add_edge("b", "c")
        assert ball_distances(g.ball("a", 4)) == {1: 1, 2: 2, 3: 3, 4: 4}


class TestGenerators:
    def test_path_counts(self):
        g = gen_path(3)
        assert (g.vertex_count, g.edge_count) == (3, 2)

    def test_cycle_counts_and_guard(self):
        assert gen_cycle(4).edge_count == 4
        with pytest.raises(InvalidParameterError):
            gen_cycle(2)

    def test_complete_bipartite(self):
        g, (left, right) = gen_complete_bipartite(2, 3)
        assert g.edge_count == 6
        assert (len(left), len(right)) == (2, 3)

    def test_gnp_zero_probability(self):
        assert gen_gnp(5, 0.0, 1).edge_count == 0

    def test_gnp_probability_range(self):
        with pytest.raises(InvalidParameterError):
            gen_gnp(5, 1.5, 1)

    def test_equal_seeds_are_bit_identical(self):
        a = serialize(gen_gnp(9, 0.4, 42))
        b = serialize(gen_gnp(9, 0.4, 42))
        assert a == b
        c, bip_c = gen_random_bipartite(3, 4, 0.5, 9)
        d, bip_d = gen_random_bipartite(3, 4, 0.5, 9)
        assert serialize(c) == serialize(d)
        assert bip_c == bip_d

    def test_different_seeds_usually_differ(self):
        assert serialize(gen_gnp(9, 0.5, 1)) != serialize(gen_gnp(9, 0.5, 2))


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in all_labelled_graphs(2)) == 2
        assert sum(1 for _ in all_labelled_graphs(3)) == 8

    def test_no_duplicates(self):
        seen = {serialize(g) for g in all_labelled_graphs(4)}
        assert len(seen) == 64

    def test_bipartite_counts(self):
        assert sum(1 for _ in all_labelled_bipartite(1, 1)) == 2
        assert sum(1 for _ in all_labelled_bipartite(2, 2)) == 16

    def test_too_large_rejected(self):
        with pytest.raises(CorpusTooLargeError):
            list(all_labelled_graphs(7))
        with pytest.raises(CorpusTooLargeError):
            list(all_labelled_bipartite(4, 3))
