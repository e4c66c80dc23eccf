import itertools
import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from distance_games import (
    BallBudgetError,
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
    distance_game,
    gen_complete_bipartite,
    gen_cycle,
    gen_gnp,
    gen_path,
    gen_random_bipartite,
    is_legal,
    LegalityIndex,
    node_kayles,
    serialize,
)
from distance_games import graph as graph_module
from distance_games.gadgets import embed_gadget
from distance_games.graph import MAX_GENERATED_VERTICES

from helpers import (
    ball_distances, bfs_distance, build_graph, graph_from_edge_mask, has_edge, neighbors,
    reference_forbidden_path,
)


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


class TestAddBlock:
    def test_returns_first_index_and_offsets_pairs(self):
        g = build_graph("xy", [("x", "y")])
        assert g.add_block(["a", "b", "c"], [(0, 1), (2, 1)]) == 2
        assert g.names == ("x", "y", "a", "b", "c")
        assert list(g.edges()) == [(0, 1), (2, 3), (3, 4)]
        assert neighbors(g, "b") == (2, 4)
        assert has_edge(g, "c", "b") and not has_edge(g, "c", "a")

    def test_edges_added_in_any_order_stay_sorted(self):
        pairs = list(itertools.combinations(range(4), 2))
        for order in itertools.permutations(pairs):
            g = build_graph("abcd", [])
            for k, (i, j) in enumerate(order):
                g.add_edge(*((i, j) if k % 2 else (j, i)))
            assert list(g.edges()) == pairs
            assert all(neighbors(g, v) == tuple(w for w in range(4) if w != v)
                       for v in range(4))

    def test_repeated_pair_adds_one_edge(self):
        g = Graph()
        g.add_block("ab", [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert neighbors(g, "a") == (1,)

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
        assert "a" not in g.names

    @pytest.mark.parametrize("pairs, error, message", [
        # The least bad pair, in ascending order of its sorted positions, is
        # the one reported, whatever the order the pairs come in.
        ([(2, 2), (-1, 0)], UnknownVertexError, "block position -1 out of range"),
        ([(5, 1), (1, 1)], SelfLoopError, "self-loop at 'b'"),
        ([(0, 1), (3, 2), (1, 1)], SelfLoopError, "self-loop at 'b'"),
        ([(0, 1), (3, 0), (2, 0), (1, 1)], UnknownVertexError, "block position 3 out of range"),
        ([(0, 1), (4, 2), (3, 2)], UnknownVertexError, "block position 3 out of range"),
    ])
    def test_least_bad_pair_is_reported(self, pairs, error, message):
        g = build_graph("xy", [("x", "y")])
        with pytest.raises(error, match=message):
            g.add_block(["a", "b", "c"], iter(pairs))
        assert (g.names, list(g.edges())) == (("x", "y"), [(0, 1)])

    def test_dense_block_holds_no_copy_of_its_pairs(self):
        """A dense block is built without a second copy of its edges: the
        traced peak stays within twice what the finished graph holds."""
        tracemalloc.start()
        try:
            g = gen_gnp(800, 1.0, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count == 800 * 799 // 2
        assert peak <= 2 * held

    def test_frozen_graph_rejects_a_block(self):
        g = build_graph("x", []).freeze()
        with pytest.raises(FrozenGraphError):
            g.add_block(["a"])

    @pytest.mark.parametrize("t", range(1, 9))
    @pytest.mark.parametrize("r", range(1, 9))
    def test_embed_equals_per_edge_construction(self, t, r):
        # A prefixed copy of the shared shape, as the reductions embed, and
        # a path built afresh from t blockers.
        for gadget, prefix in ((forbidden_path(t, r), "g7"), (reference_forbidden_path(t, r), "")):
            self.check_embed(gadget, prefix)

    @staticmethod
    def check_embed(gadget, prefix):
        block = build_graph(["host0", "host1"], [("host0", "host1")])
        embed_gadget(block, gadget, prefix)
        names = [prefix + v for v in gadget.vertices]
        pairs = [(names[a], names[b]) for a, b in gadget.edges]
        per_edge = build_graph(["host0", "host1", *names], [("host0", "host1"), *pairs])
        assert block.names == per_edge.names
        assert list(block.edges()) == list(per_edge.edges())
        assert block.edge_count == per_edge.edge_count
        for v in range(block.vertex_count):
            assert neighbors(block, v) == neighbors(per_edge, v)


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
        """Steps from `freeze_at` on run against a frozen graph, and the
        finished graph is frozen too."""
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
        g.freeze()
        model.frozen = True
        self.check_same(g, model)

    @staticmethod
    def check_same(g, model):
        """The same vertices and edges, and, once frozen (a ball freezes
        the graph), the same balls."""
        n = len(model.names)
        assert g.names == tuple(model.names)
        assert list(g.edges()) == sorted(model.edges)
        assert g.edge_count == len(model.edges)
        if not model.frozen:
            return
        for i in range(n):
            distances = model.distances_from(i)
            for radius in range(4):
                assert ball_distances(g.ball(i, radius)) == {
                    v: d for v, d in distances.items() if 0 < d <= radius
                }


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
                distances = {w: bfs_distance(g, u, w) for w in range(50)}
                for radius in (1, 2, 4):
                    expected = {w: d for w, d in distances.items()
                                if d is not None and 0 < d <= radius}
                    assert ball_distances(g.ball(u, radius)) == expected

    @given(st.integers(2, 6), st.integers(0, 2**15 - 1), st.integers(0))
    def test_ball_distance_matches_bfs_and_is_symmetric(self, n, mask, pick):
        g = graph_from_edge_mask(n, mask)
        pairs = list(itertools.combinations(range(n), 2))
        u, v = pairs[pick % len(pairs)]
        d = ball_distances(g.ball(u, n)).get(v)
        assert d == bfs_distance(g, u, v)
        assert d == ball_distances(g.ball(v, n)).get(u)

    def test_ball_distances_obey_triangle_inequality(self):
        rng = random.Random(7)
        for seed in range(5):
            g = gen_gnp(8, 0.3, seed)
            dist = [ball_distances(g.ball(v, 7)) for v in range(8)]
            for _ in range(30):
                a, b, c = rng.sample(range(8), 3)
                ab, bc, ac = dist[a].get(b), dist[b].get(c), dist[a].get(c)
                if ab is not None and bc is not None:
                    assert ac is not None and ac <= ab + bc

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

    @pytest.mark.parametrize("swept", [True, False], ids=["swept", "single"])
    @pytest.mark.parametrize("mutator, args", [
        ("add_vertex", ("d",)),
        ("add_edge", ("a", "c")),
        ("add_block", (["d", "e"], [(0, 1)])),
    ], ids=["add_vertex", "add_edge", "add_block"])
    def test_a_ball_freezes_the_graph(self, monkeypatch, swept, mutator, args):
        """After a ball, found in a swept row or on its own, every mutator
        raises and leaves the graph and its memo as they were."""
        if not swept:
            # An allowance of -1 fits no row, so the ball is found on its own.
            monkeypatch.setattr(graph_module, "MAX_BALL_ROW_BYTES", -1)
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        ball = g.ball("a", 2)
        assert ball == (0b010, 0b100)
        nbr, charge = g._nbr, g._ball_bytes
        rows = {radius: list(row) for radius, row in g._balls.items()}
        assert sum(b is not None for b in rows[2]) == (3 if swept else 1)
        with pytest.raises(FrozenGraphError):
            getattr(g, mutator)(*args)
        assert (g.names, list(g.edges())) == (("a", "b", "c"), [(0, 1), (1, 2)])
        assert g._nbr is nbr and nbr == [0b010, 0b101, 0b010]
        assert g._balls == rows and g._ball_bytes == charge
        assert g.ball(0, 2) is ball

    def test_an_invalid_query_does_not_freeze(self):
        g = build_graph("ab", [])
        for bad in ("missing", 2):
            with pytest.raises(UnknownVertexError):
                g.ball(bad, 1)
        with pytest.raises(InvalidParameterError):
            g.ball("a", -1)
        g.add_edge("a", "b")
        assert g.ball("a", 1) == (0b10,)


# One step of a graph growing to at most 12 vertices, or a ball query made
# once it is built: ("vertex",), ("edge", i, j), ("block", size, pairs) or
# ("ball", u, radius). Vertex numbers are taken modulo the vertices there
# are, so every step applies; an edge step on one vertex, a self-loop pair or
# a block past 12 vertices is skipped.
_BALL_STEP = st.one_of(
    st.tuples(st.just("vertex")),
    st.tuples(st.just("edge"), st.integers(0, 11), st.integers(0, 11)),
    st.tuples(
        st.just("block"),
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6),
    ),
    st.tuples(st.just("ball"), st.integers(0, 11), st.integers(0, 5)),
)


def bfs_ball(g, u, radius):
    return {w: d for w in range(g.vertex_count)
            if (d := bfs_distance(g, u, w)) and d <= radius}


def memo_charge(g):
    """The bytes `g` should have charged for its neighbour masks and its
    memoized balls: ceil(n / 8) per mask and per layer."""
    if g._nbr is None:
        return 0
    n = g.vertex_count
    layers = sum(len(b) for row in g._balls.values() for b in row if b is not None)
    return (n + layers) * (n + 7 >> 3)


class TestBallRows:
    """A miss fills the whole row for its radius in one sweep, unless the
    row could pass the row allowance; then each ball is found on its own.
    Both ways give the same balls, and both are charged to the memo."""

    @settings(max_examples=150)
    @given(st.lists(_BALL_STEP, max_size=40), st.booleans())
    def test_swept_and_single_balls_match_bfs(self, steps, swept):
        """The graph is built from the steps' mutations, then asked for the
        steps' balls in order, then for every ball up to radius 5."""
        # An allowance of -1 fits no row, not even the empty radius-0 one.
        allowance = graph_module.MAX_BALL_ROW_BYTES if swept else -1
        with mock.patch.object(graph_module, "MAX_BALL_ROW_BYTES", allowance):
            g = Graph()
            for kind, *args in steps:
                n = g.vertex_count
                if kind == "vertex" and n < 12:
                    g.add_vertex(f"v{n}")
                elif kind == "edge" and n > 1 and args[0] % n != args[1] % n:
                    g.add_edge(args[0] % n, args[1] % n)
                elif kind == "block" and n + args[0] <= 12:
                    size, pairs = args
                    g.add_block([f"v{k}" for k in range(n, n + size)],
                                [(a % size, b % size) for a, b in pairs if a % size != b % size])
            n = g.vertex_count
            asked = {}  # radius -> vertices asked for
            for kind, *args in steps:
                if kind == "ball" and n:
                    u, radius = args[0] % n, args[1]
                    assert ball_distances(g.ball(u, radius)) == bfs_ball(g, u, radius)
                    asked.setdefault(radius, set()).add(u)
                    filled = {v for v, b in enumerate(g._balls[radius]) if b is not None}
                    assert filled == (set(range(n)) if swept else asked[radius])
                    assert g._ball_bytes == memo_charge(g)
            for radius in range(6):
                for u in range(n):
                    assert ball_distances(g.ball(u, radius)) == bfs_ball(g, u, radius)
                    assert g._ball_bytes == memo_charge(g)
                if n:
                    assert all(b is not None for b in g._balls[radius])

    @staticmethod
    def path_ball(u, radius, n):
        """Ball of vertex u of `gen_path(n)`, when every layer is non-empty."""
        return tuple(sum(1 << w for w in (u - k, u + k) if 0 <= w < n)
                     for k in range(1, radius + 1))

    def test_single_ball_fills_only_its_entry(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_BALL_ROW_BYTES", -1)
        g = gen_path(6)
        assert g.ball(2, 2) == self.path_ball(2, 2, 6)
        assert [b is not None for b in g._balls[2]] == [False, False, True, False, False, False]

    def test_first_ball_fills_the_row(self):
        g = gen_path(6)
        g.ball(2, 2)
        assert g._balls[2] == [self.path_ball(u, 2, 6) for u in range(6)]

    def test_misses_still_validate_after_the_row_is_filled(self):
        g = gen_path(6)
        g.ball(0, 2)
        for bad in (-1, 6, "missing"):
            with pytest.raises(UnknownVertexError):
                g.ball(bad, 2)
        with pytest.raises(InvalidParameterError):
            g.ball(0, -1)
        assert g.ball("v3", 2) is g.ball(3, 2)
        assert g.ball(3, 2) == self.path_ball(3, 2, 6)

    @pytest.mark.parametrize("radius", [10**6, 10**8])
    def test_radius_past_the_diameter_stops_the_sweep(self, radius):
        # The sweep ends when no vertex has a layer left; one that went on
        # level by level to the radius takes about half a minute at 10**8.
        g = gen_path(30)
        start = time.perf_counter()
        balls = [g.ball(u, radius) for u in range(30)]
        assert time.perf_counter() - start < 1.0
        for u, layers in enumerate(balls):
            assert ball_distances(layers) == {w: abs(u - w) for w in range(30) if w != u}

    @pytest.mark.parametrize("budget", [
        40 * 5 - 1,  # not even the neighbour masks fit
        40 * 5 + 100,  # the masks and a few balls fit, but not the row
    ])
    def test_index_past_the_budget_raises_and_leaves_the_graph_usable(
            self, monkeypatch, budget):
        g = gen_path(40)
        rs = distance_game({1, 2, 3}, ())
        monkeypatch.setattr(graph_module, "MAX_BALL_MEMO_BYTES", budget)
        with pytest.raises(BallBudgetError, match="ball memo"):
            LegalityIndex(g, rs)
        assert g._ball_bytes == memo_charge(g) <= budget
        monkeypatch.undo()
        expected = LegalityIndex(gen_path(40), rs)
        index = LegalityIndex(g, rs)
        assert (index.d_mask, index.s_mask) == (expected.d_mask, expected.s_mask)
        assert g._ball_bytes == memo_charge(g)

    def test_row_that_overruns_the_budget_falls_back_to_single_balls(self, monkeypatch):
        # Masks (40 * 5 bytes) and the radius-1 row (40 * 5) fit; the radius-2
        # row's worst case (400) does not fit what is left, so single balls.
        monkeypatch.setattr(graph_module, "MAX_BALL_MEMO_BYTES", 40 * 5 * 2 + 399)
        g = gen_path(40)
        g.ball(0, 1)
        assert all(b is not None for b in g._balls[1])
        assert g.ball(5, 2) == self.path_ball(5, 2, 40)
        assert sum(b is not None for b in g._balls[2]) == 1
        assert g._ball_bytes == memo_charge(g)


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

    @staticmethod
    def assert_same_graph(g, h):
        assert g.names == h.names
        assert list(g.edges()) == list(h.edges())
        assert g.edge_count == h.edge_count
        assert all(neighbors(g, v) == neighbors(h, v) for v in range(g.vertex_count))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 9])
    def test_path_and_cycle_match_per_edge_construction(self, n):
        names = [f"v{i}" for i in range(n)]
        self.assert_same_graph(gen_path(n), build_graph(names, zip(names, names[1:])))
        if n not in (1, 2):
            self.assert_same_graph(
                gen_cycle(n), build_graph(names, zip(names, names[1:] + names[:1])))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("prob", [0.0, 0.3, 0.7, 1.0])
    def test_random_graphs_match_per_edge_construction(self, seed, prob):
        # The same names, edges and random draws, one per pair in order.
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(9)]
        expected = build_graph(names, [(i, j) for i, j in itertools.combinations(range(9), 2)
                                       if rng.random() < prob])
        self.assert_same_graph(gen_gnp(9, prob, seed), expected)
        rng = random.Random(seed)
        names = ["l0", "l1", "l2", "r0", "r1", "r2", "r3"]
        expected = build_graph(names, [(i, j) for i in range(3) for j in range(3, 7)
                                       if rng.random() < prob])
        g, sides = gen_random_bipartite(3, 4, prob, seed)
        self.assert_same_graph(g, expected)
        assert sides == (frozenset({0, 1, 2}), frozenset({3, 4, 5, 6}))

    def test_complete_bipartite_matches_per_edge_construction(self):
        g, sides = gen_complete_bipartite(2, 3)
        expected = build_graph(["l0", "l1", "r0", "r1", "r2"],
                               [(i, j) for i in range(2) for j in range(2, 5)])
        self.assert_same_graph(g, expected)
        assert sides == (frozenset({0, 1}), frozenset({2, 3, 4}))

    def test_vertex_bound(self):
        too_many = MAX_GENERATED_VERTICES + 1
        for make in (lambda: gen_path(too_many), lambda: gen_cycle(too_many),
                     lambda: gen_gnp(too_many, 0.0, 1),
                     lambda: gen_complete_bipartite(too_many, 0),
                     lambda: gen_random_bipartite(1, too_many - 1, 0.5, 1)):
            with pytest.raises(InvalidParameterError, match="generated vertices"):
                make()
        assert gen_cycle(MAX_GENERATED_VERTICES).edge_count == MAX_GENERATED_VERTICES

    @pytest.mark.parametrize("p, q", [(-1, 3), (3, -1), (-1, -1)])
    @pytest.mark.parametrize("make", [
        gen_complete_bipartite,
        lambda p, q: gen_random_bipartite(p, q, 0.5, 1),
        lambda p, q: next(all_labelled_bipartite(p, q)),
    ], ids=["complete", "random", "enumerated"])
    def test_negative_side_refused(self, make, p, q):
        # One negative side is enough, however small the sum.
        with pytest.raises(InvalidParameterError, match="sizes must be >= 0"):
            make(p, q)


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

    def test_graphs_match_per_edge_construction(self):
        for mask, g in enumerate(all_labelled_graphs(4)):
            TestGenerators.assert_same_graph(g, graph_from_edge_mask(4, mask))

    def test_bipartite_graphs_match_per_edge_construction(self):
        pairs = [(i, j) for i in range(2) for j in range(2, 5)]
        names = ["l0", "l1", "r0", "r1", "r2"]
        for mask, (g, sides) in enumerate(all_labelled_bipartite(2, 3)):
            expected = build_graph(
                names, [pair for bit, pair in enumerate(pairs) if mask >> bit & 1])
            TestGenerators.assert_same_graph(g, expected)
            assert sides == (frozenset({0, 1}), frozenset({2, 3, 4}))

    def test_too_large_rejected(self):
        with pytest.raises(CorpusTooLargeError):
            list(all_labelled_graphs(7))
        with pytest.raises(CorpusTooLargeError):
            list(all_labelled_bipartite(4, 3))
