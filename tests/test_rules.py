import random

import pytest
from hypothesis import given, strategies as st

from distance_games import (
    IllegalMoveError,
    InvalidParameterError,
    LegalityIndex,
    Ownership,
    Player,
    Position,
    Ruleset,
    apply_move,
    bigraph_node_kayles,
    col,
    distance_game,
    gen_complete_bipartite,
    is_legal,
    node_kayles,
    position_is_legal,
    snort,
)
from distance_games.rules import _witness_masks

from helpers import (
    bfs_distance,
    build_graph,
    graph_from_edge_mask,
    legal_moves,
    mask_indices,
    naive_is_legal,
    naive_position_is_legal,
    random_legal_position,
    random_ruleset,
)

L, R = Player.LEFT, Player.RIGHT


class TestNamedRulesets:
    def test_definitional_coincidences(self):
        assert distance_game({1}, ()) == snort()
        assert distance_game((), {1}) == col()

    def test_node_kayles_sets(self):
        rs = node_kayles()
        assert rs.d == {1} and rs.s == {1}

    def test_families(self):
        three_snort, two_col = distance_game(range(1, 4), ()), distance_game((), range(1, 3))
        assert three_snort.d == {1, 2, 3} and three_snort.s == frozenset()
        assert two_col.s == {1, 2} and two_col.d == frozenset()

    def test_distance_game_validation(self):
        with pytest.raises(InvalidParameterError):
            distance_game({0}, set())

    def test_bool_distances_rejected(self):
        # True == 1 would play as distance 1 but serialize as 'D=True'.
        for d, s in (({True}, ()), ((), {True}), ({2, True}, {1}), ({False}, ())):
            with pytest.raises(InvalidParameterError, match="integers >= 1"):
                distance_game(d, s)
        with pytest.raises(InvalidParameterError):
            Ruleset(frozenset(), frozenset({True}))

    def test_large_distances_allowed(self):
        # Entries beyond any graph diameter are legal rule data; they just
        # never trigger.
        rs = distance_game({9}, set())
        g = build_graph("ab", [("a", "b")])
        pos = apply_move(g, rs, Position(), "a", L)
        assert is_legal(g, rs, pos, "b", R)

    def test_bigraph_requires_unit_sets(self):
        with pytest.raises(InvalidParameterError):
            from distance_games import Ownership, Ruleset

            Ruleset(frozenset({1, 2}), frozenset({1}), Ownership(0, 0))


class TestPositionMasks:
    def test_negative_masks_rejected(self):
        # A negative mask has infinitely many set bits: `occupied` would
        # read garbage and a walk over its bits would never end.
        for blue, red in ((-1, 0), (0, -1), (-2, 1), (1, -2), (-1, -1)):
            with pytest.raises(InvalidParameterError, match=">= 0"):
                Position(blue, red)

    def test_both_colours_on_one_vertex_rejected(self):
        for blue, red in ((0b1, 0b1), (0b110, 0b011), (1 << 70, 1 << 70 | 1)):
            with pytest.raises(InvalidParameterError, match="cannot hold both colours"):
                Position(blue, red)


class TestOwnershipMasks:
    def test_negative_masks_rejected(self):
        for left, right in ((-1, 0), (0, -2), (-1, -1)):
            with pytest.raises(InvalidParameterError, match="ownership masks must be >= 0"):
                Ownership(left, right)

    def test_overlapping_sides_rejected(self):
        for left, right in ((0b1, 0b1), (0b011, 0b110), (1 << 70, 1 << 70)):
            with pytest.raises(InvalidParameterError, match="sides must be disjoint"):
                Ownership(left, right)

    def test_bigraph_sides_are_index_masks(self):
        own = bigraph_node_kayles([0, 2, 2], iter([1, 70])).ownership
        assert (own.left, own.right) == (0b101, 0b10 | 1 << 70)
        with pytest.raises(InvalidParameterError, match="indices must be >= 0"):
            bigraph_node_kayles([0, -1], [1])
        with pytest.raises(InvalidParameterError, match="sides must be disjoint"):
            bigraph_node_kayles([0, 1], [1])

    def test_a_map_that_misses_a_vertex_is_refused(self):
        g = build_graph("abc", [("a", "b")])
        rs = bigraph_node_kayles([0], [2])
        assert is_legal(g, rs, Position(), "a", L) and not is_legal(g, rs, Position(), "a", R)
        for player in (L, R):
            with pytest.raises(InvalidParameterError, match="does not cover vertex index 1"):
                is_legal(g, rs, Position(), "b", player)
        with pytest.raises(InvalidParameterError, match="must cover every vertex"):
            LegalityIndex(g, rs)
        # An index past the last vertex is refused as well.
        with pytest.raises(InvalidParameterError, match="must cover every vertex"):
            LegalityIndex(g, bigraph_node_kayles([0, 1], [2, 3]))


class TestIsLegal:
    def test_snort_adjacent_block(self):
        g = build_graph("ab", [("a", "b")])
        pos = apply_move(g, snort(), Position(), "a", L)
        assert not is_legal(g, snort(), pos, "b", R)
        assert is_legal(g, snort(), pos, "b", L)

    def test_empty_position_everything_legal(self):
        g = build_graph("abc", [("a", "b")])
        rs = distance_game({1, 2}, {1})
        for v in "abc":
            for p in (L, R):
                assert is_legal(g, rs, Position(), v, p)

    def test_distance_two_block(self):
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        rs = distance_game({1, 2}, set())
        pos = apply_move(g, rs, Position(), "a", L)
        assert not is_legal(g, rs, pos, "c", R)
        assert is_legal(g, rs, pos, "c", L)

    def test_unreachable_never_matches(self):
        g = build_graph("ab", [])
        rs = distance_game({1, 2, 3}, {1, 2, 3})
        pos = apply_move(g, rs, Position(), "a", L)
        assert is_legal(g, rs, pos, "b", R)
        assert is_legal(g, rs, pos, "b", L)


class TestLegalMoves:
    def test_empty_position_all_vertices(self):
        g = build_graph("abcd", [("a", "b")])
        assert legal_moves(g, distance_game({1}, {2}), Position(), L) == [0, 1, 2, 3]

    def test_bigraph_sides(self):
        g, (left, right) = gen_complete_bipartite(2, 2)
        rs = bigraph_node_kayles(left, right)
        assert legal_moves(g, rs, Position(), L) == sorted(left)
        assert legal_moves(g, rs, Position(), R) == sorted(right)

    def test_node_kayles_edge_exhausted(self):
        g = build_graph("ab", [("a", "b")])
        rs = node_kayles()
        pos = apply_move(g, rs, Position(), "a", L)
        assert legal_moves(g, rs, pos, L) == []
        assert legal_moves(g, rs, pos, R) == []

    def test_blocked_refuses_a_stone_past_the_last_vertex(self):
        index = LegalityIndex(build_graph("abc", [("a", "b")]), snort())
        assert index.blocked(Position(blue=0b010)) == (0, 0b001)
        with pytest.raises(InvalidParameterError) as err:
            index.blocked(Position(red=1 << 7))
        assert str(err.value) == "stone at vertex index 7 is past the last vertex (the graph has 3)"


class TestApplyMove:
    def test_apply_records_colour(self):
        g = build_graph("ab", [])
        pos = apply_move(g, snort(), Position(), "a", R)
        assert pos == Position(red=0b1)

    def test_input_position_unchanged(self):
        g = build_graph("ab", [])
        pos = Position()
        apply_move(g, snort(), pos, "a", L)
        assert pos == Position()

    def test_occupied_vertex_rejected(self):
        g = build_graph("ab", [])
        pos = apply_move(g, snort(), Position(), "a", L)
        with pytest.raises(IllegalMoveError):
            apply_move(g, snort(), pos, "a", R)
        assert not is_legal(g, snort(), pos, "a", L)


small_seed = st.integers(0, 10_000)


@given(st.integers(1, 6), st.integers(0, 2**15 - 1), small_seed)
def test_legality_monotone_under_extension(n, mask, seed):
    # Once illegal, always illegal: stones are never removed and every new
    # stone only adds constraints.
    g = graph_from_edge_mask(n, mask)
    rng = random.Random(seed)
    rs = random_ruleset(rng)
    pos = Position()
    player = L
    illegal = set()
    for _ in range(n):
        for v in range(n):
            for p in (L, R):
                if not is_legal(g, rs, pos, v, p):
                    illegal.add((v, p))
        moves = legal_moves(g, rs, pos, player)
        if not moves:
            break
        pos = apply_move(g, rs, pos, rng.choice(moves), player)
        player = player.opponent
        for v, p in illegal:
            assert not is_legal(g, rs, pos, v, p)


@given(st.integers(1, 6), st.integers(0, 2**15 - 1), small_seed)
def test_colour_swap_symmetry(n, mask, seed):
    g = graph_from_edge_mask(n, mask)
    rng = random.Random(seed)
    rs = random_ruleset(rng)
    pos = random_legal_position(g, rs, rng)
    swapped = Position(pos.red, pos.blue)
    for v in range(n):
        for p in (L, R):
            assert is_legal(g, rs, pos, v, p) == is_legal(g, rs, swapped, v, p.opponent)


def test_colour_swap_symmetry_bigraph():
    from distance_games import Ruleset

    g, (left, right) = gen_complete_bipartite(2, 2)
    rs = bigraph_node_kayles(left, right)
    swapped_rs = Ruleset(rs.d, rs.s, Ownership(rs.ownership.right, rs.ownership.left))
    pos = apply_move(g, rs, Position(), sorted(left)[0], L)
    for v in range(g.vertex_count):
        for p in (L, R):
            assert is_legal(g, rs, pos, v, p) == is_legal(
                g, swapped_rs, Position(pos.red, pos.blue), v, p.opponent
            )


@given(st.integers(1, 6), st.integers(0, 2**15 - 1), small_seed)
def test_agrees_with_full_bfs_checker(n, mask, seed):
    g = graph_from_edge_mask(n, mask)
    rng = random.Random(seed)
    rs = random_ruleset(rng)
    pos = random_legal_position(g, rs, rng)
    for v in range(n):
        for p in (L, R):
            assert is_legal(g, rs, pos, v, p) == naive_is_legal(g, rs, pos, v, p)


@given(st.integers(1, 6), st.integers(0, 2**15 - 1), small_seed)
def test_legality_index_matches_reference(n, mask, seed):
    g = graph_from_edge_mask(n, mask)
    rng = random.Random(seed)
    rs = random_ruleset(rng)
    pos = random_legal_position(g, rs, rng)
    index = LegalityIndex(g, rs)
    for p in (L, R):
        assert mask_indices(index.legal_moves_mask(pos, p)) == legal_moves(g, rs, pos, p)

    # Blocked masks kept up to date one stone at a time, as the verifier
    # walk does, must equal the from-scratch masks and give the legal moves.
    def moves(blocked_mask, pos, p):
        mask = index.allowed(p) & ~pos.occupied & ~blocked_mask
        return [v for v in range(n) if mask >> v & 1]

    # Either player may move at each step, as in the walk.
    pos = Position()
    left = right = 0
    while True:
        assert (left, right) == index.blocked(pos)
        assert moves(left, pos, L) == legal_moves(g, rs, pos, L)
        assert moves(right, pos, R) == legal_moves(g, rs, pos, R)
        options = [(L, v) for v in moves(left, pos, L)] + [(R, v) for v in moves(right, pos, R)]
        if not options:
            break
        p, v = rng.choice(options)
        pos = apply_move(g, rs, pos, v, p)
        if p is L:
            left, right = left | index.s_mask[v], right | index.d_mask[v]
        else:
            left, right = left | index.d_mask[v], right | index.s_mask[v]


@given(st.integers(1, 6), st.integers(0, 2**15 - 1), small_seed)
def test_node_kayles_is_impartial(n, mask, seed):
    g = graph_from_edge_mask(n, mask)
    rng = random.Random(seed)
    rs = node_kayles()
    pos = random_legal_position(g, rs, rng)
    assert legal_moves(g, rs, pos, L) == legal_moves(g, rs, pos, R)


class TestPositionIsLegal:
    def test_engine_reachable_positions_pass(self):
        g = graph_from_edge_mask(5, 0b1011)
        rng = random.Random(3)
        for _ in range(20):
            rs = random_ruleset(rng)
            assert position_is_legal(g, rs, random_legal_position(g, rs, rng))

    def test_violating_position_detected(self):
        g = build_graph("ab", [("a", "b")])
        bad = Position().place(0, Player.LEFT).place(1, Player.RIGHT)
        assert not position_is_legal(g, snort(), bad)
        assert position_is_legal(g, col(), bad)

    def test_stone_off_its_players_side_detected(self):
        g = build_graph("abc", [])
        rs = bigraph_node_kayles([0, 2], [1])
        assert position_is_legal(g, rs, Position(blue=0b101, red=0b010))
        for pos in (Position(blue=0b010), Position(red=0b001), Position(blue=0b001, red=0b100)):
            assert not position_is_legal(g, rs, pos)

    def test_radius_zero_forbids_nothing(self):
        g = build_graph("abc", [("a", "b"), ("b", "c")])
        rs = distance_game((), ())
        for pos in (Position(blue=0b111), Position(blue=0b101, red=0b010), Position(red=0b11)):
            assert position_is_legal(g, rs, pos)


@given(
    st.integers(1, 7), st.integers(0, 2**21 - 1), st.integers(0, 2**7 - 1),
    st.integers(0, 2**7 - 1), small_seed, st.sampled_from(["random", "owned", "far"]),
)
def test_position_is_legal_matches_pairwise_oracle(n, mask, blue, red, seed, kind):
    """Arbitrary stone placements, legal and illegal, against pairwise BFS
    distances; with "owned", a random ownership map (not always covering)
    under d = s = {1}; with "far", d = {1, 10**9}, a distance no graph
    reaches, and a random s."""
    g = graph_from_edge_mask(n, mask)
    everything = (1 << n) - 1
    blue &= everything
    pos = Position(blue, red & everything & ~blue)
    rng = random.Random(seed)
    if kind == "owned":
        left = sum(1 << v for v in range(n) if rng.random() < 0.5)
        right = sum(1 << v for v in range(n) if not left >> v & 1 and rng.random() < 0.9)
        rs = Ruleset(frozenset({1}), frozenset({1}), Ownership(left, right))
    elif kind == "far":
        rs = distance_game({1, 10**9}, random_ruleset(rng, max_radius=4).s)
    else:
        rs = random_ruleset(rng, max_radius=4)
    assert position_is_legal(g, rs, pos) == naive_position_is_legal(g, rs, pos)


# --- where LegalityIndex shares masks ----------------------------------------


def sharing_graph():
    """A tree with distances up to 10 and one isolated vertex. Vertices past
    index 8 make masks above 256, which CPython does not intern, so an `is`
    check tells a ball's own layer object from an equal new int."""
    names = [f"v{i}" for i in range(14)]
    edges = [(f"v{i}", f"v{i + 1}") for i in range(10)]
    edges += [("v4", "v11"), ("v11", "v12")]
    return build_graph(names, edges)


def check_index(rs, walks=6):
    """One index on `sharing_graph` against the BFS oracle, `legal_moves`
    and the walk-style update, and its sharing: `d_mask` and `s_mask` are
    one list exactly when d = s, and a one-distance set's masks are the
    ball's own layer objects."""
    g = sharing_graph()
    n = g.vertex_count
    index = LegalityIndex(g, rs)
    for dists, masks in ((rs.d, index.d_mask), (rs.s, index.s_mask)):
        assert masks == [
            sum(1 << j for j in range(n) if bfs_distance(g, i, j) in dists) for i in range(n)
        ]
        if len(dists) == 1:
            (k,) = dists
            for i in range(n):
                layers = g.ball(i, rs.max_radius)
                if len(layers) >= k:
                    assert masks[i] is layers[k - 1]
    assert (index.s_mask is index.d_mask) == (rs.d == rs.s)

    rng = random.Random(len(rs.d) * 31 + len(rs.s))
    for _ in range(walks):
        pos = Position()
        left = right = 0
        while True:
            assert (left, right) == index.blocked(pos)
            left_moves = mask_indices(index.legal_moves_mask(pos, L))
            right_moves = mask_indices(index.legal_moves_mask(pos, R))
            assert left_moves == legal_moves(g, rs, pos, L)
            assert right_moves == legal_moves(g, rs, pos, R)
            options = [(L, v) for v in left_moves] + [(R, v) for v in right_moves]
            if not options:
                break
            p, v = rng.choice(options)
            pos = apply_move(g, rs, pos, v, p)
            if p is L:
                left, right = left | index.s_mask[v], right | index.d_mask[v]
            else:
                left, right = left | index.d_mask[v], right | index.s_mask[v]
    return index


# Rulesets with d != s and both kinds of set (one distance, several) that
# every sharing test also checks, so that sharing one list when d != s, or
# taking a wrong layer, fails each test and not only the one for its case.
CONTRASTS = (({1}, {2}), ({1, 2}, {1}), ({1}, {1, 2}))


def check_with_contrasts(d, s):
    index = check_index(distance_game(d, s))
    for cd, cs in CONTRASTS:
        check_index(distance_game(cd, cs), walks=2)
    return index


class TestIndexSharing:
    def test_equal_sets_share_one_mask_list(self):
        for d in ({1}, {2}, {1, 3}, {2, 3, 5}):
            index = check_with_contrasts(d, d)
            assert index.s_mask is index.d_mask

    def test_single_distance_mask_is_the_ball_layer(self):
        for d, s in (({3}, ()), ((), {7}), ({11}, ()), ({4}, {1, 4})):
            check_with_contrasts(d, s)

    def test_subset_sets(self):
        for d, s in (({2}, {1, 2, 3}), ({2, 4}, {1, 2, 3, 4}), ({1, 3}, {3})):
            index = check_with_contrasts(d, s)
            assert index.s_mask is not index.d_mask

    def test_empty_sets(self):
        for d, s in (((), {1}), ({2}, ()), ((), {1, 3}), ({1, 2}, ())):
            index = check_with_contrasts(d, s)
            assert index.s_mask is not index.d_mask
            assert (index.s_mask if d else index.d_mask) == [0] * 14

    def test_radius_zero(self):
        index = check_with_contrasts((), ())
        assert index.d_mask == [0] * 14 and index.s_mask is index.d_mask
        assert index.legal_moves_mask(Position(blue=0b11), L) == (1 << 14) - 4


class TestWitnessMasks:
    """`_witness_masks` sums the layers of an interval {1..k}, which is
    their OR only because the layers are disjoint; every other set must
    take the OR."""

    @staticmethod
    def or_oracle(balls, dists):
        out = []
        for layers in balls:
            mask = 0
            for k, layer in enumerate(layers, 1):
                if k in dists:
                    mask |= layer
            out.append(mask)
        return out

    @pytest.mark.parametrize("dists", [
        {1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4, 5, 6, 7}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
        {2}, {5}, {11}, {1, 3}, {2, 3}, {2, 3, 4}, {1, 2, 4}, set(),
    ], ids=str)
    def test_matches_an_or_loop(self, dists):
        g = sharing_graph()
        n = g.vertex_count
        for radius in range(max(dists, default=0), 13):
            balls = [g.ball(i, radius) for i in range(n)]
            assert _witness_masks(balls, frozenset(dists), n) == self.or_oracle(balls, dists)
