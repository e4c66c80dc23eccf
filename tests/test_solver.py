import random
import sys

import pytest
from hypothesis import given, strategies as st

from distance_games import (
    Graph,
    InvalidParameterError,
    LegalityIndex,
    MoveStatus,
    Outcome,
    Player,
    Position,
    SearchStats,
    SearchTooDeepError,
    apply_move,
    best_move,
    bigraph_node_kayles,
    col,
    gen_complete_bipartite,
    gen_path,
    node_kayles,
    outcome,
    snort,
    wins_moving_first,
)
from distance_games.solver import RECURSION_HEADROOM, check_depth

from helpers import (
    build_graph,
    graph_from_edge_mask,
    mask_indices,
    naive_wins,
    random_legal_position,
    random_ruleset,
)

L, R = Player.LEFT, Player.RIGHT
# The outcome with the players' roles exchanged.
MIRRORED = {
    Outcome.LEFT_WINS: Outcome.RIGHT_WINS,
    Outcome.RIGHT_WINS: Outcome.LEFT_WINS,
    Outcome.FIRST_WINS: Outcome.FIRST_WINS,
    Outcome.SECOND_WINS: Outcome.SECOND_WINS,
}


def naive_outcome(g, rs, pos=Position()):
    return Outcome.from_first_move_wins(
        naive_wins(g, rs, pos, L), naive_wins(g, rs, pos, R)
    )


class TestBaseCases:
    def test_empty_graph_no_moves(self):
        g = Graph().freeze()
        assert not wins_moving_first(g, snort(), Position(), L)
        assert not wins_moving_first(g, snort(), Position(), R)
        assert outcome(g, snort()) is Outcome.SECOND_WINS

    def test_single_vertex_snort(self):
        g = gen_path(1)
        assert wins_moving_first(g, snort(), Position(), L)
        assert wins_moving_first(g, snort(), Position(), R)
        assert outcome(g, snort()) is Outcome.FIRST_WINS


class TestKnownValues:
    def test_node_kayles_path3_first_wins(self):
        g = gen_path(3)
        assert naive_wins(g, node_kayles(), Position(), L)  # oracle
        assert wins_moving_first(g, node_kayles(), Position(), L)
        assert outcome(g, node_kayles()) is Outcome.FIRST_WINS

    def test_node_kayles_path3_centre_is_the_winning_move(self):
        g = gen_path(3)
        rs = node_kayles()
        # Oracle: enumerate first moves; only the centre leaves the opponent lost.
        winning = [
            v for v in range(3)
            if not naive_wins(g, rs, apply_move(g, rs, Position(), v, L), R)
        ]
        assert winning == [1]
        assert best_move(g, rs, Position(), L) == 1

    def test_snort_k2(self):
        g = build_graph("ab", [("a", "b")])
        assert naive_outcome(g, snort()) is Outcome.FIRST_WINS
        assert outcome(g, snort()) is Outcome.FIRST_WINS

    def test_col_k2(self):
        g = build_graph("ab", [("a", "b")])
        assert naive_outcome(g, col()) is Outcome.SECOND_WINS
        assert outcome(g, col()) is Outcome.SECOND_WINS

    def test_bigraph_single_edge(self):
        g, bip = gen_complete_bipartite(1, 1)
        rs = bigraph_node_kayles(*bip)
        assert naive_outcome(g, rs) is Outcome.FIRST_WINS
        assert outcome(g, rs) is Outcome.FIRST_WINS


class TestBestMove:
    def test_no_move(self):
        g = build_graph("a", []).freeze()
        rs = snort()
        pos = apply_move(g, rs, Position(), "a", L)
        assert best_move(g, rs, pos, R) is MoveStatus.NO_MOVE

    def test_no_winning_move(self):
        # Two isolated vertices, adjacency-free: whoever moves first loses
        # the two-move race.
        g = build_graph("ab", [])
        assert best_move(g, snort(), Position(), L) is MoveStatus.NO_WINNING_MOVE

    def test_tie_break_lowest_index(self):
        # Three isolated vertices: every first move wins on parity, so the
        # reported move must be the lowest index.
        g = build_graph("abc", [])
        assert best_move(g, snort(), Position(), L) == 0


@given(st.integers(0, 6), st.integers(0, 2**15 - 1), st.integers(0, 10_000))
def test_memoized_equals_naive(n, mask, seed):
    g = graph_from_edge_mask(n, mask)
    rng = random.Random(seed)
    rs = random_ruleset(rng)
    pos = random_legal_position(g, rs, rng)
    for p in (L, R):
        assert wins_moving_first(g, rs, pos, p) == naive_wins(g, rs, pos, p)


@given(st.integers(1, 6), st.integers(0, 2**15 - 1), st.integers(0, 10_000))
def test_zermelo_consistency(n, mask, seed):
    g = graph_from_edge_mask(n, mask)
    rng = random.Random(seed)
    rs = random_ruleset(rng)
    pos = random_legal_position(g, rs, rng)
    index = LegalityIndex(g, rs)
    for p in (L, R):
        moves = mask_indices(index.legal_moves_mask(pos, p))
        wins = wins_moving_first(g, rs, pos, p)
        if not moves:
            assert not wins
        else:
            has_winning_child = any(
                not wins_moving_first(g, rs, pos.place(v, p), p.opponent)
                for v in moves
            )
            assert wins == has_winning_child


@given(st.integers(1, 6), st.integers(0, 2**15 - 1), st.integers(0, 10_000))
def test_colour_swap_duality(n, mask, seed):
    g = graph_from_edge_mask(n, mask)
    rng = random.Random(seed)
    rs = random_ruleset(rng)
    pos = random_legal_position(g, rs, rng)
    assert outcome(g, rs, Position(pos.red, pos.blue)) is MIRRORED[outcome(g, rs, pos)]


def test_colour_swap_duality_bigraph():
    from distance_games import Ownership, Ruleset

    g, (left, right) = gen_complete_bipartite(2, 1)
    rs = bigraph_node_kayles(left, right)
    swapped_rs = Ruleset(rs.d, rs.s, Ownership(rs.ownership.right, rs.ownership.left))
    assert outcome(g, swapped_rs, Position()) is MIRRORED[outcome(g, rs, Position())]


class TestDeterminismAndStats:
    def test_repeated_runs_identical(self):
        g = gen_path(5)
        rs = node_kayles()
        runs = [(outcome(g, rs), best_move(g, rs, Position(), L)) for _ in range(3)]
        assert len(set(runs)) == 1

    def test_stats_counters(self):
        g = gen_path(5)
        stats = SearchStats()
        wins_moving_first(g, node_kayles(), Position(), L, stats=stats)
        assert stats.nodes > 0
        assert stats.hits <= stats.nodes
        assert 0 < stats.peak_entries <= stats.nodes


class TestStonesPastTheLastVertex:
    """Each search refuses a stone past the last vertex once, before its
    first node, with the message the board writers use."""

    @pytest.mark.parametrize("search, pos, index", [
        (lambda pos: outcome(gen_path(3), snort(), pos), Position(blue=1 << 5), 5),
        (lambda pos: best_move(gen_path(3), snort(), pos), Position(red=1 << 7), 7),
        (lambda pos: wins_moving_first(gen_path(3), col(), pos, Player.RIGHT),
         Position(blue=0b1, red=1 << 3), 3),
    ], ids=["outcome", "best_move", "wins_moving_first"])
    def test_refused(self, search, pos, index):
        with pytest.raises(InvalidParameterError) as err:
            search(pos)
        assert str(err.value) == (
            f"stone at vertex index {index} is past the last vertex (the graph has 3)"
        )


class TestDepthGuard:
    def test_limit_is_fixed_headroom_below_recursion_limit(self):
        limit = sys.getrecursionlimit() - RECURSION_HEADROOM
        check_depth(limit)
        with pytest.raises(SearchTooDeepError):
            check_depth(limit + 1)

    def test_counts_playable_not_empty_vertices(self):
        # 1,200 empty leaves, none playable: the stone on the hub blocks all.
        g, (hub, _leaves) = gen_complete_bipartite(1, 1200)
        pos = Position().place(min(hub), Player.LEFT)
        assert outcome(g, node_kayles(), pos) is Outcome.SECOND_WINS
        with pytest.raises(SearchTooDeepError):
            outcome(g, node_kayles())
