"""Exact game-tree search for distance games under normal play.

Depth-first minimax over all legal placements, memoized in a transposition
table keyed by the two colour bitmasks plus the player to move. Moves are
tried in ascending vertex index, so results and reported best moves are
deterministic. Gadget vertices in reduced instances get no special
treatment; if they are unplayable that has to come out of the rules.

The search recurses once per ply. Stones only ever add constraints, so no
line of play is longer than the number of vertices someone could take now;
a search that could go deeper than the recursion limit allows is refused
with `SearchTooDeepError` before it starts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

from .errors import SearchTooDeepError
from .graph import Graph
from .rules import LegalityIndex, Player, Position, Ruleset, check_in_range


class Outcome(Enum):
    LEFT_WINS = "LeftWins"
    RIGHT_WINS = "RightWins"
    FIRST_WINS = "FirstWins"
    SECOND_WINS = "SecondWins"

    @staticmethod
    def from_first_move_wins(left_first: bool, right_first: bool) -> "Outcome":
        if left_first and right_first:
            return Outcome.FIRST_WINS
        if left_first:
            return Outcome.LEFT_WINS
        if right_first:
            return Outcome.RIGHT_WINS
        return Outcome.SECOND_WINS


class MoveStatus(Enum):
    """Non-vertex results of a best-move query."""

    NO_MOVE = "no-move"
    NO_WINNING_MOVE = "no-winning-move"


@dataclass
class SearchStats:
    """Counters for one search: node visits, table hits, peak table size."""

    nodes: int = 0
    hits: int = 0
    peak_entries: int = 0


# Frames left free below the interpreter's recursion limit for the callers
# above the first search frame (CLI, worker pool, test runner).
RECURSION_HEADROOM = 200


def check_depth(plies: int) -> None:
    """Refuse a recursive search or walk that may nest `plies` frames deep."""
    limit = sys.getrecursionlimit() - RECURSION_HEADROOM
    if plies > limit:
        raise SearchTooDeepError(
            f"the game tree may be {plies} plies deep; the recursive search "
            f"handles at most {limit}"
        )


def _check_playable(index: LegalityIndex, pos: Position):
    # Once per search, so the per-node move generation need not check.
    check_in_range("stone", pos.occupied, len(index.d_mask))
    playable = index.legal_moves_mask(pos, Player.LEFT) | index.legal_moves_mask(pos, Player.RIGHT)
    check_depth(playable.bit_count())


def _search(index: LegalityIndex, table: dict, stats: SearchStats,
            pos: Position, player: Player) -> bool:
    stats.nodes += 1
    key = (pos.blue, pos.red, player)
    cached = table.get(key)
    if cached is not None:
        stats.hits += 1
        return cached
    win = False
    opponent = player.opponent
    moves = index.legal_moves_mask(pos, player)
    while moves and not win:
        bit = moves & -moves
        moves ^= bit
        win = not _search(index, table, stats, pos.place(bit.bit_length() - 1, player), opponent)
    table[key] = win
    if len(table) > stats.peak_entries:
        stats.peak_entries = len(table)
    return win


def wins_moving_first(g: Graph, rs: Ruleset, pos: Position = Position(),
                      player: Player = Player.LEFT, *,
                      index: LegalityIndex | None = None,
                      stats: SearchStats | None = None) -> bool:
    """Whether `player`, moving next from `pos`, can force the last move."""
    idx = index if index is not None else LegalityIndex(g, rs)
    _check_playable(idx, pos)
    return _search(idx, {}, stats if stats is not None else SearchStats(), pos, player)


def outcome(g: Graph, rs: Ruleset, pos: Position = Position(), *,
            stats: SearchStats | None = None) -> Outcome:
    """Outcome class of `pos`: who wins under optimal alternating play."""
    idx = LegalityIndex(g, rs)
    left = wins_moving_first(g, rs, pos, Player.LEFT, index=idx, stats=stats)
    right = wins_moving_first(g, rs, pos, Player.RIGHT, index=idx, stats=stats)
    return Outcome.from_first_move_wins(left, right)


def best_move(g: Graph, rs: Ruleset, pos: Position = Position(),
              player: Player = Player.LEFT, *,
              stats: SearchStats | None = None) -> int | MoveStatus:
    """Lowest-index winning placement for `player`, if any.

    Returns MoveStatus.NO_MOVE when no placement is legal at all and
    MoveStatus.NO_WINNING_MOVE when every legal placement loses.
    """
    idx = LegalityIndex(g, rs)
    _check_playable(idx, pos)
    stats = stats if stats is not None else SearchStats()
    table: dict = {}
    moves = idx.legal_moves_mask(pos, player)
    result: int | MoveStatus = MoveStatus.NO_MOVE if not moves else MoveStatus.NO_WINNING_MOVE
    while moves:
        bit = moves & -moves
        i = bit.bit_length() - 1
        if not _search(idx, table, stats, pos.place(i, player), player.opponent):
            result = i
            break
        moves ^= bit
    return result
