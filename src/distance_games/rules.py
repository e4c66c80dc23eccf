"""Rulesets, positions, and move legality for distance games.

A ruleset is a pair of forbidden-distance sets: placing a stone is illegal
at any distance in `d` from an opposite-colour stone and at any distance in
`s` from a same-colour stone. The restricted two-sided variant layers an
ownership map on top of the all-distances-one ruleset, so one legality code
path serves every game.

Every forbidden distance is at least 1, so a ball's layers start at
distance 1. `is_legal` is the reference implementation: it takes the ball
of radius max(d | s) around the candidate vertex as one bitmask per
distance and tests the stone masks against the forbidden layers.
`LegalityIndex` precomputes per-vertex forbidden-witness bitmasks for the
solver and verifier, reusing a ball's own layer where one distance is
forbidden, summing the leading layers for an interval {1..k}, and sharing
one mask list for both colours when d = s; it must stay observationally
equivalent to `is_legal` and is tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import IllegalMoveError, InvalidParameterError
from .graph import Graph


class Colour(Enum):
    BLUE = "B"
    RED = "R"

    @property
    def opposite(self) -> "Colour":
        return Colour.RED if self is Colour.BLUE else Colour.BLUE


class Player(Enum):
    LEFT = "L"
    RIGHT = "R"

    @property
    def colour(self) -> Colour:
        return Colour.BLUE if self is Player.LEFT else Colour.RED

    @property
    def opponent(self) -> "Player":
        return Player.RIGHT if self is Player.LEFT else Player.LEFT


@dataclass(frozen=True)
class Ownership:
    """Which player may occupy which vertices (indices into one fixed graph)."""

    left: frozenset[int]
    right: frozenset[int]

    def __post_init__(self):
        if self.left & self.right:
            raise InvalidParameterError("ownership sides must be disjoint")

    def side(self, player: Player) -> frozenset[int]:
        return self.left if player is Player.LEFT else self.right

    def covers(self, n: int) -> bool:
        return self.left | self.right == frozenset(range(n))


@dataclass(frozen=True)
class Ruleset:
    """Forbidden opposite-colour distances `d`, same-colour distances `s`.

    `ownership` is present exactly for the two-sided restricted variant,
    which additionally fixes d = s = {1}.
    """

    d: frozenset[int]
    s: frozenset[int]
    ownership: Ownership | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", frozenset(self.d))
        object.__setattr__(self, "s", frozenset(self.s))
        for x in self.d | self.s:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise InvalidParameterError("distance sets must hold integers >= 1")
        if self.ownership is not None and (self.d != {1} or self.s != {1}):
            raise InvalidParameterError("ownership requires d = s = {1}")

    @property
    def variant(self) -> str:
        return "bigraph" if self.ownership is not None else "distance"

    @property
    def max_radius(self) -> int:
        """Largest forbidden distance; 0 when both sets are empty."""
        return max(self.d | self.s, default=0)


def distance_game(d: Iterable[int], s: Iterable[int]) -> Ruleset:
    """General ruleset from explicit forbidden-distance sets."""
    return Ruleset(frozenset(d), frozenset(s))


def snort() -> Ruleset:
    """Adjacent vertices may not take different colours."""
    return Ruleset(frozenset({1}), frozenset())


def col() -> Ruleset:
    """Adjacent vertices may not take the same colour."""
    return Ruleset(frozenset(), frozenset({1}))


def node_kayles() -> Ruleset:
    """No stone adjacent to any other stone; impartial."""
    return Ruleset(frozenset({1}), frozenset({1}))


def bigraph_node_kayles(left: Iterable[int], right: Iterable[int]) -> Ruleset:
    """Node-Kayles where Left owns one side of a bipartition, Right the other."""
    return Ruleset(
        frozenset({1}), frozenset({1}), Ownership(frozenset(left), frozenset(right))
    )


@dataclass(frozen=True)
class Position:
    """Partial two-colouring, stored as bitmasks over dense vertex indices."""

    blue: int = 0
    red: int = 0

    def __post_init__(self):
        if self.blue < 0 or self.red < 0:
            raise InvalidParameterError("stone masks must be >= 0")
        if self.blue & self.red:
            raise InvalidParameterError("a vertex cannot hold both colours")

    @property
    def occupied(self) -> int:
        return self.blue | self.red

    def colour_at(self, i: int) -> Colour | None:
        bit = 1 << i
        if self.blue & bit:
            return Colour.BLUE
        if self.red & bit:
            return Colour.RED
        return None

    def place(self, i: int, colour: Colour) -> "Position":
        bit = 1 << i
        if colour is Colour.BLUE:
            return Position(self.blue | bit, self.red)
        return Position(self.blue, self.red | bit)

    @property
    def stone_count(self) -> int:
        return self.occupied.bit_count()


def _owned(rs: Ruleset, i: int, player: Player) -> bool:
    if rs.ownership is None:
        return True
    if i in rs.ownership.side(player):
        return True
    if i in rs.ownership.side(player.opponent):
        return False
    raise InvalidParameterError(f"ownership map does not cover vertex index {i}")


def _clashes(layers: tuple[int, ...], rs: Ruleset, same: int, other: int) -> bool:
    # Whether a stone with these ball layers sees a same-colour stone (in
    # `same`) at a distance in s or an opposite one (in `other`) in d.
    s, d = rs.s, rs.d
    for dist, layer in enumerate(layers, 1):
        if dist in s and layer & same or dist in d and layer & other:
            return True
    return False


def is_legal(g: Graph, rs: Ruleset, pos: Position, v: int | str, player: Player) -> bool:
    """Whether `player` may place a stone on `v` in `pos`.

    Reference implementation: only stones inside the ball of radius
    max(d | s) around v can forbid the move, so each of its distance
    layers, from distance 1 up, is tested against the stones of each
    colour. Unreachable vertices lie in no layer and never match a
    forbidden distance.
    """
    i = g.index_of(v)
    if pos.colour_at(i) is not None:
        return False
    if not _owned(rs, i, player):
        return False
    radius = rs.max_radius
    if radius == 0:
        return True
    if player is Player.LEFT:
        same, other = pos.blue, pos.red
    else:
        same, other = pos.red, pos.blue
    return not _clashes(g.ball(i, radius), rs, same, other)


def apply_move(g: Graph, rs: Ruleset, pos: Position, v: int | str, player: Player) -> Position:
    """New position with `player`'s stone on `v`; the input is unchanged."""
    i = g.index_of(v)
    if not is_legal(g, rs, pos, i, player):
        raise IllegalMoveError(f"{player.name} cannot play {g.name_of(i)!r}")
    return pos.place(i, player.colour)


def position_is_legal(g: Graph, rs: Ruleset, pos: Position) -> bool:
    """Whether a standalone position violates no distance or ownership rule.

    Ownership is checked first. Then each stone, in ascending index order,
    is tested with `_clashes`, the rule `is_legal` uses: its ball's layers
    against its own colour's stones at the distances in `s` and the other
    colour's at those in `d`. A ball's layers stop at the stone's
    eccentricity, so a forbidden distance past it costs nothing.
    """
    blue, red = pos.blue, pos.red
    own = rs.ownership
    if own is not None:
        for stones, side in ((blue, own.left), (red, own.right)):
            while stones:
                bit = stones & -stones
                if bit.bit_length() - 1 not in side:
                    return False
                stones ^= bit
    radius = rs.max_radius
    if radius == 0:
        return True
    ball = g.ball
    stones = blue | red
    while stones:
        bit = stones & -stones
        same, other = (blue, red) if blue & bit else (red, blue)
        if _clashes(ball(bit.bit_length() - 1, radius), rs, same, other):
            return False
        stones ^= bit
    return True


def _witness_masks(balls, dists: frozenset[int], n: int) -> list[int]:
    # Per vertex, the OR of its ball layers at the distances in `dists`.
    if not dists:
        return [0] * n
    if len(dists) == 1:
        (k,) = dists
        return [layers[k - 1] if len(layers) >= k else 0 for layers in balls]
    k = max(dists)
    if k == len(dists):
        # The interval {1..k}: the layers are disjoint, so their sum is their OR.
        return [sum(layers[:k]) for layers in balls]
    out = []
    for layers in balls:
        mask = 0
        for k in dists:
            if k <= len(layers):
                mask |= layers[k - 1]
        out.append(mask)
    return out


class LegalityIndex:
    """Per-vertex forbidden-witness bitmasks for one (graph, ruleset) pair.

    For each vertex i, `d_mask[i]` collects the vertices at a distance in
    `d` from i and `s_mask[i]` those at a distance in `s`: each is the OR
    of the ball layers of i at those distances. A set with one distance
    takes the ball's own layer object, an interval {1..k} is the sum of
    the first k layers (disjoint, so the sum is their OR), and when d = s
    both names hold one list; callers must not change the lists in place.
    The balls come from one `Graph.ball` call per vertex: the first fills
    the whole row for the radius when the row fits the graph's row
    allowance, and then the rest are memo hits. Balls that do not fit the
    graph's memo budget raise BallBudgetError here.

    Distance is symmetric, so these are also the vertices a stone on i
    forbids: a blue stone on i blocks `s_mask[i]` for Left and `d_mask[i]`
    for Right, a red stone the mirror image. `blocked(pos)` ORs those
    masks over the stones, and the legal moves are then one expression,
    `allowed & ~occupied & ~blocked`. Callers that place stones one at a
    time (the verifier walk) keep the two blocked masks up to date with
    the same rule instead of recomputing them. Freezes the graph on
    construction; safe to share once built.
    """

    __slots__ = ("d_mask", "s_mask", "_left", "_right")

    def __init__(self, g: Graph, rs: Ruleset):
        g.freeze()
        n = g.vertex_count
        radius = rs.max_radius
        balls = [g.ball(i, radius) for i in range(n)] if radius else ()
        self.d_mask = _witness_masks(balls, rs.d, n)
        self.s_mask = self.d_mask if rs.s == rs.d else _witness_masks(balls, rs.s, n)
        if rs.ownership is None:
            self._left = self._right = (1 << n) - 1
        else:
            if not rs.ownership.covers(n):
                raise InvalidParameterError("ownership map must cover every vertex")
            self._left = sum(1 << i for i in rs.ownership.left)
            self._right = sum(1 << i for i in rs.ownership.right)

    def allowed(self, player: Player) -> int:
        """Vertices `player` may ever occupy (all of them outside bigraphs)."""
        return self._left if player is Player.LEFT else self._right

    def _blocked_for(self, own: int, opp: int) -> int:
        # Vertices where a stone of the `own` colour is forbidden.
        d_mask, s_mask = self.d_mask, self.s_mask
        out = 0
        while own:
            bit = own & -own
            out |= s_mask[bit.bit_length() - 1]
            own ^= bit
        while opp:
            bit = opp & -opp
            out |= d_mask[bit.bit_length() - 1]
            opp ^= bit
        return out

    def blocked(self, pos: Position) -> tuple[int, int]:
        """(Left, Right): the vertices each player is forbidden to take in `pos`."""
        return self._blocked_for(pos.blue, pos.red), self._blocked_for(pos.red, pos.blue)

    def legal_moves_mask(self, pos: Position, player: Player) -> int:
        if player is Player.LEFT:
            allowed, own, opp = self._left, pos.blue, pos.red
        else:
            allowed, own, opp = self._right, pos.red, pos.blue
        return allowed & ~(own | opp) & ~self._blocked_for(own, opp)

    def legal_moves(self, pos: Position, player: Player) -> list[int]:
        """Legal placement indices, ascending."""
        mask = self.legal_moves_mask(pos, player)
        out = []
        while mask:
            bit = mask & -mask
            out.append(bit.bit_length() - 1)
            mask ^= bit
        return out
