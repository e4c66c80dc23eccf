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


class Player(Enum):
    LEFT = "L"
    RIGHT = "R"

    @property
    def opponent(self) -> "Player":
        return Player.RIGHT if self is Player.LEFT else Player.LEFT


@dataclass(frozen=True)
class Ownership:
    """Which player may occupy which vertices, as bitmasks over the dense
    vertex indices of one fixed graph."""

    left: int
    right: int

    def __post_init__(self):
        if self.left < 0 or self.right < 0:
            raise InvalidParameterError("ownership masks must be >= 0")
        if self.left & self.right:
            raise InvalidParameterError("ownership sides must be disjoint")


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
    """Node-Kayles where Left owns one side of a bipartition, Right the other;
    each side is given as vertex indices."""
    sides = (frozenset(left), frozenset(right))
    if min(sides[0] | sides[1], default=0) < 0:
        raise InvalidParameterError("ownership indices must be >= 0")
    masks = (sum(1 << i for i in side) for side in sides)
    return Ruleset(frozenset({1}), frozenset({1}), Ownership(*masks))


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

    def place(self, i: int, player: Player) -> "Position":
        """This position plus `player`'s stone on i: Left's blue, Right's red."""
        bit = 1 << i
        if player is Player.LEFT:
            return Position(self.blue | bit, self.red)
        return Position(self.blue, self.red | bit)


def check_in_range(what: str, mask: int, count: int) -> None:
    """Raise InvalidParameterError naming the first index set in `mask` that
    is past the last of `count` vertices, as `{what} at vertex index i`."""
    stray = mask >> count
    if stray:
        i = count + (stray & -stray).bit_length() - 1
        raise InvalidParameterError(
            f"{what} at vertex index {i} is past the last vertex (the graph has {count})"
        )


def _owned(rs: Ruleset, i: int, player: Player) -> bool:
    own = rs.ownership
    if own is None:
        return True
    if not (own.left | own.right) >> i & 1:
        raise InvalidParameterError(f"ownership map does not cover vertex index {i}")
    return bool((own.left if player is Player.LEFT else own.right) >> i & 1)


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
    if pos.occupied >> i & 1:
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
    return pos.place(i, player)


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
    if own is not None and (blue & ~own.left or red & ~own.right):
        return False
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
        everything = (1 << n) - 1
        own = rs.ownership
        if own is None:
            self._left = self._right = everything
        elif own.left | own.right != everything:
            raise InvalidParameterError("ownership map must cover every vertex")
        else:
            self._left, self._right = own.left, own.right

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
        check_in_range("stone", pos.occupied, len(self.d_mask))
        return self._blocked_for(pos.blue, pos.red), self._blocked_for(pos.red, pos.blue)

    def legal_moves_mask(self, pos: Position, player: Player) -> int:
        if player is Player.LEFT:
            allowed, own, opp = self._left, pos.blue, pos.red
        else:
            allowed, own, opp = self._right, pos.red, pos.blue
        return allowed & ~(own | opp) & ~self._blocked_for(own, opp)
