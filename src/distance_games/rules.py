"""Rulesets, positions, and move legality for distance games.

A ruleset is a pair of forbidden-distance sets: placing a stone is illegal
at any distance in `d` from an opposite-colour stone and at any distance in
`s` from a same-colour stone. The restricted two-sided variant layers an
ownership map on top of the all-distances-one ruleset, so one legality code
path serves every game. `allowed_masks` is the one check of a map against
its board, so `is_legal`, `position_is_legal` and `LegalityIndex` refuse
the same (graph, ruleset) pairs.

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
        for mask in (self.left, self.right):
            if type(mask) is not int:
                raise InvalidParameterError(f"ownership mask {mask!r} is not an int")
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
    masks = [0, 0]
    for k, side in enumerate((left, right)):
        for i in side:
            if type(i) is not int:
                raise InvalidParameterError(f"vertex {i!r} is not an index")
            if i < 0:
                raise InvalidParameterError("ownership indices must be >= 0")
            masks[k] |= 1 << i
    return Ruleset(frozenset({1}), frozenset({1}), Ownership(*masks))


@dataclass(frozen=True)
class Position:
    """Partial two-colouring, stored as bitmasks over dense vertex indices."""

    blue: int = 0
    red: int = 0

    def __post_init__(self):
        # Runs per solver node, so each mask is read once.
        blue, red = self.blue, self.red
        if type(blue) is not int or type(red) is not int:
            bad = red if type(blue) is int else blue
            raise InvalidParameterError(f"stone mask {bad!r} is not an int")
        if blue < 0 or red < 0:
            raise InvalidParameterError("stone masks must be >= 0")
        if blue & red:
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


def allowed_masks(g: Graph, rs: Ruleset) -> tuple[int, int]:
    """(Left, Right): the vertices each player may ever occupy on `g`, every
    vertex for both outside bigraphs. An ownership map is refused unless it
    owns every vertex of `g` and none past the last."""
    everything = (1 << g.vertex_count) - 1
    own = rs.ownership
    if own is None:
        return everything, everything
    check_in_range("owner", own.left | own.right, g.vertex_count)
    unowned = everything & ~(own.left | own.right)
    if unowned:
        name = g.name_of((unowned & -unowned).bit_length() - 1)
        raise InvalidParameterError(f"vertex {name!r} has no owner")
    return own.left, own.right


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
    colour; unreachable vertices lie in no layer. Stones past the board
    and a map `allowed_masks` refuses are refused whatever `v` is.
    """
    i = g.index_of(v)
    check_in_range("stone", pos.occupied, g.vertex_count)
    left, right = allowed_masks(g, rs)
    if player is Player.LEFT:
        allowed, same, other = left, pos.blue, pos.red
    else:
        allowed, same, other = right, pos.red, pos.blue
    if not (allowed & ~pos.occupied) >> i & 1:
        return False
    radius = rs.max_radius
    return radius == 0 or not _clashes(g.ball(i, radius), rs, same, other)


def apply_move(g: Graph, rs: Ruleset, pos: Position, v: int | str, player: Player) -> Position:
    """New position with `player`'s stone on `v`; the input is unchanged."""
    i = g.index_of(v)
    if not is_legal(g, rs, pos, i, player):
        raise IllegalMoveError(f"{player.name} cannot play {g.name_of(i)!r}")
    return pos.place(i, player)


def position_is_legal(g: Graph, rs: Ruleset, pos: Position) -> bool:
    """Whether a standalone position violates no distance or ownership rule.

    Refuses what `is_legal` refuses, then checks ownership. Then each stone,
    in ascending index order, is tested with `is_legal`'s `_clashes` rule:
    its ball's layers against its own colour's stones at the distances in
    `s` and the other colour's at those in `d`. A ball's layers stop at the
    stone's eccentricity, so a forbidden distance past it costs nothing.
    """
    check_in_range("stone", pos.occupied, g.vertex_count)
    left, right = allowed_masks(g, rs)
    blue, red = pos.blue, pos.red
    if blue & ~left or red & ~right:
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
    forbids. Stones are only ever added, so a player's moves after a stone
    on i are the moves before less i and one mask of i: a stone on i takes
    i and `s_mask[i]` from its own player's moves and `d_mask[i]` from the
    other's. `legal_moves_mask` computes a move set from scratch; the
    verifier walk starts from it and applies the rule per placed stone.
    Freezes the graph on construction; safe to share once built.
    """

    __slots__ = ("d_mask", "s_mask", "_left", "_right")

    def __init__(self, g: Graph, rs: Ruleset):
        self._left, self._right = allowed_masks(g, rs)
        g.freeze()
        n = g.vertex_count
        radius = rs.max_radius
        balls = [g.ball(i, radius) for i in range(n)] if radius else ()
        self.d_mask = _witness_masks(balls, rs.d, n)
        self.s_mask = self.d_mask if rs.s == rs.d else _witness_masks(balls, rs.s, n)

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

    def legal_moves_mask(self, pos: Position, player: Player) -> int:
        """`player`'s legal moves in `pos` as a mask. Unchecked (it runs per
        search node): stones must lie on the board, as the solver checks once
        per search and a `ReducedInstance` once when built."""
        if player is Player.LEFT:
            allowed, own, opp = self._left, pos.blue, pos.red
        else:
            allowed, own, opp = self._right, pos.red, pos.blue
        return allowed & ~(own | opp) & ~self._blocked_for(own, opp)
