"""Constructive reductions between distance-game rulesets.

Each reduction takes a source game and produces a ReducedInstance: a new
graph containing the original vertices untouched (same names, same leading
indices), gadget machinery around them, fixed gadget stones as the starting
position, and the target ruleset. The intent, checked by the verifier
module rather than assumed here, is that play on the original vertices is
move-for-move the same game as the source.

Degenerate parameters that make the target coincide with the source (for
example a distance bound of 1) return a copy of the source graph with no
gadgets instead of erroring.

Every builder starts its target with one `add_block` of the source and
then embeds each gadget copy under its own prefix `g{k}`, recording the
copy as a placement `(first, shape)`; names live only in the target graph.
The two bigraph builders check their source ruleset with
`rules.allowed_masks` and read its sides as ownership masks.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import InvalidParameterError, ParameterViolationError
from .fileformat import parse_int
from .gadgets import (
    MAX_GADGET_SIZE,
    GadgetInstance,
    Placement,
    check_target_size,
    embed_gadget,
    forbidden_path,
    splice_edges,
    stones_position,
)
from .graph import Bipartition, Graph
from .rules import (
    Player,
    Position,
    Ruleset,
    allowed_masks,
    bigraph_node_kayles,
    check_in_range,
    col,
    distance_game,
    node_kayles,
    position_is_legal,
    snort,
)


@dataclass(frozen=True)
class ReducedInstance:
    """Output of one reduction, ready for solving and verification.

    The source's vertices are the target's first vertices, with the same
    names in the same order, so a source index is also the target index of
    the same vertex. `gadgets` holds the gadget copies as placements
    `(first, shape)` in embedding order; they tile the rest of the target,
    each starting where the one before ends, the first right after the
    source's vertices and the last ending at the target's last vertex.
    """

    source_graph: Graph
    source_ruleset: Ruleset
    target_graph: Graph
    target_ruleset: Ruleset
    initial_position: Position
    gadgets: tuple[Placement, ...]

    def __post_init__(self):
        names = self.source_graph.names
        if self.target_graph.names[:len(names)] != names:
            raise InvalidParameterError(
                "the target's first vertices must be the source's vertices, in order"
            )
        end = len(names)
        for first, shape in self.gadgets:
            if first != end:
                raise InvalidParameterError(
                    f"a gadget copy starts at target index {first}, not at {end}"
                )
            end += len(shape.vertices)
        if end != self.target_graph.vertex_count:
            raise InvalidParameterError(
                f"the gadget copies end at target index {end}, not at the "
                f"target's {self.target_graph.vertex_count} vertices"
            )
        check_in_range("stone", self.initial_position.occupied, end)


def _bigraph_source(g: Graph, left, right) -> Ruleset:
    """The two-sided Node-Kayles ruleset whose sides are `left` and `right`
    (vertex names or indices), refused unless `rules.allowed_masks` accepts
    it on g and no edge stays inside one side."""
    rs = bigraph_node_kayles(map(g.index_of, left), map(g.index_of, right))
    left_mask, _ = allowed_masks(g, rs)
    for i, j in g.edges():
        if not (left_mask >> i ^ left_mask >> j) & 1:
            raise InvalidParameterError(
                f"edge {g.name_of(i)!r} -- {g.name_of(j)!r} stays inside one side"
            )
    return rs


def _finish(source_graph: Graph, source_rs: Ruleset, target_graph: Graph,
            target_rs: Ruleset, gadgets: Iterable[Placement]) -> ReducedInstance:
    gadgets = tuple(gadgets)
    target_graph.freeze()
    source_graph.freeze()
    pos = stones_position(gadgets)
    instance = ReducedInstance(
        source_graph=source_graph,
        source_ruleset=source_rs,
        target_graph=target_graph,
        target_ruleset=target_rs,
        initial_position=pos,
        gadgets=gadgets,
    )
    # A construction invariant, checked under `python -O` too; a failure
    # here is a bug in the builder.
    if not position_is_legal(target_graph, target_rs, pos):
        raise AssertionError("gadget stones clash")
    return instance


def _spliced(g: Graph, source_rs: Ruleset, d: Iterable[int], s: Iterable[int],
             r: int) -> ReducedInstance:
    """Every edge spliced with a path of r-1 size-r blockers (none when
    r = 1, the identity), then the target ruleset (d, s); the splice checks
    r against the gadget cap first, so r also bounds the distance sets."""
    new, paths = splice_edges(g, r - 1, r)
    return _finish(g, source_rs, new, distance_game(d, s), paths)


def reduce_bgnk_to_d12(g: Graph, left, right, s: Iterable[int] = ()) -> ReducedInstance:
    """Two-sided Node-Kayles to the distance game with d = {1,2}.

    Each non-empty side gets a small anchoring gadget whose fixed stone of
    that side's colour sits at distance two from every side vertex, locking
    the side to its player. With s empty the anchor needs a second, opposite
    stone two steps further out to make its own attachment vertex
    unplayable; with s = {1} the single stone already does that.
    """
    s = frozenset(s)
    if s not in (frozenset(), frozenset({1})):
        raise ParameterViolationError("same-colour set must be {} or {1}")
    source_rs = _bigraph_source(g, left, right)
    own = source_rs.ownership

    new = Graph()
    new.add_block(g.names, g.edges())
    gadgets: list[Placement] = []
    for side, player, near, far in ((own.left, Player.LEFT, ".B", ".R"),
                                    (own.right, Player.RIGHT, ".R", ".B")):
        if not side:
            continue
        stone = Position().place(1, player)
        if s:
            gadget = GadgetInstance(
                vertices=(".v", near),
                edges=((0, 1),),
                stones=stone,
                ports=(("attach", 0),),
            )
        else:
            gadget = GadgetInstance(
                vertices=(".v2", near, ".v1", far),
                edges=((0, 1), (0, 2), (2, 3)),
                stones=stone.place(3, player.opponent),
                ports=(("attach", 0),),
            )
        first = embed_gadget(new, gadget, f"g{len(gadgets)}")
        for u in (u for u in range(g.vertex_count) if side >> u & 1):
            new.add_edge(u, first + gadget.port("attach"))
        gadgets.append((first, gadget))

    return _finish(g, source_rs, new, distance_game({1, 2}, s), gadgets)


def reduce_snort_family(g: Graph, n: int, s: Iterable[int] = ()) -> ReducedInstance:
    """Adjacency-only cross-colour blocking to blocking at all distances up to n.

    Splices every edge with a path of n-1 size-n blockers, stretching former
    neighbours to distance exactly n. Any same-colour set with maximum below
    n rides along for free.
    """
    s = frozenset(s)
    if n < 1:
        raise ParameterViolationError("n must be >= 1")
    if max(s, default=0) >= n:
        raise ParameterViolationError("same-colour set must have max below n")
    return _spliced(g, snort(), range(1, n + 1), s, n)


def reduce_node_kayles_equalmax(g: Graph, d: Iterable[int], s: Iterable[int]) -> ReducedInstance:
    """Node-Kayles to any game whose two distance sets share their maximum m,
    provided one of them is the full interval {1..m}.

    Same edge splice as the cross-colour family; since m is in both sets, a
    stone on a former edge endpoint blocks the other endpoint for both
    players, which is exactly the Node-Kayles constraint.
    """
    d, s = frozenset(d), frozenset(s)
    if not d or not s:
        raise ParameterViolationError("both distance sets must be non-empty")
    m = max(d)
    if max(s) != m:
        raise ParameterViolationError("the two sets must share their maximum")
    if _interval_top(d) is None and _interval_top(s) is None:
        raise ParameterViolationError("one set must be the full interval up to the maximum")
    return _spliced(g, node_kayles(), d, s, m)


def reduce_col_family(g: Graph, k: int, d: Iterable[int] = ()) -> ReducedInstance:
    """Adjacency-only same-colour blocking to blocking at all distances up to k.

    Mirror of the cross-colour family with the two set roles swapped: edges
    become paths of k-1 size-k blockers, and any cross-colour set with
    maximum below k has no effect on the original vertices.
    """
    d = frozenset(d)
    if k < 1:
        raise ParameterViolationError("k must be >= 1")
    if max(d, default=0) >= k:
        raise ParameterViolationError("cross-colour set must have max below k")
    return _spliced(g, col(), d, range(1, k + 1), k)


def reduce_bgnk_window(g: Graph, left, right, d: Iterable[int], k: int,
                       allow_out_of_range: bool = False) -> ReducedInstance:
    """Two-sided Node-Kayles to games with s = {1..k} and max(d) = n, n < k < 2n.

    Edges are spliced with paths of n-1 size-k blockers (the same-colour set
    is the interval that powers the blockers), putting former neighbours at
    distance n. Each side vertex is then anchored through its own path of
    k-1 blockers to one shared stone per side, exactly k away: the stone's
    colour blocks that side for the same-coloured opponent stone set via s,
    while d cannot reach it because max(d) = n < k.

    The upper bound k < 2n matters: two same-side vertices with a common
    neighbour end up 2n apart, and if k were 2n or more a stone on one would
    wrongly block the other through s. `allow_out_of_range` builds such an
    instance anyway so the verifier can exhibit the failure.
    """
    d = frozenset(d)
    if not d:
        raise ParameterViolationError("cross-colour set must be non-empty")
    n = max(d)
    if not 1 < n < k:
        raise ParameterViolationError("need 1 < max(d) < k")
    if k >= 2 * n and not allow_out_of_range:
        raise ParameterViolationError(
            f"k = {k} >= 2*max(d) = {2 * n}: same-side vertices sharing a neighbour sit "
            f"{2 * n} apart after the splice, within the same-colour range; the "
            "construction is unsound there (pass allow_out_of_range to build it anyway)"
        )
    source_rs = _bigraph_source(g, left, right)
    own = source_rs.ownership

    new, gadgets = splice_edges(g, n - 1, k)
    shape = forbidden_path(k - 1, k)
    # The sides own every source vertex once, so each gets one path.
    check_target_size(new.vertex_count + g.vertex_count * len(shape.vertices)
                      + bool(own.left) + bool(own.right))
    left_port, right_port = shape.port("left"), shape.port("right")
    for side, name, stones in ((own.left, ".R", Position(red=1)),
                               (own.right, ".B", Position(blue=1))):
        # The shared stone carries the colour the side may NOT take.
        if not side:
            continue
        ends = []
        for u in (u for u in range(g.vertex_count) if side >> u & 1):
            first = embed_gadget(new, shape, f"g{len(gadgets)}")
            new.add_edge(u, first + left_port)
            ends.append(first + right_port)
            gadgets.append((first, shape))
        stone_gadget = GadgetInstance(vertices=(name,), edges=(), stones=stones, ports=())
        stone = embed_gadget(new, stone_gadget, f"g{len(gadgets)}")
        for end in ends:
            new.add_edge(end, stone)
        gadgets.append((stone, stone_gadget))

    return _finish(g, source_rs, new, distance_game(d, range(1, k + 1)), gadgets)


# -- registry (used by the verifier corpora and the CLI) ----------------------


_NAMED_SOURCES = {snort(): "snort", col(): "col", node_kayles(): "node-kayles"}


def source_kind(rs: Ruleset) -> str | None:
    """The source game a ruleset plays: bgnk, snort, col, node-kayles, or None."""
    return "bgnk" if rs.ownership is not None else _NAMED_SOURCES.get(rs)


def _read_set(text: str) -> frozenset[int]:
    """'empty', '2', '1-3' (range), or '1+3' (explicit elements), each
    element at most MAX_GADGET_SIZE (checked before expanding)."""
    if text == "empty":
        return frozenset()
    out: set[int] = set()
    for piece in text.split("+"):
        lo, dash, hi = piece.partition("-")
        lo, hi = parse_int(lo), parse_int(hi if dash else lo)
        if lo > hi:
            raise InvalidParameterError(
                f"bad range {piece!r}; its low end is above its high end"
            )
        if hi > MAX_GADGET_SIZE:
            raise InvalidParameterError(
                f"bad set value {piece!r}; elements must be at most {MAX_GADGET_SIZE}"
            )
        out.update(range(lo, hi + 1))
    return frozenset(out)


# For each parameter kind: how `verify --params` text is read (ValueError
# for text that is not of the kind), how a verify descriptor writes a
# value, and what a bad value was expected to be.
ParamKind = namedtuple("ParamKind", "read write expected")
PARAM_KINDS: dict[str, ParamKind] = {
    "int": ParamKind(parse_int, str, "an integer"),
    "set": ParamKind(_read_set, lambda v: "+".join(map(str, sorted(v))) or "empty",
                     "a set like empty, 2, 1-3 or 1+3"),
    "flag": ParamKind(lambda text: bool(("false", "true").index(text.lower())),
                      lambda v: "true" if v else "false", "true or false"),
}


@dataclass(frozen=True)
class ReductionSpec:
    """One reduction: the source kind it starts from, the targets it reaches,
    and how to build it generically from (graph, bipartition, params).

    `accepts(target)` returns the build parameters for a target ruleset, or
    None when the reduction does not reach it; the build may still refuse
    parameters outside the construction's range.
    """

    name: str
    source: str  # a source_kind() value
    param_types: tuple[tuple[str, str], ...]  # (param name, a PARAM_KINDS key)
    reduce: str  # name of the reduce_* function in this module
    accepts: Callable[[Ruleset], dict | None]
    reaches: str  # the accepted targets, for messages
    required: tuple[str, ...] = ()

    @property
    def bipartite(self) -> bool:
        return self.source == "bgnk"

    def build(self, g: Graph, bipartition: Bipartition | None, params: dict) -> ReducedInstance:
        """Call the reduce function with g, the bipartition's sides for a bgnk
        source, and `params`, whose names `check_params` checks first."""
        self.check_params({name: [value] for name, value in params.items()})
        # Looked up by name on every call rather than stored, so that wrappers
        # put on this module's reduce_* functions (perfbench's tracer) see
        # every build.
        reduce = globals()[self.reduce]
        sides = bipartition if self.bipartite else ()
        return reduce(g, *sides, **params)

    def check_params(self, grid: dict) -> None:
        """Raise InvalidParameterError naming a grid entry this reduction does
        not take or gives no values, or a required parameter not given."""
        kinds = dict(self.param_types)
        for name, values in grid.items():
            if name not in kinds or not values:
                raise InvalidParameterError(
                    f"{self.name} takes {sorted(kinds)}, each with values; got {name}={values!r}"
                )
        missing = [name for name in self.required if name not in grid]
        if missing:
            raise InvalidParameterError(
                f"{self.name} needs parameter(s) {', '.join(missing)}"
            )


def _interval_top(values: frozenset) -> int | None:
    """k when values == {1..k}, else None."""
    k = len(values)
    return k if values == frozenset(range(1, k + 1)) else None


def _accepts_bgnk_d12(target):
    return {"s": target.s} if target.d == {1, 2} and target.s <= {1} else None


def _accepts_snort_family(target):
    n = _interval_top(target.d)
    return None if n is None else {"n": n, "s": target.s}


def _accepts_equalmax(target):
    return {"d": target.d, "s": target.s}


def _accepts_col_family(target):
    k = _interval_top(target.s)
    return None if k is None else {"k": k, "d": target.d}


def _accepts_bgnk_window(target):
    k = _interval_top(target.s)
    return None if k is None else {"d": target.d, "k": k}


# For one source kind, the first spec that accepts a target is the one used.
REDUCTIONS: dict[str, ReductionSpec] = {
    spec.name: spec
    for spec in (
        ReductionSpec("bgnk-d12", "bgnk", (("s", "set"),), "reduce_bgnk_to_d12",
                      _accepts_bgnk_d12, "D={1,2} with S empty or {1}"),
        ReductionSpec("snort-family", "snort", (("n", "int"), ("s", "set")),
                      "reduce_snort_family", _accepts_snort_family,
                      "D a full interval {1..n}, max(S) < n", ("n",)),
        ReductionSpec("node-kayles-equalmax", "node-kayles", (("d", "set"), ("s", "set")),
                      "reduce_node_kayles_equalmax", _accepts_equalmax,
                      "max(D) = max(S) = m, D or S the full interval {1..m}", ("d", "s")),
        ReductionSpec("col-family", "col", (("k", "int"), ("d", "set")),
                      "reduce_col_family", _accepts_col_family,
                      "S a full interval {1..k}, max(D) < k", ("k",)),
        ReductionSpec(
            "bgnk-window", "bgnk",
            (("d", "set"), ("k", "int"), ("allow_out_of_range", "flag")),
            "reduce_bgnk_window", _accepts_bgnk_window,
            "S a full interval {1..k}, 1 < max(D) < k < 2*max(D)", ("d", "k"),
        ),
    )
}

SOURCE_KINDS = tuple(sorted({spec.source for spec in REDUCTIONS.values()}))
