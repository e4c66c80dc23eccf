"""Unplayable-vertex gadgets and `splice_edges`, which splices them into a graph.

The size-r blocker gadget surrounds a port vertex with one fixed red and
one fixed blue stone, both exactly r away, arranged so that every internal
uncoloured vertex sits within distance r of both stones. Whenever one of
the two forbidden-distance sets is the full interval {1..r} (and the other
a subset of it), that makes the port and all internal vertices permanently
unplayable while leaving anything attached to the port by a single edge
untouched, because both stones are at distance r+1 or more from it.

The construction here is derived from those distance requirements and
deliberately treated as untrusted: `verifier.check_gadget_lemma` re-derives every
guarantee through the legality rules, and the test suite requires it to
pass for every r up to MAX_GADGET_SIZE.

Geometry, with q and m chosen per parity:

    port = c0 -- c1 -- ... -- c_m (split)        lower shared segment
    split -- x1 -- ... -- x_{q-1} -- red stone   one upper branch
    split -- y1 -- ... -- y_{q-1} -- blue stone  other upper branch

    odd r:  q = (r+1)/2, m = (r-1)/2
    even r: q = r/2 + 1,  m = r/2 - 1, plus a shortcut edge x1 -- y1

Port-to-stone distance is m + q = r either way. The stone-to-stone
shortest path is 2q = r+1 for odd r and, through the shortcut,
2(q-1) + 1 = r+1 for even r.

Chaining t of these gadgets port-to-port gives an unplayable path whose
end ports are t-1 apart; splicing it in place of an edge puts the old
endpoints at distance t+1. Every reduction splices every edge of its
source or none, so `splice_edges` does exactly that.

A `GadgetInstance` holds its edges, fixed stones and ports as positions
in its vertex tuple. Its names carry no prefix, so each starts with '.'
(`.v`, `.R`, `.f2.x1`). A copy in a host graph is a placement
`(first, shape)`: the host index `embed_gadget` returned for the shape's
position 0, and the shape itself, shared by every copy. `embed_gadget`
names the copy, putting its prefix (`g0` by default) before every name.
Position p of the copy is host index first + p, and the copy's names live
only in the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidParameterError
from .graph import Graph
from .rules import Colour, Position

# Largest gadget size r and path length t accepted. A blocker has about r
# vertices and a path t times that, so without a cap a single number could
# ask for a board of any size; reductions build through these constructors
# and inherit the cap.
MAX_GADGET_SIZE = 64
# Largest reduction target, in vertices. A reduction adds a gadget path per
# source edge (or side vertex), so a dense source asks for millions of
# vertices with small sizes; the count is checked before any is added.
MAX_TARGET_VERTICES = 250_000


def check_gadget_size(what: str, value: int, least: int) -> None:
    """Raise InvalidParameterError unless least <= value <= MAX_GADGET_SIZE."""
    if not least <= value <= MAX_GADGET_SIZE:
        raise InvalidParameterError(
            f"{what} must be between {least} and {MAX_GADGET_SIZE}, got {value}"
        )


def check_target_size(planned: int) -> None:
    """Raise InvalidParameterError if a target would pass MAX_TARGET_VERTICES."""
    if planned > MAX_TARGET_VERTICES:
        raise InvalidParameterError(
            f"the target would have {planned} vertices, above the bound of "
            f"{MAX_TARGET_VERTICES}"
        )


@dataclass(frozen=True)
class GadgetInstance:
    """A gadget shape: vertex names; edges as position pairs, as
    `Graph.add_block` takes them; stones as `(position, Colour)` and ports
    as `(role, position)`. A stone or port that is not an int position of
    `vertices` is refused."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    precoloured: tuple[tuple[int, Colour], ...]
    ports: tuple[tuple[str, int], ...]
    radius: int | None = None
    span: int = 1

    def __post_init__(self):
        n = len(self.vertices)
        places = [("stone", p) for p, _ in self.precoloured]
        places += [("port", p) for _, p in self.ports]
        for what, p in places:
            if type(p) is not int or not 0 <= p < n:
                raise InvalidParameterError(
                    f"gadget {what} {p!r} is not a position of its {n} vertices"
                )

    def port(self, role: str) -> int:
        for r, p in self.ports:
            if r == role:
                return p
        raise KeyError(f"gadget has no port {role!r}")

    @property
    def uncoloured(self) -> tuple[int, ...]:
        """The positions that hold no fixed stone, in order."""
        fixed = {p for p, _ in self.precoloured}
        return tuple(p for p in range(len(self.vertices)) if p not in fixed)


# A copy of a gadget in a host graph: the host index of its position 0, and
# the gadget.
Placement = tuple[int, GadgetInstance]


def forbidden_vertex_gadget(r: int) -> GadgetInstance:
    """Size-r blocker gadget; the single port is the vertex named `.v`."""
    check_gadget_size("gadget size r", r, 1)
    if r % 2:
        q, m = (r + 1) // 2, (r - 1) // 2
    else:
        q, m = r // 2 + 1, r // 2 - 1

    # Positions: the chain is 0..m (port 0, split m), the red branch
    # m+1..m+q ending in the red stone, the blue branch m+q+1..m+2q.
    red, blue = m + q, m + 2 * q
    edges = [(k, k + 1) for k in range(m)]
    for first, stone in ((m + 1, red), (red + 1, blue)):
        edges.append((m, first))
        edges.extend((k, k + 1) for k in range(first, stone))
    if r % 2 == 0:
        edges.append((m + 1, red + 1))

    return GadgetInstance(
        vertices=tuple(
            [".v"] + [f".c{i}" for i in range(1, m + 1)]
            + [f".x{i}" for i in range(1, q)] + [".R"]
            + [f".y{i}" for i in range(1, q)] + [".B"]
        ),
        edges=tuple(edges),
        precoloured=((red, Colour.RED), (blue, Colour.BLUE)),
        ports=(("v", 0),),
        radius=r,
    )


@lru_cache(maxsize=16)
def forbidden_path(t: int, r: int) -> GadgetInstance:
    """Chain of t size-r blocker gadgets with `left` and `right` end ports;
    blocker i's names are put under `.f{i}`.

    Gadgets are immutable, so the most recent sizes are kept: every copy a
    builder embeds, in one call or many, places the same shape.
    """
    check_gadget_size("path length t", t, 1)
    blocker = forbidden_vertex_gadget(r)
    size = len(blocker.vertices)
    offsets = range(0, t * size, size)
    ports = [k + blocker.port("v") for k in offsets]
    return GadgetInstance(
        vertices=tuple([f".f{i + 1}{v}" for i in range(t) for v in blocker.vertices]),
        edges=tuple([(k + a, k + b) for k in offsets for a, b in blocker.edges]
                    + list(zip(ports, ports[1:]))),
        precoloured=tuple([(k + p, colour) for k in offsets for p, colour in blocker.precoloured]),
        ports=(("left", ports[0]), ("right", ports[-1])),
        radius=r,
        span=t,
    )


def embed_gadget(g: Graph, gadget: GadgetInstance, prefix: str = "g0") -> int:
    """Add a copy of a gadget to a (mutable) host graph, as one block, each
    vertex named `prefix` + its name in the gadget (so `g0.v` for the
    port of a lone blocker); return the host index of its position 0, the
    `first` of the copy's placement. This is the only place a copy's names
    get their prefix."""
    return g.add_block([prefix + v for v in gadget.vertices], gadget.edges)


def stones_position(placements) -> Position:
    """Position holding exactly the fixed stones of the placed copies: for
    each `(first, gadget)`, a stone at host index first + p for each stone
    position p of the gadget."""
    blue = red = 0
    for first, gadget in placements:
        for p, colour in gadget.precoloured:
            bit = 1 << (first + p)
            if colour is Colour.BLUE:
                blue |= bit
            else:
                red |= bit
    return Position(blue, red)


def splice_edges(g: Graph, t: int, r: int) -> tuple[Graph, list[Placement]]:
    """Every edge or none: with t >= 1, replace each edge (i, j) with a
    fresh path of t size-r blockers; with t = 0, keep every edge.

    Both sizes are checked before any vertex is added, r first, and so is
    the size of the new graph when t >= 1. Original vertices come first in
    the new graph, in their old order, so old indices stay valid. Every path
    places the one shape `forbidden_path(t, r)`, and `embed_gadget` names
    copy k, the path of the k-th edge of `g.edges()`, under the prefix
    `g{k}`. Returns the unfrozen graph and the paths' placements
    `(first, shape)` in edge order; the caller freezes when construction is
    complete.
    """
    check_gadget_size("gadget size r", r, 1)
    check_gadget_size("path length t", t, 0)
    new = Graph()
    if not t:
        new.add_block(g.names, g.edges())
        return new, []
    shape = forbidden_path(t, r)
    check_target_size(g.vertex_count + g.edge_count * len(shape.vertices))
    new.add_block(g.names)
    left, right = shape.port("left"), shape.port("right")
    paths = []
    for gid, (i, j) in enumerate(g.edges()):
        first = embed_gadget(new, shape, f"g{gid}")
        new.add_edge(i, first + left)
        new.add_edge(first + right, j)
        paths.append((first, shape))
    return new, paths
