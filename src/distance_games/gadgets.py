"""Unplayable-vertex gadgets and the edge replacement operation.

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
pass for r up to 8.

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
endpoints at distance t+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError, UnknownEdgeError
from .graph import Graph
from .rules import Colour, Position

# Largest gadget size r, path length t and probe count accepted. A blocker
# has about r vertices and a path t times that, so without a cap a single
# number could ask for a board of any size; reductions build through these
# constructors and inherit the cap.
MAX_GADGET_SIZE = 64


def check_gadget_size(what: str, value: int, least: int) -> None:
    """Raise InvalidParameterError unless least <= value <= MAX_GADGET_SIZE."""
    if not least <= value <= MAX_GADGET_SIZE:
        raise InvalidParameterError(
            f"{what} must be between {least} and {MAX_GADGET_SIZE}, got {value}"
        )


@dataclass(frozen=True)
class GadgetInstance:
    """One embedded gadget: fresh namespaced vertices, edges, stones, ports."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    precoloured: tuple[tuple[str, Colour], ...]
    ports: tuple[tuple[str, str], ...]
    radius: int | None = None
    span: int = 1
    origin: str = ""

    def port(self, role: str) -> str:
        for r, name in self.ports:
            if r == role:
                return name
        raise KeyError(f"gadget has no port {role!r}")

    @property
    def stones(self) -> dict[str, Colour]:
        return dict(self.precoloured)

    @property
    def uncoloured(self) -> tuple[str, ...]:
        fixed = {name for name, _ in self.precoloured}
        return tuple(v for v in self.vertices if v not in fixed)


def forbidden_vertex_gadget(r: int, prefix: str = "g0", origin: str = "") -> GadgetInstance:
    """Size-r blocker gadget; the single port is the vertex named `.v`."""
    check_gadget_size("gadget size r", r, 1)
    if r % 2:
        q, m = (r + 1) // 2, (r - 1) // 2
    else:
        q, m = r // 2 + 1, r // 2 - 1

    port = f"{prefix}.v"
    chain = [port] + [f"{prefix}.c{i}" for i in range(1, m + 1)]
    split = chain[-1]
    red_branch = [f"{prefix}.x{i}" for i in range(1, q)] + [f"{prefix}.R"]
    blue_branch = [f"{prefix}.y{i}" for i in range(1, q)] + [f"{prefix}.B"]

    vertices = tuple(chain + red_branch + blue_branch)
    edges = []
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b))
    for branch in (red_branch, blue_branch):
        edges.append((split, branch[0]))
        for a, b in zip(branch, branch[1:]):
            edges.append((a, b))
    if r % 2 == 0:
        edges.append((red_branch[0], blue_branch[0]))

    return GadgetInstance(
        vertices=vertices,
        edges=tuple(edges),
        precoloured=((f"{prefix}.R", Colour.RED), (f"{prefix}.B", Colour.BLUE)),
        ports=(("v", port),),
        radius=r,
        origin=origin,
    )


def forbidden_path(t: int, r: int, prefix: str = "g0", origin: str = "") -> GadgetInstance:
    """Chain of t size-r blocker gadgets with `left` and `right` end ports."""
    check_gadget_size("path length t", t, 1)
    copies = [forbidden_vertex_gadget(r, prefix=f"{prefix}.f{i}") for i in range(1, t + 1)]
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    stones: list[tuple[str, Colour]] = []
    for copy in copies:
        vertices.extend(copy.vertices)
        edges.extend(copy.edges)
        stones.extend(copy.precoloured)
    for a, b in zip(copies, copies[1:]):
        edges.append((a.port("v"), b.port("v")))
    return GadgetInstance(
        vertices=tuple(vertices),
        edges=tuple(edges),
        precoloured=tuple(stones),
        ports=(("left", copies[0].port("v")), ("right", copies[-1].port("v"))),
        radius=r,
        span=t,
        origin=origin,
    )


def embed_gadget(g: Graph, gadget: GadgetInstance) -> None:
    """Add a gadget's vertices and edges to a (mutable) host graph."""
    for name in gadget.vertices:
        g.add_vertex(name)
    for a, b in gadget.edges:
        g.add_edge(a, b)


def stones_position(g: Graph, gadgets) -> Position:
    """Position holding exactly the fixed stones of the given gadgets."""
    pos = Position()
    for gadget in gadgets:
        for name, colour in gadget.precoloured:
            pos = pos.place(g.index_of(name), colour)
    return pos


def splice_edges(g: Graph, targets, t: int, r: int) -> tuple[Graph, list[GadgetInstance]]:
    """Replace each (i, j) target edge with a fresh path of t size-r blockers.

    Both sizes are checked before any vertex is added, even when there are
    no targets (t = 0 is allowed only then). Original vertices come first in
    the new graph, in their old order, so old indices stay valid. Returns
    the unfrozen graph and the path gadgets in `targets` order; the caller
    freezes when construction is complete.
    """
    check_gadget_size("path length t", t, 0)
    check_gadget_size("gadget size r", r, 1)
    new = Graph()
    for name in g.names:
        new.add_vertex(name)
    target_set = set(targets)
    for i, j in g.edges():
        if (i, j) not in target_set:
            new.add_edge(i, j)
    paths = []
    for gid, (i, j) in enumerate(targets):
        fp = forbidden_path(
            t, r, prefix=f"g{gid}",
            origin=f"edge {g.name_of(i)}--{g.name_of(j)}",
        )
        embed_gadget(new, fp)
        new.add_edge(g.name_of(i), fp.port("left"))
        new.add_edge(fp.port("right"), g.name_of(j))
        paths.append(fp)
    return new, paths


def replace_edge(g: Graph, u: int | str, v: int | str, t: int, r: int) -> Graph:
    """New graph with the single edge {u, v} spliced out for a path gadget."""
    i, j = g.index_of(u), g.index_of(v)
    if i > j:
        i, j = j, i
    if not g.has_edge(i, j):
        raise UnknownEdgeError(f"no edge {g.name_of(i)!r} -- {g.name_of(j)!r}")
    new, _ = splice_edges(g, [(i, j)], t, r)
    return new.freeze()


def replace_all_edges(g: Graph, t: int, r: int) -> tuple[Graph, dict[tuple[int, int], GadgetInstance]]:
    """Splice every edge, each with its own disjoint gadget copy."""
    edges = list(g.edges())
    new, paths = splice_edges(g, edges, t, r)
    return new.freeze(), dict(zip(edges, paths))
