"""Undirected simple graphs with dense integer indices.

Vertices are named by opaque strings and mapped to indices in insertion
order; everything on a hot path works with indices. Each edge is stored
once, as an entry in the sorted adjacency lists of both its ends; there is
no separate edge set, so `edges()` walks the lists in order. `add_block`
appends a batch of named vertices together with the edges among them
(gadget copies, the vertices of a spliced source) in one validated step.
Every distance the package reads comes from a ball: a tuple of vertex
bitmasks for the distances 1 to the radius (the centre is not stored: no
rule forbids distance 0), so a legality check is one AND of a stone mask
with each forbidden layer.

Balls are built from per-vertex neighbour bitmasks and memoized in one row
per radius, indexed by vertex. The first ball asked for at a radius fills
the whole row in one sweep: layer 1 of every vertex is its neighbour mask,
and layer k of v the OR of its neighbours' layers k - 1, minus every vertex
v has reached. When the row could hold more than `MAX_BALL_ROW_BYTES`, each
ball is found on its own instead, by a breadth-first expansion of the
layers. The neighbour masks and each memoized layer are charged the most
one can hold, a bit per vertex, against the graph's `MAX_BALL_MEMO_BYTES`;
a ball that does not fit raises `BallBudgetError`. A frozen graph refuses
every mutation, and the first ball asked for freezes it, so the masks,
rows and charge only grow and the memoized balls are safe to share between
concurrent solver runs.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from itertools import combinations
from typing import Iterator

from .errors import (
    BallBudgetError,
    CorpusTooLargeError,
    DuplicateVertexError,
    FrozenGraphError,
    InvalidParameterError,
    SelfLoopError,
    UnknownVertexError,
)

# 2^(n(n-1)/2) labelled graphs; above six vertices the corpus is useless.
MAX_ENUMERATION_VERTICES = 6
# gen_gnp draws one number per vertex pair and every generator holds its
# whole edge list; random corpora are built in full before the first
# instance is verified, so the pairs drawn over a whole corpus are bounded
# too: 4 graphs at the vertex bound, or 10,000 of 41 vertices.
MAX_GENERATED_VERTICES = 2048
MAX_RANDOM_CORPUS_GRAPHS = 10_000
MAX_RANDOM_CORPUS_PAIRS = 1 << 23
# A layer or neighbour mask of an n-vertex graph holds at most ceil(n / 8)
# bytes. A ball row is swept whole only when n * min(radius, n - 1) such
# layers fit the row allowance, and the masks, balls and rows one graph
# memoizes may hold at most the memo budget; past it `Graph.ball` raises
# BallBudgetError.
MAX_BALL_ROW_BYTES = 1 << 24
MAX_BALL_MEMO_BYTES = 1 << 29

Bipartition = tuple[frozenset[int], frozenset[int]]


class Graph:
    """Mutable-until-frozen undirected simple graph over named vertices.

    The sorted adjacency lists are the only edge store: edge {i, j} is j in
    the list of i and i in the list of j, and `edge_count` is a counter.
    """

    __slots__ = ("_names", "_index", "_adj", "_edge_count", "_frozen", "_balls", "_nbr",
                 "_ball_bytes")

    def __init__(self):
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._adj: list[list[int]] = []
        self._edge_count = 0
        self._frozen = False
        # radius -> row of balls indexed by vertex (None until computed).
        self._balls: dict[int, list[tuple[int, ...] | None]] = {}
        # Per-vertex neighbour bitmasks, built with the first ball, and the
        # bytes charged for them and the memoized balls.
        self._nbr: list[int] | None = None
        self._ball_bytes = 0

    # -- construction ------------------------------------------------------

    def add_vertex(self, name: str) -> int:
        """Append a vertex and return its dense index."""
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        if not isinstance(name, str) or not name:
            raise InvalidParameterError("vertex name must be a non-empty string")
        if name in self._index:
            raise DuplicateVertexError(f"vertex {name!r} already present")
        idx = len(self._names)
        self._names.append(name)
        self._index[name] = idx
        self._adj.append([])
        return idx

    def add_edge(self, u: int | str, v: int | str) -> None:
        """Insert the unordered edge {u, v}; adding it twice is a no-op."""
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        i, j = self.index_of(u), self.index_of(v)
        if i == j:
            raise SelfLoopError(f"self-loop at {self._names[i]!r}")
        adj = self._adj[i]
        k = bisect_left(adj, j)
        if k < len(adj) and adj[k] == j:
            return
        adj.insert(k, j)
        insort(self._adj[j], i)
        self._edge_count += 1

    def add_block(self, names, pairs=()) -> int:
        """Append the vertices `names`, in order, and the edges `pairs`
        between them; return the index of the first new vertex.

        Each pair holds two positions in `names`, so (0, 1) joins the first
        two new vertices. Everything is checked before anything is added:
        on an error the graph is unchanged. A repeated pair, in either
        orientation, adds its edge once, as in `add_edge`.
        """
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        names = tuple(names)
        n = len(names)
        index = self._index
        for name in names:
            if not isinstance(name, str) or not name:
                raise InvalidParameterError("vertex name must be a non-empty string")
            if name in index:
                raise DuplicateVertexError(f"vertex {name!r} already present")
        if len(set(names)) != n:
            twice = next(v for k, v in enumerate(names) if v in names[:k])
            raise DuplicateVertexError(f"vertex {twice!r} given twice in one block")
        first = len(self._names)
        # One int object per new vertex, shared by the index and every list.
        ids = list(range(first, first + n))
        # Each pair is checked and put in the new lists as it comes; a bad
        # pair is kept aside, and the least one is reported, as a check in
        # ascending pair order would. Nothing is added before the checks end.
        adj = [[] for _ in names]
        bad = []
        for a, b in pairs:
            if a > b:
                a, b = b, a
            if 0 <= a < b < n:
                adj[a].append(ids[b])
                adj[b].append(ids[a])
            else:
                bad.append((a, b))
        if bad:
            a, b = min(bad)
            if a < 0 or b >= n:
                raise UnknownVertexError(f"block position {a if a < 0 else b} out of range")
            raise SelfLoopError(f"self-loop at {names[a]!r}")
        # A pair given twice shows as a repeated entry in a sorted list.
        edges = 0
        for neighbours in adj:
            if len(neighbours) > 1:
                neighbours.sort()
                if len(set(neighbours)) < len(neighbours):
                    neighbours[:] = sorted(set(neighbours))
            edges += len(neighbours)
        index.update(zip(names, ids))
        self._names.extend(names)
        self._adj.extend(adj)
        self._edge_count += edges >> 1
        return first

    def freeze(self) -> "Graph":
        """Mark the graph immutable; idempotent, returns self."""
        self._frozen = True
        return self

    # -- queries -----------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._names)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def index_of(self, v: int | str) -> int:
        """Resolve a name or index to a dense index."""
        if isinstance(v, str):
            try:
                return self._index[v]
            except KeyError:
                raise UnknownVertexError(f"unknown vertex {v!r}") from None
        if not 0 <= v < len(self._names):
            raise UnknownVertexError(f"vertex index {v} out of range")
        return v

    def name_of(self, i: int) -> str:
        if not 0 <= i < len(self._names):
            raise UnknownVertexError(f"vertex index {i} out of range")
        return self._names[i]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as index pairs (i, j) with i < j, in ascending order.

        Read from the sorted adjacency lists as the iteration goes, so the
        graph must not change until it is done.
        """
        for i, adj in enumerate(self._adj):
            for j in adj:
                if j > i:
                    yield i, j

    def ball(self, u: int | str, radius: int) -> tuple[int, ...]:
        """The vertices at distance 1 to `radius` from u, as one bitmask
        per distance.

        `layers[k - 1]` holds the vertices at exact distance k; the centre
        is not stored, trailing empty layers are dropped, and radius 0
        gives `()`. A memoized ball asked for by index comes straight back;
        a miss validates u and the radius and freezes the graph, then fills
        the whole row for the radius in one sweep when it fits
        `MAX_BALL_ROW_BYTES` (see `_new_row`). Otherwise u's ball alone is
        expanded breadth first: layer 1 is u's neighbour mask and layer k
        the OR of the neighbour masks of layer k - 1's vertices, minus every
        vertex already reached; only a layer that is expanded further is
        split into vertex indices. The neighbour masks and each ball or row
        are charged against `MAX_BALL_MEMO_BYTES`, and a ball that does not
        fit raises BallBudgetError with nothing memoized. The graph cannot
        change once it holds a ball, so the tuple can be shared.
        """
        row = self._balls.get(radius)
        if row is not None and isinstance(u, int) and 0 <= u < len(row):
            out = row[u]
            if out is not None:
                return out
        if radius < 0:
            raise InvalidParameterError("radius must be >= 0")
        src = self.index_of(u)
        self._frozen = True
        if row is None:
            row = self._balls[radius] = self._new_row(radius)
        out = row[src]
        if out is not None:
            return out
        nbr = self._nbr
        width = len(nbr) + 7 >> 3
        room = (MAX_BALL_MEMO_BYTES - self._ball_bytes) // width
        layers = []
        layer = nbr[src] if radius else 0
        reached = layer | 1 << src
        frontier = self._adj[src]  # the vertices of layer 1
        while layer:
            layers.append(layer)
            if len(layers) > room:
                raise BallBudgetError(
                    f"the radius-{radius} ball of {self._names[src]!r} does not fit the "
                    f"{MAX_BALL_MEMO_BYTES}-byte ball memo of this "
                    f"{len(nbr)}-vertex graph ({self._ball_bytes} bytes held)"
                )
            if len(layers) == radius:
                break
            if len(layers) > 1:
                frontier = []
                while layer:
                    low = layer & -layer
                    frontier.append(low.bit_length() - 1)
                    layer ^= low
            layer = 0
            for w in frontier:
                layer |= nbr[w]
            layer &= ~reached
            reached |= layer
        self._ball_bytes += len(layers) * width
        out = row[src] = tuple(layers)
        return out

    def _new_row(self, radius: int) -> list[tuple[int, ...] | None]:
        """A new row for `radius`: every vertex's ball, or all None when the
        row could take more than the row allowance or the memo budget left.
        Builds the neighbour masks first if need be, charged like a layer
        per vertex.

        Layer 1 of v is `nbr[v]`, and layer k the OR of layer k - 1 over v's
        neighbours, minus what v has reached: a vertex at distance k from v
        is at distance k - 1 from a neighbour of v, and a vertex at distance
        k - 1 from a neighbour is k - 2 to k from v, so only v's own layers
        k - 1 and k - 2 (v itself for k = 2) need subtracting. The sweep
        keeps one list per level; a vertex leaves it once one of its layers
        is empty, as then are all the later ones, so a radius past the
        diameter costs nothing more.
        """
        n = len(self._adj)
        width = n + 7 >> 3
        nbr = self._nbr
        if nbr is None:
            if n * width > MAX_BALL_MEMO_BYTES:
                raise BallBudgetError(
                    f"the neighbour masks of this {n}-vertex graph do not fit its "
                    f"{MAX_BALL_MEMO_BYTES}-byte ball memo"
                )
            nbr = []
            for adj in self._adj:
                mask = 0
                for w in adj:
                    mask |= 1 << w
                nbr.append(mask)
            self._nbr = nbr
            self._ball_bytes = n * width
        worst = n * min(radius, n - 1) * width
        if worst > MAX_BALL_ROW_BYTES or worst > MAX_BALL_MEMO_BYTES - self._ball_bytes:
            return [None] * n
        if not radius:
            return [()] * n
        levels = [nbr]
        if radius > 1:
            adj = self._adj
            active = [v for v in range(n) if nbr[v]]
            prev = [1 << v for v in range(n)]
            last = nbr
            for _ in range(radius - 1):
                layer_of = [0] * n
                still = []
                for v in active:
                    layer = 0
                    for w in adj[v]:
                        layer |= last[w]
                    layer &= ~(last[v] | prev[v])
                    if layer:
                        layer_of[v] = layer
                        still.append(v)
                if not still:
                    break
                levels.append(layer_of)
                prev, last, active = last, layer_of, still
        # Per vertex, its layers up to the first empty one.
        row = [t[:t.index(0)] if 0 in t else t for t in zip(*levels)]
        self._ball_bytes += sum(map(len, row)) * width
        return row

    def __repr__(self):
        return f"Graph(|V|={self.vertex_count}, |E|={self.edge_count})"


# -- generators --------------------------------------------------------------


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _check_generated(n: int, what: str = "n") -> None:
    if n > MAX_GENERATED_VERTICES:
        raise InvalidParameterError(
            f"{what} = {n} exceeds the bound of {MAX_GENERATED_VERTICES} generated vertices"
        )


def _sided(p: int, q: int, pairs) -> tuple[Graph, Bipartition]:
    """Left vertices l0.., right vertices r0.. (positions p..), the given
    pairs between them, and the two sides."""
    g = Graph()
    g.add_block(_names("l", p) + _names("r", q), pairs)
    return g.freeze(), (frozenset(range(p)), frozenset(range(p, p + q)))


def gen_path(n: int) -> Graph:
    """Path on n vertices v0 .. v{n-1}."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    _check_generated(n)
    g = Graph()
    g.add_block(_names("v", n), [(i, i + 1) for i in range(n - 1)])
    return g.freeze()


def gen_cycle(n: int) -> Graph:
    """Cycle on n vertices; n must be 0 or at least 3 to stay simple."""
    if n < 0 or n in (1, 2):
        raise InvalidParameterError("cycle needs n = 0 or n >= 3")
    _check_generated(n)
    g = Graph()
    g.add_block(_names("v", n), [(i, (i + 1) % n) for i in range(n)])
    return g.freeze()


def gen_complete_bipartite(p: int, q: int) -> tuple[Graph, Bipartition]:
    """K_{p,q} with left vertices l0.. and right vertices r0.., plus the sides."""
    if p < 0 or q < 0:
        raise InvalidParameterError("sizes must be >= 0")
    _check_generated(p + q, "p + q")
    return _sided(p, q, [(i, j) for i in range(p) for j in range(p, p + q)])


def gen_gnp(n: int, prob: float, seed: int) -> Graph:
    """Erdos-Renyi style graph: each pair kept with the given probability."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    if not 0.0 <= prob <= 1.0:
        raise InvalidParameterError("prob must be in [0, 1]")
    _check_generated(n)
    rng = random.Random(seed)
    g = Graph()
    g.add_block(_names("v", n), (pair for pair in combinations(range(n), 2)
                                 if rng.random() < prob))
    return g.freeze()


def gen_random_bipartite(p: int, q: int, prob: float, seed: int) -> tuple[Graph, Bipartition]:
    """Random bipartite graph: each cross pair kept with the given probability."""
    if p < 0 or q < 0:
        raise InvalidParameterError("sizes must be >= 0")
    if not 0.0 <= prob <= 1.0:
        raise InvalidParameterError("prob must be in [0, 1]")
    _check_generated(p + q, "p + q")
    rng = random.Random(seed)
    return _sided(p, q, [(i, j) for i in range(p) for j in range(p, p + q)
                         if rng.random() < prob])


# -- exhaustive corpora -------------------------------------------------------


def all_labelled_graphs(n: int) -> Iterator[Graph]:
    """Every labelled graph on n vertices, one per edge subset, fixed order."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    if n > MAX_ENUMERATION_VERTICES:
        raise CorpusTooLargeError(f"n = {n} exceeds bound {MAX_ENUMERATION_VERTICES}")
    names = _names("v", n)
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = Graph()
        g.add_block(names, [pair for bit, pair in enumerate(pairs) if mask >> bit & 1])
        yield g.freeze()


def all_labelled_bipartite(p: int, q: int) -> Iterator[tuple[Graph, Bipartition]]:
    """Every labelled bipartite graph with fixed sides of sizes p and q."""
    if p < 0 or q < 0:
        raise InvalidParameterError("sizes must be >= 0")
    if p + q > MAX_ENUMERATION_VERTICES:
        raise CorpusTooLargeError(
            f"p + q = {p + q} exceeds bound {MAX_ENUMERATION_VERTICES}"
        )
    pairs = [(i, j) for i in range(p) for j in range(p, p + q)]
    for mask in range(1 << len(pairs)):
        yield _sided(p, q, [pair for bit, pair in enumerate(pairs) if mask >> bit & 1])
