"""Independent oracles shared by the test modules.

These deliberately avoid the library's optimized paths: distances come from
a local BFS over `g.edges()`, legality from a full recompute, and game
values from a plain unmemoized recursion through the public rules API.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from distance_games import (
    GadgetInstance,
    Graph,
    Player,
    Position,
    Ruleset,
    apply_move,
    distance_game,
    forbidden_vertex_gadget,
    is_legal,
)


def build_graph(names, edges) -> Graph:
    g = Graph()
    for name in names:
        g.add_vertex(name)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def neighbors(g: Graph, v) -> tuple[int, ...]:
    """v's neighbour indices, ascending, read from `g.edges()`."""
    i = g.index_of(v)
    return tuple(sorted(b if a == i else a for a, b in g.edges() if i in (a, b)))


def has_edge(g: Graph, u, v) -> bool:
    """Whether {u, v} is an edge, read from `g.edges()`."""
    i, j = sorted((g.index_of(u), g.index_of(v)))
    return (i, j) in set(g.edges())


def stones(pos: Position) -> list[tuple[int, Player]]:
    """Occupied indices with the player whose stone each holds (Left's are
    blue), ascending, read from the stone masks."""
    return [(i, Player.LEFT if pos.blue >> i & 1 else Player.RIGHT)
            for i in range(pos.occupied.bit_length()) if pos.occupied >> i & 1]


def owns(rs: Ruleset, player: Player, i: int) -> bool:
    """Whether `player`'s ownership mask holds vertex index i."""
    own = rs.ownership
    return bool((own.left if player is Player.LEFT else own.right) >> i & 1)


def mask_indices(mask: int) -> list[int]:
    """The indices of a bitmask's set bits, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def legal_moves(g: Graph, rs: Ruleset, pos: Position, player: Player) -> list[int]:
    """Indices of all legal placements for `player`, ascending, by `is_legal`."""
    return [i for i in range(g.vertex_count) if is_legal(g, rs, pos, i, player)]


def bfs_distance(g: Graph, u, v):
    """Plain BFS over adjacency lists built from `g.edges()`; None if v is
    unreachable from u."""
    adj = {i: [] for i in range(g.vertex_count)}
    for a, b in g.edges():
        adj[a].append(b)
        adj[b].append(a)
    src, dst = g.index_of(u), g.index_of(v)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist.get(dst)


def ball_distances(layers) -> dict[int, int]:
    """A ball's per-distance masks as {vertex: distance}, checking their
    shape on the way: a tuple of disjoint, non-empty layers, the first one
    at distance 1 (the centre is not stored)."""
    assert isinstance(layers, tuple)
    out = {}
    for dist, layer in enumerate(layers, 1):
        assert layer, f"empty layer at distance {dist}"
        while layer:
            bit = layer & -layer
            w = bit.bit_length() - 1
            assert w not in out, f"vertex {w} in two layers"
            out[w] = dist
            layer ^= bit
    return out


def naive_is_legal(g: Graph, rs: Ruleset, pos: Position, v, player: Player) -> bool:
    """Legality by recomputing a full BFS distance to every stone."""
    i = g.index_of(v)
    if pos.occupied >> i & 1:
        return False
    if rs.ownership is not None and not owns(rs, player, i):
        return False
    for w, owner in stones(pos):
        dist = bfs_distance(g, i, w)
        if dist is None:
            continue
        forbidden = rs.s if owner is player else rs.d
        if dist in forbidden:
            return False
    return True


def naive_position_is_legal(g: Graph, rs: Ruleset, pos: Position) -> bool:
    """Standalone-position legality from the full BFS distance of every
    pair of stones, plus ownership of each stone's vertex."""
    placed = stones(pos)
    if rs.ownership is not None:
        for i, owner in placed:
            if not owns(rs, owner, i):
                return False
    for (i, a), (j, b) in combinations(placed, 2):
        dist = bfs_distance(g, i, j)
        if dist is not None and dist in (rs.s if a is b else rs.d):
            return False
    return True


def naive_wins(g: Graph, rs: Ruleset, pos: Position, player: Player) -> bool:
    """Unmemoized recursion over every legal move sequence."""
    for i in range(g.vertex_count):
        if is_legal(g, rs, pos, i, player):
            if not naive_wins(g, rs, apply_move(g, rs, pos, i, player), player.opponent):
                return True
    return False


def random_ruleset(rng: random.Random, max_radius: int = 3) -> Ruleset:
    universe = range(1, max_radius + 1)
    d = frozenset(x for x in universe if rng.random() < 0.5)
    s = frozenset(x for x in universe if rng.random() < 0.5)
    return distance_game(d, s)


def random_legal_position(g: Graph, rs: Ruleset, rng: random.Random,
                          max_plies: int | None = None) -> Position:
    """Random playout from the empty position; always engine-reachable."""
    if max_plies is None:
        max_plies = g.vertex_count
    pos = Position()
    player = rng.choice([Player.LEFT, Player.RIGHT])
    for _ in range(rng.randrange(max_plies + 1)):
        moves = legal_moves(g, rs, pos, player)
        if not moves:
            break
        pos = apply_move(g, rs, pos, rng.choice(moves), player)
        player = player.opponent
    return pos


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    g = Graph()
    for i in range(n):
        g.add_vertex(f"v{i}")
    for bit, (i, j) in enumerate(combinations(range(n), 2)):
        if mask >> bit & 1:
            g.add_edge(i, j)
    return g


def reference_forbidden_path(t: int, r: int, prefix: str = "") -> GadgetInstance:
    """A path of t blockers with every copy built by its own
    forbidden_vertex_gadget call, copy i's names put under `prefix.f{i}`
    and its positions shifted past the copies before it, for checking the
    shape and the copies the library embeds."""
    copies = [forbidden_vertex_gadget(r) for _ in range(t)]
    starts = [sum(len(c.vertices) for c in copies[:k]) for k in range(t)]
    ports = [k + copy.port("v") for k, copy in zip(starts, copies)]
    return GadgetInstance(
        vertices=tuple(f"{prefix}.f{i}{v}" for i, copy in enumerate(copies, 1)
                       for v in copy.vertices),
        edges=tuple((k + a, k + b) for k, copy in zip(starts, copies) for a, b in copy.edges)
        + tuple(zip(ports, ports[1:])),
        stones=Position(sum(copy.stones.blue << k for k, copy in zip(starts, copies)),
                        sum(copy.stones.red << k for k, copy in zip(starts, copies))),
        ports=(("left", ports[0]), ("right", ports[-1])),
        radius=r,
        span=t,
    )


def block_at(g: Graph, pos: Position, first: int, n: int):
    """What g and pos hold in the n vertices from index `first`: their names,
    the edges among them as position pairs in the block, and the stones on
    them as a `Position` over the block. Read from the graph and the stone
    masks alone, to compare with `gadget_view`."""
    stop = first + n
    edges = {(i - first, j - first) for i, j in g.edges() if first <= i and j < stop}
    block = (1 << n) - 1
    placed = Position(pos.blue >> first & block, pos.red >> first & block)
    return g.names[first:stop], edges, placed


def gadget_view(gadget: GadgetInstance):
    """A gadget's names, edges and stones in the form `block_at` returns."""
    edges = {(min(a, b), max(a, b)) for a, b in gadget.edges}
    return gadget.vertices, edges, gadget.stones
