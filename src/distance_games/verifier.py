"""Machine checks that a reduction really preserves the game.

Three checks per reduced instance, in this order, each returning a
`CheckResult` and run only if the one before passed:

* vertex condition: in the starting position, nothing outside the original
  vertices is playable by either player;
* move-for-move correspondence: walking the source game tree (every move of
  either player, recursively) while playing each move on the same vertex of
  the target, the two move sets are equal at every node;
* outcome preservation: the solved outcome of source and target agree.

The originals are the target's first vertices (`ReducedInstance`), so one
mask holds a move set of either game. The correspondence walk compares the
full target move set, added vertices included, with the source's at every
node. It carries the source stones and each game's two blocked masks
(`LegalityIndex.blocked`) down the tree as plain ints, updated per placed
stone; the check does not rely on legality being monotone.

Every failure carries a replayable trace; `replays_violation` re-derives
the violation through the public rules API alone.

`check_gadget_lemma` checks one blocker gadget the same way, through the
rules rather than the construction, and reports in the same types.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import product

from .errors import InvalidParameterError, ParameterViolationError
from .fileformat import parse_float, parse_int
from .gadgets import GadgetInstance, embed_gadget
from .graph import (
    MAX_RANDOM_CORPUS_GRAPHS,
    MAX_RANDOM_CORPUS_PAIRS,
    Graph,
    all_labelled_bipartite,
    all_labelled_graphs,
    gen_gnp,
    gen_random_bipartite,
)
from . import rules, solver
from .reductions import PARAM_KINDS, REDUCTIONS, ReducedInstance
from .rules import LegalityIndex, Player, Position

Trace = tuple[tuple[Player, str], ...]

VERTEX_CONDITION = "vertex-condition"
PLAY_FOR_PLAY = "play-for-play"
WINNABILITY = "winnability"
TREE_IMPLIES_OUTCOME = "tree-implies-outcome"

# How a move-set mismatch shows up.
KIND_SOURCE_ONLY = "source-only"           # legal in source, missing in target
KIND_TARGET_ONLY = "target-only"           # legal in target, missing in source
KIND_UNEMBEDDED = "unembedded-playable"    # a non-original target vertex is playable


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    trace: Trace = ()
    vertex: str | None = None
    player: Player | None = None
    kind: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    descriptor: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        """One `PASS|FAIL <check> <descriptor> [detail]` line per check."""
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" {c.detail}" if c.detail else ""
            out.append(f"{status} {c.name} {self.descriptor}{suffix}")
        return out


def format_trace(trace: Trace) -> str:
    return ",".join(f"{player.value}:{vertex}" for player, vertex in trace) or "-"


def check_vertex_condition(ri: ReducedInstance) -> CheckResult:
    """No target vertex outside the originals is playable initially."""
    index = LegalityIndex(ri.target_graph, ri.target_ruleset)
    pos = ri.initial_position
    originals = (1 << ri.source_graph.vertex_count) - 1
    outside = ((1 << ri.target_graph.vertex_count) - 1) & ~originals
    for player in (Player.LEFT, Player.RIGHT):
        playable = index.legal_moves_mask(pos, player) & outside
        if playable:
            bad = (playable & -playable).bit_length() - 1
            return CheckResult(
                VERTEX_CONDITION, False,
                detail=f"added vertex {ri.target_graph.name_of(bad)!r} playable by {player.name}",
                vertex=ri.target_graph.name_of(bad), player=player,
                kind=KIND_UNEMBEDDED,
            )
    checked = ri.target_graph.vertex_count - ri.source_graph.vertex_count
    return CheckResult(VERTEX_CONDITION, True, detail=f"checked={checked}")


def check_play_for_play(ri: ReducedInstance, depth_cap: int | None = None) -> CheckResult:
    """Walk both game trees in lockstep and compare move sets at every node.

    `depth_cap` limits the walk to that many plies from the start; None
    walks the full tree, which certifies the trees are identical in shape.
    """
    src_index = LegalityIndex(ri.source_graph, ri.source_ruleset)
    tgt_index = LegalityIndex(ri.target_graph, ri.target_ruleset)
    src_names = ri.source_graph.names
    tgt_names = ri.target_graph.names
    n_src = ri.source_graph.vertex_count
    max_depth = n_src if depth_cap is None else min(depth_cap, n_src)
    solver.check_depth(max_depth)

    LEFT, RIGHT = Player.LEFT, Player.RIGHT
    s_left, s_right = src_index.allowed(LEFT), src_index.allowed(RIGHT)
    t_left, t_right = tgt_index.allowed(LEFT), tgt_index.allowed(RIGHT)
    sd, ss = src_index.d_mask, src_index.s_mask
    td, ts = tgt_index.d_mask, tgt_index.s_mask
    start = ri.initial_position
    t_empty = ~start.occupied

    visited: set[int] = set()
    path: list[tuple[Player, int]] = []
    nodes = 0

    def mismatch(player: Player, src_mask: int, tgt_mask: int) -> CheckResult:
        trace = tuple((p, src_names[i]) for p, i in path)
        diff = tgt_mask ^ src_mask
        bad = (diff & -diff).bit_length() - 1
        name = tgt_names[bad]
        if tgt_mask >> bad & 1:
            original = bad < n_src
            kind = KIND_TARGET_ONLY if original else KIND_UNEMBEDDED
            what = "legal in target but not in source" if original \
                else "added vertex is playable"
        else:
            kind = KIND_SOURCE_ONLY
            what = "legal in source but not in target"
        return CheckResult(
            PLAY_FOR_PLAY, False,
            detail=f"after [{format_trace(trace)}]: {name!r} {what} for {player.name}",
            trace=trace, vertex=name, player=player, kind=kind,
        )

    # Positions are plain ints: the source's blue and red stones (the target
    # adds the gadget stones), plus each game's vertices blocked for Left
    # and for Right, updated per placed stone. A node is keyed by its source
    # stones, and a child already visited is skipped before the call.
    def walk(sb, sr, s_bl, s_br, t_bl, t_br, depth) -> CheckResult | None:
        nonlocal nodes
        key = sb | sr << n_src
        visited.add(key)
        nodes += 1
        s_free = ~(sb | sr)
        t_free = t_empty & s_free
        left = s_left & s_free & ~s_bl
        right = s_right & s_free & ~s_br
        tgt_left = t_left & t_free & ~t_bl
        if left != tgt_left:
            return mismatch(LEFT, left, tgt_left)
        tgt_right = t_right & t_free & ~t_br
        if right != tgt_right:
            return mismatch(RIGHT, right, tgt_right)
        if depth >= max_depth:
            return None
        depth += 1
        while left:
            bit = left & -left
            left ^= bit
            if (key | bit) in visited:
                continue
            i = bit.bit_length() - 1
            path.append((LEFT, i))
            bad = walk(sb | bit, sr, s_bl | ss[i], s_br | sd[i],
                       t_bl | ts[i], t_br | td[i], depth)
            if bad is not None:
                return bad
            path.pop()
        while right:
            bit = right & -right
            right ^= bit
            if (key | bit << n_src) in visited:
                continue
            i = bit.bit_length() - 1
            path.append((RIGHT, i))
            bad = walk(sb, sr | bit, s_bl | sd[i], s_br | ss[i],
                       t_bl | td[i], t_br | ts[i], depth)
            if bad is not None:
                return bad
            path.pop()
        return None

    bad = walk(0, 0, 0, 0, *tgt_index.blocked(start), 0)
    if bad is not None:
        return bad
    cap_text = "full" if depth_cap is None else str(depth_cap)
    return CheckResult(PLAY_FOR_PLAY, True, detail=f"nodes={nodes} depth={cap_text}")


def check_winnability(ri: ReducedInstance) -> CheckResult:
    """Solved outcomes of source and target must coincide."""
    src = solver.outcome(ri.source_graph, ri.source_ruleset)
    tgt = solver.outcome(ri.target_graph, ri.target_ruleset, ri.initial_position)
    return CheckResult(
        WINNABILITY, src is tgt,
        detail=f"source={src.value} target={tgt.value}",
    )


def resolve_depth_cap(ri: ReducedInstance, depth_cap) -> int | None:
    """`"auto"` means full depth up to six source vertices, else six plies."""
    if depth_cap == "auto":
        return None if ri.source_graph.vertex_count <= 6 else 6
    return depth_cap


def verify_instance(ri: ReducedInstance, depth_cap="auto", descriptor: str = "") -> VerificationReport:
    """Run the vertex condition, play-for-play and winnability checks in
    order, each only if the one before passed, so a report holds checks up
    to its first failure. When winnability fails after a full walk, the
    tree-shape-implies-outcome cross-check is added: identical full trees
    cannot have different outcomes."""
    cap = resolve_depth_cap(ri, depth_cap)
    checks = [check_vertex_condition(ri)]
    if checks[-1].passed:
        checks.append(check_play_for_play(ri, cap))
    if checks[-1].passed:
        checks.append(check_winnability(ri))
    full = cap is None or cap >= ri.source_graph.vertex_count
    if full and len(checks) == 3 and not checks[2].passed:
        checks.append(CheckResult(
            TREE_IMPLIES_OUTCOME, False,
            detail="identical full trees but different outcomes: solver bug",
        ))
    return VerificationReport(descriptor, tuple(checks))


def replays_violation(ri: ReducedInstance, result: CheckResult) -> bool:
    """Re-derive a failed check's violation through the public rules API."""
    if result.passed or result.vertex is None or result.player is None:
        return False
    spos = Position()
    tpos = ri.initial_position
    for player, name in result.trace:
        spos = rules.apply_move(ri.source_graph, ri.source_ruleset, spos, name, player)
        tpos = rules.apply_move(ri.target_graph, ri.target_ruleset, tpos, name, player)
    target_legal = rules.is_legal(
        ri.target_graph, ri.target_ruleset, tpos, result.vertex, result.player
    )
    original = ri.target_graph.index_of(result.vertex) < ri.source_graph.vertex_count
    if result.kind == KIND_UNEMBEDDED:
        return target_legal and not original
    if not original:
        return False
    source_legal = rules.is_legal(
        ri.source_graph, ri.source_ruleset, spos, result.vertex, result.player
    )
    if result.kind == KIND_SOURCE_ONLY:
        return source_legal and not target_legal
    if result.kind == KIND_TARGET_ONLY:
        return target_legal and not source_legal
    return False


def check_gadget_lemma(gadget: GadgetInstance, d, s) -> VerificationReport:
    """Re-derive the gadget guarantees from the rules instead of trusting them.

    Embeds the gadget in a host graph with one fresh external vertex, the
    probe `probe.{role}.0`, hanging off each port (probes on one port are
    interchangeable, so a second would check nothing new). Then checks that
    (i) every uncoloured gadget vertex is illegal for both players at the
    start, (ii) it stays illegal after each single legal probe placement
    (full persistence follows from legality monotonicity), and (iii) the
    probes themselves sit farther from every fixed stone than the largest
    forbidden distance: no stone is in a probe's ball of that radius.

    Refuses to vouch unless one of d, s is exactly {1..r} and the other is
    a subset of it.
    """
    d, s = frozenset(d), frozenset(s)
    if gadget.radius is None:
        raise ParameterViolationError("gadget carries no blocking radius")
    interval = frozenset(range(1, gadget.radius + 1))
    if not ((d == interval and s <= interval) or (s == interval and d <= interval)):
        raise ParameterViolationError(
            f"need d or s equal to {{1..{gadget.radius}}} and the other a subset"
        )

    # The gadget is the host's first block, so a position is a host index.
    host = Graph()
    embed_gadget(host, gadget)
    probe_names = [f"probe.{role}.0" for role, _ in gadget.ports]
    for name, (_, port) in zip(probe_names, gadget.ports):
        host.add_vertex(name)
        host.add_edge(name, port)
    host.freeze()

    rs = rules.distance_game(d, s)
    start = gadget.stones
    players = (Player.LEFT, Player.RIGHT)

    def first_playable(pos: Position) -> str | None:
        for v in gadget.uncoloured:
            for player in players:
                if rules.is_legal(host, rs, pos, v, player):
                    return f"{host.name_of(v)} playable by {player.name}"
        return None

    def after_probe_moves() -> str | None:
        for name in probe_names:
            for player in players:
                if rules.is_legal(host, rs, start, name, player):
                    bad = first_playable(rules.apply_move(host, rs, start, name, player))
                    if bad is not None:
                        return f"after {player.name} plays {name}: {bad}"
        return None

    def probe_near_stone() -> str | None:
        for name in probe_names:
            for dist, layer in enumerate(host.ball(name, rs.max_radius), 1):
                near = layer & start.occupied
                if near:
                    stone = host.name_of((near & -near).bit_length() - 1)
                    return f"{name} at distance {dist} from stone {stone}"
        return None

    found = (
        ("unplayable-initially", first_playable(start)),
        ("unplayable-after-probe-moves", after_probe_moves()),
        ("probes-unaffected", probe_near_stone()),
    )
    checks = tuple(CheckResult(name, bad is None, bad or "") for name, bad in found)
    desc = f"r={gadget.radius} t={gadget.span} D={sorted(d)} S={sorted(s)}"
    return VerificationReport(desc, checks)


# -- corpus running -----------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    """Which source graphs to verify on.

    `exhaustive_max` enumerates every labelled graph up to that many
    vertices (bipartite reductions split the bound across the two sides).
    Random corpora require an explicit seed.
    """

    exhaustive_max: int | None = None
    random_count: int = 0
    random_size: int = 0
    random_edge_prob: float = 0.0
    seed: int | None = None

    @classmethod
    def parse(cls, text: str) -> "CorpusSpec":
        parts = text.split(":")
        spec = None
        try:
            if parts[0] == "exhaustive" and len(parts) == 2:
                spec = cls(exhaustive_max=parse_int(parts[1]))
            elif parts[0] == "random" and len(parts) == 5:
                spec = cls(
                    random_count=parse_int(parts[1]),
                    random_size=parse_int(parts[2]),
                    random_edge_prob=parse_float(parts[3]),
                    seed=parse_int(parts[4]),
                )
        except ValueError:
            pass
        if spec is not None and min(spec.exhaustive_max or 0, spec.random_count,
                                    spec.random_size) >= 0:
            return spec
        raise InvalidParameterError(
            f"bad corpus spec {text!r}; use exhaustive:N or random:COUNT:SIZE:PROB:SEED"
        )


def _corpus_graphs(spec: CorpusSpec, bipartite: bool):
    out = []
    if spec.exhaustive_max is not None:
        if bipartite:
            side = spec.exhaustive_max // 2
            for p in range(side + 1):
                for q in range(side + 1):
                    out.extend(all_labelled_bipartite(p, q))
        else:
            for n in range(spec.exhaustive_max + 1):
                out.extend((g, None) for g in all_labelled_graphs(n))
    if spec.random_count:
        if spec.seed is None:
            raise InvalidParameterError("random corpora require an explicit seed")
        if spec.random_count > MAX_RANDOM_CORPUS_GRAPHS:
            raise InvalidParameterError(
                f"random corpus of {spec.random_count} graphs exceeds the bound of "
                f"{MAX_RANDOM_CORPUS_GRAPHS}"
            )
        n = spec.random_size
        p, q = (n + 1) // 2, n // 2
        pairs = spec.random_count * (p * q if bipartite else n * (n - 1) // 2)
        if pairs > MAX_RANDOM_CORPUS_PAIRS:
            raise InvalidParameterError(
                f"random corpus of {spec.random_count} graphs draws {pairs} vertex pairs, "
                f"above the bound of {MAX_RANDOM_CORPUS_PAIRS}"
            )
        rng = random.Random(spec.seed)
        for _ in range(spec.random_count):
            child = rng.randrange(2**31)
            if bipartite:
                out.append(gen_random_bipartite(p, q, spec.random_edge_prob, child))
            else:
                out.append((gen_gnp(n, spec.random_edge_prob, child), None))
    return out


@dataclass(frozen=True)
class _Task:
    reduction: str
    graph: Graph
    bipartition: tuple[frozenset[int], frozenset[int]] | None
    params: dict
    depth_cap: object
    descriptor: str


@dataclass(frozen=True)
class InstanceRecord:
    report: VerificationReport

    @property
    def descriptor(self) -> str:
        return self.report.descriptor

    @property
    def passed(self) -> bool:
        return self.report.passed

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.descriptor}"
        first = self.report.failed_checks()[0]
        bits = [f"FAIL check={first.name} {self.descriptor}"]
        if first.vertex is not None:
            bits.append(f"vertex={first.vertex}")
        if first.player is not None:
            bits.append(f"player={first.player.value}")
        if first.kind is not None:
            bits.append(f"kind={first.kind}")
        bits.append(f"trace={format_trace(first.trace)}")
        return " ".join(bits)


@dataclass(frozen=True)
class CorpusReport:
    records: tuple[InstanceRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> tuple[InstanceRecord, ...]:
        return tuple(r for r in self.records if not r.passed)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.records]
        status = "PASS" if self.passed else "FAIL"
        out.append(
            f"summary status={status} total={len(self.records)} failed={len(self.failures)}"
        )
        return out


def _run_task(task: _Task) -> InstanceRecord:
    spec = REDUCTIONS[task.reduction]
    ri = spec.build(task.graph, task.bipartition, task.params)
    report = verify_instance(ri, depth_cap=task.depth_cap, descriptor=task.descriptor)
    return InstanceRecord(report)


def worker_count(jobs: int, cpus: int | None) -> int:
    """`jobs` checked (at least 1) and clamped to `cpus` when that is known."""
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, cpus) if cpus else jobs


def run_corpus(reduction: str, corpus: CorpusSpec, param_grid: dict | None = None,
               depth_cap="auto", jobs: int = 1) -> CorpusReport:
    """Verify one reduction across a corpus and a parameter grid.

    The grid maps parameter names to lists of values; every combination runs
    against every corpus graph. Results come back in task order whatever the
    worker count, so reports are reproducible. A grid cell outside the
    reduction's range raises `ParameterViolationError` from its `build`, and
    no record of the cells before it is returned.
    """
    if reduction not in REDUCTIONS:
        raise InvalidParameterError(
            f"unknown reduction {reduction!r}; choose from {sorted(REDUCTIONS)}"
        )
    spec = REDUCTIONS[reduction]
    jobs = worker_count(jobs, os.cpu_count())
    grid = param_grid or {}
    spec.check_params(grid)
    graphs = _corpus_graphs(corpus, spec.bipartite)
    kinds = dict(spec.param_types)
    keys = sorted(grid)
    tasks = []
    for values in product(*(grid[k] for k in keys)):
        params = dict(zip(keys, values))
        text = ";".join(f"{k}={PARAM_KINDS[kinds[k]].write(v)}" for k, v in params.items())
        for gi, (g, bipartition) in enumerate(graphs):
            descriptor = (
                f"reduction={reduction} graph={gi} V={g.vertex_count}"
                f" E={g.edge_count} params={text or '-'}"
            )
            tasks.append(_Task(reduction, g, bipartition, params, depth_cap, descriptor))
    if jobs == 1:
        records = [_run_task(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_task, tasks, chunksize=8))
    return CorpusReport(tuple(records))
