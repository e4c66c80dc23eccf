"""Machine checks that a reduction really preserves the game.

Three checks per reduced instance, each returning a `CheckResult`:

* vertex condition: in the starting position, nothing outside the embedded
  original vertices is playable by either player;
* move-for-move correspondence: walking the source game tree (every move of
  either player, recursively) while mirroring each move into the target,
  the two move sets match under the embedding at every node;
* outcome preservation: the solved outcome of source and target agree.

The correspondence walk compares the full target move set, added vertices
included, at every node. It carries each game's position and its two
blocked masks (`LegalityIndex.blocked`) down the tree as plain ints and
updates them per placed stone, so each node's move sets are one mask
expression per player; the check does not rely on legality being
monotone.

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

from .errors import HypothesisViolatedError, InvalidParameterError
from .gadgets import GadgetInstance, check_gadget_size, embed_gadget, stones_position
from .graph import (
    Graph,
    all_labelled_bipartite,
    all_labelled_graphs,
    gen_gnp,
    gen_random_bipartite,
)
from . import rules, solver
from .reductions import REDUCTIONS, ReducedInstance
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
    """No target vertex outside the embedded originals is playable initially."""
    index = LegalityIndex(ri.target_graph, ri.target_ruleset)
    pos = ri.initial_position
    outside = ((1 << ri.target_graph.vertex_count) - 1) & ~ri.embedded_mask
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
    mapping = ri.source_to_target
    emb_mask = ri.embedded_mask
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
    tbits = [1 << t for t in mapping]

    visited: set[int] = set()
    path: list[tuple[Player, int]] = []
    nodes = 0

    def mismatch(player: Player, mapped: int, tgt_mask: int) -> CheckResult:
        trace = tuple((p, src_names[i]) for p, i in path)
        diff = tgt_mask ^ mapped
        bad = (diff & -diff).bit_length() - 1
        bit = 1 << bad
        name = tgt_names[bad]
        if bit & tgt_mask:
            kind = KIND_TARGET_ONLY if bit & emb_mask else KIND_UNEMBEDDED
            what = "legal in target but not in source" if bit & emb_mask \
                else "added vertex is playable"
        else:
            kind = KIND_SOURCE_ONLY
            what = "legal in source but not in target"
        return CheckResult(
            PLAY_FOR_PLAY, False,
            detail=f"after [{format_trace(trace)}]: {name!r} {what} for {player.name}",
            trace=trace, vertex=name, player=player, kind=kind,
        )

    # Positions are plain ints: each game's blue and red stones, plus the
    # vertices blocked for Left and for Right, updated per placed stone.
    def walk(sb, sr, s_bl, s_br, tb, tr, t_bl, t_br, depth) -> CheckResult | None:
        nonlocal nodes
        key = sb | sr << n_src
        if key in visited:
            return None
        visited.add(key)
        nodes += 1
        s_free = ~(sb | sr)
        t_free = ~(tb | tr)
        left = s_left & s_free & ~s_bl
        right = s_right & s_free & ~s_br
        for player, moves, tgt_mask in (
            (LEFT, left, t_left & t_free & ~t_bl),
            (RIGHT, right, t_right & t_free & ~t_br),
        ):
            mapped = 0
            while moves:
                bit = moves & -moves
                mapped |= tbits[bit.bit_length() - 1]
                moves ^= bit
            if mapped != tgt_mask:
                return mismatch(player, mapped, tgt_mask)
        if depth >= max_depth:
            return None
        depth += 1
        while left:
            bit = left & -left
            i = bit.bit_length() - 1
            j = mapping[i]
            path.append((LEFT, i))
            bad = walk(sb | bit, sr, s_bl | ss[i], s_br | sd[i],
                       tb | tbits[i], tr, t_bl | ts[j], t_br | td[j], depth)
            if bad is not None:
                return bad
            path.pop()
            left ^= bit
        while right:
            bit = right & -right
            i = bit.bit_length() - 1
            j = mapping[i]
            path.append((RIGHT, i))
            bad = walk(sb, sr | bit, s_bl | sd[i], s_br | ss[i],
                       tb, tr | tbits[i], t_bl | td[j], t_br | ts[j], depth)
            if bad is not None:
                return bad
            path.pop()
            right ^= bit
        return None

    start = ri.initial_position
    bad = walk(0, 0, 0, 0, start.blue, start.red, *tgt_index.blocked(start), 0)
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
    """Run all three checks, plus the tree-shape-implies-outcome cross-check."""
    cap = resolve_depth_cap(ri, depth_cap)
    checks = [
        check_vertex_condition(ri),
        check_play_for_play(ri, cap),
        check_winnability(ri),
    ]
    full = cap is None or cap >= ri.source_graph.vertex_count
    if full and checks[1].passed and not checks[2].passed:
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
    emap = ri.embedded_map
    for player, name in result.trace:
        spos = rules.apply_move(ri.source_graph, ri.source_ruleset, spos, name, player)
        tpos = rules.apply_move(ri.target_graph, ri.target_ruleset, tpos, emap[name], player)
    target_legal = rules.is_legal(
        ri.target_graph, ri.target_ruleset, tpos, result.vertex, result.player
    )
    if result.kind == KIND_UNEMBEDDED:
        return target_legal and result.vertex not in emap.values()
    sources = {t: s for s, t in emap.items()}
    source_legal = rules.is_legal(
        ri.source_graph, ri.source_ruleset, spos, sources[result.vertex], result.player
    )
    if result.kind == KIND_SOURCE_ONLY:
        return source_legal and not target_legal
    if result.kind == KIND_TARGET_ONLY:
        return target_legal and not source_legal
    return False


def check_gadget_lemma(gadget: GadgetInstance, d, s, probes: int) -> VerificationReport:
    """Re-derive the gadget guarantees from the rules instead of trusting them.

    Embeds the gadget in a host graph with `probes` fresh external vertices
    hanging off each port, then checks that (i) every uncoloured gadget
    vertex is illegal for both players at the start, (ii) it stays illegal
    after each single legal probe placement (full persistence follows from
    legality monotonicity), and (iii) the probes themselves sit farther from
    every fixed stone than the largest forbidden distance.

    Refuses to vouch unless one of d, s is exactly {1..r} and the other is
    a subset of it.
    """
    d, s = frozenset(d), frozenset(s)
    if gadget.radius is None:
        raise HypothesisViolatedError("gadget carries no blocking radius")
    check_gadget_size("probes", probes, 0)
    interval = frozenset(range(1, gadget.radius + 1))
    if not ((d == interval and s <= interval) or (s == interval and d <= interval)):
        raise HypothesisViolatedError(
            f"need d or s equal to {{1..{gadget.radius}}} and the other a subset"
        )

    host = Graph()
    embed_gadget(host, gadget)
    probe_names = []
    for role, port in gadget.ports:
        for i in range(probes):
            name = f"probe.{role}.{i}"
            host.add_vertex(name)
            host.add_edge(name, port)
            probe_names.append(name)
    host.freeze()

    rs = rules.distance_game(d, s)
    start = stones_position(host, [gadget])
    players = (Player.LEFT, Player.RIGHT)

    def first_playable(pos: Position) -> str | None:
        for name in gadget.uncoloured:
            for player in players:
                if rules.is_legal(host, rs, pos, name, player):
                    return f"{name} playable by {player.name}"
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
            for stone, _ in gadget.precoloured:
                dist = host.distance(name, stone)
                if dist is not None and dist <= rs.max_radius:
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
                spec = cls(exhaustive_max=int(parts[1]))
            elif parts[0] == "random" and len(parts) == 5:
                spec = cls(
                    random_count=int(parts[1]),
                    random_size=int(parts[2]),
                    random_edge_prob=float(parts[3]),
                    seed=int(parts[4]),
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
        rng = random.Random(spec.seed)
        for _ in range(spec.random_count):
            child = rng.randrange(2**31)
            if bipartite:
                p = (spec.random_size + 1) // 2
                q = spec.random_size // 2
                out.append(gen_random_bipartite(p, q, spec.random_edge_prob, child))
            else:
                out.append((gen_gnp(spec.random_size, spec.random_edge_prob, child), None))
    return out


def format_params(params: dict) -> str:
    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, frozenset | set):
            return "+".join(str(x) for x in sorted(value)) or "empty"
        return str(value)

    return ";".join(f"{k}={fmt(params[k])}" for k in sorted(params)) or "-"


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

    def first_failures(self) -> tuple[InstanceRecord, ...]:
        """Earliest failing record for each (check, params) combination."""
        seen = set()
        out = []
        for record in self.records:
            if record.passed:
                continue
            params = record.descriptor.rsplit("params=", 1)[-1]
            key = (record.report.failed_checks()[0].name, params)
            if key not in seen:
                seen.add(key)
                out.append(record)
        return tuple(out)

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
    worker count, so reports are reproducible.
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
    keys = sorted(grid)
    combos = [dict(zip(keys, values)) for values in product(*(grid[k] for k in keys))]
    if not combos:
        combos = [{}]
    tasks = []
    for params in combos:
        for gi, (g, bipartition) in enumerate(graphs):
            descriptor = (
                f"reduction={reduction} graph={gi} V={g.vertex_count}"
                f" E={g.edge_count} params={format_params(params)}"
            )
            tasks.append(_Task(reduction, g, bipartition, params, depth_cap, descriptor))
    if jobs == 1:
        records = [_run_task(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_task, tasks, chunksize=8))
    return CorpusReport(tuple(records))
