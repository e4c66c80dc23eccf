"""The benchmark's workloads: inputs made from a seed, one pass of work, checks.

Each workload builds its inputs in `setup(dg, seed)`, which returns the
time of each of its steps, and then runs passes over them. A pass times
every operation on its own and checks its output; checking is neither
timed nor traced. Given a `random.Random`, a pass runs its operations in
a shuffled order, so that the repeats of one operation, and the slowest
operations of one pass, do not always fall at the same point of a pass
(see `run.run_passes`). Latencies are keyed by operation, so the order
does not change what is reported. An operation of several steps records
each step's time (see `fastest`). The package is driven only through
its own entry points (`run_corpus`, the `REDUCTIONS` registry, the `solve`
sequence), which look their callees up at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

E = frozenset
clock = time.perf_counter


def fastest(repeats) -> float:
    """Latency of one operation from its repeats, each a tuple of step
    times: the sum of each step's fastest repeat.

    The host runs in fast and slow spells, the slow ones up to twice as
    slow, and the longest operations (30 ms and more) often have no repeat
    that falls wholly in a fast spell; their steps, a few milliseconds
    each, do.
    """
    return sum(min(step) for step in zip(*repeats))


class Laps:
    """Times of consecutive steps: `lap()` ends one step and starts the next."""

    def __init__(self):
        self.times = []
        self._start = clock()

    def lap(self):
        now = clock()
        self.times.append(now - self._start)
        self._start = now


@dataclass
class PassResult:
    """Step times of every operation in one pass, keyed by operation, plus
    what the pass did."""

    latencies: dict[object, tuple[float, ...]] = field(default_factory=dict)
    units: int = 0            # target vertices handled
    enumerate_s: float = 0.0  # corpus enumeration time, outside any operation
    # solve-ladder: step times of `outcome` and `best_move` of each board, by role
    search_s: dict[str, dict[object, tuple[float, ...]]] = field(
        default_factory=lambda: defaultdict(dict))
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, key, steps: tuple[float, ...], units: int, ok: bool,
               error: str | None = None):
        self.latencies[key] = steps
        self.units += units
        if not ok:
            self.failed += 1
            if error and len(self.errors) < 5:
                self.errors.append(error)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def work_s(self) -> float:
        return sum(map(sum, self.latencies.values())) + self.enumerate_s


def pass_order(items, limit, rng):
    """(index, item) of the first `limit` items, shuffled when `rng` is given."""
    order = list(enumerate(items[:limit]))
    if rng is not None:
        rng.shuffle(order)
    return order


@contextmanager
def patched(owner, attr, make):
    """Replace `owner.attr` by `make(original)` for the duration of a block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _move_text(g, move) -> str:
    """Best-move rendering of the CLI `solve` command."""
    if isinstance(move, int):
        return g.name_of(move)
    return "none" if move.value == "no-move" else "no-winning-move"


def random_graph(dg, rng, n, m, bipartite):
    """Seeded graph with m edges (at most all pairs), cross edges when bipartite."""
    g = dg.Graph()
    p = (n + 1) // 2
    if bipartite:
        bipartition = (E(g.add_vertex(f"l{i}") for i in range(p)),
                       E(g.add_vertex(f"r{j}") for j in range(n - p)))
        m = min(m, p * (n - p))
    else:
        for i in range(n):
            g.add_vertex(f"v{i}")
        bipartition = None
        m = min(m, n * (n - 1) // 2)
    edges = set()
    while len(edges) < m:
        if bipartite:
            edges.add((rng.randrange(p), p + rng.randrange(n - p)))
        else:
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                edges.add((min(i, j), max(i, j)))
    for i, j in sorted(edges):
        g.add_edge(i, j)
    return g.freeze(), bipartition


# -- verify-corpus --------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    """One `run_corpus` call: reduction, corpus, parameter grid, depth cap."""

    label: str
    reduction: str
    corpus: object                       # distance_games.CorpusSpec
    grid: dict
    depth_cap: object = None
    pinned: bool = True                  # record lines must match the pinned digest
    expect_failures: bool = False        # failures must replay through the rules


def _set_text(values) -> str:
    return "+".join(str(x) for x in sorted(values)) or "empty"


def _grid_label(grid) -> str:
    parts = []
    for key in sorted(grid):
        parts.append(f"{key}=" + ",".join(
            _set_text(v) if isinstance(v, frozenset) else str(v) for v in grid[key]))
    return ";".join(parts)


def verify_entries(dg, seed: int) -> list[CorpusEntry]:
    """Acceptance-criterion-3 grids, the out-of-range window grid, and a
    seeded random spot check in the style of criterion 4."""
    raw = [("bgnk-d12", {"s": [E(), E({1})]}),
           ("snort-family", {"n": [2, 3], "s": [E(), E({1})]})]
    for d, s in [({1}, {1}), ({1, 2}, {1, 2}), ({1, 2, 3}, {1, 2, 3}),
                 ({1, 2, 3}, {1, 3}), ({1, 3}, {1, 2, 3})]:
        raw.append(("node-kayles-equalmax", {"d": [E(d)], "s": [E(s)]}))
    raw.append(("col-family", {"k": [2, 3], "d": [E(), E({1})]}))
    for k, d in [(3, {1, 2}), (4, {1, 2, 3}), (4, {1, 3}), (5, {1, 2, 3}), (5, {1, 3})]:
        raw.append(("bgnk-window", {"d": [E(d)], "k": [k]}))
    exhaustive = dg.CorpusSpec(exhaustive_max=4)
    entries = [CorpusEntry(f"exhaustive:4 {name} {_grid_label(grid)}", name, exhaustive, grid)
               for name, grid in raw]
    oor = {"d": [E({1, 2})], "k": [4], "allow_out_of_range": [True]}
    entries.append(CorpusEntry(f"exhaustive:4 bgnk-window {_grid_label(oor)}",
                               "bgnk-window", exhaustive, oor, expect_failures=True))
    rng = random.Random(f"verify-corpus:{seed}")
    spot = [("bgnk-d12", {"s": [E()]}),
            ("snort-family", {"n": [2], "s": [E({1})]}),
            ("node-kayles-equalmax", {"d": [E({1, 2})], "s": [E({1, 2})]}),
            ("col-family", {"k": [2], "d": [E({1})]}),
            ("bgnk-window", {"d": [E({1, 2})], "k": [3]})]
    for name, grid in spot:
        for size in (6, 7):
            corpus = dg.CorpusSpec(random_count=5, random_size=size, random_edge_prob=0.4,
                                   seed=rng.randrange(2**31))
            entries.append(CorpusEntry(f"random:{size} {name} {_grid_label(grid)}",
                                       name, corpus, grid, depth_cap=6, pinned=False))
    return entries


def lines_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class VerifyCorpus:
    name = "verify-corpus"

    def __init__(self, pinned_digests: dict[str, str]):
        self.pinned = pinned_digests

    def setup(self, dg, seed):
        laps = Laps()
        self.dg = dg
        self.entries = verify_entries(dg, seed)
        laps.lap()
        return laps.times

    def run_entry(self, index, entry: CorpusEntry, tracer, result: PassResult):
        """One `run_corpus(..., jobs=1)` call; returns its report lines.

        Each instance's latency is the time of the package's own per-task
        function; the built reductions are kept to check failures with.
        Enumeration time is the call's time minus the instances' times.
        """
        verifier = self.dg.verifier
        latencies, built = [], []

        def time_task(run_task):
            def timed(task):
                t0 = clock()
                try:
                    return run_task(task)
                finally:
                    latencies.append(clock() - t0)
            return timed

        def keep_reduction(verify_instance):
            def keep(ri, *args, **kwargs):
                built.append(ri)
                return verify_instance(ri, *args, **kwargs)
            return keep

        t0 = clock()
        try:
            with patched(verifier, "_run_task", time_task), \
                    patched(verifier, "verify_instance", keep_reduction):
                report = self.dg.run_corpus(entry.reduction, entry.corpus, entry.grid,
                                            depth_cap=entry.depth_cap, jobs=1)
        except Exception as exc:  # the instances run so far count as failed
            for i, latency in enumerate(latencies or [clock() - t0]):
                result.record((index, i), (latency,), 0, False, f"{entry.label}: {exc!r}")
            return None
        result.enumerate_s += clock() - t0 - sum(latencies)
        lines = report.lines()
        mismatch = entry.pinned and lines_digest(lines) != self.pinned.get(entry.label)
        with tracer.paused():
            for i, (latency, ri, record) in enumerate(zip(latencies, built, report.records)):
                if mismatch:
                    error = f"{entry.label}: report lines differ from the pinned digest"
                else:
                    error = self._wrong(ri, record, entry)
                result.record((index, i), (latency,), ri.target_graph.vertex_count,
                              error is None, error)
        return lines

    def _wrong(self, ri, record, entry) -> str | None:
        if record.passed:
            return None
        if not entry.expect_failures:
            return f"{record.descriptor}: unexpected failure"
        if not self.dg.replays_violation(ri, record.report.failed_checks()[0]):
            return f"{record.descriptor}: failure does not replay"
        return None

    def run_pass(self, tracer, limit=None, rng=None) -> PassResult:
        """Every entry, or the first `limit` entries."""
        result = PassResult()
        for index, entry in pass_order(self.entries, limit, rng):
            tracer.begin_op(entry.label)
            self.run_entry(index, entry, tracer, result)
        return result


# -- solve-ladder ---------------------------------------------------------------

# Source family -> (reduction, parameters, edges per vertex). Col boards get
# more edges: Col trees on sparse boards are far deeper than the others'.
LADDER_FAMILIES = [
    ("snort-family", {"n": 2, "s": E()}, 1.3),
    ("col-family", {"k": 2, "d": E()}, 2.0),
    ("node-kayles-equalmax", {"d": E({1, 2}), "s": E({1, 2})}, 1.3),
    ("bgnk-d12", {"s": E({1})}, 1.3),
    ("bgnk-window", {"d": E({1, 2}), "k": 3}, 1.3),
]
LADDER_SIZES = (6, 7, 8)
LADDER_BOARDS = 32


def solve_board(dg, text: str):
    """The `solve` subcommand's sequence; returns its three output fields
    and the times of its steps: parse and legality check, `outcome`, and
    `best_move` for each player."""
    t0 = clock()
    g, pos, rs = dg.fileformat.parse_graph(text)
    if not dg.rules.position_is_legal(g, rs, pos):
        raise ValueError("input position violates the ruleset")
    t1 = clock()
    out = dg.solver.outcome(g, rs, pos)
    t2 = clock()
    left = dg.solver.best_move(g, rs, pos, dg.Player.LEFT)
    t3 = clock()
    right = dg.solver.best_move(g, rs, pos, dg.Player.RIGHT)
    t4 = clock()
    return g, out, left, right, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)


class SolveLadder:
    name = "solve-ladder"

    def setup(self, dg, seed):
        """Generate the ladder and serialize each source and its target."""
        laps = Laps()
        self.dg = dg
        rng = random.Random(f"solve-ladder:{seed}")
        self.pairs = []     # (label, source text, target text)
        for n in LADDER_SIZES:
            for name, params, density in LADDER_FAMILIES:
                spec = dg.REDUCTIONS[name]
                for b in range(LADDER_BOARDS):
                    g, bipartition = random_graph(dg, rng, n, round(n * density),
                                                  spec.bipartite)
                    ri = spec.build(g, bipartition, params)
                    self.pairs.append((
                        f"{name} n={n} #{b}",
                        dg.serialize(ri.source_graph, dg.Position(), ri.source_ruleset),
                        dg.serialize(ri.target_graph, ri.initial_position, ri.target_ruleset),
                    ))
                laps.lap()
        return laps.times

    def _solve(self, index, label, text, role, tracer, result):
        tracer.begin_op(f"{label} {role}", role=role)
        t0 = clock()
        try:
            g, out, left, right, steps = solve_board(self.dg, text)
        except Exception as exc:  # a board that raises counts as failed
            result.record((index, role), (clock() - t0,), 0, False, f"{label} {role}: {exc!r}")
            return None
        result.search_s[role][index] = steps[1:]
        answer = (out.value, _move_text(g, left), _move_text(g, right))
        expected = self.dg.Outcome.from_first_move_wins(
            isinstance(left, int), isinstance(right, int))
        error = None if expected is out else f"{label} {role}: best moves contradict {out.value}"
        result.record((index, role), steps, g.vertex_count, error is None, error)
        return answer

    def run_pass(self, tracer, limit=None, rng=None) -> PassResult:
        result = PassResult()
        for index, (label, source, target) in pass_order(self.pairs, limit, rng):
            src = self._solve(index, label, source, "source", tracer, result)
            tgt = self._solve(index, label, target, "target", tracer, result)
            if src is not None and tgt is not None and src != tgt:
                result.failed += 1
                result.errors.append(f"{label}: target {tgt} differs from source {src}")
        return result


# -- reduce-large ---------------------------------------------------------------

REDUCE_FAMILIES = [
    ("snort-family", {"n": 2, "s": E({1})}, 1.0),
    ("col-family", {"k": 2, "d": E()}, 1.0),
    ("node-kayles-equalmax", {"d": E({1, 2}), "s": E({1, 2})}, 1.0),
    ("bgnk-d12", {"s": E()}, 1.0),
    # Every side vertex gets its own anchor path here, so sources are halved.
    ("bgnk-window", {"d": E({1, 2}), "k": 3}, 0.5),
]
REDUCE_SIZES = tuple(range(64, 209, 16))
REDUCE_BOARDS = 1
_GADGET_NAME = re.compile(r"^g\d+\.")


def reduce_board(dg, name, params, g, bipartition):
    """Build, serialize, parse back, vertex condition, DOT export; returns
    their results and the time of each of those steps."""
    t0 = clock()
    ri = dg.REDUCTIONS[name].build(g, bipartition, params)
    t1 = clock()
    text = dg.fileformat.serialize(ri.target_graph, ri.initial_position, ri.target_ruleset)
    t2 = clock()
    back = dg.fileformat.serialize(*dg.fileformat.parse_graph(text))
    t3 = clock()
    condition = dg.verifier.check_vertex_condition(ri)
    t4 = clock()
    highlight = [v for v in ri.target_graph.names if _GADGET_NAME.match(v)]
    dot = dg.fileformat.to_dot(ri.target_graph, ri.initial_position, highlight)
    t5 = clock()
    return ri, text, back, condition, dot, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)


class ReduceLarge:
    name = "reduce-large"

    def setup(self, dg, seed):
        laps = Laps()
        self.dg = dg
        rng = random.Random(f"reduce-large:{seed}")
        self.sources = []   # (label, reduction, params, graph, bipartition)
        for n in REDUCE_SIZES:
            for name, params, scale in REDUCE_FAMILIES:
                size = int(n * scale)
                bipartite = dg.REDUCTIONS[name].bipartite
                for b in range(REDUCE_BOARDS):
                    g, bipartition = random_graph(dg, rng, size, size, bipartite)
                    self.sources.append((f"{name} n={size} #{b}", name, params, g, bipartition))
                laps.lap()
        return laps.times

    def run_pass(self, tracer, limit=None, rng=None) -> PassResult:
        result = PassResult()
        for index, (label, name, params, g, bipartition) in pass_order(self.sources, limit, rng):
            tracer.begin_op(label)
            t0 = clock()
            try:
                ri, text, back, condition, dot, steps = reduce_board(
                    self.dg, name, params, g, bipartition)
            except Exception as exc:  # a board that raises counts as failed
                result.record(index, (clock() - t0,), 0, False, f"{label}: {exc!r}")
                continue
            tg = ri.target_graph
            error = None
            if back != text:
                error = f"{label}: parse/serialize round trip differs"
            elif not condition.passed:
                error = f"{label}: vertex condition fails"
            elif dot.count("\n") != tg.vertex_count + tg.edge_count + 2:
                error = f"{label}: DOT output has the wrong number of lines"
            result.record(index, steps, tg.vertex_count, error is None, error)
        return result


def make(name: str, pinned: dict):
    if name == "verify-corpus":
        return VerifyCorpus(pinned.get("verify_digests", {}))
    if name == "solve-ladder":
        return SolveLadder()
    if name == "reduce-large":
        return ReduceLarge()
    raise KeyError(name)


WORKLOADS = ("verify-corpus", "solve-ladder", "reduce-large")
