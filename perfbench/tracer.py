"""Span recorder that wraps the package's callables from outside.

`Tracer.install(dg)` replaces selected functions and methods of the
`distance_games` package with timing wrappers, at the attribute each caller
looks up (a module global, a class method), and `uninstall()` puts the
originals back. Nothing inside the package changes.

Two kinds of wrapper:

* span: one record per call (name, start, end, parent span, operation id),
  kept in memory up to `MAX_SPANS` and aggregated by name;
* hot: inner calls that run millions of times (`legal_moves_mask`, `ball`,
  `place`, `embed_gadget`) are only counted and timed, aggregated under the
  name of the enclosing span.

Every call's time is charged to its parent frame as child time, so a span's
self time is its duration minus the time of the calls nested in it. The
wrappers' own cost, measured once when the tracer is installed, is charged
as child time too, so self times leave the tracer out.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from functools import wraps

MAX_SPANS = 50_000
_NODES = re.compile(r"\bnodes=(\d+)")


class Agg:
    """Totals for one name: calls, inclusive and self seconds, work units."""

    __slots__ = ("calls", "total", "self_time", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.units = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total, "self_s": self.self_time,
                "units": self.units}


class _Frame:
    __slots__ = ("span_id", "name", "child")

    def __init__(self, span_id, name):
        self.span_id = span_id
        self.name = name
        self.child = 0.0


class NullTracer:
    """Stand-in used by untraced runs: every hook is a no-op."""

    def begin_op(self, op_id, role=None):
        pass

    def paused(self):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent, op, name, start, end)
        self.dropped_spans = 0
        self.spans_by_name: dict[str, Agg] = defaultdict(Agg)
        self.hot: dict[tuple[str, str], Agg] = defaultdict(Agg)
        self.counters: dict[str, int] = defaultdict(int)
        self.origin = time.perf_counter()
        self._stack = [_Frame(0, "root")]
        self._next_id = 1
        self._op = None
        self._role = None
        self._span_leak = self._hot_leak = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- operation context -------------------------------------------------

    def begin_op(self, op_id, role=None):
        """Tag following spans with an operation id; `role` marks the board
        as "source" or "target" for the solver counters."""
        self._op = op_id
        self._role = role

    @contextmanager
    def paused(self):
        """Run a block with the originals in place: output checks are not traced."""
        wrappers = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        self.uninstall()
        try:
            yield
        finally:
            for owner, attr, wrapper in wrappers:
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, name):
        frame = _Frame(self._next_id, name)
        self._next_id += 1
        self._stack.append(frame)
        return time.perf_counter()

    def _exit(self, name, start, units):
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - start
        parent = self._stack[-1]
        parent.child += duration + self._span_leak
        agg = self.spans_by_name[name]
        agg.calls += 1
        agg.total += duration
        agg.self_time += duration - frame.child
        agg.units += units
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame.span_id, parent.span_id, self._op, name,
                               start - self.origin, end - self.origin))
        else:
            self.dropped_spans += 1

    def _hot(self, name, duration, units):
        parent = self._stack[-1]
        parent.child += duration + self._hot_leak
        agg = self.hot[(parent.name, name)]
        agg.calls += 1
        agg.total += duration
        agg.self_time += duration
        agg.units += units

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap_span(self, owner, attr, name, units=None, after=None):
        """`units(args, kwargs, result)` counts work (result is None when the
        call raised or returns nothing); `after` sees a non-None result."""
        tracer = self

        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                start = tracer._enter(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    tracer._exit(name, start, units(args, kwargs, result) if units else 0)
                    if after is not None and result is not None:
                        after(args, kwargs, result)
            return wrapper

        self._patch(owner, attr, make)

    def wrap_hot(self, owner, attr, name, units=None):
        tracer = self
        clock = time.perf_counter

        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._hot(name, clock() - t0, units(args) if units else 0)
            return wrapper

        self._patch(owner, attr, make)

    def wrap_search(self, owner, attr, name, stats_cls):
        """Solver entry point: a span plus node/hit/peak counters per role.

        Injects a fresh `stats` object when the caller passed none, so the
        counters come from the package's own public keyword argument.
        """
        if stats_cls is None:
            self.missing.append(f"{attr} (no SearchStats)")
            return
        tracer = self
        counters = self.counters

        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                role = tracer._role
                given = kwargs.get("stats")
                stats = given if given is not None else stats_cls()
                before = (stats.nodes, stats.hits)
                kwargs["stats"] = stats
                start = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(name, start, 0)
                    nodes = stats.nodes - before[0]
                    counters["solver.nodes"] += nodes
                    counters["solver.hits"] += stats.hits - before[1]
                    if role is not None:
                        counters[f"solver.nodes.{role}"] += nodes
                    if stats.peak_entries > counters["solver.peak_entries"]:
                        counters["solver.peak_entries"] = stats.peak_entries
            return wrapper

        self._patch(owner, attr, make)

    def _calibrate(self, calls=2_000, rounds=5):
        """Measure what each kind of wrapper costs its caller beyond the time
        it charges as child time: the call into the wrapper and the
        bookkeeping outside its clock readings. Fastest of a few rounds."""
        class Probe:
            def hot(self, arg):
                return arg

            def span(self, arg):
                return arg

        scratch = Tracer()
        scratch.wrap_hot(Probe, "hot", "probe")
        scratch.wrap_span(Probe, "span", "probe")
        probe, clock = Probe(), time.perf_counter

        def leak(method, charged):
            best = float("inf")
            for _ in range(rounds):
                before = charged()
                t0 = clock()
                for _ in range(calls):
                    method(1)
                wrapped = clock() - t0
                t0 = clock()
                for _ in range(calls):
                    pass
                empty = clock() - t0
                best = min(best, (wrapped - empty - (charged() - before)) / calls)
            return max(best, 0.0)

        self._hot_leak = leak(probe.hot, lambda: scratch.hot[("root", "probe")].total)
        self._span_leak = leak(probe.span, lambda: scratch.spans_by_name["probe"].total)

    # -- install / uninstall ---------------------------------------------------

    def install(self, dg):
        """Wrap the package's layer boundaries and hot inner calls."""
        graph, rules, solver = dg.graph, dg.rules, dg.solver
        gadgets, reductions, verifier, fileformat = (
            dg.gadgets, dg.reductions, dg.verifier, dg.fileformat)
        counters = self.counters

        def target_vertices(args, kwargs, result):
            return result.target_graph.vertex_count if result is not None else 0

        def text_lines(args, kwargs, result):
            return args[0].count("\n") if args else 0

        def result_lines(args, kwargs, result):
            return result.count("\n") if result is not None else 0

        def index_vertices(args, kwargs, result):
            return args[1].vertex_count

        def gadget_vertices(args):
            return len(args[1].vertices)

        def walk_nodes(args, kwargs, result):
            checks = getattr(result, "checks", None) or (result,)
            match = _NODES.search(getattr(checks[0], "detail", "") or "")
            if match:
                counters["verifier.walk_nodes"] += int(match.group(1))

        self._calibrate()
        # The registry's builders look these names up in `reductions`.
        for attr in ("reduce_bgnk_to_d12", "reduce_snort_family",
                     "reduce_node_kayles_equalmax", "reduce_col_family",
                     "reduce_bgnk_window"):
            self.wrap_span(reductions, attr, "reductions.build", units=target_vertices)
        self.wrap_span(verifier, "verify_instance", "verifier.verify_instance")
        self.wrap_span(verifier, "check_vertex_condition", "verifier.check.vertex_condition")
        self.wrap_span(verifier, "check_play_for_play", "verifier.check.play_for_play",
                       after=walk_nodes)
        self.wrap_span(verifier, "check_winnability", "verifier.check.winnability")
        stats_cls = getattr(solver, "SearchStats", None)
        self.wrap_search(solver, "outcome", "solver.outcome", stats_cls)
        self.wrap_search(solver, "best_move", "solver.best_move", stats_cls)
        self.wrap_span(rules.LegalityIndex, "__init__", "rules.index.build",
                       units=index_vertices)
        self.wrap_span(rules, "position_is_legal", "rules.position_is_legal")
        self.wrap_span(fileformat, "parse_graph", "fileformat.parse", units=text_lines)
        self.wrap_span(fileformat, "serialize", "fileformat.serialize", units=result_lines)
        self.wrap_span(fileformat, "to_dot", "fileformat.dot", units=result_lines)
        self.wrap_hot(rules.LegalityIndex, "legal_moves_mask", "rules.legal_moves")
        self.wrap_hot(graph.Graph, "ball", "graph.ball")
        self.wrap_hot(rules.Position, "place", "rules.place")
        self.wrap_hot(gadgets, "embed_gadget", "gadgets.embed", units=gadget_vertices)
        self.wrap_hot(reductions, "embed_gadget", "gadgets.embed", units=gadget_vertices)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out --------------------------------------------------------------

    def span_agg(self, name) -> Agg:
        return self.spans_by_name.get(name) or Agg()

    def hot_agg(self, name) -> Agg:
        """Totals of one hot call summed over every parent span."""
        out = Agg()
        for (_parent, hot_name), agg in self.hot.items():
            if hot_name == name:
                out.calls += agg.calls
                out.total += agg.total
                out.self_time += agg.self_time
                out.units += agg.units
        return out

    def dump(self) -> dict:
        return {
            "spans_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "span_totals": {k: v.as_dict() for k, v in sorted(self.spans_by_name.items())},
            "hot_totals": [
                {"parent": parent, "name": name, **agg.as_dict()}
                for (parent, name), agg in sorted(self.hot.items())
            ],
            "counters": dict(sorted(self.counters.items())),
            "wrapper_cost_s": {"span": self._span_leak, "hot": self._hot_leak},
            "not_wrapped": self.missing,
        }
