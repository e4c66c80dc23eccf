"""End-to-end and per-layer benchmark of the distance_games package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from `src/` next
to this directory, never from an installed copy. Workloads are
`verify-corpus`, `solve-ladder` and `reduce-large` (see README.md).

With `--trace 0` the run measures end-to-end metrics with no wrappers
installed. With `--trace 1` it runs whole passes untraced for a third of
the time, then the same number of passes with the tracer installed, and
reports per-layer metrics from the traced passes plus `trace.overhead`, the
ratio of traced to untraced work time (fastest repeats). Both modes write a
JSON record to `perfbench/out/`; the traced one includes the spans and
counters. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 18  # set-ups, half of them on each of two processors
WARMUP_OPS = 2

import tracer as tracing  # noqa: E402  (this directory is sys.path[0])
import workloads  # noqa: E402


class MissingPackage(Exception):
    pass


def import_package():
    """Fresh import of distance_games from this checkout's `src/`."""
    if not (SRC / "distance_games" / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {SRC / 'distance_games'}")
    for name in [m for m in sys.modules if m == "distance_games" or m.startswith("distance_games.")]:
        del sys.modules[name]
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    dg = importlib.import_module("distance_games")
    if Path(dg.__file__).resolve().parent != (SRC / "distance_games").resolve():
        raise MissingPackage(f"distance_games imported from {dg.__file__}, not {SRC}")
    return dg


def load_pinned() -> dict:
    return json.loads((HERE / "pinned.json").read_text())


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def set_up(name: str, seed: int, pinned: dict):
    """Import plus input generation; returns the package, the workload and
    the time of each step: the import, then each part of the generation."""
    t0 = time.perf_counter()
    dg = import_package()
    import_s = time.perf_counter() - t0
    wl = workloads.make(name, pinned)
    return dg, wl, (import_s, *wl.setup(dg, seed))


def set_up_sample(name: str, seed: int, pinned: dict, cpus) -> list[tuple[float, ...]]:
    """One set-up on each processor in turn, for the reason given in
    `run_passes`; returns their step times. Each starts after a full
    garbage collection, so that it does not pay for collecting the inputs
    and the discarded set-ups this process holds, which a fresh process
    would not have."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        gc.collect()
        times.append(set_up(name, seed, pinned)[2])
    os.sched_setaffinity(0, cpus)
    return times


def run_passes(wl, tracer, rng, seconds=None, count=None, between=None):
    """Whole passes until `seconds` have gone by, or exactly `count` passes;
    `between()` runs after each pass; its time does not count.

    Consecutive passes run on different processors in turn: a neighbour on
    the host can slow one processor for minutes, and taking each
    operation's fastest repeat then picks the unaffected one. Each pass
    runs its operations in an order drawn from `rng`: the host also
    alternates between fast and slow spells of about half a second, and
    in a fixed order the slowest operations (the largest boards) would
    run back to back at the end of every pass, so that one slow spell
    there could miss all their repeats of a pass together.
    """
    allowed = sorted(os.sched_getaffinity(0))
    passes = []
    t_end = time.perf_counter() + (seconds or 0)
    try:
        while True:
            os.sched_setaffinity(0, {allowed[len(passes) % len(allowed)]})
            passes.append(wl.run_pass(tracer, rng=rng))
            if between is not None:
                t0 = time.perf_counter()
                between()
                t_end += time.perf_counter() - t0
            if count is not None and len(passes) >= count:
                return passes
            if count is None and time.perf_counter() >= t_end:
                return passes
    finally:
        os.sched_setaffinity(0, allowed)


def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(a, b):
    return a / b if b else 0.0


def fastest(passes):
    """Every pass repeats the same operations, so each operation's latency
    is taken from its fastest repeats (`workloads.fastest`): that filters
    out the slow spells of a shared machine. Returns those latencies and
    their total work time."""
    best = [workloads.fastest(p.latencies[key] for p in passes) for key in passes[0].latencies]
    return best, sum(best) + min(p.enumerate_s for p in passes)


def fastest_search_s(passes, role) -> float:
    """Search time of one pass over the boards of one role, each search
    call at its fastest repeat."""
    return sum(workloads.fastest(p.search_s[role][key] for p in passes)
               for key in passes[0].search_s[role])


def end_to_end(passes, setup_times):
    best, work = fastest(passes)
    ms = sorted(x * 1e3 for x in best)
    metrics = {
        "setup_s": metric(workloads.fastest(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": metric(ratio(len(best), work), "1/s"),
        "target_vertices_per_s": metric(ratio(passes[0].units, work), "1/s"),
        "op_ms.p50": metric(statistics.median(ms), "ms"),
        "op_ms.p90": metric(statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
    }
    samples = {"setup_s": len(setup_times), "peak_rss_mb": 1}
    for name in ("ops_per_s", "target_vertices_per_s", "op_ms.p50", "op_ms.p90"):
        samples[name] = f"{len(best)} ops x {len(passes)} passes"
    return metrics, samples


def per_layer(tr, traced_passes, untraced_passes):
    """Layer metrics from the traced passes; counts are per pass. Solver
    time per node divides untraced search time by the traced node count,
    so the wrappers inside the search do not inflate it."""
    n = len(traced_passes)
    wall = sum(p.work_s for p in traced_passes)
    c = tr.counters
    ball = tr.hot_agg("graph.ball")
    moves = tr.hot_agg("rules.legal_moves")
    embed = tr.hot_agg("gadgets.embed")
    index = tr.span_agg("rules.index.build")
    builds = tr.span_agg("reductions.build")
    outcome, best = tr.span_agg("solver.outcome"), tr.span_agg("solver.best_move")
    walk = tr.span_agg("verifier.check.play_for_play")
    instances = tr.span_agg("verifier.verify_instance")

    def per_unit(agg, scale):
        return ratio(agg.total, agg.units) * scale

    def per_call_ms(name):
        agg = tr.span_agg(name)
        return ratio(agg.total, agg.calls) * 1e3

    values = {
        "graph.ball.calls": (ball.calls / n, "count"),
        "graph.ball.us_per_call": (ratio(ball.total, ball.calls) * 1e6, "us"),
        "graph.enumerate_s": (sum(p.enumerate_s for p in traced_passes) / n, "s"),
        "rules.index.builds": (index.calls / n, "count"),
        "rules.index.build_us_per_vertex": (per_unit(index, 1e6), "us"),
        "rules.legal_moves.calls": (moves.calls / n, "count"),
        "rules.legal_moves.us_per_call": (ratio(moves.total, moves.calls) * 1e6, "us"),
        "rules.legal_moves.share": (ratio(moves.total, wall), "share"),
        "solver.nodes": (c["solver.nodes"] / n, "count"),
        "solver.hits": (c["solver.hits"] / n, "count"),
        "solver.hit_ratio": (ratio(c["solver.hits"], c["solver.nodes"]), "share"),
        "solver.peak_entries": (c["solver.peak_entries"], "count"),
        "solver.us_per_node.source": (
            ratio(fastest_search_s(untraced_passes, "source") * n, c["solver.nodes.source"])
            * 1e6, "us"),
        "solver.us_per_node.target": (
            ratio(fastest_search_s(untraced_passes, "target") * n, c["solver.nodes.target"])
            * 1e6, "us"),
        "solver.self_share": (ratio(outcome.self_time + best.self_time, wall), "share"),
        "gadgets.embed.calls": (embed.calls / n, "count"),
        "gadgets.embed.us_per_vertex": (per_unit(embed, 1e6), "us"),
        "reductions.builds": (builds.calls / n, "count"),
        "reductions.build_us_per_target_vertex": (per_unit(builds, 1e6), "us"),
        "reductions.build.share": (ratio(builds.total, wall), "share"),
        "verifier.walk_nodes": (c["verifier.walk_nodes"] / n, "count"),
        "verifier.walk.us_per_node": (ratio(walk.self_time, c["verifier.walk_nodes"]) * 1e6, "us"),
        "verifier.index_builds_per_instance": (ratio(index.calls, instances.calls), "count"),
        "verifier.check_ms.vertex_condition": (per_call_ms("verifier.check.vertex_condition"), "ms"),
        "verifier.check_ms.play_for_play": (per_call_ms("verifier.check.play_for_play"), "ms"),
        "verifier.check_ms.winnability": (per_call_ms("verifier.check.winnability"), "ms"),
        "fileformat.parse.us_per_line": (per_unit(tr.span_agg("fileformat.parse"), 1e6), "us"),
        "fileformat.serialize.us_per_line": (
            per_unit(tr.span_agg("fileformat.serialize"), 1e6), "us"),
        "fileformat.dot.us_per_line": (per_unit(tr.span_agg("fileformat.dot"), 1e6), "us"),
        "trace.overhead": (ratio(fastest(traced_passes)[1], fastest(untraced_passes)[1]), "ratio"),
    }
    return {name: metric(v, unit) for name, (v, unit) in values.items()}


def write_record(name, seed, trace, record):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, default=list))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pinned = load_pinned()
        dg, wl, first_setup = set_up(args.workload, args.seed, pinned)
    except (MissingPackage, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    null = tracing.NullTracer()
    wl.run_pass(null, limit=WARMUP_OPS)
    order = random.Random(f"pass-order:{args.seed}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(), "first_setup_s": sum(first_setup)}
    if args.trace:
        untraced = run_passes(wl, null, order, seconds=args.seconds / 3)
        tr = tracing.Tracer().install(dg)
        try:
            traced = run_passes(wl, tr, order, count=len(untraced))
        finally:
            tr.uninstall()
        passes = untraced + traced
        metrics = per_layer(tr, traced, untraced)
        samples = {"passes": len(traced)}
        record["tracer"] = tr.dump()
    else:
        cpus = sorted(os.sched_getaffinity(0))
        setup_times = []

        def sample_setup():
            if len(setup_times) < SETUP_SAMPLES:
                setup_times.extend(set_up_sample(args.workload, args.seed, pinned, cpus))

        # Set-up samples are spread over the run, between passes, so that
        # they do not all fall in one slow spell of the host.
        passes = run_passes(wl, null, order, seconds=args.seconds, between=sample_setup)
        while len(setup_times) < SETUP_SAMPLES:
            sample_setup()
        metrics, samples = end_to_end(passes, setup_times)
        record["setup_samples_s"] = [sum(steps) for steps in setup_times]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors][:10]
    record.update(metrics=metrics, samples=samples, attempted=attempted, failed=failed,
                  errors=errors,
                  pass_work_s=[p.work_s for p in passes])
    path = write_record(args.workload, args.seed, args.trace, record)

    print(f"# machine {json.dumps(machine_info())}")
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} record={path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} (samples={samples.get(name, samples.get('passes'))})")
    print(f"# failed_share = {ratio(failed, attempted):.6g} ({failed}/{attempted})")
    for error in errors:
        print(f"# error: {error}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
