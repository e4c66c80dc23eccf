"""Self-test of the benchmark: pinned counts on fixed instances, determinism,
and the pinned verify-corpus report digests.

    python3 perfbench/selftest.py            # check; exit 0 on success, 1 on failure
    python3 perfbench/selftest.py --write    # re-pin counts and verify digests

The counts (solver nodes, hits and peak table entries; verifier walk
nodes; index builds per instance; `Graph.ball` calls) come from the tracer
on one small fixed instance per workload. They are deterministic, so two
runs must agree exactly and match `pinned.json`. A change that is meant to
move a count (for example, fewer index builds per instance) re-pins with
`--write` and says so.
"""

from __future__ import annotations

import json
import sys

import run
import tracer as tracing
import workloads

E = frozenset


def _counts(tr) -> dict:
    c = tr.counters
    index = tr.span_agg("rules.index.build").calls
    instances = tr.span_agg("verifier.verify_instance").calls
    return {
        "solver.nodes": c["solver.nodes"],
        "solver.hits": c["solver.hits"],
        "solver.peak_entries": c["solver.peak_entries"],
        "verifier.walk_nodes": c["verifier.walk_nodes"],
        "verifier.index_builds_per_instance": index / instances if instances else 0,
        "rules.index.builds": index,
        "graph.ball.calls": tr.hot_agg("graph.ball").calls,
        "gadgets.embed.calls": tr.hot_agg("gadgets.embed").calls,
    }


def _traced(dg, body) -> dict:
    tr = tracing.Tracer().install(dg)
    try:
        body(tr)
    finally:
        tr.uninstall()
    return _counts(tr)


def fixed_counts(dg) -> dict:
    """Counts for one small fixed instance per workload."""
    def verify(tr):
        ri = dg.REDUCTIONS["snort-family"].build(dg.gen_path(4), None, {"n": 2})
        if not dg.verifier.verify_instance(ri, depth_cap=None).passed:
            raise RuntimeError("fixed verify instance fails")

    source = dg.gen_cycle(7)
    ri = dg.reduce_col_family(source, 2)
    boards = (("source", dg.serialize(source, dg.Position(), dg.col())),
              ("target", dg.serialize(ri.target_graph, ri.initial_position, ri.target_ruleset)))

    def solve(tr):
        for role, text in boards:
            tr.begin_op(role, role=role)
            workloads.solve_board(dg, text)

    def reduce(tr):
        workloads.reduce_board(dg, "snort-family", {"n": 2, "s": E()}, dg.gen_cycle(20), None)

    return {"verify-corpus": _traced(dg, verify), "solve-ladder": _traced(dg, solve),
            "reduce-large": _traced(dg, reduce)}


def verify_digests(dg) -> dict:
    """Report-line digest of every pinned verify-corpus entry."""
    wl = workloads.VerifyCorpus({})
    wl.setup(dg, 0)
    out = {}
    for entry in wl.entries:
        if entry.pinned:
            report = dg.run_corpus(entry.reduction, entry.corpus, entry.grid,
                                   depth_cap=entry.depth_cap)
            out[entry.label] = workloads.lines_digest(report.lines())
    return out


def main(argv) -> int:
    dg = run.import_package()
    first, second = fixed_counts(dg), fixed_counts(dg)
    if "--write" in argv:
        pinned = {"counts": first, "verify_digests": verify_digests(dg)}
        (run.HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print("wrote pinned.json")
        return 0
    pinned = run.load_pinned()
    problems = []
    if first != second:
        problems.append(f"counts differ between two runs: {first} vs {second}")
    for name, counts in first.items():
        for key, value in counts.items():
            want = pinned["counts"][name].get(key)
            if value != want:
                problems.append(f"{name} {key}: got {value}, pinned {want}")
    if verify_digests(dg) != pinned["verify_digests"]:
        problems.append("verify-corpus report lines differ from the pinned digests")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAIL" if problems else "PASS", json.dumps(first, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
