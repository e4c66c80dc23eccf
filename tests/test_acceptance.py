"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import random
import time
from itertools import combinations

from distance_games import (
    CorpusSpec,
    Graph,
    Player,
    Position,
    check_gadget_lemma,
    check_play_for_play,
    forbidden_path,
    forbidden_vertex_gadget,
    gen_complete_bipartite,
    gen_cycle,
    gen_gnp,
    gen_path,
    gen_random_bipartite,
    parse_graph,
    reduce_bgnk_window,
    replays_violation,
    run_corpus,
    serialize,
    wins_moving_first,
)
from distance_games.cli import main
from distance_games.gadgets import embed_gadget, splice_edges
from distance_games.rules import bigraph_node_kayles
from distance_games.verifier import KIND_SOURCE_ONLY

from helpers import (
    bfs_distance, build_graph, naive_wins, random_legal_position, random_ruleset,
)

L, R = Player.LEFT, Player.RIGHT


def _report(number: int, name: str, ok: bool, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status} [{elapsed:.1f}s]{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_gadget_lemma_suite():
    started = time.perf_counter()
    failures = []
    for r in range(1, 9):
        interval = frozenset(range(1, r + 1))
        others = {frozenset(), frozenset({1}), frozenset(range(1, r // 2 + 1)), interval}
        pairs = set()
        for other in others:
            pairs.add((interval, other))
            pairs.add((other, interval))
        gadget = forbidden_vertex_gadget(r)
        host = Graph()
        embed_gadget(host, gadget)
        if bfs_distance(host, f"g0.R", f"g0.B") != r + 1:
            failures.append(f"r={r}: stone distance != {r + 1}")
        for d, s in sorted(pairs, key=lambda p: (sorted(p[0]), sorted(p[1]))):
            report = check_gadget_lemma(gadget, d, s)
            if not report.passed:
                failures.append(f"r={r} D={sorted(d)} S={sorted(s)}")
    _report(1, "gadget lemma suite", not failures, started, "; ".join(failures[:3]))


def test_criterion_2_forbidden_path_distances():
    started = time.perf_counter()
    failures = []
    for t in (1, 2, 3):
        for r in (2, 3, 4):
            fp = forbidden_path(t, r)
            host = Graph()
            embed_gadget(host, fp)
            host.add_vertex("probe.a")
            host.add_vertex("probe.b")
            host.add_edge("probe.a", fp.port("left"))
            host.add_edge("probe.b", fp.port("right"))
            if bfs_distance(host, "probe.a", "probe.b") != t + 1:
                failures.append(f"FP({t},{r}) probe distance")
            triangle, _ = splice_edges(gen_cycle(3), t, r)
            for u, v in combinations(range(3), 2):
                if bfs_distance(triangle, u, v) != t + 1:
                    failures.append(f"triangle t={t} r={r} pair {u},{v}")
    _report(2, "forbidden path distances", not failures, started, "; ".join(failures[:3]))


def _corpus_failures(name, corpus, grid, depth_cap):
    report = run_corpus(name, corpus, grid, depth_cap=depth_cap)
    return [record.line() for record in report.failures]


def test_criterion_3_reduction_equivalence_exhaustive():
    started = time.perf_counter()
    failures = []
    bip4 = CorpusSpec(exhaustive_max=4)   # both sides up to 2 vertices
    all4 = CorpusSpec(exhaustive_max=4)

    failures += _corpus_failures(
        "bgnk-d12", bip4, {"s": [frozenset(), frozenset({1})]}, None
    )
    failures += _corpus_failures(
        "snort-family", all4,
        {"n": [2, 3], "s": [frozenset(), frozenset({1})]}, None,
    )
    equalmax_pairs = [
        (frozenset({1}), frozenset({1})),
        (frozenset({1, 2}), frozenset({1, 2})),
        (frozenset({1, 2, 3}), frozenset({1, 2, 3})),
        (frozenset({1, 2, 3}), frozenset({1, 3})),
        (frozenset({1, 3}), frozenset({1, 2, 3})),
    ]
    for d, s in equalmax_pairs:
        failures += _corpus_failures(
            "node-kayles-equalmax", all4, {"d": [d], "s": [s]}, None
        )
    failures += _corpus_failures(
        "col-family", all4, {"k": [2, 3], "d": [frozenset(), frozenset({1})]}, None
    )
    window_combos = [
        (3, frozenset({1, 2})),
        (4, frozenset({1, 2, 3})),
        (4, frozenset({1, 3})),
        (5, frozenset({1, 2, 3})),
        (5, frozenset({1, 3})),
    ]
    for k, d in window_combos:
        failures += _corpus_failures("bgnk-window", bip4, {"d": [d], "k": [k]}, None)

    _report(3, "exhaustive reduction equivalence", not failures, started,
            "; ".join(failures[:3]))


def test_criterion_4_randomized_spot_check():
    started = time.perf_counter()
    cases = [
        ("bgnk-d12", {"s": [frozenset()]}),
        ("snort-family", {"n": [2], "s": [frozenset({1})]}),
        ("node-kayles-equalmax", {"d": [frozenset({1, 2})], "s": [frozenset({1, 2})]}),
        ("col-family", {"k": [2], "d": [frozenset({1})]}),
        ("bgnk-window", {"d": [frozenset({1, 2})], "k": [3]}),
    ]
    failures = []
    for offset, (name, grid) in enumerate(cases):
        for size in (6, 7):
            corpus = CorpusSpec(
                random_count=15, random_size=size, random_edge_prob=0.4,
                seed=1000 + 10 * offset + size,
            )
            failures += _corpus_failures(name, corpus, grid, depth_cap=6)
    _report(4, "randomized spot check", not failures, started, "; ".join(failures[:3]))


def test_criterion_5_out_of_range_counterexample_trace():
    started = time.perf_counter()
    g = build_graph("xyz", [("x", "y"), ("y", "z")])
    ri = reduce_bgnk_window(
        g, ["x", "z"], ["y"], d={1, 2}, k=4, allow_out_of_range=True
    )
    result = check_play_for_play(ri)
    ok = (
        not result.passed
        and result.trace == ((L, "x"),)
        and result.vertex == "z"
        and result.player is L
        and result.kind == KIND_SOURCE_ONLY
        and bfs_distance(ri.target_graph, "x", "z") == 4
        and replays_violation(ri, result)
    )
    _report(5, "out-of-range counterexample trace", ok, started,
            f"trace={result.trace} vertex={result.vertex}")


def test_criterion_6_solver_oracle():
    started = time.perf_counter()
    rng = random.Random(987123)
    mismatches = 0
    for _ in range(50):
        n = rng.randint(2, 6)
        g = gen_gnp(n, rng.uniform(0.2, 0.7), rng.randrange(2**31))
        rs = random_ruleset(rng, max_radius=3)
        pos = random_legal_position(g, rs, rng)
        for player in (L, R):
            if wins_moving_first(g, rs, pos, player) != naive_wins(g, rs, pos, player):
                mismatches += 1
    _report(6, "solver matches unmemoized oracle", mismatches == 0, started,
            f"mismatches={mismatches}")


def _generated_corpus_files():
    files = []
    for n in range(10):
        files.append(serialize(gen_path(n)))
    for n in (0, 3, 4, 5, 6, 7, 8, 9, 10, 11):
        files.append(serialize(gen_cycle(n)))
    for seed in range(20):
        files.append(serialize(gen_gnp(6, 0.5, seed)))
    for seed in range(20):
        g, bip = gen_random_bipartite(3, 3, 0.5, seed)
        files.append(serialize(g, Position(), bigraph_node_kayles(*bip)))
    for p in range(4):
        for q in range(5):
            g, bip = gen_complete_bipartite(p, q)
            files.append(serialize(g))
    for seed in range(20):
        files.append(serialize(gen_gnp(9, 0.25, 100 + seed)))
    return files


def test_criterion_7_determinism_and_round_trip(capsys):
    started = time.perf_counter()
    files = _generated_corpus_files()
    assert len(files) >= 100
    round_trip_ok = all(serialize(*parse_graph(text)) == text for text in files)

    argv = [
        "verify", "--reduction", "snort-family",
        "--corpus", "random:8:6:0.4:31", "--params", "n=2", "s=empty",
    ]
    outputs = []
    codes = []
    for jobs in ("1", "1", "4"):
        codes.append(main(argv + ["--jobs", jobs]))
        outputs.append(capsys.readouterr().out)
    verify_ok = codes == [0, 0, 0] and outputs[0] == outputs[1] == outputs[2]

    ok = round_trip_ok and verify_ok
    _report(7, "determinism and round trip", ok, started,
            f"files={len(files)} round_trip={round_trip_ok} verify_identical={verify_ok}")
