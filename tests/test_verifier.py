import dataclasses
from itertools import combinations

import pytest

from distance_games import (
    CorpusSpec,
    InvalidParameterError,
    Outcome,
    Player,
    Position,
    all_labelled_bipartite,
    check_play_for_play,
    check_vertex_condition,
    check_winnability,
    gen_gnp,
    gen_path,
    gen_random_bipartite,
    node_kayles,
    outcome,
    reduce_bgnk_to_d12,
    reduce_bgnk_window,
    reduce_col_family,
    reduce_snort_family,
    replays_violation,
    run_corpus,
    verify_instance,
)
from distance_games.verifier import (
    CheckResult,
    KIND_SOURCE_ONLY,
    KIND_TARGET_ONLY,
    KIND_UNEMBEDDED,
    PLAY_FOR_PLAY,
    VERTEX_CONDITION,
    WINNABILITY,
    _corpus_graphs,
    resolve_depth_cap,
    worker_count,
)
from distance_games import solver, verifier
from distance_games.graph import MAX_GENERATED_VERTICES, MAX_RANDOM_CORPUS_PAIRS

from helpers import build_graph, neighbors

L, R = Player.LEFT, Player.RIGHT


def bgnk_edge_instance(s=frozenset()):
    g = build_graph("ab", [("a", "b")])
    return reduce_bgnk_to_d12(g, [0], [1], s=s)


def bgnk_edge_instance_without(stone):
    """The anchor reduction with one gadget stone taken off."""
    ri = bgnk_edge_instance()
    bit = 1 << ri.target_graph.index_of(stone)
    start = ri.initial_position
    return dataclasses.replace(
        ri, initial_position=Position(start.blue & ~bit, start.red & ~bit))


def bipartite_source(p, q, prob, seed):
    g, (left, right) = gen_random_bipartite(p, q, prob, seed)
    return g, left, right


def example_one_instance():
    """Bipartite path x - y - z, d = {1,2}, s = {1,2,3,4}: k = 2*max(d)."""
    g = build_graph("xyz", [("x", "y"), ("y", "z")])
    return reduce_bgnk_window(g, ["x", "z"], ["y"], d={1, 2}, k=4,
                              allow_out_of_range=True)


class TestVertexCondition:
    def test_passes_on_anchor_reduction(self):
        report = check_vertex_condition(bgnk_edge_instance())
        assert report.passed

    def test_sabotaged_instance_fails_with_vertex_named(self):
        broken = bgnk_edge_instance_without("g0.R")
        result = check_vertex_condition(broken)
        assert not result.passed
        assert result.vertex == "g0.v2"
        assert result.player is L
        assert replays_violation(broken, result)

    def test_degenerate_identity_passes_vacuously(self):
        g = build_graph("ab", [("a", "b")])
        ri = reduce_snort_family(g, 1)
        result = check_vertex_condition(ri)
        assert result.passed and "checked=0" in result.detail


class TestPlayForPlay:
    def test_passes_on_anchor_reduction(self):
        assert check_play_for_play(bgnk_edge_instance()).passed

    def test_depth_cap_zero_checks_only_the_root(self):
        ri = example_one_instance()
        assert check_play_for_play(ri, depth_cap=0).passed
        assert not check_play_for_play(ri, depth_cap=1).passed

    def test_example_one_exact_trace(self):
        ri = example_one_instance()
        result = check_play_for_play(ri)
        assert not result.passed
        assert result.trace == ((L, "x"),)
        assert result.vertex == "z"
        assert result.player is L
        assert result.kind == KIND_SOURCE_ONLY
        assert replays_violation(ri, result)

    def test_target_only_move_named_with_its_trace(self):
        # The snort-family target of an edge lets Left take both ends; a
        # Node-Kayles source does not.
        g = build_graph("ab", [("a", "b")])
        ri = dataclasses.replace(reduce_snort_family(g, 2), source_ruleset=node_kayles())
        result = check_play_for_play(ri)
        assert not result.passed
        assert result.trace == ((L, "a"),)
        assert result.vertex == "b"
        assert result.player is L
        assert result.kind == KIND_TARGET_ONLY
        assert replays_violation(ri, result)

    def test_unembedded_playable_fails_at_the_root(self):
        broken = bgnk_edge_instance_without("g0.R")
        result = check_play_for_play(broken)
        assert not result.passed
        assert result.trace == ()
        assert result.vertex == "g0.v2"
        assert result.player is L
        assert result.kind == KIND_UNEMBEDDED
        assert replays_violation(broken, result)

    def test_replay_refuses_an_added_vertex_named_as_target_only(self):
        ri = bgnk_edge_instance()
        forged = CheckResult(PLAY_FOR_PLAY, False, vertex="g0.v2", player=L,
                             kind=KIND_TARGET_ONLY)
        assert not replays_violation(ri, forged)

    @pytest.mark.parametrize("kind", [KIND_SOURCE_ONLY, KIND_TARGET_ONLY])
    def test_replay_refuses_an_original_vertex_both_games_allow(self, kind):
        # Left may take b after a in the Snort source and in its snort-family
        # target alike, so no claim that one game alone allows it replays.
        ri = reduce_snort_family(build_graph("ab", [("a", "b")]), 2)
        forged = CheckResult(PLAY_FOR_PLAY, False, trace=((L, "a"),), vertex="b", player=L,
                             kind=kind)
        assert not replays_violation(ri, forged)

    @pytest.mark.parametrize("build, detail", [
        (lambda: reduce_snort_family(gen_gnp(6, 0.5, 2), 3), "nodes=219 depth=full"),
        (lambda: reduce_col_family(gen_path(6), 2), "nodes=239 depth=full"),
        (lambda: reduce_bgnk_window(*bipartite_source(3, 3, 0.6, 4), {1, 2}, 3),
         "nodes=22 depth=full"),
    ], ids=["snort-family", "col-family", "bgnk-window"])
    def test_full_walk_node_counts(self, build, detail):
        # Each distinct source position is one node, however many move
        # orders reach it, so a walk that revisits or skips one moves the count.
        assert check_play_for_play(build()).detail == detail

    def test_snort_family_full_depth_small_corpus(self):
        from distance_games import all_labelled_graphs

        for g in all_labelled_graphs(3):
            ri = reduce_snort_family(g, 2)
            assert check_play_for_play(ri, depth_cap=None).passed


class TestWinnability:
    def test_equal_outcomes_on_anchor_reduction(self):
        ri = bgnk_edge_instance()
        result = check_winnability(ri)
        assert result.passed
        assert outcome(ri.source_graph, ri.source_ruleset) is Outcome.FIRST_WINS

    def test_degenerate_identity(self):
        g = build_graph("ab", [("a", "b")])
        assert check_winnability(reduce_snort_family(g, 1)).passed

    def test_example_one_winnability_recorded_either_way(self):
        # The negative example is pinned by play-for-play; here we only
        # require a definite report.
        result = check_winnability(example_one_instance())
        assert "source=" in result.detail and "target=" in result.detail


class TestVerifyInstance:
    def test_all_checks_present(self):
        report = verify_instance(bgnk_edge_instance(), descriptor="edge")
        assert [c.name for c in report.checks] == [
            VERTEX_CONDITION, PLAY_FOR_PLAY, WINNABILITY,
        ]
        assert report.passed

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a check after a failed one ran")

    def test_failed_vertex_condition_is_the_only_check(self, monkeypatch):
        monkeypatch.setattr(verifier, "check_play_for_play", self.refuse)
        monkeypatch.setattr(solver, "outcome", self.refuse)
        report = verify_instance(bgnk_edge_instance_without("g0.R"), descriptor="broken")
        assert [(c.name, c.passed) for c in report.checks] == [(VERTEX_CONDITION, False)]
        assert report.lines() == [
            "FAIL vertex-condition broken added vertex 'g0.v2' playable by LEFT"]

    def test_failed_walk_skips_winnability(self, monkeypatch):
        monkeypatch.setattr(solver, "outcome", self.refuse)
        report = verify_instance(example_one_instance())
        assert [(c.name, c.passed) for c in report.checks] == [
            (VERTEX_CONDITION, True), (PLAY_FOR_PLAY, False)]

    def test_depth_cap_auto(self):
        ri = bgnk_edge_instance()
        assert resolve_depth_cap(ri, "auto") is None
        g = build_graph("abcdefg", [("a", "b")])
        ri7 = reduce_snort_family(g, 2)
        assert resolve_depth_cap(ri7, "auto") == 6
        assert resolve_depth_cap(ri7, None) is None
        assert resolve_depth_cap(ri7, 3) == 3


class TestCorpus:
    def test_empty_corpus(self):
        report = run_corpus("snort-family", CorpusSpec(), {"n": [2]})
        assert report.records == () and report.passed

    def test_unknown_reduction(self):
        with pytest.raises(InvalidParameterError):
            run_corpus("nope", CorpusSpec(exhaustive_max=2))

    @pytest.mark.parametrize("reduction, grid, mentions", [
        # Not run with k ignored, and not run under params=-.
        ("snort-family", {"n": [2], "k": [3]}, r"got k=\[3\]"),
        ("bgnk-d12", {"s": []}, r"bgnk-d12 takes \['s'\], each with values; got s=\[\]"),
        ("snort-family", {"n": []}, r"got n=\[\]"),
    ])
    def test_unknown_or_empty_parameter(self, reduction, grid, mentions):
        with pytest.raises(InvalidParameterError, match=mentions):
            run_corpus(reduction, CorpusSpec(exhaustive_max=2), grid)

    def test_random_without_seed(self):
        with pytest.raises(InvalidParameterError):
            run_corpus(
                "snort-family",
                CorpusSpec(random_count=2, random_size=4, random_edge_prob=0.5),
                {"n": [2]},
            )

    def test_snort_family_small_exhaustive(self):
        report = run_corpus(
            "snort-family", CorpusSpec(exhaustive_max=3),
            {"n": [2], "s": [frozenset()]},
        )
        assert report.passed
        assert len(report.records) == 12  # 1 + 1 + 2 + 8 labelled graphs
        assert report.lines()[-1].startswith("summary status=PASS total=12")

    def test_out_of_range_window_failures_exactly_where_predicted(self):
        # With k = 2n, an instance must fail exactly when two same-side
        # vertices share a neighbour (they end up 2n = k apart).
        report = run_corpus(
            "bgnk-window", CorpusSpec(exhaustive_max=4),
            {"d": [frozenset({1, 2})], "k": [4], "allow_out_of_range": [True]},
        )
        graphs = []
        for p in range(3):
            for q in range(3):
                graphs.extend(all_labelled_bipartite(p, q))
        assert len(graphs) == len(report.records)
        for record, (g, (left, right)) in zip(report.records, graphs):
            shares = False
            for side in (left, right):
                for u, v in combinations(sorted(side), 2):
                    if set(neighbors(g, u)) & set(neighbors(g, v)):
                        shares = True
            failed_names = [c.name for c in record.report.failed_checks()]
            assert (PLAY_FOR_PLAY in failed_names) == shares, record.descriptor
            assert VERTEX_CONDITION not in failed_names
        assert not report.passed

    def test_jobs_give_identical_reports(self):
        spec = CorpusSpec(exhaustive_max=2, random_count=3, random_size=4,
                          random_edge_prob=0.5, seed=11)
        one = run_corpus("col-family", spec, {"k": [2]}, jobs=1)
        two = run_corpus("col-family", spec, {"k": [2]}, jobs=2)
        assert one.lines() == two.lines()

    def test_worker_count_clamps_to_cpus(self):
        assert worker_count(1, 2) == 1
        assert worker_count(64, 2) == 2
        assert worker_count(3, None) == 3
        for jobs in (0, -3):
            with pytest.raises(InvalidParameterError):
                worker_count(jobs, 2)

    @pytest.mark.parametrize("bipartite, count", [(True, 8), (False, 4)])
    def test_random_corpus_at_the_pair_bound(self, bipartite, count):
        # 8 bipartite graphs of 1024 x 1024 cross pairs draw exactly the
        # bound; 4 graphs at the vertex bound draw the most pairs it admits.
        size = MAX_GENERATED_VERTICES
        per_graph = (size // 2) ** 2 if bipartite else size * (size - 1) // 2
        assert count * per_graph <= MAX_RANDOM_CORPUS_PAIRS < (count + 1) * per_graph
        spec = CorpusSpec(random_count=count, random_size=size,
                          random_edge_prob=0.001, seed=3)
        assert len(_corpus_graphs(spec, bipartite)) == count
        with pytest.raises(InvalidParameterError, match="vertex pairs"):
            _corpus_graphs(dataclasses.replace(spec, random_count=count + 1), bipartite)

    def test_corpus_spec_parse(self):
        assert CorpusSpec.parse("exhaustive:4") == CorpusSpec(exhaustive_max=4)
        assert CorpusSpec.parse("random:30:7:0.4:9") == CorpusSpec(
            random_count=30, random_size=7, random_edge_prob=0.4, seed=9
        )
        with pytest.raises(InvalidParameterError):
            CorpusSpec.parse("everything")
        for bad in ("exhaustive:x", "exhaustive:-1", "random:3:x:0.5:1",
                    "random:3:4:p:1", "random:-3:4:0.5:1"):
            with pytest.raises(InvalidParameterError):
                CorpusSpec.parse(bad)
