"""Closed-form outcomes as an oracle for the solver on boards too large for
`helpers.naive_wins`.

On a path with D = S = {1..k} (k = 1 is Node-Kayles), a stone on vertex i
makes every vertex within k of it unplayable for both players. The
vertices farther away form two shorter paths, and no distance between
them is k or less, so they never interact again. The game is impartial,
so by Sprague-Grundy theory its Grundy values follow from

    g(n) = mex { g(max(0, i - k - 1)) XOR g(max(0, n - i - k)) : 1 <= i <= n },

the first player wins iff g(n) != 0, and a disjoint union of paths has the
XOR of their values. On the cycle C_n every first move leaves the path
P_{n-2k-1}: its two ends are 2k + 2 apart around the stone, so every
distance of k or less is the same along the path as around the cycle.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from distance_games import (
    Graph,
    Outcome,
    distance_game,
    gen_cycle,
    gen_path,
    outcome,
    reduce_node_kayles_equalmax,
)

# The largest path checked for each k.
PATH_LIMITS = {1: 16, 2: 24, 3: 28}
CYCLE_LIMIT = 20


@lru_cache(maxsize=None)
def grundy(k: int, n: int) -> int:
    """Grundy value of P_n with D = S = {1..k}, from the recurrence."""
    options = {grundy(k, max(0, i - k - 1)) ^ grundy(k, max(0, n - i - k))
               for i in range(1, n + 1)}
    value = 0
    while value in options:
        value += 1
    return value


def impartial_outcome(first_wins: bool) -> Outcome:
    return Outcome.FIRST_WINS if first_wins else Outcome.SECOND_WINS


def interval(k: int):
    return distance_game(range(1, k + 1), range(1, k + 1))


def cases(pairs):
    return [pytest.param(k, n, id=f"k{k}-n{n}") for k, n in pairs]


@pytest.mark.parametrize("k, n", cases((k, n) for k, top in PATH_LIMITS.items()
                                       for n in range(top + 1)))
def test_paths(k, n):
    assert outcome(gen_path(n), interval(k)) is impartial_outcome(grundy(k, n) != 0)


@pytest.mark.parametrize("k, n", cases((k, n) for k in PATH_LIMITS
                                       for n in range(2 * k + 2, CYCLE_LIMIT + 1)))
def test_cycles(k, n):
    expected = impartial_outcome(grundy(k, n - 2 * k - 1) == 0)
    assert outcome(gen_cycle(n), interval(k)) is expected


def test_disjoint_union_of_paths():
    sizes = (3, 5, 7)
    g = Graph()
    for p, size in enumerate(sizes):
        names = [f"p{p}.{i}" for i in range(size)]
        for name in names:
            g.add_vertex(name)
        for a, b in zip(names, names[1:]):
            g.add_edge(a, b)
    value = 0
    for size in sizes:
        value ^= grundy(2, size)
    assert outcome(g, interval(2)) is impartial_outcome(value != 0)


def test_equalmax_target_of_a_node_kayles_path():
    ri = reduce_node_kayles_equalmax(gen_path(12), {1, 2}, {1, 2})
    expected = impartial_outcome(grundy(1, 12) != 0)
    assert outcome(ri.target_graph, ri.target_ruleset, ri.initial_position) is expected
