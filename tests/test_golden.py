"""Golden bytes of the write side: serialize and DOT of each reduction's
target, and the CLI `gadget` output.

One fixed small source goes through all five reductions (the 4-cycle plus an
isolated vertex, which is also a bigraph for the two bgnk reductions). Its
names include a double quote, a backslash and a non-ASCII letter, so that
DOT quoting is pinned too. The hashes were taken from the implementation
that built each gadget copy from scratch; any change to the construction,
the serializer or the DOT writer that alters a byte fails here.
"""

import hashlib

import pytest

from distance_games import REDUCTIONS, serialize, to_dot
from distance_games.cli import main

from helpers import build_graph

NAMES = ("a", 'b"1', "c\\2", "d", "é")
EDGES = (("a", 'b"1'), ('b"1', "c\\2"), ("c\\2", "d"), ("a", "d"))
SIDES = (frozenset({0, 2, 4}), frozenset({1, 3}))

# (reduction, params, target vertices, sha256 of serialize, sha256 of DOT)
GOLDEN = [
    ("bgnk-d12", {"s": frozenset()}, 13,
     "5270abad14a9da2d886ef1662574713de6fd07661bc2ad5088b7c084864e481e",
     "9c653539b0266ff755c094641eda412a0f5073bedaf080f73192054b494a8eca"),
    ("snort-family", {"n": 2, "s": frozenset({1})}, 25,
     "9afa8eedb0836d28bea4d3f2768e2d5fb4a0a08d39442ecca05c98446f7b99d9",
     "cdb59f0a0f253038a6a7429275b4da36bf542f7b43a72dadfa55b07085923bfa"),
    ("node-kayles-equalmax", {"d": frozenset({1, 2, 3}), "s": frozenset({1, 3})}, 53,
     "ce5d5b35f3383a6b4935d4fe0ad52c17b04c0e03d7ab7ec6e36d4d0ed897d66a",
     "5daca4aad70a8bc64f9f83d357001d30858b915778f3455847f733c2b242fb45"),
    ("col-family", {"k": 4, "d": frozenset({1, 3})}, 101,
     "931313df049fda4da1ba33149b84f1982f51f842af13bf724359aeeaffec46c9",
     "e64848ef2a21ed2c77e443d76703a93a58e49e1c456a14029df3f1c783bc852d"),
    ("bgnk-window", {"d": frozenset({1, 2}), "k": 3}, 91,
     "fe17cc56c3ebfce23af89c096cf6497483afe3c720dde521323d524ee5b9e02a",
     "444882c7df24c6df5c9d55234c2c382c3222f33b102a187dd15a3fb3bf165f9d"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name, params, vertices, board_sha, dot_sha", GOLDEN, ids=[row[0] for row in GOLDEN]
)
def test_reduced_board_bytes(name, params, vertices, board_sha, dot_sha):
    spec = REDUCTIONS[name]
    g = build_graph(NAMES, EDGES)
    ri = spec.build(g, SIDES if spec.bipartite else None, params)
    assert ri.target_graph.vertex_count == vertices
    board = serialize(ri.target_graph, ri.initial_position, ri.target_ruleset)
    assert sha256(board) == board_sha
    names = ri.target_graph.names
    highlight = [v for first, shape in ri.gadgets for v in names[first:first + len(shape.vertices)]]
    assert sha256(to_dot(ri.target_graph, ri.initial_position, highlight)) == dot_sha


# (gadget argv, sha256 of stdout) for the CLI `gadget` board, and with
# --check its lemma report lines; the board names each vertex under g0.
# Taken from the implementation whose gadget constructors put the g0
# prefix on their own names.
GADGET_GOLDEN = [
    (["--r", "1"], "a5dd096cc03015af6cc963c5536161ae052c138db031e514a7aeadffc30326c9"),
    (["--r", "2"], "212022de578a9137705e6825824b9af6f076cbc853c6bf789a4ca46a454dd1f1"),
    (["--r", "7"], "2f180213e7c666e37d543700fc44309748dff5cc833589fc262af4367bc53073"),
    (["--r", "4", "--t", "3"],
     "5ba972f440d1ed7fcb3cef2bbe771df2a23759410e6e04ee7c086404aab892e7"),
    (["--r", "5", "--check", "D=1,2,3,4,5 S=1,2"],
     "715074b805c2133ac85bff02b9ad3811cae9c0c14782b16d6f135a245398691d"),
]


@pytest.mark.parametrize("argv, out_sha", GADGET_GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GADGET_GOLDEN])
def test_gadget_command_bytes(capsys, argv, out_sha):
    assert main(["gadget", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sha256(captured.out) == out_sha
