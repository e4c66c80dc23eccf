"""Command-line front end: generate boards, solve, reduce, emit gadgets,
verify reductions over corpora, and export DOT drawings.

Exit codes: 0 success (all checks pass), 1 verification failure, 2 usage or
input error. Output is one record per line and deterministic given the
flags and seeds; there are no config files or environment knobs.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import gadgets, solver
from .errors import DistanceGameError, InvalidParameterError
from .fileformat import format_ruleset, parse_graph, parse_ruleset_text, serialize, to_dot
from .graph import (
    Graph,
    gen_complete_bipartite,
    gen_cycle,
    gen_gnp,
    gen_path,
    gen_random_bipartite,
)
from .reductions import REDUCTIONS, SOURCE_KINDS, source_kind
from .rules import Player, Position, Ruleset, position_is_legal
from .solver import MoveStatus
from .verifier import CorpusSpec, check_gadget_lemma, run_corpus

_GADGET_NAME = re.compile(r"^g\d+\.")


def _write(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_set_literal(text: str):
    """'empty', '2', '1-3' (range), or '1+3' (explicit elements), each
    element at most gadgets.MAX_GADGET_SIZE (checked before expanding)."""
    if text == "empty":
        return frozenset()
    out: set[int] = set()
    for piece in text.split("+"):
        lo, dash, hi = piece.partition("-")
        lo, hi = int(lo), int(hi if dash else lo)
        if lo > hi:
            raise InvalidParameterError(
                f"bad range {piece!r}; its low end is above its high end"
            )
        if hi > gadgets.MAX_GADGET_SIZE:
            raise InvalidParameterError(
                f"bad set value {piece!r}; elements must be at most {gadgets.MAX_GADGET_SIZE}"
            )
        out.update(range(lo, hi + 1))
    return frozenset(out)


_KIND_TEXT = {
    "int": "an integer",
    "set": "a set like empty, 2, 1-3 or 1+3",
    "flag": "true or false",
}


def _parse_param_grid(tokens: list[str], reduction: str) -> dict:
    types = dict(REDUCTIONS[reduction].param_types)
    grid: dict[str, list] = {}
    for token in tokens:
        key, eq, raw = token.partition("=")
        key = key.lower()
        if not eq or key not in types:
            raise InvalidParameterError(
                f"bad parameter {token!r}; {reduction} takes {sorted(types)}"
            )
        if key in grid:
            raise InvalidParameterError(
                f"parameter {key} given twice; list its values in one entry, like {key}=1,2"
            )
        values = []
        for piece in raw.split(","):
            kind = types[key]
            try:
                if kind == "int":
                    values.append(int(piece))
                elif kind == "set":
                    values.append(_parse_set_literal(piece))
                elif piece.lower() in ("true", "false"):
                    values.append(piece.lower() == "true")
                else:
                    raise ValueError(piece)
            except ValueError:
                raise InvalidParameterError(
                    f"bad value {piece!r} for {key}; expected {_KIND_TEXT[kind]}"
                ) from None
        grid[key] = values
    return grid


def _parse_depth_cap(text: str):
    """'auto', None for 'full', or a ply count >= 0."""
    if text == "auto":
        return "auto"
    if text == "full":
        return None
    if text.isdecimal():
        return int(text)
    raise InvalidParameterError(f"bad depth cap {text!r}; use auto, full, or a ply count >= 0")


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    rs = parse_ruleset_text(args.ruleset) if args.ruleset else None
    bipartition = None
    if args.kind == "path":
        g = gen_path(args.n)
    elif args.kind == "cycle":
        g = gen_cycle(args.n)
    elif args.kind == "kpq":
        g, bipartition = gen_complete_bipartite(args.p, args.q)
    elif args.kind == "gnp":
        if args.seed is None:
            raise InvalidParameterError("gnp needs --seed")
        g = gen_gnp(args.n, args.prob, args.seed)
    else:  # bipartite
        if args.seed is None:
            raise InvalidParameterError("bipartite needs --seed")
        g, bipartition = gen_random_bipartite(args.p, args.q, args.prob, args.seed)

    if args.bigraph:
        if bipartition is None:
            raise InvalidParameterError("--bigraph only applies to kpq and bipartite kinds")
        if rs is not None and (rs.d != {1} or rs.s != {1}):
            raise InvalidParameterError("--bigraph fixes the ruleset to D=1 S=1")
        from .rules import bigraph_node_kayles

        rs = bigraph_node_kayles(*bipartition)
    _write(serialize(g, Position(), rs), args.out)
    return 0


def _cmd_solve(args) -> int:
    g, pos, rs = parse_graph(Path(args.infile).read_text())
    if not position_is_legal(g, rs, pos):
        raise InvalidParameterError("input position violates the ruleset")
    print(f"outcome {solver.outcome(g, rs, pos).value}")
    for player in (Player.LEFT, Player.RIGHT):
        move = solver.best_move(g, rs, pos, player)
        if move is MoveStatus.NO_MOVE:
            text = "none"
        elif move is MoveStatus.NO_WINNING_MOVE:
            text = "no-winning-move"
        else:
            text = g.name_of(move)
        print(f"best-move {player.value} {text}")
    return 0


def _cmd_reduce(args) -> int:
    g, pos, src_rs = parse_graph(Path(args.infile).read_text())
    if pos.stone_count:
        raise InvalidParameterError("reduce expects an empty starting position")
    kind = source_kind(src_rs)
    if kind is None:
        raise InvalidParameterError(
            f"input ruleset is not one of the supported sources ({', '.join(SOURCE_KINDS)})"
        )
    if args.source:
        wanted = args.source
        if "=" in wanted:  # also accept the textual ruleset form
            wanted = source_kind(parse_ruleset_text(wanted))
        elif wanted not in SOURCE_KINDS:
            raise InvalidParameterError(
                f"unknown source {args.source!r}; use one of {list(SOURCE_KINDS)} "
                "or a textual ruleset"
            )
        if wanted != kind:
            raise InvalidParameterError(f"input file is a {kind} board, not {args.source}")
    target = parse_ruleset_text(args.to)

    specs = [spec for spec in REDUCTIONS.values() if spec.source == kind]
    for spec in specs:
        params = spec.accepts(target)
        if params is not None:
            break
    else:
        raise InvalidParameterError(
            f"no reduction from {kind} reaches {format_ruleset(target)}; "
            + "; ".join(f"{spec.name} needs {spec.reaches}" for spec in specs)
        )
    own = src_rs.ownership
    bipartition = (own.left, own.right) if spec.bipartite else None
    params["allow_out_of_range"] = args.allow_out_of_range
    ri = spec.build(g, bipartition, params)
    _write(serialize(ri.target_graph, ri.initial_position, ri.target_ruleset), args.out)
    map_path = args.map or (args.out + ".map")
    Path(map_path).write_text(
        "".join(f"{s} -> {t}\n" for s, t in ri.embedded)
    )
    print(
        f"reduced source-vertices={ri.source_graph.vertex_count}"
        f" target-vertices={ri.target_graph.vertex_count}"
        f" gadgets={len(ri.gadgets)} out={args.out} map={map_path}"
    )
    return 0


def _cmd_gadget(args) -> int:
    if args.t is None:
        gadget = gadgets.forbidden_vertex_gadget(args.r)
    else:
        gadget = gadgets.forbidden_path(args.t, args.r)
    if args.check:
        check_rs = parse_ruleset_text(args.check)
        d, s = check_rs.d, check_rs.s
    else:
        d, s = frozenset(range(1, args.r + 1)), frozenset()
    # Checked before the board is written, so a refused check writes nothing.
    report = check_gadget_lemma(gadget, d, s, args.probes) if args.check else None

    host_rs = Ruleset(d, s)
    host = Graph()
    gadgets.embed_gadget(host, gadget)
    host.freeze()
    _write(serialize(host, gadgets.stones_position(host, [gadget]), host_rs), args.out)

    if report is None:
        return 0
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    corpus = CorpusSpec.parse(args.corpus)
    grid = _parse_param_grid(args.params, args.reduction) if args.params else {}
    cap = _parse_depth_cap(args.depth_cap)
    report = run_corpus(args.reduction, corpus, grid, depth_cap=cap, jobs=args.jobs)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_dot(args) -> int:
    g, pos, _rs = parse_graph(Path(args.infile).read_text())
    highlight = ()
    if args.highlight == "gadgets":
        highlight = tuple(name for name in g.names if _GADGET_NAME.match(name))
    _write(to_dot(g, pos, highlight), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distance-games",
        description="Distance games on graphs: boards, solving, reductions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a board file")
    p.add_argument("--kind", required=True, choices=["path", "cycle", "kpq", "gnp", "bipartite"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--prob", type=float, default=0.5)
    p.add_argument("--seed", type=int)
    p.add_argument("--ruleset", help="textual ruleset, e.g. 'D=1 S='")
    p.add_argument("--bigraph", action="store_true",
                   help="emit ownership for two-sided play (kpq/bipartite only)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="outcome and best first moves of a board")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="reduce a board to a target ruleset")
    p.add_argument("--from", dest="source",
                   help="expected source: snort, col, node-kayles, bgnk, or a "
                        "textual ruleset like 'D=1 S='")
    p.add_argument("--to", required=True, help="target ruleset, e.g. 'D=1,2,3 S=1'")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--map", help="mapping sidecar path (default: OUT.map)")
    p.add_argument("--allow-out-of-range", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gadget", help="emit a blocker gadget, optionally checking it")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--check", help="ruleset to check under, e.g. 'D=1,2 S='")
    p.add_argument("--probes", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("verify", help="verify a reduction over a corpus")
    p.add_argument("--reduction", required=True, choices=sorted(REDUCTIONS))
    p.add_argument("--corpus", required=True,
                   help="exhaustive:N or random:COUNT:SIZE:PROB:SEED")
    p.add_argument("--params", nargs="*", default=[],
                   help="grid entries like n=2,3 s=empty,1 d=1-3")
    p.add_argument("--depth-cap", default="auto", help="auto, full, or a ply count")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", help="DOT export of a board file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--highlight", choices=["gadgets"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DistanceGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
