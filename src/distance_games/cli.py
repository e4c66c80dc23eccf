"""Command-line front end: generate boards, solve, reduce, emit gadgets,
verify reductions over corpora, and export DOT drawings.

Exit codes: 0 success (all checks pass), 1 verification failure, 2 usage or
input error, told on one `error:` line (newlines in it are escaped). Output
is one record per line and deterministic given the flags and seeds; there
are no config files or environment knobs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import suppress
from pathlib import Path

from . import fileformat, gadgets, solver
from .errors import DistanceGameError, FormatError, InvalidParameterError
from .fileformat import format_ruleset, parse_graph, parse_ruleset_text, serialize, to_dot
from .graph import (
    Graph,
    gen_complete_bipartite,
    gen_cycle,
    gen_gnp,
    gen_path,
    gen_random_bipartite,
)
from .reductions import PARAM_KINDS, REDUCTIONS, SOURCE_KINDS, source_kind
from .rules import Player, Position, Ruleset, bigraph_node_kayles, node_kayles, position_is_legal
from .solver import MoveStatus
from .verifier import CorpusSpec, check_gadget_lemma, run_corpus

_GADGET_NAME = re.compile(r"^g\d+\.")


def _write(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_board(path: str):
    """Parse a board file, which must be UTF-8 text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_graph(text)


def _check_out(args):
    """Before any work, refuse an --out that names a directory (ends in a
    separator or is one) or the --in board, or whose directory cannot be
    reached or is not a directory, with the error its write would raise."""
    out, infile = getattr(args, "out", None), getattr(args, "infile", None)
    if not out:
        return
    if not os.path.basename(out) or os.path.isdir(out):
        raise InvalidParameterError(f"the --out path {out} names a directory")
    if infile is not None and os.path.realpath(out) == os.path.realpath(infile):
        raise InvalidParameterError(f"the --out path {out} is also the --in path")
    try:
        # With a trailing separator, a parent that is a file fails as well.
        os.stat(os.path.join(Path(out).parent, ""))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None


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
        kind = PARAM_KINDS[types[key]]
        values = []
        for piece in raw.split(","):
            try:
                values.append(kind.read(piece))
            except ValueError:
                raise InvalidParameterError(
                    f"bad value {piece!r} for {key}; expected {kind.expected}"
                ) from None
        grid[key] = values
    return grid


def _number_flag(read, kind: str):
    """A flag type that reads its text with `read` (`fileformat.parse_int` or
    `parse_float`) and refuses it with argparse's own message."""
    def flag(text: str):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}") from None
    return flag


_int_flag = _number_flag(fileformat.parse_int, "int")
_float_flag = _number_flag(fileformat.parse_float, "float")


def _parse_depth_cap(text: str):
    """'auto', None for 'full', or a ply count >= 0."""
    if text == "auto":
        return "auto"
    if text == "full":
        return None
    with suppress(ValueError):
        if not text.startswith("-"):
            return fileformat.parse_int(text)
    raise InvalidParameterError(f"bad depth cap {text!r}; use auto, full, or a ply count >= 0")


# -- subcommands ---------------------------------------------------------------


# Each `gen` kind's generator and the flags it reads, in the generator's
# argument order, with the value each takes when not given (--seed has none).
# The kpq and bipartite generators also return the bipartition.
_GEN_KINDS = {
    "path": (gen_path, {"n": 0}),
    "cycle": (gen_cycle, {"n": 0}),
    "kpq": (gen_complete_bipartite, {"p": 0, "q": 0}),
    "gnp": (gen_gnp, {"n": 0, "prob": 0.5, "seed": None}),
    "bipartite": (gen_random_bipartite, {"p": 0, "q": 0, "prob": 0.5, "seed": None}),
}


def _cmd_gen(args) -> int:
    rs = parse_ruleset_text(args.ruleset) if args.ruleset else None
    gen, reads = _GEN_KINDS[args.kind]
    for flag in ("n", "p", "q", "prob", "seed"):
        if flag not in reads and getattr(args, flag) is not None:
            raise InvalidParameterError(
                f"{args.kind} takes no --{flag}; it reads {', '.join('--' + f for f in reads)}"
            )
    if "seed" in reads and args.seed is None:
        raise InvalidParameterError(f"{args.kind} needs --seed")
    made = gen(*(default if getattr(args, f) is None else getattr(args, f)
                 for f, default in reads.items()))
    g, bipartition = made if isinstance(made, tuple) else (made, None)

    if args.bigraph:
        if bipartition is None:
            raise InvalidParameterError("--bigraph only applies to kpq and bipartite kinds")
        if rs is not None and rs != node_kayles():
            raise InvalidParameterError("--bigraph fixes the ruleset to D=1 S=1")
        rs = bigraph_node_kayles(*bipartition)
    _write(serialize(g, Position(), rs), args.out)
    return 0


def _cmd_solve(args) -> int:
    g, pos, rs = _read_board(args.infile)
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
    # An empty path would send the board to stdout, ahead of the summary line.
    if not args.out:
        raise InvalidParameterError("reduce needs a non-empty --out path")
    g, pos, src_rs = _read_board(args.infile)
    if pos.occupied:
        raise InvalidParameterError("reduce expects an empty starting position")
    kind = source_kind(src_rs)
    if kind is None:
        raise InvalidParameterError(
            f"input ruleset is not one of the supported sources ({', '.join(SOURCE_KINDS)})"
        )
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
    if args.allow_out_of_range:
        if ("allow_out_of_range", "flag") not in spec.param_types:
            raise InvalidParameterError(f"{spec.name} takes no --allow-out-of-range")
        params["allow_out_of_range"] = True
    bipartition = None
    if spec.bipartite:
        own, n = src_rs.ownership, g.vertex_count
        bipartition = tuple(frozenset(i for i in range(n) if side >> i & 1)
                            for side in (own.left, own.right))
    ri = spec.build(g, bipartition, params)
    _write(serialize(ri.target_graph, ri.initial_position, ri.target_ruleset), args.out)
    print(
        f"reduced source-vertices={ri.source_graph.vertex_count}"
        f" target-vertices={ri.target_graph.vertex_count}"
        f" gadgets={len(ri.gadgets)} out={args.out}"
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
    report = check_gadget_lemma(gadget, d, s) if args.check else None

    host_rs = Ruleset(d, s)
    host = Graph()
    placement = (gadgets.embed_gadget(host, gadget), gadget)
    host.freeze()
    _write(serialize(host, gadgets.stones_position([placement]), host_rs), args.out)

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
    g, pos, _rs = _read_board(args.infile)
    highlight = ()
    if args.highlight == "gadgets":
        highlight = tuple(name for name in g.names if _GADGET_NAME.match(name))
    _write(to_dot(g, pos, highlight), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so `main` reports them as one `error:` line like
    every other input error. Subparsers are made of this class too."""

    def error(self, message):
        raise InvalidParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="distance-games",
        description="Distance games on graphs: boards, solving, reductions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a board file")
    p.add_argument("--kind", required=True, choices=list(_GEN_KINDS))
    p.add_argument("--n", type=_int_flag)
    p.add_argument("--p", type=_int_flag)
    p.add_argument("--q", type=_int_flag)
    p.add_argument("--prob", type=_float_flag)
    p.add_argument("--seed", type=_int_flag)
    p.add_argument("--ruleset", help="textual ruleset, e.g. 'D=1 S='")
    p.add_argument("--bigraph", action="store_true",
                   help="emit ownership for two-sided play (kpq/bipartite only)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="outcome and best first moves of a board")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="reduce a board to a target ruleset")
    p.add_argument("--to", required=True, help="target ruleset, e.g. 'D=1,2,3 S=1'")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-out-of-range", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gadget", help="emit a blocker gadget, optionally checking it")
    p.add_argument("--r", type=_int_flag, required=True)
    p.add_argument("--t", type=_int_flag)
    p.add_argument("--check", help="ruleset to check under, e.g. 'D=1,2 S='")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("verify", help="verify a reduction over a corpus")
    p.add_argument("--reduction", required=True, choices=sorted(REDUCTIONS))
    p.add_argument("--corpus", required=True,
                   help="exhaustive:N or random:COUNT:SIZE:PROB:SEED")
    p.add_argument("--params", nargs="*", default=[],
                   help="grid entries like n=2,3 s=empty,1 d=1-3")
    p.add_argument("--depth-cap", default="auto", help="auto, full, or a ply count")
    p.add_argument("--jobs", type=_int_flag, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", help="DOT export of a board file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--highlight", choices=["gadgets"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_out(args)
        return args.func(args)
    except SystemExit as exc:  # only --help exits, after printing the help
        return exc.code
    except (DistanceGameError, OSError) as exc:
        print("error: " + str(exc).replace("\n", "\\n"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
