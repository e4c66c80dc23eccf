"""Line-oriented text format for boards, plus DOT export.

    ruleset D=1,2 S=        # comma lists; nothing after '=' means empty
    variant distance        # or: variant bigraph
    vertex a [colour=B|R] [owner=L|R]
    edge a b

'#' starts a comment. Each attribute may appear at most once on a vertex
line. Owner attributes are required on every vertex exactly when the
variant is bigraph, and are rejected otherwise. A missing ruleset
line defaults to D={1} S={} for the distance variant and D=S={1} for
bigraph. `parse_graph` and `serialize` round-trip exactly on the canonical
form serialize emits.

`parse_graph` checks each line as it comes, against the vertex lines
before it, and builds the graph in one `Graph.add_block` at the end. A
board holds at most `gadgets.MAX_TARGET_VERTICES` vertices and
`graph.MAX_RANDOM_CORPUS_PAIRS` edge lines; the first line past either
bound is refused with its line number. `serialize` checks every name
with one search over their concatenation.
"""

from __future__ import annotations

import re

from . import gadgets, graph
from .errors import DistanceGameError, FormatError, InvalidParameterError
from .graph import Graph
from .rules import Colour, Ownership, Player, Position, Ruleset, node_kayles, snort

_COLOURS = {"B": Colour.BLUE, "R": Colour.RED}
_OWNERS = {"L": Player.LEFT, "R": Player.RIGHT}
_STONE_ATTRS = {colour: f" colour={colour.value}" for colour in Colour}
# A name serialize cannot write: whitespace (exactly the characters where
# str.isspace() is true) would split its line, and '#' would start a comment.
_UNSERIALIZABLE = re.compile(r"[\s#]")


def _parse_distance_list(text: str, lineno: int) -> frozenset[int]:
    if not text:
        return frozenset()
    out = set()
    for piece in text.split(","):
        try:
            value = int(piece)
        except ValueError:
            raise FormatError(f"bad distance {piece!r}", lineno) from None
        if value < 1:
            raise FormatError(f"distances must be >= 1, got {value}", lineno)
        out.add(value)
    return frozenset(out)


def _parse_ruleset_tokens(parts: list[str], lineno: int | None) -> tuple[frozenset[int], frozenset[int]]:
    if len(parts) != 2 or not parts[0].startswith("D=") or not parts[1].startswith("S="):
        raise FormatError("expected 'D=<list> S=<list>'", lineno)
    d = _parse_distance_list(parts[0][2:], lineno)
    s = _parse_distance_list(parts[1][2:], lineno)
    return d, s


def parse_ruleset_text(text: str) -> Ruleset:
    """Parse the bare textual ruleset form 'D=1,2 S=' (distance variant)."""
    d, s = _parse_ruleset_tokens(text.split(), None)
    return Ruleset(d, s)


def format_ruleset(rs: Ruleset) -> str:
    d = ",".join(str(x) for x in sorted(rs.d))
    s = ",".join(str(x) for x in sorted(rs.s))
    return f"D={d} S={s}"


def parse_graph(text: str) -> tuple[Graph, Position, Ruleset]:
    """Parse a board file into its graph, stone position, and ruleset.

    The vertex and edge-line bounds are read when it is called.
    """
    max_vertices = gadgets.MAX_TARGET_VERTICES
    max_edges = graph.MAX_RANDOM_CORPUS_PAIRS
    names: list[str] = []
    index: dict[str, int] = {}
    # The two ends of each edge line in turn, as indices into `names`.
    ends: list[int] = []
    colours: dict[int, Colour] = {}
    owners: dict[int, Player] = {}
    first_owner_line: int | None = None
    sets: tuple[frozenset[int], frozenset[int]] | None = None
    variant: str | None = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        parts = raw.split()
        if not parts:
            continue
        keyword = parts[0]
        if keyword == "edge":
            if len(parts) != 3:
                raise FormatError("edge line needs exactly two names", lineno)
            _, a, b = parts
            i = index.get(a)
            if i is None:
                raise FormatError(f"unknown vertex {a!r}", lineno)
            j = index.get(b)
            if j is None:
                raise FormatError(f"unknown vertex {b!r}", lineno)
            if i == j:
                raise FormatError(f"self-loop at {a!r}", lineno)
            if len(ends) == 2 * max_edges:
                raise FormatError(f"more than {max_edges} edge lines, the bound on a board",
                                  lineno)
            ends.append(i)
            ends.append(j)
        elif keyword == "vertex":
            if len(parts) < 2:
                raise FormatError("vertex line needs a name", lineno)
            name = parts[1]
            if name in index:
                raise FormatError(f"vertex {name!r} already present", lineno)
            idx = len(names)
            if idx == max_vertices:
                raise FormatError(f"more than {max_vertices} vertices, the bound on a board",
                                  lineno)
            index[name] = idx
            names.append(name)
            for attr in parts[2:]:
                key, eq, value = attr.partition("=")
                if not eq:
                    raise FormatError(f"bad attribute {attr!r}", lineno)
                if key == "colour":
                    if idx in colours:
                        raise FormatError("duplicate colour attribute", lineno)
                    if value not in _COLOURS:
                        raise FormatError(f"colour must be B or R, got {value!r}", lineno)
                    colours[idx] = _COLOURS[value]
                elif key == "owner":
                    if idx in owners:
                        raise FormatError("duplicate owner attribute", lineno)
                    if value not in _OWNERS:
                        raise FormatError(f"owner must be L or R, got {value!r}", lineno)
                    owners[idx] = _OWNERS[value]
                    if first_owner_line is None:
                        first_owner_line = lineno
                else:
                    raise FormatError(f"unknown attribute {key!r}", lineno)
        elif keyword == "ruleset":
            if sets is not None:
                raise FormatError("duplicate ruleset line", lineno)
            sets = _parse_ruleset_tokens(parts[1:], lineno)
        elif keyword == "variant":
            if variant is not None:
                raise FormatError("duplicate variant line", lineno)
            if len(parts) != 2 or parts[1] not in ("distance", "bigraph"):
                raise FormatError("variant must be 'distance' or 'bigraph'", lineno)
            variant = parts[1]
        else:
            raise FormatError(f"unknown directive {keyword!r}", lineno)

    variant = variant or "distance"
    default = node_kayles() if variant == "bigraph" else snort()
    d, s = sets if sets is not None else (default.d, default.s)
    if variant == "bigraph":
        missing = [name for i, name in enumerate(names) if i not in owners]
        if missing:
            raise FormatError(f"bigraph variant: vertices without owner: {missing}")
        ownership = Ownership(
            frozenset(i for i, p in owners.items() if p is Player.LEFT),
            frozenset(i for i, p in owners.items() if p is Player.RIGHT),
        )
        try:
            rs = Ruleset(d, s, ownership)
        except DistanceGameError as exc:
            raise FormatError(str(exc)) from None
    else:
        if owners:
            raise FormatError(
                "owner attributes require 'variant bigraph'", first_owner_line
            )
        rs = Ruleset(d, s)

    blue = red = 0
    for idx, colour in colours.items():
        if colour is Colour.BLUE:
            blue |= 1 << idx
        else:
            red |= 1 << idx
    g = Graph()
    pairs = iter(ends)
    g.add_block(names, zip(pairs, pairs))
    return g.freeze(), Position(blue, red), rs


def _check_stones(pos: Position, count: int) -> None:
    """Raise InvalidParameterError naming the first stone of `pos` at an
    index past the last of `count` vertices."""
    stray = pos.occupied >> count
    if stray:
        i = count + (stray & -stray).bit_length() - 1
        raise InvalidParameterError(
            f"stone at vertex index {i} is past the last vertex (the graph has {count})"
        )


def _mark(out: list, mask: int, value) -> None:
    """Set `out[i] = value` for every index i whose bit is set in `mask`."""
    while mask:
        bit = mask & -mask
        out[bit.bit_length() - 1] = value
        mask ^= bit


def serialize(g: Graph, pos: Position = Position(), rs: Ruleset | None = None) -> str:
    """Canonical text form: ruleset, variant, vertices in index order, sorted edges."""
    if rs is None:
        rs = snort()
    names = g.names
    # One search over all the names; the scan name by name only finds the
    # first bad one to report.
    if _UNSERIALIZABLE.search("".join(names)):
        for name in names:
            if _UNSERIALIZABLE.search(name):
                raise FormatError(f"vertex name {name!r} is not serializable")
    _check_stones(pos, len(names))
    attrs = [""] * len(names)
    _mark(attrs, pos.blue, _STONE_ATTRS[Colour.BLUE])
    _mark(attrs, pos.red, _STONE_ATTRS[Colour.RED])
    own = rs.ownership
    if own is not None:
        for i, name in enumerate(names):
            if i in own.left:
                attrs[i] += " owner=L"
            elif i in own.right:
                attrs[i] += " owner=R"
            else:
                raise FormatError(f"vertex {name!r} has no owner in a bigraph ruleset")
    lines = [f"ruleset {format_ruleset(rs)}", f"variant {rs.variant}"]
    lines.extend(f"vertex {name}{a}" for name, a in zip(names, attrs))
    lines.extend(f"edge {names[i]} {names[j]}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_attrs(fill: str | None, dashed: bool) -> str:
    """The bracketed attribute list of one DOT vertex line, or ''."""
    styles = []
    attrs = []
    if fill is not None:
        styles.append("filled")
        attrs.append(f"fillcolor={fill}")
        attrs.append("fontcolor=white")
    if dashed:
        styles.append("dashed")
    if styles:
        attrs.insert(0, f'style="{",".join(styles)}"')
    return f" [{', '.join(attrs)}]" if attrs else ""


def to_dot(g: Graph, pos: Position = Position(), highlight=()) -> str:
    """Undirected DOT text; stones filled blue/red, highlighted vertices dashed."""
    names = g.names
    _check_stones(pos, len(names))
    # Each vertex's attribute list, as an index into `attrs`: 2 for a blue
    # stone, 4 for a red one, plus 1 when the vertex is highlighted.
    kind = [0] * len(names)
    _mark(kind, pos.blue, 2)
    _mark(kind, pos.red, 4)
    for v in highlight:
        kind[g.index_of(v)] |= 1
    attrs = [_dot_attrs(fill, dashed)
             for fill in (None, "blue", "red") for dashed in (False, True)]
    quoted = [_quote(name) for name in names]
    lines = ["graph {"]
    lines.extend(f"  {name}{attrs[k]};" for name, k in zip(quoted, kind))
    lines.extend(f"  {quoted[i]} -- {quoted[j]};" for i, j in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
