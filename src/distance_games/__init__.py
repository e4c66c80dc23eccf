"""Distance games on graphs.

Boards are undirected simple graphs; two players alternately colour empty
vertices blue and red, a placement being illegal at any forbidden distance
(one set of distances against the opposite colour, one against the same
colour), and the last player to move wins. The package bundles the rules,
an exact memoized solver, blocker gadget constructions, reductions between
rulesets built from those gadgets, and a verifier that machine-checks the
reductions move for move on small corpora.
"""

from .errors import (
    BallBudgetError,
    DistanceGameError,
    FormatError,
    FrozenGraphError,
    IllegalMoveError,
    InvalidParameterError,
    ParameterViolationError,
    SearchTooDeepError,
)
from .fileformat import format_ruleset, parse_graph, parse_ruleset_text, serialize, to_dot
from .gadgets import (
    GadgetInstance,
    forbidden_path,
    forbidden_vertex_gadget,
    stones_position,
)
from .graph import (
    Graph,
    all_labelled_bipartite,
    all_labelled_graphs,
    gen_complete_bipartite,
    gen_cycle,
    gen_gnp,
    gen_path,
    gen_random_bipartite,
)
from .reductions import (
    REDUCTIONS,
    ReducedInstance,
    reduce_bgnk_to_d12,
    reduce_bgnk_window,
    reduce_col_family,
    reduce_node_kayles_equalmax,
    reduce_snort_family,
)
from .rules import (
    LegalityIndex,
    Ownership,
    Player,
    Position,
    Ruleset,
    apply_move,
    bigraph_node_kayles,
    col,
    distance_game,
    is_legal,
    node_kayles,
    position_is_legal,
    snort,
)
from .solver import MoveStatus, Outcome, SearchStats, best_move, outcome, wins_moving_first
from .verifier import (
    CorpusReport,
    CorpusSpec,
    VerificationReport,
    check_gadget_lemma,
    check_play_for_play,
    check_vertex_condition,
    check_winnability,
    replays_violation,
    run_corpus,
    verify_instance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
