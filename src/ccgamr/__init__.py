"""CCG derivation engine whose lexical semantics are AMR subgraphs."""

from .graph import AmrSubgraph, Edge, Node, UNDERSPECIFIED, iso_equal, substitute, validate
from .penman import parse as parse_graph, serialize
from .category import Atom, Functor, arity, format_category, parse_category, unify
from .combinator import (
    IDENTITY,
    Combined,
    CombinationError,
    Constituent,
    combine_application,
    combine_composition,
    coordinate,
    relation_wise_match,
    type_raise,
)
from .lexicon import LexEntry, Lexicon, LexiconError, load as load_lexicon
from .derivation import (
    NP_TO_S,
    Derivation,
    ParserConfig,
    ReplayError,
    TypeRaisingRule,
    cky_parse,
    finalize_check,
    format_script,
    parse_script,
    replay,
)

__version__ = "0.1.0"
