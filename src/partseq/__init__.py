"""Ordered possible-world partitions as one semantics for four styles of
uncertain reasoning.

A partition sequence lines up classes of candidate worlds from least to
most suitable. Default rules, introspective belief premises, probability
conditioning and thresholding, and possibility measures each constrain
how the classes may be formed; the shared sequence type makes their
conclusions directly comparable. Builders construct the sequences each
knowledge base allows, checkers validate hand-built ones, and the
fixed-point engines (extension and expansion search) give independent
answers the sequences must agree with.
"""

from .autoepistemic import (
    AelPremises,
    build_ael_sequences,
    check_ael_sequence,
    forced_inconsistency,
    omega_operator,
    stable_expansions,
)
from .defaults import (
    DefaultRule,
    DefaultTheory,
    build_default_sequences,
    check_default_sequence,
    extensions,
    gamma_operator,
)
from .errors import (
    BelowThresholdError,
    ParseError,
    PartseqError,
    ResourceLimitError,
    SemanticError,
    UndefinedConditionalError,
)
from .kbformats import KbDocument, parse_kb, serialize_kb
from .logic import (
    DEFAULT_WORLD_CAP,
    FALSE,
    TRUE,
    And,
    Bottom,
    Const,
    Formula,
    Iff,
    Implies,
    Kernel,
    ModalFormula,
    Not,
    Or,
    Top,
    Vocabulary,
    World,
    atoms,
    conjoin,
    entails,
    enumerate_worlds,
    evaluate,
    format_formula,
    models,
    parse_formula,
)
from .possibility import (
    InconsistencyReport,
    PossibilisticKB,
    build_poss_sequence,
    check_poss_sequence,
    necessity,
    possibility,
)
from .probability import (
    SampleSpace,
    cond_prob,
    condition,
    enumerate_threshold_orders,
    extend,
    lottery_space,
    persistent_prob,
    rejects,
    threshold,
    threshold_prob,
)
from .rationals import as_fraction, format_fraction
from .sequences import (
    PartitionSequence,
    Violation,
    isomorphic,
    preference_view,
    sequence_from_json,
    sequence_to_json,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "AelPremises",
    "And",
    "BelowThresholdError",
    "Bottom",
    "Const",
    "DEFAULT_WORLD_CAP",
    "DefaultRule",
    "DefaultTheory",
    "FALSE",
    "Formula",
    "Iff",
    "Implies",
    "InconsistencyReport",
    "KbDocument",
    "Kernel",
    "ModalFormula",
    "Not",
    "Or",
    "ParseError",
    "PartitionSequence",
    "PartseqError",
    "PossibilisticKB",
    "ResourceLimitError",
    "SampleSpace",
    "SemanticError",
    "TRUE",
    "Top",
    "UndefinedConditionalError",
    "Violation",
    "Vocabulary",
    "World",
    "as_fraction",
    "atoms",
    "build_ael_sequences",
    "build_default_sequences",
    "build_poss_sequence",
    "check_ael_sequence",
    "check_default_sequence",
    "check_poss_sequence",
    "cond_prob",
    "condition",
    "conjoin",
    "entails",
    "enumerate_threshold_orders",
    "enumerate_worlds",
    "evaluate",
    "extend",
    "extensions",
    "forced_inconsistency",
    "format_formula",
    "format_fraction",
    "gamma_operator",
    "isomorphic",
    "lottery_space",
    "models",
    "necessity",
    "omega_operator",
    "parse_formula",
    "parse_kb",
    "persistent_prob",
    "possibility",
    "preference_view",
    "rejects",
    "sequence_from_json",
    "sequence_to_json",
    "serialize_kb",
    "stable_expansions",
    "threshold",
    "threshold_prob",
    "validate_structure",
]
