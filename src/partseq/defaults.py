"""Default rules: the fixed-point operator, extension search, and the
construction and checking of default partition sequences.

A rule  alpha : M beta_1, ..., M beta_n / gamma  asserts gamma once alpha
is provable and no ~beta_i is. Extensions are the fixed points of the
operator implemented by :func:`gamma_operator`; a theory may have one,
several, or none. Sequences and extensions determine each other: the last
class of any valid sequence is the model set of an extension, and every
extension is witnessed by at least one sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .errors import ResourceLimitError
from .logic import (
    DEFAULT_WORLD_CAP,
    Formula,
    Kernel,
    Not,
    Vocabulary,
    World,
    conjoin,
    enumerate_worlds,
    holds_throughout,
    models,
    satisfiable_in,
)
from .sequences import (
    Item,
    PartitionSequence,
    Violation,
    check_peels,
    falsifiers,
    peel_sequences,
    validate_structure,
)

# Candidate extensions are searched over subsets of the rule set.
DEFAULT_RULE_CAP = 16

# Bound on how many rule application orders the sequence builder explores.
DEFAULT_ORDER_LIMIT = 1000


@dataclass(frozen=True)
class DefaultRule:
    """alpha : M beta_1, ..., M beta_n / gamma, with n >= 1."""

    rule_id: str
    alpha: Formula
    betas: tuple[Formula, ...]
    gamma: Formula

    def __post_init__(self):
        if not self.betas:
            raise ValueError(f"rule {self.rule_id}: at least one justification required")

    def __str__(self) -> str:
        justs = ", ".join(f"M {b}" for b in self.betas)
        return f"{self.alpha} : {justs} / {self.gamma}"


@dataclass(frozen=True)
class DefaultTheory:
    rules: tuple[DefaultRule, ...]
    facts: tuple[Formula, ...]
    vocab: Vocabulary

    @property
    def fact_formula(self) -> Formula:
        return conjoin(self.facts)


def gamma_operator(
    theory: DefaultTheory,
    candidate: frozenset[World],
    max_names: int = DEFAULT_WORLD_CAP,
) -> frozenset[World]:
    """Model set of the operator value at ``candidate``.

    Starting from the models of the facts, repeatedly apply every rule
    whose prerequisite already holds throughout the current model set and
    whose justifications are each consistent with the candidate theory
    (no ~beta_i holds throughout ``candidate``), shrinking the model set
    by the rule's conclusion. Runs to the least fixed point; the result
    is independent of application order.
    """
    worlds = enumerate_worlds(theory.vocab, max_names)
    current = models(theory.fact_formula, worlds)
    # justification status depends only on the candidate, so compute once
    unblocked = [
        rule
        for rule in theory.rules
        if all(not holds_throughout(Not(b), candidate) for b in rule.betas)
    ]
    changed = True
    while changed:
        changed = False
        for rule in unblocked:
            if holds_throughout(rule.alpha, current):
                shrunk = current & models(rule.gamma, current)
                if shrunk != current:
                    current = shrunk
                    changed = True
    return current


def extensions(
    theory: DefaultTheory,
    max_names: int = DEFAULT_WORLD_CAP,
    max_rules: int = DEFAULT_RULE_CAP,
) -> list[Kernel]:
    """All fixed points of the operator, as kernels, deterministically ordered.

    Every extension is generated by the facts plus the conclusions of the
    rules that fire in it, so sweeping rule subsets and verifying each
    candidate with one operator evaluation finds exactly the fixed points.
    The inconsistent extension (empty model set) appears alone when the
    facts themselves are unsatisfiable.
    """
    if len(theory.rules) > max_rules:
        raise ResourceLimitError(
            f"theory has {len(theory.rules)} rules; extension search is "
            f"capped at {max_rules}"
        )
    worlds = enumerate_worlds(theory.vocab, max_names)
    fact_worlds = models(theory.fact_formula, worlds)
    seen: set[frozenset[World]] = set()
    found = []
    for size in range(len(theory.rules) + 1):
        for chosen in combinations(theory.rules, size):
            candidate = fact_worlds
            for rule in chosen:
                candidate &= models(rule.gamma, candidate)
            if candidate in seen:
                continue
            seen.add(candidate)
            if gamma_operator(theory, candidate, max_names) == candidate:
                found.append(candidate)
    found.sort(key=lambda ws: (len(ws), sorted(w.bits() for w in ws)))
    return [Kernel(ws, theory.vocab) for ws in found]


def _licensed(theory: DefaultTheory, pool: frozenset[World]) -> list[Item]:
    """Rules whose justifications are each satisfiable in ``pool``.

    A licensed rule peels only while its prerequisite holds throughout the
    remaining worlds.
    """
    return [
        (rule.rule_id, rule.alpha, rule.gamma)
        for rule in theory.rules
        if all(satisfiable_in(b, pool) for b in rule.betas)
    ]


def build_default_sequences(
    theory: DefaultTheory,
    max_names: int = DEFAULT_WORLD_CAP,
    max_rules: int = DEFAULT_RULE_CAP,
    order_limit: int = DEFAULT_ORDER_LIMIT,
) -> list[PartitionSequence]:
    """Sequences witnessing each extension of ``theory``.

    The first class collects the worlds falsifying the facts; then an
    applicable rule is picked and the worlds falsifying its conclusion are
    split off, until no rule applies. Any maximal application order lands
    exactly on the extension's model set, so alternative orders yield
    further valid sequences differing in their intermediate classes only.
    Orders are explored under the shared ``order_limit`` budget of
    :func:`~partseq.sequences.peel_sequences`. The inconsistent extension,
    having no worlds to end on, gets no sequence.
    """
    worlds = enumerate_worlds(theory.vocab, max_names)
    fact_worlds = models(theory.fact_formula, worlds)
    item_lists = [
        _licensed(theory, k.worlds)
        for k in extensions(theory, max_names, max_rules)
        if k.is_consistent
    ]
    w0 = frozenset(worlds) - fact_worlds
    return peel_sequences(
        "default", theory.vocab, w0, fact_worlds, item_lists, order_limit
    )


def check_default_sequence(
    theory: DefaultTheory,
    seq: PartitionSequence,
    max_names: int = DEFAULT_WORLD_CAP,
    strict: bool = False,
) -> list[Violation]:
    """Every violated clause of the sequence conditions for ``theory``.

    Clause 1: the first class holds exactly the worlds falsifying the
    facts. Clause 2: each intermediate class is the set of remaining
    worlds falsifying the conclusion of some rule whose prerequisite
    holds from that class onward and whose justifications are witnessed.
    Clause 3: the last class is closed under every applicable rule.

    Witnesses live in the final class; ``strict=True`` instead demands
    them inside the class being split off, a tighter variant under which
    a rule whose conclusion equals its justification can never justify
    its own split (each split removes exactly those witnesses).
    """
    worlds = enumerate_worlds(theory.vocab, max_names)
    structural = validate_structure(seq, worlds)
    if structural:
        return structural

    problems = []
    if seq.classes[0] != falsifiers(theory.fact_formula, worlds):
        problems.append(
            Violation(
                "condition 1",
                "first class must hold exactly the worlds falsifying the facts",
                class_index=0,
            )
        )
    return problems + check_peels(seq, partial(_licensed, theory), strict, "rule")
