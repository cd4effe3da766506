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
from functools import cached_property

from .errors import ResourceLimitError
from .logic import (
    Formula,
    Kernel,
    Not,
    TruthTable,
    Vocabulary,
    World,
    conjoin,
)
from .sequences import (
    Compiled,
    PartitionSequence,
    Violation,
    check_peels,
    compile_items,
    operator_value,
    peel_sequences,
    search,
)

# Extensions are searched over subsets of the rule set, so the search
# refuses a theory with more rules than this.
DEFAULT_RULE_CAP = 16


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
    """Default rules over facts. :attr:`compiled` is built on first use
    and kept for the theory's life; it holds ints, strings and tuples,
    never a ``World`` or a ``TruthTable``, so it keeps no worlds alive."""

    rules: tuple[DefaultRule, ...]
    facts: tuple[Formula, ...]
    vocab: Vocabulary

    @property
    def fact_formula(self) -> Formula:
        return conjoin(self.facts)

    @cached_property
    def compiled(self) -> Compiled:
        """The theory in the peel section's form over the dense table: a
        rule refuses its ~betas, and the facts' models are left."""
        items = ((r.rule_id, (), tuple(map(Not, r.betas)), r.alpha, r.gamma) for r in self.rules)
        return compile_items(TruthTable(self.vocab), items, self.fact_formula)


def gamma_operator(
    theory: DefaultTheory,
    candidate: frozenset[World],
) -> frozenset[World]:
    """Model set of the operator value at ``candidate``: the closure of
    the facts' models under the rules whose justifications are each
    consistent with the candidate theory (no ~beta_i holds throughout
    ``candidate``), the least fixed point of applying them.
    """
    table = TruthTable(theory.vocab)
    return table.worlds(operator_value(theory.compiled, table.mask_of(candidate)))


def _search(theory: DefaultTheory) -> tuple[TruthTable, list[int]]:
    """The truth table and the extensions' model sets, in report order:
    :func:`~partseq.sequences.search` of the compiled theory, whose guesses
    are bounded by 2^k for k rules. The caps are checked in order before
    the search: rules, then constants."""
    k = len(theory.rules)
    if k > DEFAULT_RULE_CAP:
        raise ResourceLimitError(
            f"theory has {k} rules; extension search is capped at {DEFAULT_RULE_CAP}"
        )
    return TruthTable(theory.vocab), search(theory.compiled)


def extensions(
    theory: DefaultTheory,
) -> list[Kernel]:
    """All fixed points of the operator, as kernels, deterministically ordered.

    The inconsistent extension (empty model set) appears alone when the
    facts themselves are unsatisfiable.
    """
    table, found = _search(theory)
    return [Kernel(table.worlds(m), theory.vocab) for m in found]


def build_default_sequences(theory: DefaultTheory) -> list[PartitionSequence]:
    """Sequences witnessing each extension of ``theory``.

    The first class collects the worlds falsifying the facts; then an
    applicable rule is picked and the worlds falsifying its conclusion are
    split off, until no rule applies. Any maximal application order lands
    exactly on the extension's model set, so alternative orders yield
    further valid sequences differing in their intermediate classes only.
    Orders are explored under the shared order budget of
    :func:`~partseq.sequences.peel_sequences`. The inconsistent extension,
    having no worlds to end on, gets no sequence.
    """
    table, found = _search(theory)
    return peel_sequences("default", table, theory.compiled, found)


def check_default_sequence(
    theory: DefaultTheory,
    seq: PartitionSequence,
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
    its own split (each split removes exactly those witnesses). A
    sequence of another kind or vocabulary, or one that is no partition
    of the worlds, gets only those violations.
    """
    return check_peels("default", TruthTable(theory.vocab), theory.compiled, seq, strict)
