"""Introspective belief premises in normal form: the belief fixed-point
operator, stable-expansion search, and belief partition sequences.

Premises have the shape  L a & ~L b1 & ... & ~L bn -> g  where L reads
"is believed" and all components are non-modal. A consistent belief set
closed under introspection is determined by its kernel (its non-modal
part), so kernels stand in for whole belief sets here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ResourceLimitError
from .logic import (
    TRUE,
    Formula,
    Kernel,
    ModalFormula,
    TruthTable,
    Vocabulary,
)
from .sequences import (
    Compiled,
    PartitionSequence,
    Violation,
    check_peels,
    compile_items,
    operator_value,
    peel_sequences,
    search_parts,
    split_parts,
)

# The expansion search guesses belief values for the distinct formulas
# appearing under L, so it is exponential in their number and refuses
# premises with more of them than this.
DEFAULT_GUESS_CAP = 16


@dataclass(frozen=True)
class AelPremises:
    """Belief premises in normal form. :attr:`guesses`, :attr:`compiled`
    and :attr:`parts` are built on first use and kept for the premises'
    life; they hold formulas, ints, strings and tuples, never a ``World``
    or a ``TruthTable``, so they keep no worlds alive."""

    formulas: tuple[ModalFormula, ...]
    vocab: Vocabulary

    @cached_property
    def guesses(self) -> tuple[Formula, ...]:
        """Distinct formulas under L, which the guess cap counts."""
        seen: dict[Formula, None] = {}
        for pm in self.formulas:
            seen.update(dict.fromkeys(((pm.alpha,) if pm.alpha is not None else ()) + pm.betas))
        return tuple(seen)  # in order of first appearance

    @cached_property
    def compiled(self) -> Compiled:
        """The premises in the peel section's form over the dense table;
        every world is left."""
        items = (
            (str(pm), () if pm.alpha is None else (pm.alpha,), pm.betas, TRUE, pm.gamma)
            for pm in self.formulas
        )
        return compile_items(TruthTable(self.vocab), items, TRUE)

    @cached_property
    def parts(self) -> tuple[Compiled, ...]:
        """:attr:`compiled` split into the parts of the premises that share
        no constant (:func:`~partseq.sequences.split_parts`)."""
        formulas = ((pm.alpha or TRUE, *pm.betas, pm.gamma) for pm in self.formulas)
        return split_parts(self.compiled, formulas, ())


def omega_operator(
    premises: AelPremises,
    kernel: Kernel,
) -> Kernel:
    """The least kernel containing the conclusions the belief set licenses.

    A premise contributes its conclusion when its positive condition is in
    the given belief set and none of its negative ones are: the value is
    the closure of all worlds under the premises ``kernel`` licenses.
    """
    if not kernel.is_consistent:
        raise ValueError("the belief operator is defined for consistent kernels only")
    table = TruthTable(premises.vocab)
    value = operator_value(premises.compiled, table.mask_of(kernel.worlds))
    return Kernel(table.worlds(value), premises.vocab)


def forced_inconsistency(premises: AelPremises) -> bool:
    """Whether the inconsistent belief set is a stable expansion.

    The empty pool believes everything, so exactly the premises without a
    negative belief condition fire; when their conclusions contradict each
    other, the inconsistent set is its own value. The expansion enumeration
    reports consistent kernels only, which may exist beside it.
    """
    return operator_value(premises.compiled, 0) == 0


def _search(premises: AelPremises) -> tuple[TruthTable, list[int]]:
    """The truth table and the consistent expansions' model sets, in
    report order: the ANDs of the consistent expansions of the premises'
    parts (:func:`~partseq.sequences.search_parts`), whose guesses are
    bounded by 2^g for g distinct condition masks. The caps are checked
    in order: condition formulas, then constants."""
    count = len(premises.guesses)
    if count > DEFAULT_GUESS_CAP:
        raise ResourceLimitError(
            f"premises mention {count} distinct belief conditions; "
            f"expansion search is capped at {DEFAULT_GUESS_CAP}"
        )
    return TruthTable(premises.vocab), search_parts(premises.parts)


def stable_expansions(
    premises: AelPremises,
) -> list[Kernel]:
    """All consistent fixed points of the belief operator, deduplicated by
    model set and deterministically ordered."""
    table, found = _search(premises)
    return [Kernel(table.worlds(k), premises.vocab) for k in found]


def build_ael_sequences(premises: AelPremises) -> list[PartitionSequence]:
    """Sequences witnessing each consistent stable expansion.

    The first class is empty by definition; afterwards the firing premises
    split off the worlds falsifying their conclusions, in any order, until
    nothing is left to split, which lands exactly on the expansion kernel.
    Orders are explored under the shared order budget of
    :func:`~partseq.sequences.peel_sequences`.
    """
    table, found = _search(premises)
    return peel_sequences("autoepistemic", table, premises.compiled, found)


def check_ael_sequence(
    premises: AelPremises,
    seq: PartitionSequence,
    strict: bool = False,
) -> list[Violation]:
    """Every violated clause of the belief-sequence conditions.

    Clause 1: the first class is empty. Clause 2: each intermediate class
    is exactly the remaining worlds falsifying the conclusion of some
    premise whose belief conditions the last class vouches for (positive
    condition true throughout it, each negative condition false somewhere
    in it). Clause 3: the last class is closed under every premise it
    licenses, and must be non-empty to characterise a consistent belief
    set. ``strict=True`` evaluates clause 2's conditions on the class
    being split off instead of the last class, a tighter variant kept
    for comparison. A sequence of another kind or vocabulary, or one
    that is no partition of the worlds, gets only those violations.
    """
    return check_peels("autoepistemic", TruthTable(premises.vocab), premises.compiled, seq, strict)
