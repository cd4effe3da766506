"""Introspective belief premises in normal form: the belief fixed-point
operator, stable-expansion search, and belief partition sequences.

Premises have the shape  L a & ~L b1 & ... & ~L bn -> g  where L reads
"is believed" and all components are non-modal. A consistent belief set
closed under introspection is determined by its kernel (its non-modal
part), so kernels stand in for whole belief sets here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from . import defaults
from .errors import ResourceLimitError
from .logic import (
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
    beliefs,
    check_peels,
    close,
    licensed,
    peel_sequences,
)

# The expansion search guesses belief values for the distinct formulas
# appearing under L, so it is exponential in their number and refuses
# premises with more of them than this.
DEFAULT_GUESS_CAP = 16


@dataclass(frozen=True)
class AelPremises:
    """Belief premises in normal form. :attr:`guesses` and :attr:`compiled`
    are built on first use and kept for the premises' life; they hold
    formulas, ints, strings and tuples, never a ``World`` or a
    ``TruthTable``, so they keep no worlds alive."""

    formulas: tuple[ModalFormula, ...]
    vocab: Vocabulary

    @cached_property
    def guesses(self) -> tuple[Formula, ...]:
        """Distinct formulas whose belief status decides which premises fire."""
        seen: dict[Formula, None] = {}
        for pm in self.formulas:
            seen.update(dict.fromkeys(((pm.alpha,) if pm.alpha is not None else ()) + pm.betas))
        return tuple(seen)  # in order of first appearance

    @cached_property
    def compiled(self) -> Compiled:
        """The premises in the peel section's form over the dense table:
        the guess formulas' masks, each premise as the item (label, all
        worlds, g mask) needing the bit of its positive condition, if any,
        and refusing the bits of its negative ones, and all worlds, which
        the empty first class leaves."""
        table = TruthTable(self.vocab)
        bit = {phi: 1 << j for j, phi in enumerate(self.guesses)}
        guarded = tuple(
            (
                0 if pm.alpha is None else bit[pm.alpha],
                reduce(int.__or__, map(bit.__getitem__, pm.betas), 0),
                (str(pm), table.full, table.mask(pm.gamma)),
            )
            for pm in self.formulas
        )
        return tuple(map(table.mask, self.guesses)), guarded, table.full


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
    conditions, guarded, rest = premises.compiled
    believed = beliefs(conditions, table.mask_of(kernel.worlds))
    value = close(rest, licensed(guarded, believed))
    return Kernel(table.worlds(value), premises.vocab)


def forced_inconsistency(premises: AelPremises) -> bool:
    """Whether the premises are contradictory regardless of beliefs.

    Premises without negative belief conditions fire under total belief,
    so when their conclusions are jointly unsatisfiable the only candidate
    belief set is the inconsistent one. The expansion enumeration reports
    consistent kernels only; this flag covers the remaining case.
    """
    hard = (gamma for _, refuse, (_, _, gamma) in premises.compiled[1] if not refuse)
    return reduce(int.__and__, hard, -1) == 0


def _search(premises: AelPremises) -> tuple[TruthTable, list[int]]:
    """The truth table and the consistent expansions' model sets, in order.

    For every assignment of believed/not-believed to the distinct
    condition formulas, the firing premises induce a kernel; the guess is
    kept when the kernel agrees with it on every condition formula, which
    is exactly the fixed-point property. The caps are checked in order
    before the sweep allocates: conditions, constants, then both at once,
    under the default sweep's bound.
    """
    count, n = len(premises.guesses), len(premises.vocab)
    if count > DEFAULT_GUESS_CAP:
        raise ResourceLimitError(
            f"premises mention {count} distinct belief conditions; "
            f"expansion search is capped at {DEFAULT_GUESS_CAP}"
        )
    table = TruthTable(premises.vocab)
    bits = defaults.DEFAULT_SWEEP_BITS
    if count + n > bits:
        raise ResourceLimitError(
            f"premises mention {count} distinct belief conditions over {n} constants; "
            f"expansion search would hold up to 2^{count} kernels of 2^{n} bits, and is "
            f"capped at 2^{bits} bits (conditions + constants <= {bits})"
        )
    conditions, guarded, rest = premises.compiled
    found = []  # a kernel believes one guess only, so none is found twice
    for bits in range(1 << count):
        kernel = close(rest, licensed(guarded, bits))
        if kernel and beliefs(conditions, kernel) == bits:
            found.append(kernel)
    found.sort(key=table.sort_key)
    return table, found


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
