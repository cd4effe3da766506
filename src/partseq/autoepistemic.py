"""Introspective belief premises in normal form: the belief fixed-point
operator, stable-expansion search, and belief partition sequences.

Premises have the shape  L a & ~L b1 & ... & ~L bn -> g  where L reads
"is believed" and all components are non-modal. A consistent belief set
closed under introspection is determined by its kernel (its non-modal
part), so kernels stand in for whole belief sets here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import ResourceLimitError
from .logic import (
    DEFAULT_WORLD_CAP,
    Formula,
    Kernel,
    ModalFormula,
    TruthTable,
    Vocabulary,
    conjoin,
)
from .sequences import (
    DEFAULT_ORDER_LIMIT,
    Item,
    PartitionSequence,
    Violation,
    check_peels,
    class_masks,
    close,
    peel_sequences,
)

# The expansion search guesses belief values for the distinct formulas
# appearing under L, so it is exponential in their number.
DEFAULT_GUESS_CAP = 16


@dataclass(frozen=True)
class AelPremises:
    formulas: tuple[ModalFormula, ...]
    vocab: Vocabulary


def _guess_formulas(premises: AelPremises) -> list[Formula]:
    """Distinct formulas whose belief status decides which premises fire."""
    seen: list[Formula] = []
    for pm in premises.formulas:
        for phi in ((pm.alpha,) if pm.alpha is not None else ()) + pm.betas:
            if phi not in seen:
                seen.append(phi)
    return seen


# A premise compiled against one truth table: the index of its positive
# condition among the guess formulas (None when absent), the indices of
# its negative ones, and the item it peels by once licensed.
_Premise = tuple[int | None, tuple[int, ...], Item]


def _compile(
    premises: AelPremises, guesses: list[Formula], table: TruthTable
) -> tuple[list[int], list[_Premise]]:
    """The guess formulas' model masks, and the compiled premises.

    Labels are formatted here, once per call. A premise peels with no
    prerequisite.
    """
    at = {phi: i for i, phi in enumerate(guesses)}
    compiled = [
        (
            None if pm.alpha is None else at[pm.alpha],
            tuple(at[b] for b in pm.betas),
            (str(pm), table.full, table.mask(pm.gamma)),
        )
        for pm in premises.formulas
    ]
    return [table.mask(g) for g in guesses], compiled


def _beliefs(conditions: list[int], pool: int) -> tuple[bool, ...]:
    """Which guess formulas, given by their model masks, hold throughout
    ``pool``: the belief set whose kernel has that model set."""
    return tuple(pool & ~m == 0 for m in conditions)


def _licensed(compiled: list[_Premise], believed: tuple[bool, ...]) -> list[Item]:
    """Premises whose belief conditions ``believed`` vouches for: it holds
    the positive condition and none of the negative ones."""
    return [
        item
        for alpha, betas, item in compiled
        if (alpha is None or believed[alpha]) and not any(believed[b] for b in betas)
    ]


def omega_operator(
    premises: AelPremises,
    kernel: Kernel,
    max_names: int = DEFAULT_WORLD_CAP,
) -> Kernel:
    """The least kernel containing the conclusions the belief set licenses.

    A premise contributes its conclusion when its positive condition is in
    the given belief set and none of its negative ones are: the value is
    the closure of all worlds under the premises ``kernel`` licenses.
    """
    if not kernel.is_consistent:
        raise ValueError("the belief operator is defined for consistent kernels only")
    table = TruthTable(premises.vocab, max_names)
    conditions, compiled = _compile(premises, _guess_formulas(premises), table)
    believed = _beliefs(conditions, table.mask_of(kernel.worlds))
    value = close(table.full, _licensed(compiled, believed))
    return Kernel(table.worlds(value), premises.vocab)


def forced_inconsistency(premises: AelPremises, max_names: int = DEFAULT_WORLD_CAP) -> bool:
    """Whether the premises are contradictory regardless of beliefs.

    Premises without negative belief conditions fire under total belief,
    so when their conclusions are jointly unsatisfiable the only candidate
    belief set is the inconsistent one. The expansion enumeration reports
    consistent kernels only; this flag covers the remaining case.
    """
    hard = conjoin(pm.gamma for pm in premises.formulas if not pm.betas)
    return TruthTable(premises.vocab, max_names).mask(hard) == 0


def _search(
    premises: AelPremises, max_names: int, max_guesses: int
) -> tuple[TruthTable, list[int], list[_Premise], list[int]]:
    """The truth table, the guess formulas' masks, the compiled premises
    and the consistent expansions' model sets, in order.

    For every assignment of believed/not-believed to the distinct
    condition formulas, the firing premises induce a kernel; the guess is
    kept when the kernel agrees with it on every condition formula, which
    is exactly the fixed-point property.
    """
    guesses = _guess_formulas(premises)
    if len(guesses) > max_guesses:
        raise ResourceLimitError(
            f"premises mention {len(guesses)} distinct belief conditions; "
            f"expansion search is capped at {max_guesses}"
        )
    table = TruthTable(premises.vocab, max_names)
    conditions, compiled = _compile(premises, guesses, table)
    found = []
    seen: set[int] = set()
    for bits in product((False, True), repeat=len(guesses)):
        kernel = close(table.full, _licensed(compiled, bits))
        if kernel and kernel not in seen and _beliefs(conditions, kernel) == bits:
            seen.add(kernel)
            found.append(kernel)
    found.sort(key=table.sort_key)
    return table, conditions, compiled, found


def stable_expansions(
    premises: AelPremises,
    max_names: int = DEFAULT_WORLD_CAP,
    max_guesses: int = DEFAULT_GUESS_CAP,
) -> list[Kernel]:
    """All consistent fixed points of the belief operator, deduplicated by
    model set and deterministically ordered."""
    table, _, _, found = _search(premises, max_names, max_guesses)
    return [Kernel(table.worlds(k), premises.vocab) for k in found]


def build_ael_sequences(
    premises: AelPremises,
    max_names: int = DEFAULT_WORLD_CAP,
    max_guesses: int = DEFAULT_GUESS_CAP,
    order_limit: int = DEFAULT_ORDER_LIMIT,
) -> list[PartitionSequence]:
    """Sequences witnessing each consistent stable expansion.

    The first class is empty by definition; afterwards the firing premises
    split off the worlds falsifying their conclusions, in any order, until
    nothing is left to split, which lands exactly on the expansion kernel.
    Orders are explored under the shared ``order_limit`` budget of
    :func:`~partseq.sequences.peel_sequences`.
    """
    table, conditions, compiled, found = _search(premises, max_names, max_guesses)
    item_lists = [_licensed(compiled, _beliefs(conditions, k)) for k in found]
    return peel_sequences("autoepistemic", table, 0, table.full, item_lists, order_limit)


def check_ael_sequence(
    premises: AelPremises,
    seq: PartitionSequence,
    max_names: int = DEFAULT_WORLD_CAP,
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
    for comparison. A sequence of another kind, or one that is no
    partition of the worlds, gets only those violations.
    """
    table = TruthTable(premises.vocab, max_names)
    masks, problems = class_masks(seq, "autoepistemic", table)
    if problems:
        return problems
    if masks[0]:
        problems.append(
            Violation("condition 1", "the first class must be empty", class_index=0)
        )
    if not masks[-1]:
        problems.append(
            Violation(
                "condition 3",
                "the last class is empty: no consistent belief set is characterised",
                class_index=len(seq.masks) - 1,
            )
        )
    conditions, compiled = _compile(premises, _guess_formulas(premises), table)
    return problems + check_peels(
        masks,
        lambda pool: _licensed(compiled, _beliefs(conditions, pool)),
        strict,
        "premise",
    )
