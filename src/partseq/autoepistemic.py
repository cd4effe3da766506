"""Introspective belief premises in normal form: the belief fixed-point
operator, stable-expansion search, and belief partition sequences.

Premises have the shape  L a & ~L b1 & ... & ~L bn -> g  where L reads
"is believed" and all components are non-modal. A consistent belief set
closed under introspection is determined by its kernel (its non-modal
part), so kernels stand in for whole belief sets here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .errors import ResourceLimitError
from .logic import (
    DEFAULT_WORLD_CAP,
    TRUE,
    Formula,
    Kernel,
    ModalFormula,
    Vocabulary,
    World,
    conjoin,
    enumerate_worlds,
    holds_throughout,
    models,
)
from .sequences import (
    Item,
    PartitionSequence,
    Violation,
    check_peels,
    peel_sequences,
    validate_structure,
)

# The expansion search guesses belief values for the distinct formulas
# appearing under L, so it is exponential in their number.
DEFAULT_GUESS_CAP = 16

DEFAULT_ORDER_LIMIT = 1000


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


def _fires(premise: ModalFormula, believed) -> bool:
    if premise.alpha is not None and not believed(premise.alpha):
        return False
    return all(not believed(b) for b in premise.betas)


def omega_operator(
    premises: AelPremises,
    kernel: Kernel,
    max_names: int = DEFAULT_WORLD_CAP,
) -> Kernel:
    """The least kernel containing the conclusions the belief set licenses.

    A premise contributes its conclusion when its positive condition is in
    the given belief set and none of its negative ones are. All conditions
    refer to the argument belief set only, never to the growing result, so
    a single pass reaches the fixed point.
    """
    if not kernel.is_consistent:
        raise ValueError("the belief operator is defined for consistent kernels only")
    worlds = frozenset(enumerate_worlds(premises.vocab, max_names))
    result = worlds
    for pm in premises.formulas:
        if _fires(pm, kernel.contains):
            result &= models(pm.gamma, result)
    return Kernel(result, premises.vocab)


def forced_inconsistency(premises: AelPremises, max_names: int = DEFAULT_WORLD_CAP) -> bool:
    """Whether the premises are contradictory regardless of beliefs.

    Premises without negative belief conditions fire under total belief,
    so when their conclusions are jointly unsatisfiable the only candidate
    belief set is the inconsistent one. The expansion enumeration reports
    consistent kernels only; this flag covers the remaining case.
    """
    worlds = enumerate_worlds(premises.vocab, max_names)
    hard = conjoin(pm.gamma for pm in premises.formulas if not pm.betas)
    return not models(hard, worlds)


def stable_expansions(
    premises: AelPremises,
    max_names: int = DEFAULT_WORLD_CAP,
    max_guesses: int = DEFAULT_GUESS_CAP,
) -> list[Kernel]:
    """All consistent fixed points of the belief operator.

    For every assignment of believed/not-believed to the distinct
    condition formulas, the firing premises induce a kernel; the guess is
    kept when the kernel agrees with it on every condition formula, which
    is exactly the fixed-point property. Deduplicated by model set and
    deterministically ordered.
    """
    guesses = _guess_formulas(premises)
    if len(guesses) > max_guesses:
        raise ResourceLimitError(
            f"premises mention {len(guesses)} distinct belief conditions; "
            f"expansion search is capped at {max_guesses}"
        )
    worlds = frozenset(enumerate_worlds(premises.vocab, max_names))
    found = []
    seen: set[frozenset[World]] = set()
    for bits in product((False, True), repeat=len(guesses)):
        assignment = dict(zip(guesses, bits))
        believed = assignment.__getitem__
        kernel_worlds = worlds
        for pm in premises.formulas:
            if _fires(pm, believed):
                kernel_worlds &= models(pm.gamma, kernel_worlds)
        if not kernel_worlds or kernel_worlds in seen:
            continue
        if all(holds_throughout(g, kernel_worlds) == assignment[g] for g in guesses):
            seen.add(kernel_worlds)
            found.append(kernel_worlds)
    found.sort(key=lambda ws: (len(ws), sorted(w.bits() for w in ws)))
    return [Kernel(ws, premises.vocab) for ws in found]


def _licensed(premises: AelPremises, pool: frozenset[World]) -> list[Item]:
    """Premises whose belief conditions ``pool`` vouches for: the positive
    condition holds throughout it and each negative one fails somewhere
    in it. A licensed premise peels with no prerequisite.
    """
    believed = partial(holds_throughout, worlds=pool)
    return [(str(pm), TRUE, pm.gamma) for pm in premises.formulas if _fires(pm, believed)]


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
    worlds = frozenset(enumerate_worlds(premises.vocab, max_names))
    item_lists = [
        _licensed(premises, k.worlds)
        for k in stable_expansions(premises, max_names, max_guesses)
    ]
    return peel_sequences(
        "autoepistemic", premises.vocab, frozenset(), worlds, item_lists, order_limit
    )


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
    for comparison.
    """
    worlds = enumerate_worlds(premises.vocab, max_names)
    structural = validate_structure(seq, worlds)
    if structural:
        return structural

    problems = []
    if seq.classes[0]:
        problems.append(
            Violation("condition 1", "the first class must be empty", class_index=0)
        )
    if not seq.last_class:
        problems.append(
            Violation(
                "condition 3",
                "the last class is empty: no consistent belief set is characterised",
                class_index=len(seq.classes) - 1,
            )
        )
    return problems + check_peels(seq, partial(_licensed, premises), strict, "premise")
