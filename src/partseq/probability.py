"""Weighted sample spaces, conditioning sequences, and thresholding.

Conditioning on <f1, ..., fn> is one ordered peel by the formulas in turn;
the last class is the effective sample space and conditional
probabilities are weighted fractions inside it. Thresholding is the same
peel plus an acceptance test per step: the mass peeled off must be a
small enough share of what was still in play. All arithmetic is exact
rational, so acceptance at boundary ratios is decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable

from .errors import (
    BelowThresholdError,
    ResourceLimitError,
    SemanticError,
    UndefinedConditionalError,
)
from .logic import Formula, TruthTable, Vocabulary, World, format_formula
from .rationals import Rational, as_fraction, clipped, ratio_text
from .sequences import PartitionSequence, peel_in_order

MAX_THRESHOLD_CANDIDATES = 10

MAX_LOTTERY_TICKETS = 10**6


class SampleSpace:
    """Weighted worlds with pairwise distinct assignments, total mass 1.

    Worlds of weight zero may simply be left out; every operation treats
    missing assignments as carrying no mass. The space is its ``table``,
    which lists its worlds in their order; ``worlds`` is the tuple of them,
    built on first read when the table was made without them. Two spaces
    are equal when their worlds and vocabularies are.
    """

    def __init__(self, worlds: Iterable[World], vocab: Vocabulary):
        self.worlds = tuple(worlds)
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("sample space worlds must have distinct assignments")
        self._set_table(TruthTable(vocab, worlds=self.worlds))

    @classmethod
    def of_table(cls, table: TruthTable) -> SampleSpace:
        """The space of a listed table whose worlds are distinct."""
        space = object.__new__(cls)
        space._set_table(table)
        return space

    def _set_table(self, table: TruthTable) -> None:
        self.table, self.vocab = table, table.vocab
        total = table.mass(table.full)
        if total != 1:
            raise ValueError(f"sample space weights total {clipped(ratio_text(total))}, not 1")

    @cached_property
    def worlds(self) -> tuple[World, ...]:
        return tuple(self.table.world_list(self.table.full))

    def __eq__(self, other) -> bool:
        same_vocab = isinstance(other, SampleSpace) and self.vocab == other.vocab
        return same_vocab and self.worlds == other.worlds

    def __hash__(self) -> int:
        return hash((self.worlds, self.vocab))

    def __repr__(self) -> str:
        return f"SampleSpace(worlds={self.worlds!r}, vocab={self.vocab!r})"


def condition(space: SampleSpace, conds) -> PartitionSequence:
    """The conditioning sequence of ``space`` for the ordered formulas.

    Class i (for i < n) holds the still-unclassified worlds falsifying
    formula i+1; the final class holds whatever remains, possibly nothing.
    """
    return _conditioned(space, conds, "conditional")


def _conditioned(space: SampleSpace, conds, kind: str) -> PartitionSequence:
    conds, table = tuple(conds), space.table
    if not conds:
        raise ValueError("at least one condition formula is required")
    classes = peel_in_order(table.full, map(table.mask, conds))
    return PartitionSequence(table, classes, kind, (*map(format_formula, conds), ""))


def extend(seq: PartitionSequence, phi: Formula) -> PartitionSequence:
    """Condition on one more formula by splitting the last class.

    Conditioning is incremental: extending the sequence for
    <f1, ..., fk> with f{k+1} gives the sequence for <f1, ..., f{k+1}>.
    """
    if seq.kind not in ("conditional", "threshold"):
        raise SemanticError(f"cannot extend a {seq.kind} sequence by conditioning")
    masks = (*seq.masks[:-1], *peel_in_order(seq.masks[-1], (seq.table.mask(phi),)))
    provenance = (*seq.provenance[:-1], format_formula(phi), "")
    return PartitionSequence(seq.table, masks, seq.kind, provenance)


def cond_prob(seq: PartitionSequence, psi: Formula) -> Fraction:
    """Weighted fraction of the last class satisfying ``psi``.

    This equals the conditional probability of ``psi`` given the formulas
    the sequence was conditioned on. Undefined when the last class has no
    mass.
    """
    return persistent_prob(seq, psi, len(seq.masks) - 1)


def persistent_prob(seq: PartitionSequence, psi: Formula, upto: int) -> Fraction:
    """Recover the probability of ``psi`` after only the first ``upto``
    conditioning steps, from a sequence conditioned further.

    The tail classes from index ``upto`` onward are exactly the worlds
    satisfying the first ``upto`` formulas, so earlier conditioning stages
    stay readable off one sequence.
    """
    if not 0 <= upto < len(seq.masks):
        raise ValueError(f"step {upto} outside the sequence")
    tail = reduce(int.__or__, seq.masks[upto:])
    total = seq.table.weight(tail)
    if total == 0:
        raise UndefinedConditionalError(
            "the conditioned-on formulas have probability zero"
        )
    return Fraction(seq.table.weight(tail & seq.table.mask(psi)), total)


def _epsilon(eps: Rational) -> Fraction:
    eps = as_fraction(eps)
    if eps < 0:
        raise ValueError("epsilon must be non-negative")
    return eps


def threshold(
    space: SampleSpace,
    eps: Rational,
    conds,
    strict: bool = False,
) -> PartitionSequence:
    """The conditioning sequence, accepted only if every step passes.

    Step i peels class i; the peeled mass divided by the mass still in
    play (class i and everything after) must not exceed ``eps``, which is
    the same as requiring the peeled formula to have conditional
    probability at least 1 - eps at the time it is treated. A zero mass
    still in play leaves that conditional undefined and the step is
    rejected. ``strict=True`` divides by the whole space's mass instead,
    a laxer variant kept for comparison.

    Each step is decided in integer weights over the table's common
    denominator, ``weight(peel) / total <= eps`` cross-multiplied; only a
    rejected step builds its ratio.
    """
    eps, table = _epsilon(eps), space.table
    seq = _conditioned(space, conds, "threshold")
    remaining = table.full
    for i, (name, peel) in enumerate(zip(seq.provenance, seq.masks[:-1])):
        total, peeled = table.weight(table.full if strict else remaining), table.weight(peel)
        if not total or peeled * eps.denominator > eps.numerator * total:
            ratio = Fraction(peeled, total) if total else None
            why = f"conditional probability of {name} is undefined (no mass left)"
            if ratio is not None:
                ratios = f"{ratio_text(ratio)} > {ratio_text(eps)}"
                why = f"{name} falls below threshold (rejected mass ratio {ratios})"
            raise BelowThresholdError(f"step {i + 1}: {why}", step=i + 1, formula=name, ratio=ratio)
        remaining ^= peel
    return seq


def threshold_prob(
    space: SampleSpace, eps: Rational, conds, psi: Formula, strict: bool = False
) -> Fraction:
    """Probability of ``psi`` after thresholding the condition formulas."""
    return cond_prob(threshold(space, eps, conds, strict), psi)


def enumerate_threshold_orders(
    space: SampleSpace,
    eps: Rational,
    candidates,
    maxlen: int,
    strict: bool = False,
) -> list[tuple[Formula, ...]]:
    """Every ordering of distinct candidates (up to ``maxlen``) that
    thresholding accepts.

    A failed prefix can never be rescued by further formulas (each step's
    ratio depends on the prefix alone), so the search prunes by prefix and
    tests only the new step of each prefix's remaining worlds peeled by one,
    against a bound worked out once per prefix. Equal candidates share the
    bit of the first of them in ``used``, so no order uses a formula twice.
    """
    candidates = list(candidates)
    if len(candidates) > MAX_THRESHOLD_CANDIDATES:
        raise ResourceLimitError(
            f"{len(candidates)} candidate formulas; ordering search is "
            f"capped at {MAX_THRESHOLD_CANDIDATES}"
        )
    eps, table = _epsilon(eps), space.table
    first: dict[Formula, int] = {}
    steps = [
        (phi, table.mask(phi), 1 << first.setdefault(phi, j)) for j, phi in enumerate(candidates)
    ]
    accepted: list[tuple[Formula, ...]] = []

    def grow(remaining: int, used: int, prefix: tuple[Formula, ...]):
        if len(prefix) >= maxlen:
            return
        total = table.weight(table.full if strict else remaining)
        if not total:
            return
        bound = eps.numerator * total
        for phi, models, bit in steps:
            if used & bit:
                continue
            peel, rest = peel_in_order(remaining, (models,))
            if table.weight(peel) * eps.denominator <= bound:
                accepted.append(prefix + (phi,))
                grow(rest, used | bit, accepted[-1])

    grow(table.full, 0, ())
    return accepted


def rejects(seq: PartitionSequence, phi: Formula, eps: Rational) -> bool:
    """Whether ``phi`` is taken as practically false in the current
    effective space: its probability there is at most ``eps``.

    (Not the complement of acceptance: a formula needs probability at
    least 1 - eps to be thresholded, at most eps to be rejected, and
    middling ones are neither.)
    """
    return cond_prob(seq, phi) <= _epsilon(eps)


def lottery_space(n: int) -> SampleSpace:
    """The n-ticket lottery: world i says exactly ticket i wins, mass 1/n.

    Worlds where no ticket or several tickets win carry no mass and are
    left out of the representation. The table is made from its masks:
    constant p_i holds at world i - 1 alone, the only constant that world
    makes true, and one share of 1/n holds every world; no world is built
    until one is read.
    """
    if not 1 <= n <= MAX_LOTTERY_TICKETS:
        raise ResourceLimitError(f"lottery size must be between 1 and {MAX_LOTTERY_TICKETS}")
    vocab = Vocabulary([f"p{i}" for i in range(1, n + 1)])
    shares = (((1 << n) - 1, Fraction(1, n)),)
    table = TruthTable.listed(
        vocab, n, lambda name: 1 << int(name[1:]) - 1, lambda i: (f"p{i + 1}",), shares
    )
    return SampleSpace.of_table(table)
