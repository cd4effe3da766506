"""Weighted sample spaces, conditioning sequences, and thresholding.

Conditioning on <f1, ..., fn> peels off the falsifiers of each formula in
turn; the last class is the effective sample space and conditional
probabilities are weighted fractions inside it. Thresholding is the same
construction plus an acceptance test per step: the mass peeled off must
be a small enough share of what was still in play. All arithmetic is
exact rational, so acceptance at boundary ratios is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .errors import (
    BelowThresholdError,
    ResourceLimitError,
    SemanticError,
    UndefinedConditionalError,
)
from .logic import Formula, TruthTable, Vocabulary, World, format_formula
from .rationals import Rational, as_fraction
from .sequences import PartitionSequence

# Sample-space weights must total 1; inputs that arrived through floats
# may carry binary representation error up to this much.
WEIGHT_TOLERANCE = Fraction(1, 10**9)

MAX_THRESHOLD_CANDIDATES = 10

MAX_LOTTERY_TICKETS = 10**6


@dataclass(frozen=True)
class SampleSpace:
    """Weighted worlds with pairwise distinct assignments, total mass 1.

    Worlds of weight zero may simply be left out; every operation treats
    missing assignments as carrying no mass.
    """

    worlds: tuple[World, ...]
    vocab: Vocabulary

    def __post_init__(self):
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("sample space worlds must have distinct assignments")
        total = self.table.mass(self.table.full)
        if abs(total - 1) > WEIGHT_TOLERANCE:
            raise ValueError(f"sample space weights total {total}, not 1")

    @cached_property
    def table(self) -> TruthTable:  # the space's worlds, listed in their order
        return TruthTable(self.vocab, worlds=self.worlds)


@dataclass(frozen=True)
class ConditioningQuery:
    """A query bundle: condition formulas in order, optional threshold."""

    conditions: tuple[Formula, ...]
    query: Formula
    epsilon: Fraction | None = None

    def __post_init__(self):
        if not self.conditions:
            raise ValueError("at least one condition formula is required")
        if self.epsilon is not None and not 0 <= self.epsilon < 1:
            raise ValueError("threshold epsilon must lie in [0, 1)")


@dataclass(frozen=True)
class QueryResult:
    """A probability value together with the sequence that witnesses it."""

    value: Fraction
    sequence: PartitionSequence


def condition(space: SampleSpace, conds) -> PartitionSequence:
    """The conditioning sequence of ``space`` for the ordered formulas.

    Class i (for i < n) holds the still-unclassified worlds falsifying
    formula i+1; the final class holds whatever remains, possibly nothing.
    """
    return _conditioned(space, conds, "conditional")


def _conditioned(space: SampleSpace, conds, kind: str) -> PartitionSequence:
    conds = tuple(conds)
    if not conds:
        raise ValueError("at least one condition formula is required")
    return reduce(extend, conds, PartitionSequence(space.table, (space.table.full,), kind))


def extend(seq: PartitionSequence, phi: Formula) -> PartitionSequence:
    """Condition on one more formula by splitting the last class.

    Conditioning is incremental: extending the sequence for
    <f1, ..., fk> with f{k+1} gives the sequence for <f1, ..., f{k+1}>.
    """
    if seq.kind not in ("conditional", "threshold"):
        raise SemanticError(f"cannot extend a {seq.kind} sequence by conditioning")
    last, models = seq.masks[-1], seq.table.mask(phi)
    masks = (*seq.masks[:-1], last & ~models, last & models)
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
    total = seq.table.mass(tail)
    if total == 0:
        raise UndefinedConditionalError(
            "the conditioned-on formulas have probability zero"
        )
    return seq.table.mass(tail & seq.table.mask(psi)) / total


def _epsilon(eps: Rational) -> Fraction:
    eps = as_fraction(eps)
    if eps < 0:
        raise ValueError("epsilon must be non-negative")
    return eps


def _step_ratio(seq: PartitionSequence, i: int, strict: bool) -> Fraction | None:
    """Class i's mass over the mass of classes i onward, or of the whole
    table with ``strict``; None when that mass is zero."""
    table = seq.table
    total = table.mass(table.full if strict else reduce(int.__or__, seq.masks[i:]))
    return table.mass(seq.masks[i]) / total if total else None


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
    """
    eps = _epsilon(eps)
    seq = _conditioned(space, conds, "threshold")
    for i, name in enumerate(seq.provenance[:-1]):
        ratio = _step_ratio(seq, i, strict)
        if ratio is None:
            raise BelowThresholdError(
                f"step {i + 1}: conditional probability of {name} is undefined "
                f"(no mass left)",
                step=i + 1,
                formula=name,
            )
        if ratio > eps:
            raise BelowThresholdError(
                f"step {i + 1}: {name} falls below threshold "
                f"(rejected mass ratio {ratio} > {eps})",
                step=i + 1,
                formula=name,
                ratio=ratio,
            )
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
    tests only the new step of each prefix's sequence extended by one.
    """
    candidates = list(candidates)
    if len(candidates) > MAX_THRESHOLD_CANDIDATES:
        raise ResourceLimitError(
            f"{len(candidates)} candidate formulas; ordering search is "
            f"capped at {MAX_THRESHOLD_CANDIDATES}"
        )
    eps = _epsilon(eps)
    accepted: list[tuple[Formula, ...]] = []

    def grow(seq: PartitionSequence, prefix: tuple[Formula, ...]):
        if len(prefix) >= maxlen:
            return
        for phi in candidates:
            if phi in prefix:
                continue
            longer = extend(seq, phi)
            ratio = _step_ratio(longer, len(prefix), strict)
            if ratio is not None and ratio <= eps:
                accepted.append(prefix + (phi,))
                grow(longer, accepted[-1])

    grow(PartitionSequence(space.table, (space.table.full,), "threshold"), ())
    return accepted


def answer(space: SampleSpace, query: ConditioningQuery, strict: bool = False) -> QueryResult:
    """Evaluate a bundled query: threshold when it carries an epsilon,
    plain conditioning otherwise. Returns the value with its witnessing
    sequence."""
    if query.epsilon is not None:
        seq = threshold(space, query.epsilon, query.conditions, strict)
    else:
        seq = condition(space, query.conditions)
    return QueryResult(value=cond_prob(seq, query.query), sequence=seq)


def rejects(seq: PartitionSequence, phi: Formula, eps: Rational) -> bool:
    """Whether ``phi`` is taken as practically false in the current
    effective space: its probability there is at most ``eps``.

    (Not the complement of acceptance: a formula needs probability at
    least 1 - eps to be thresholded, at most eps to be rejected, and
    middling ones are neither.)
    """
    return cond_prob(seq, phi) <= as_fraction(eps)


def lottery_space(n: int) -> SampleSpace:
    """The n-ticket lottery: world i says exactly ticket i wins, mass 1/n.

    Worlds where no ticket or several tickets win carry no mass and are
    left out of the representation.
    """
    if not 1 <= n <= MAX_LOTTERY_TICKETS:
        raise ResourceLimitError(f"lottery size must be between 1 and {MAX_LOTTERY_TICKETS}")
    vocab = Vocabulary(f"p{i}" for i in range(1, n + 1))
    share = Fraction(1, n)
    worlds = tuple(World(vocab, (f"p{i}",), share) for i in range(1, n + 1))
    return SampleSpace(worlds=worlds, vocab=vocab)

