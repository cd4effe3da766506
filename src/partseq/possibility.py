"""Possibility theory: graded statement sets, their world sequences, and
the possibility / necessity measures read off them.

A base assigns possibility values to sets of formulas. Its sequence
groups worlds by increasing possibility: class i collects the supporters
of the level-(i+1) formulas not already placed, with total class weight
equal to the gap between consecutive possibility values. The possibility
of a formula is then the cumulative weight up to the highest class where
it holds somewhere; necessity is the dual through negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .logic import DEFAULT_WORLD_CAP, Formula, Not, TruthTable, Vocabulary, format_formula
from .sequences import PartitionSequence, Violation, class_masks

# Class weight totals are compared within this tolerance so that checked
# sequences may carry float-derived weights.
CLASS_WEIGHT_TOLERANCE = Fraction(1, 10**9)


@dataclass(frozen=True)
class PossibilisticKB:
    """Levels <S_i, r_i> with 0 <= r_1 < ... < r_n <= 1, each S_i a
    non-empty formula set meaning "every member has possibility r_i"."""

    levels: tuple[tuple[frozenset[Formula], Fraction], ...]
    vocab: Vocabulary

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a possibilistic base needs at least one level")
        previous = None
        for formulas, value in self.levels:
            if not formulas:
                raise ValueError("empty formula set in a possibilistic level")
            if not 0 <= value <= 1:
                raise ValueError(f"possibility value {value} outside [0, 1]")
            if previous is not None and value <= previous:
                raise ValueError("possibility values must increase strictly")
            previous = value

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(value for _, value in self.levels)


@dataclass(frozen=True)
class InconsistencyReport:
    """Why no sequence exists: the base violates the measure axioms."""

    violations: tuple[Violation, ...]

    def __str__(self) -> str:
        return "; ".join(str(v) for v in self.violations)


def _levels(kb: PossibilisticKB, table: TruthTable) -> tuple[list[int], list[Violation]]:
    """The class masks of the level construction, the remaining worlds
    last, and the condition-1 violations met on the way.

    Class i is the union of each level-(i+1) formula's still-unplaced
    supporters. A formula with no supporters left is an axiom violation
    unless its stated possibility is zero (an impossible formula may well
    have possibility zero, but a positive value needs a witnessing world).
    """
    remaining = table.full
    classes = []
    problems = []
    for formulas, value in kb.levels:
        cls = 0
        for phi in sorted(formulas, key=format_formula):
            support = remaining & table.mask(phi)
            if not support and value > 0:
                problems.append(
                    Violation(
                        "condition 1",
                        f"no world left can support it at possibility {value}",
                        item=format_formula(phi),
                    )
                )
            cls |= support
        classes.append(cls)
        remaining &= ~cls
    classes.append(remaining)
    return classes, problems


def _gaps(kb: PossibilisticKB) -> list[Fraction]:
    """The weight each class must total: the steps between consecutive
    possibility values, from 0 up to 1."""
    values = (Fraction(0),) + kb.values + (Fraction(1),)
    return [high - low for low, high in zip(values, values[1:])]


def build_poss_sequence(
    kb: PossibilisticKB, max_names: int = DEFAULT_WORLD_CAP
) -> PartitionSequence | InconsistencyReport:
    """The possibility sequence of ``kb``, or why there is none.

    Classes are built per level in increasing possibility order, the final
    class taking the remaining worlds. Each class's weight gap is split
    uniformly over its worlds; any split meeting the totals would do, the
    uniform one keeps the builder deterministic.
    """
    table = TruthTable(kb.vocab, max_names)
    classes, problems = _levels(kb, table)
    gaps = _gaps(kb)
    if not classes[-1] and gaps[-1] > 0:
        problems.append(
            Violation(
                "condition 2",
                f"no worlds remain for the top class yet weight {gaps[-1]} "
                f"is left to place",
                class_index=len(classes) - 1,
            )
        )
    if problems:
        return InconsistencyReport(tuple(problems))

    weighted = table.reweighted(
        (cls, gap / (cls.bit_count() or 1)) for cls, gap in zip(classes, gaps)
    )
    provenance = tuple(
        "; ".join(sorted(format_formula(phi) for phi in formulas))
        for formulas, _ in kb.levels
    ) + ("",)
    return PartitionSequence(weighted, classes, "possibility", provenance)


def check_poss_sequence(
    kb: PossibilisticKB,
    seq: PartitionSequence,
    max_names: int = DEFAULT_WORLD_CAP,
) -> list[Violation]:
    """Every violated clause of the possibility-sequence conditions.

    Class memberships must match the level construction exactly; weights
    inside a class may be distributed any way whose total equals the
    level's gap (within a small tolerance). A sequence of another kind
    gets a single ``kind`` violation.
    """
    table = TruthTable(kb.vocab, max_names)
    masks, structural = class_masks(seq, "possibility", table)
    if structural:
        return structural

    n = len(kb.levels)
    if len(seq.masks) != n + 1:
        return [
            Violation(
                "shape",
                f"expected {n + 1} classes for {n} levels, found {len(seq.masks)}",
            )
        ]

    expected, problems = _levels(kb, table)
    for i, (got, want) in enumerate(zip(masks[:n], expected)):
        if got != want:
            problems.append(
                Violation(
                    "condition 1",
                    "class does not match the level's supporting worlds",
                    class_index=i,
                )
            )

    for i, (cls, gap) in enumerate(zip(seq.masks, _gaps(kb))):
        total = seq.table.mass(cls)
        if abs(total - gap) > CLASS_WEIGHT_TOLERANCE:
            problems.append(
                Violation(
                    "condition 2",
                    f"class weight totals {total}, expected {gap}",
                    class_index=i,
                )
            )
    return problems


def possibility(seq: PartitionSequence, phi: Formula) -> Fraction:
    """Cumulative weight up to the highest class where ``phi`` holds
    somewhere; zero when it holds nowhere."""
    models = seq.table.mask(phi)
    below = upto = 0
    for cls in seq.masks:
        below |= cls
        if cls & models:
            upto = below
    return seq.table.mass(upto)


def necessity(seq: PartitionSequence, phi: Formula) -> Fraction:
    """Dual measure: 1 minus the possibility of the negation."""
    return 1 - possibility(seq, Not(phi))
