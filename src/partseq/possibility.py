"""Possibility theory: graded statement sets, their world sequences, and
the possibility / necessity measures read off them.

A base assigns possibility values to sets of formulas. Its sequence is
one ordered peel by increasing possibility: class i collects the
supporters of the level-(i+1) formulas not already placed, weighing the
gap between consecutive possibility values. The possibility of a
formula is then the cumulative weight up to the highest class where it
holds somewhere; necessity is the dual through negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .logic import Formula, Not, TruthTable, Vocabulary, format_formula
from .rationals import clipped, ratio_text
from .sequences import PartitionSequence, Violation, class_masks, peel_in_order


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
                shown = clipped(ratio_text(Fraction(value)))
                raise ValueError(f"possibility value {shown} outside [0, 1]")
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

    Class i peels off the still-unplaced supporters of the level-(i+1)
    formulas. A formula with no supporter in its class is an axiom
    violation unless its stated possibility is zero (an impossible formula
    may well have possibility zero, but a positive value needs a witness).
    """
    supports = (reduce(int.__or__, map(table.mask, formulas)) for formulas, _ in kb.levels)
    classes = peel_in_order(table.full, (table.full & ~support for support in supports))
    problems = [
        Violation(
            "condition 1",
            f"no world left can support it at possibility {ratio_text(value)}",
            item=format_formula(phi),
        )
        for (formulas, value), cls in zip(kb.levels, classes)
        for phi in sorted(formulas, key=format_formula)
        if value > 0 and not cls & table.mask(phi)
    ]
    return classes, problems


def _gaps(kb: PossibilisticKB) -> list[Fraction]:
    """The weight each class must total: the steps between consecutive
    possibility values, from 0 up to 1."""
    values = (Fraction(0),) + kb.values + (Fraction(1),)
    return [high - low for low, high in zip(values, values[1:])]


def build_poss_sequence(kb: PossibilisticKB) -> PartitionSequence | InconsistencyReport:
    """The possibility sequence of ``kb``, or why there is none.

    Classes are built per level in increasing possibility order, the final
    class taking the remaining worlds. Each class's weight gap is split
    uniformly over its worlds; any split meeting the totals would do, the
    uniform one keeps the builder deterministic.
    """
    table = TruthTable(kb.vocab)
    classes, problems = _levels(kb, table)
    gaps = _gaps(kb)
    if not classes[-1] and gaps[-1] > 0:
        problems.append(
            Violation(
                "condition 2",
                f"no worlds remain for the top class yet weight {ratio_text(gaps[-1])} "
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
) -> list[Violation]:
    """Every violated clause of the possibility-sequence conditions.

    Class memberships must match the level construction exactly; weights
    inside a class may be distributed any way whose total equals the
    level's gap exactly. A sequence of another kind or vocabulary gets a
    single ``kind`` or ``vocab`` violation.
    """
    table = TruthTable(kb.vocab)
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
        if total != gap:
            problems.append(
                Violation(
                    "condition 2",
                    f"class weight totals {ratio_text(total)}, expected {ratio_text(gap)}",
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
