"""The ordered world-partition type shared by all four formalisms, and
the peel construction that builds and checks default and belief sequences.

A sequence is a tuple of world classes <W_0, ..., W_l>; later classes are
the more suitable candidates for the real situation. Empty classes are
retained in the tuple so that class indices stay aligned with the
knowledge-base items recorded in ``provenance``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import SemanticError
from .logic import Formula, Vocabulary, World, evaluate, holds_throughout
from .rationals import decimal_digits

KINDS = ("default", "autoepistemic", "conditional", "threshold", "possibility")


@dataclass(frozen=True)
class Violation:
    """One failed clause of a structural or formalism-specific check.

    Violations are data, not faults: checkers collect every one they find
    instead of raising.
    """

    clause: str
    message: str
    class_index: int | None = None
    item: str | None = None

    def __str__(self) -> str:
        where = f" [class {self.class_index}]" if self.class_index is not None else ""
        who = f" ({self.item})" if self.item else ""
        return f"{self.clause}{where}{who}: {self.message}"


@dataclass(frozen=True)
class PartitionSequence:
    """An ordered tuple of world classes over one vocabulary.

    ``provenance`` names the knowledge-base item that produced each class
    ("" for classes fixed by the construction itself, such as the first
    and last). It carries no semantics; checkers use it for reporting.
    """

    classes: tuple[frozenset[World], ...]
    vocab: Vocabulary
    kind: str
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not self.classes:
            raise ValueError("a partition sequence needs at least one class")
        if not self.provenance:
            object.__setattr__(self, "provenance", ("",) * len(self.classes))
        elif len(self.provenance) != len(self.classes):
            raise ValueError("provenance must name one item per class")

    @property
    def last_class(self) -> frozenset[World]:
        return self.classes[-1]

    @property
    def all_worlds(self) -> frozenset[World]:
        return frozenset().union(*self.classes)

    def __repr__(self) -> str:
        body = ", ".join(repr(sorted(c, key=World.bits)) for c in self.classes)
        return f"<{self.kind} sequence {body}>"


@dataclass(frozen=True)
class PreferenceChain:
    """Cumulative tail unions M_i of a sequence, most preferred last.

    M_0 is the full world set and each M_{i+1} is a subset of M_i; the
    chain reads a partition sequence as a preference relation over models.
    """

    models: tuple[frozenset[World], ...]


def validate_structure(
    seq: PartitionSequence, all_worlds: Iterable[World]
) -> list[Violation]:
    """Check that ``seq`` is a genuine partition sequence of ``all_worlds``.

    Returns every violated clause: at least two classes, non-empty classes
    pairwise disjoint, and the union covering ``all_worlds`` exactly.
    """
    problems = []
    if len(seq.classes) < 2:
        problems.append(
            Violation("length", "a partition sequence has at least two classes")
        )
    seen: dict[World, int] = {}
    for i, cls in enumerate(seq.classes):
        for w in cls:
            if w in seen:
                problems.append(
                    Violation(
                        "disjointness",
                        f"world {w!r} appears in classes {seen[w]} and {i}",
                        class_index=i,
                    )
                )
            else:
                seen[w] = i
    target = frozenset(all_worlds)
    union = seq.all_worlds
    for w in sorted(target - union, key=World.bits):
        problems.append(Violation("coverage", f"world {w!r} missing from the sequence"))
    for w in sorted(union - target, key=World.bits):
        problems.append(Violation("coverage", f"world {w!r} does not belong to the world set"))
    return problems


def isomorphic(a: PartitionSequence, b: PartitionSequence) -> bool:
    """Whether two sequences induce the same theory: identical last class."""
    if a.kind != b.kind:
        raise SemanticError(f"cannot compare a {a.kind} sequence with a {b.kind} one")
    if a.vocab.names != b.vocab.names:
        raise SemanticError("cannot compare sequences over different vocabularies")
    return a.last_class == b.last_class


def preference_view(seq: PartitionSequence) -> PreferenceChain:
    """Read ``seq`` as a chain of ever more preferred model sets."""
    tails = []
    tail: frozenset[World] = frozenset()
    for cls in reversed(seq.classes):
        tail = tail | cls
        tails.append(tail)
    return PreferenceChain(models=tuple(reversed(tails)))


# ---------------------------------------------------------------------------
# Peel construction
# ---------------------------------------------------------------------------
#
# Default and belief sequences are both built by peeling: split off the
# worlds still remaining that falsify the conclusion of a licensed item,
# then repeat. A formalism states only which items a pool of worlds
# licenses, as (label, prerequisite, conclusion) triples; an item peels
# only while its prerequisite holds throughout the remaining worlds.

Item = tuple[str, Formula, Formula]


def falsifiers(phi: Formula, worlds: Iterable[World]) -> frozenset[World]:
    """The worlds in ``worlds`` where ``phi`` fails."""
    return frozenset(w for w in worlds if not evaluate(phi, w))


def _ready(
    items: list[Item], remaining: frozenset[World]
) -> list[tuple[str, frozenset[World]]]:
    """Labels and non-empty peels of the items ready on ``remaining``."""
    steps = []
    for label, prerequisite, conclusion in items:
        if holds_throughout(prerequisite, remaining):
            peel = falsifiers(conclusion, remaining)
            if peel:
                steps.append((label, peel))
    return steps


def peel_sequences(
    kind: str,
    vocab: Vocabulary,
    first: frozenset[World],
    rest: frozenset[World],
    item_lists: Iterable[list[Item]],
    order_limit: int,
) -> list[PartitionSequence]:
    """Sequences peeled by each list of items, one per peel order.

    Every sequence opens with the class ``first``; the worlds of ``rest``
    are then peeled by the items of one list, in any order, until none
    splits off anything, and what remains closes the sequence. The order
    budget is shared per call: at most ``order_limit`` finished orders are
    explored over all lists together, and once it is spent each list
    still without a sequence gets one greedy order, always peeling by the
    first ready item. Exact duplicates are dropped.
    """
    results: list[PartitionSequence] = []
    seen: set[tuple] = set()
    budget = order_limit

    def emit(classes, labels):
        if classes not in seen:
            seen.add(classes)
            results.append(PartitionSequence(classes, vocab, kind, labels))

    def explore(items, remaining, classes, labels):
        nonlocal budget
        if budget <= 0:
            return
        steps = _ready(items, remaining)
        if not steps:
            budget -= 1
            emit((*classes, remaining), (*labels, ""))
        for label, peel in steps:
            explore(items, remaining - peel, (*classes, peel), (*labels, label))

    for items in item_lists:
        count_before = len(results)
        explore(items, rest, (first,), ("",))
        if len(results) == count_before:
            remaining, classes, labels = rest, (first,), ("",)
            while steps := _ready(items, remaining):
                label, peel = steps[0]
                remaining -= peel
                classes += (peel,)
                labels += (label,)
            emit((*classes, remaining), (*labels, ""))
    return results


def check_peels(
    seq: PartitionSequence,
    licensed: Callable[[frozenset[World]], list[Item]],
    strict: bool,
    noun: str,
) -> list[Violation]:
    """Violations of clauses 2 and 3 in a structurally valid ``seq``.

    Clause 2: each intermediate class is exactly the remaining worlds
    falsifying the conclusion of an item licensed by the witness pool
    whose prerequisite holds throughout those remaining worlds. The pool
    is the last class, or with ``strict=True`` the class being split off.
    Clause 3: every item the last class licenses whose prerequisite holds
    throughout it has its conclusion hold throughout it as well. ``noun``
    names the items in the messages.
    """
    problems = []
    last = seq.last_class
    n = len(seq.classes)
    by_last = licensed(last)
    remaining = seq.all_worlds - seq.classes[0]
    for i in range(1, n - 1):
        cls = seq.classes[i]
        items = licensed(cls) if strict else by_last
        if not any(
            holds_throughout(prerequisite, remaining)
            and falsifiers(conclusion, remaining) == cls
            for _, prerequisite, conclusion in items
        ):
            problems.append(
                Violation(
                    "condition 2",
                    f"no {noun} produces this class from the remaining worlds",
                    class_index=i,
                )
            )
        remaining -= cls
    for label, prerequisite, conclusion in by_last:
        if not holds_throughout(prerequisite, last):
            continue
        if not holds_throughout(conclusion, last):
            problems.append(
                Violation(
                    "condition 3",
                    f"licensed {noun}'s conclusion fails somewhere in the last class",
                    class_index=n - 1,
                    item=label,
                )
            )
    return problems


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------
#
# Weights are rendered as plain JSON numbers whenever they have a finite
# decimal expansion (read back exactly via Fraction, no float detour) and
# as "num/den" strings otherwise. Worlds inside a class are sorted by
# truth values in vocabulary order, so output bytes are deterministic.


def _render(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(k)}: {_render(v, indent + 2)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [f"{pad}  {_render(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        decimal = decimal_digits(value)
        if decimal is not None:
            return decimal
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if isinstance(value, str) or value is None:
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(value) -> str:
    """Deterministic JSON text with exact rational weights."""
    return _render(value, 0) + "\n"


def world_to_obj(world: World) -> dict:
    assign = {name: (1 if name in world.true_names else 0) for name in world.vocab.names}
    return {"assign": assign, "weight": world.weight}


def sequence_to_obj(seq: PartitionSequence) -> dict:
    return {
        "kind": seq.kind,
        "vocab": list(seq.vocab.names),
        "classes": [
            [world_to_obj(w) for w in sorted(cls, key=World.bits)] for cls in seq.classes
        ],
        "provenance": list(seq.provenance),
    }


def sequence_to_json(seq: PartitionSequence) -> str:
    return render_json(sequence_to_obj(seq))


def _parse_weight(raw) -> Fraction:
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        return Fraction(raw)
    raise ValueError(f"bad weight value: {raw!r}")


def world_from_obj(obj: dict, vocab: Vocabulary) -> World:
    assign = obj["assign"]
    if set(assign) != set(vocab.names):
        raise ValueError("world assignment does not match the vocabulary")
    trues = [name for name in vocab.names if assign[name] == 1]
    return World(vocab, trues, _parse_weight(obj.get("weight", 1)))


def sequence_from_obj(obj: dict) -> PartitionSequence:
    vocab = Vocabulary(obj["vocab"])
    classes = tuple(
        frozenset(world_from_obj(w, vocab) for w in cls) for cls in obj["classes"]
    )
    provenance = tuple(obj.get("provenance") or ())
    return PartitionSequence(classes, vocab, obj["kind"], provenance)


def sequence_from_json(text: str) -> PartitionSequence:
    # parse_float hands the raw decimal text to Fraction, keeping 0.3 exact
    obj = json.loads(text, parse_float=Fraction)
    return sequence_from_obj(obj)
