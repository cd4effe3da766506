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
from functools import cached_property
from itertools import accumulate
from typing import Callable, Collection, Iterable, Sequence

from .errors import SemanticError
from .logic import TruthTable, Vocabulary, World, _from_bits, _set_bits
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


class PartitionSequence:
    """An ordered tuple of world classes over one vocabulary.

    Class i is the worlds of ``masks[i]`` in ``table``; ``classes`` lists
    them as ``World`` sets, built on first read. ``provenance`` names the
    knowledge-base item that produced each class ("" for classes fixed by
    the construction itself, such as the first and last). It carries no
    semantics; checkers use it for reporting.

    Sequences are equal when kind, vocabulary, provenance and classes are;
    as for worlds, weights take no part.
    """

    def __init__(self, table: TruthTable, masks: Sequence[int], kind: str, provenance=()):
        if kind not in KINDS:
            raise ValueError(f"unknown sequence kind {kind!r}")
        if not masks:
            raise ValueError("a partition sequence needs at least one class")
        self.table, self.masks, self.kind = table, tuple(masks), kind
        self.provenance = tuple(provenance) or ("",) * len(self.masks)
        if len(self.provenance) != len(self.masks):
            raise ValueError("provenance must name one item per class")

    @classmethod
    def of_classes(
        cls, classes: Sequence[Collection[World]], vocab: Vocabulary, kind: str, provenance=()
    ) -> PartitionSequence:
        """The sequence of ``classes``, over a table of their own that
        lists their worlds class by class, weights included."""
        sizes = list(map(len, classes))
        table = TruthTable(vocab, worlds=[w for c in classes for w in c])
        masks = [((1 << n) - 1) << at for n, at in zip(sizes, accumulate(sizes, initial=0))]
        return cls(table, masks, kind, provenance)

    @property
    def vocab(self) -> Vocabulary:
        return self.table.vocab

    @cached_property
    def classes(self) -> tuple[frozenset[World], ...]:
        return tuple(map(self.table.worlds, self.masks))

    @property
    def last_class(self) -> frozenset[World]:
        return self.table.worlds(self.masks[-1])

    @property
    def all_worlds(self) -> frozenset[World]:
        return frozenset().union(*self.classes)

    def _key(self) -> tuple:
        return self.kind, self.vocab, self.provenance, self.classes

    def __eq__(self, other) -> bool:
        return isinstance(other, PartitionSequence) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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


def _partition(seq: PartitionSequence, table: TruthTable) -> tuple[list[int], list[Violation]]:
    """The class masks of ``seq`` in ``table`` and every violated clause of
    ``seq`` partitioning its worlds, by ``&`` and ``|`` on masks; a world
    outside the table gets a bit past it, and reports build worlds."""
    problems = []
    if len(seq.masks) < 2:
        problems.append(Violation("length", "a partition sequence has at least two classes"))
    foreign: dict[World, int] = {}
    masks, union = [], 0
    for i, own in enumerate(seq.masks):
        at = {}
        for w in seq.table.world_list(own):
            k = table.index(w)
            at[foreign.setdefault(w, table.size + len(foreign)) if k is None else k] = w
        mask = _from_bits(at, table.size + len(foreign))
        for k in sorted(_set_bits(mask & union), key=lambda k: at[k].bits()):
            first = next(j for j, m in enumerate(masks) if m >> k & 1)
            message = f"world {at[k]!r} appears in classes {first} and {i}"
            problems.append(Violation("disjointness", message, class_index=i))
        masks.append(mask)
        union |= mask
    for w in sorted(table.world_list(table.full & ~union), key=World.bits):
        problems.append(Violation("coverage", f"world {w!r} missing from the sequence"))
    for w in sorted(foreign, key=World.bits):
        problems.append(Violation("coverage", f"world {w!r} does not belong to the world set"))
    return masks, problems


def validate_structure(seq: PartitionSequence, all_worlds: Iterable[World]) -> list[Violation]:
    """Every violated clause of ``seq`` partitioning ``all_worlds``: at
    least two classes, pairwise disjoint, covering them exactly."""
    return _partition(seq, TruthTable(seq.vocab, worlds=dict.fromkeys(all_worlds)))[1]


def class_masks(
    seq: PartitionSequence, kind: str, table: TruthTable
) -> tuple[list[int], list[Violation]]:
    """The masks of ``seq``'s classes in ``table``, which a checker of
    ``kind`` sequences compiled its knowledge base to.

    A sequence of another kind, or one that is no partition of the
    table's worlds, has no masks; it gets those violations instead.
    """
    if seq.kind != kind:
        return [], [Violation("kind", f"the sequence is {seq.kind}, expected {kind}")]
    masks, problems = _partition(seq, table)
    return ([], problems) if problems else (masks, [])


def isomorphic(a: PartitionSequence, b: PartitionSequence) -> bool:
    """Whether two sequences induce the same theory: identical last class."""
    if a.kind != b.kind:
        raise SemanticError(f"cannot compare a {a.kind} sequence with a {b.kind} one")
    if a.vocab.names != b.vocab.names:
        raise SemanticError("cannot compare sequences over different vocabularies")
    return a.last_class == b.last_class


def preference_view(seq: PartitionSequence) -> PreferenceChain:
    """Read ``seq`` as a chain of ever more preferred model sets."""
    tails = list(accumulate(reversed(seq.masks), int.__or__))
    return PreferenceChain(models=tuple(map(seq.table.worlds, reversed(tails))))


# ---------------------------------------------------------------------------
# Peel construction
# ---------------------------------------------------------------------------
#
# Default and belief sequences are both built by peeling: split off the
# worlds still remaining that falsify the conclusion of a licensed item,
# then repeat. A formalism states only which items a pool of worlds
# licenses, as (label, prerequisite, conclusion) triples; an item peels
# only while its prerequisite holds throughout the remaining worlds. World
# sets here are truth-table masks (see logic.TruthTable), and so are the
# prerequisite and conclusion of an item: their model masks.

Item = tuple[str, int, int]

# Bound on how many peel orders the sequence builders explore per call.
DEFAULT_ORDER_LIMIT = 1000


def close(worlds: int, items: Iterable[Item]) -> int:
    """``worlds`` peeled by every item whose prerequisite holds throughout
    what remains, until a full pass peels nothing: the operator of both
    formalisms, at the pool that licensed ``items``.

    An item peels at most once, since its conclusion then holds throughout
    every later remainder, so the order of ``items`` does not matter.
    """
    pending = list(items)
    while pending:
        waiting = []
        for item in pending:
            _, prerequisite, conclusion = item
            if worlds & ~prerequisite == 0:
                worlds &= conclusion
            else:
                waiting.append(item)
        if len(waiting) == len(pending):
            break
        pending = waiting
    return worlds


def _ready(items: list[Item], remaining: int) -> list[tuple[str, int]]:
    """Labels and non-empty peels of the items ready on ``remaining``."""
    steps = []
    for label, prerequisite, conclusion in items:
        if remaining & ~prerequisite == 0:
            peel = remaining & ~conclusion
            if peel:
                steps.append((label, peel))
    return steps


def peel_sequences(
    kind: str,
    table: TruthTable,
    first: int,
    rest: int,
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
            results.append(PartitionSequence(table, classes, kind, labels))

    def explore(items, remaining, classes, labels):
        nonlocal budget
        if budget <= 0:
            return
        steps = _ready(items, remaining)
        if not steps:
            budget -= 1
            emit((*classes, remaining), (*labels, ""))
        for label, peel in steps:
            explore(items, remaining & ~peel, (*classes, peel), (*labels, label))

    for items in item_lists:
        count_before = len(results)
        explore(items, rest, (first,), ("",))
        if len(results) == count_before:
            remaining, classes, labels = rest, (first,), ("",)
            while steps := _ready(items, remaining):
                label, peel = steps[0]
                remaining &= ~peel
                classes += (peel,)
                labels += (label,)
            emit((*classes, remaining), (*labels, ""))
    return results


def check_peels(
    classes: list[int],
    licensed: Callable[[int], list[Item]],
    strict: bool,
    noun: str,
) -> list[Violation]:
    """Violations of clauses 2 and 3 in a structurally valid sequence,
    given as the masks of its ``classes``.

    Clause 2: each intermediate class is exactly the remaining worlds
    falsifying the conclusion of an item licensed by the witness pool
    whose prerequisite holds throughout those remaining worlds. The pool
    is the last class, or with ``strict=True`` the class being split off.
    Clause 3: every item the last class licenses whose prerequisite holds
    throughout it has its conclusion hold throughout it as well. ``noun``
    names the items in the messages.
    """
    problems = []
    last = classes[-1]
    by_last = licensed(last)
    remaining = 0
    for cls in classes[1:]:
        remaining |= cls
    for i in range(1, len(classes) - 1):
        cls = classes[i]
        items = licensed(cls) if strict else by_last
        if not any(
            remaining & ~prerequisite == 0 and remaining & ~conclusion == cls
            for _, prerequisite, conclusion in items
        ):
            problems.append(
                Violation(
                    "condition 2",
                    f"no {noun} produces this class from the remaining worlds",
                    class_index=i,
                )
            )
        remaining &= ~cls
    for label, prerequisite, conclusion in by_last:
        if last & ~prerequisite == 0 and last & ~conclusion:
            problems.append(
                Violation(
                    "condition 3",
                    f"licensed {noun}'s conclusion fails somewhere in the last class",
                    class_index=len(classes) - 1,
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
    # bool is an int too, but true is no weight
    if isinstance(raw, (Fraction, str)) or type(raw) is int:
        return Fraction(raw)
    raise ValueError(f"bad weight value: {raw!r}")


def world_from_obj(obj: dict, vocab: Vocabulary) -> World:
    assign = obj["assign"]
    if set(assign) != set(vocab.names):
        raise ValueError("world assignment does not match the vocabulary")
    trues = []
    for name in vocab.names:
        value = assign[name]
        # bool is an int too, but not a truth value written as 0 or 1
        if type(value) is not int or value not in (0, 1):
            raise ValueError(f"assignment of {name!r} is {value!r}, not 0 or 1")
        if value:
            trues.append(name)
    return World(vocab, trues, _parse_weight(obj.get("weight", 1)))


def sequence_from_obj(obj: dict) -> PartitionSequence:
    vocab = Vocabulary(obj["vocab"])
    classes = []
    for listed in obj["classes"]:
        classes.append([world_from_obj(w, vocab) for w in listed])
        if len(set(classes[-1])) != len(classes[-1]):
            raise ValueError("a world is listed twice in one class")
    provenance = tuple(obj.get("provenance") or ())
    return PartitionSequence.of_classes(classes, vocab, obj["kind"], provenance)


def sequence_from_json(text: str) -> PartitionSequence:
    # parse_float hands the raw decimal text to Fraction, keeping 0.3 exact
    obj = json.loads(text, parse_float=Fraction)
    return sequence_from_obj(obj)
