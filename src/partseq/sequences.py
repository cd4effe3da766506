"""The ordered world-partition type shared by all four formalisms, and
the peels that build every sequence and check default and belief ones.

A sequence is a tuple of world classes <W_0, ..., W_l>; later classes are
the more suitable candidates for the real situation. Empty classes are
retained in the tuple so that class indices stay aligned with the
knowledge-base items recorded in ``provenance``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from itertools import accumulate, chain, compress, islice, repeat
from operator import itemgetter
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import SemanticError
from .logic import DEFAULT_WORLD_CAP, _ONE, Formula, TruthTable, Vocabulary, World
from .logic import _from_bits, _set_bits
from .rationals import (
    LiteralBoundError,
    clipped,
    format_fraction,
    integer_text,
    parse_fraction,
    quoted,
    ratio_text,
)

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
    as for worlds, weights take no part. Classes are compared as the
    digits of their worlds, so a dense table builds no ``World`` for it.
    """

    def __init__(self, table: TruthTable, masks: Sequence[int], kind: str, provenance=()):
        if kind not in KINDS:
            raise ValueError(f"unknown sequence kind {quoted(kind)}")
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

    @cached_property
    def _key(self) -> tuple:
        digits = tuple(tuple(world_rows(self.table, mask).digits) for mask in self.masks)
        return self.kind, self.vocab, self.provenance, digits

    def __eq__(self, other) -> bool:
        return isinstance(other, PartitionSequence) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        body = ", ".join(repr(sorted(c, key=World.bits)) for c in self.classes)
        return f"<{self.kind} sequence {body}>"


class PreferenceChain:
    """Cumulative tail unions M_i of a sequence, most preferred last.

    M_0 is the full world set and each M_{i+1} is a subset of M_i; the
    chain reads a partition sequence as a preference relation over models.
    M_i is the worlds of ``masks[i]`` in ``table``; ``models`` lists them
    as ``World`` sets, built on first read.
    """

    def __init__(self, table: TruthTable, masks: Sequence[int]):
        self.table, self.masks = table, tuple(masks)

    @cached_property
    def models(self) -> tuple[frozenset[World], ...]:
        return tuple(map(self.table.worlds, self.masks))


def _partition(seq: PartitionSequence, table: TruthTable) -> tuple[list[int], list[Violation]]:
    """The class masks of ``seq`` in ``table`` and every violated clause of
    ``seq`` partitioning its worlds, by ``&`` and ``|`` on masks; a world
    outside the table gets a bit past it, and reports build worlds.

    When both tables are the dense table of one vocabulary, bit i is
    world i in each, so the sequence's masks are used as they are."""
    problems = []
    if len(seq.masks) < 2:
        problems.append(Violation("length", "a partition sequence has at least two classes"))
    same = seq.table.dense and table.dense and seq.vocab == table.vocab
    foreign: dict[World, int] = {}
    masks, union = [], 0
    for i, own in enumerate(seq.masks):
        if same:
            mask = own
            at = dict(zip(_set_bits(own & union), seq.table.world_list(own & union)))
        else:
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

    A sequence of another kind or over another vocabulary, or one that
    is no partition of the table's worlds, has no masks; it gets those
    violations instead.
    """
    if seq.kind != kind:
        return [], [Violation("kind", f"the sequence is {seq.kind}, expected {kind}")]
    if seq.vocab != table.vocab:
        over, expected = (f"[{', '.join(v.names)}]" for v in (seq.vocab, table.vocab))
        return [], [Violation("vocab", f"the sequence is over {over}, expected {expected}")]
    masks, problems = _partition(seq, table)
    return ([], problems) if problems else (masks, [])


def isomorphic(a: PartitionSequence, b: PartitionSequence) -> bool:
    """Whether two sequences induce the same theory: identical last class."""
    if a.kind != b.kind:
        raise SemanticError(f"cannot compare a {a.kind} sequence with a {b.kind} one")
    if a.vocab.names != b.vocab.names:
        raise SemanticError("cannot compare sequences over different vocabularies")
    return world_rows(a.table, a.masks[-1]).digits == world_rows(b.table, b.masks[-1]).digits


def preference_view(seq: PartitionSequence) -> PreferenceChain:
    """Read ``seq`` as a chain of ever more preferred model sets."""
    tails = list(accumulate(reversed(seq.masks), int.__or__))
    return PreferenceChain(seq.table, reversed(tails))


# ---------------------------------------------------------------------------
# Peel construction
# ---------------------------------------------------------------------------
#
# Every sequence is built by peeling: split off the worlds still remaining
# that falsify a conclusion, then repeat. One ordered peel (peel_in_order)
# builds conditioning, thresholding and the possibility levels; an item
# (label, prerequisite, conclusion) of a default or belief sequence peels
# only while its prerequisite holds throughout the remaining worlds. World
# sets here are truth-table masks (see logic.TruthTable), and so are an
# item's prerequisite and conclusion. Both formalisms compile
# (compile_items) to (conditions, guarded, rest): the distinct condition
# masks, items guarded by bits over them, (need, refuse, item), and the
# worlds left once the first class is split off. A pool believes condition
# j when it holds throughout it, and licenses an item when it believes all
# the item needs and nothing it refuses; the operator closes rest under
# what a pool licenses (operator_value). A rule alpha : M beta / gamma
# refuses the belief ~beta, and its theory leaves the facts' models; a
# premise L a & ~L b -> g needs a and refuses b, with no prerequisite, and
# its premises leave every world. A fixed point closes rest under a guessed
# belief vector and believes it (fixed_points); it is rest cut by the
# conclusions it applies, so search guesses the vectors of those cuts, or
# every vector when there are fewer conditions than conclusions. Its
# sequences are the orders in which its licensed items can peel rest
# (_orders), where items that peel the same worlds at a step are one step.
# Peels lie inside what remains: a & b == a tests a subset; a ^ (a & b) peels.

Item = tuple[str, int, int]
Guarded = tuple[int, int, Item]
Compiled = tuple[tuple[int, ...], tuple[Guarded, ...], int]

# Bound on how many distinct peel orders the sequence builders take per
# call, over all fixed points; read at each call.
DEFAULT_ORDER_LIMIT = 1000


def beliefs(conditions: Sequence[int], pool: int) -> int:
    """The conditions believed at ``pool``: bit j is set when the
    condition of mask ``conditions[j]`` holds throughout ``pool``."""
    believed = 0
    for j, condition in enumerate(conditions):
        if pool & condition == pool:
            believed |= 1 << j
    return believed


def licensed(guarded: Iterable[Guarded], believed: int) -> list[Item]:
    """The items whose guard ``believed`` passes: it holds every condition
    the item needs and none it refuses."""
    return [
        item
        for need, refuse, item in guarded
        if believed & need == need and not believed & refuse
    ]


def close(worlds: int, items: Iterable[Item]) -> int:
    """``worlds`` peeled by every item whose prerequisite holds throughout
    what remains, until a full pass peels nothing.

    An item peels at most once, since its conclusion then holds throughout
    every later remainder, so the order of ``items`` does not matter.
    """
    pending = list(items)
    while pending:
        waiting = []
        for item in pending:
            _, prerequisite, conclusion = item
            if worlds & prerequisite == worlds:
                worlds &= conclusion
            else:
                waiting.append(item)
        if len(waiting) == len(pending):
            break
        pending = waiting
    return worlds


def compile_items(table: TruthTable, items: Iterable[tuple], rest: Formula) -> Compiled:
    """``items`` (label, need, refuse, prerequisite, conclusion) and formula
    ``rest`` over ``table``, in the form above; each distinct mask of a
    formula in need or refuse gets one bit, in order of first use."""
    bit: dict[int, int] = {}
    guarded = []
    for label, need, refuse, prerequisite, conclusion in items:
        guard = [0, 0]
        for side, formulas in enumerate((need, refuse)):
            for phi in formulas:
                guard[side] |= 1 << bit.setdefault(table.mask(phi), len(bit))
        guarded.append((*guard, (label, table.mask(prerequisite), table.mask(conclusion))))
    return tuple(bit), tuple(guarded), table.mask(rest)


def operator_value(compiled: Compiled, pool: int) -> int:
    """The operator of both formalisms at ``pool``: ``rest`` closed under
    the items ``pool`` licenses."""
    conditions, guarded, rest = compiled
    return close(rest, licensed(guarded, beliefs(conditions, pool)))


def _report_order(a: int, b: int) -> int:
    """Fewer worlds first, then the mask holding the lowest world where the two differ."""
    differ = a ^ b
    return a.bit_count() - b.bit_count() or (-1 if a & differ & -differ else int(a != b))


def fixed_points(compiled: Compiled, guesses: Iterable[int]) -> list[int]:
    """``rest`` closed under the items each guessed belief vector licenses,
    where the closure believes exactly that vector: the fixed points among
    ``guesses``, none twice, since a closure believes one vector only;
    smallest first, then by their set bits."""
    conditions, guarded, rest = compiled
    found = []
    for believed in guesses:
        closure = close(rest, licensed(guarded, believed))
        if beliefs(conditions, closure) == believed:
            found.append(closure)
    return sorted(found, key=cmp_to_key(_report_order))


def search(compiled: Compiled) -> list[int]:
    """The :func:`fixed_points` of ``compiled``, in report order. When the
    distinct condition masks are fewer than the distinct conclusion masks,
    every belief vector is guessed. Otherwise the guesses are the vectors
    of ``rest`` and of its nonempty cuts by sets of the conclusions, walked
    depth first with one pool per conclusion: a fixed point is ``rest`` cut
    by the conclusions it applies, so it is a pool and believes its own
    vector. An empty cut believes every condition, which licenses no rule,
    and a premise's closure of that vector is the inconsistent belief set.
    """
    conditions, guarded, rest = compiled
    cuts = list(dict.fromkeys(conclusion for _, _, (_, _, conclusion) in guarded))
    if len(conditions) < len(cuts):
        return fixed_points(compiled, range(1 << len(conditions)))
    guesses: set[int] = set()

    def walk(pool: int, start: int) -> None:
        guesses.add(beliefs(conditions, pool))
        for j in range(start, len(cuts)):
            narrower = pool & cuts[j]
            if narrower != pool and narrower:
                walk(narrower, j + 1)

    walk(rest, 0)
    return fixed_points(compiled, guesses)


def peel_in_order(remaining: int, conclusions: Iterable[int]) -> list[int]:
    """``remaining`` peeled by each conclusion mask in turn: class i is the worlds
    still remaining that falsify conclusion i, kept even when empty; the rest is last."""
    classes = []
    for conclusion in conclusions:
        kept = remaining & conclusion
        classes.append(remaining ^ kept)
        remaining = kept
    return [*classes, remaining]


def _orders(items: list[Item], remaining: int, classes: tuple, labels: tuple) -> Iterator:
    """Each (classes, labels) that ``items`` peel from ``remaining`` after
    ``classes``, depth first in item order. Of the ready items that peel
    the same worlds only the first is walked: after either, the other
    peels nothing and the same worlds remain, so no order is found twice."""
    peels: dict[int, str] = {}
    for label, prerequisite, conclusion in items:
        if remaining & prerequisite == remaining:
            peel = remaining ^ (remaining & conclusion)
            if peel:
                peels.setdefault(peel, label)
    if not peels:
        yield (*classes, remaining), (*labels, "")
    for peel, label in peels.items():
        yield from _orders(items, remaining ^ peel, (*classes, peel), (*labels, label))


def peel_sequences(
    kind: str, table: TruthTable, compiled: Compiled, points: Iterable[int]
) -> list[PartitionSequence]:
    """Sequences peeled for each non-empty fixed point of ``compiled`` in
    ``points``, one per distinct peel order.

    Every sequence opens with the worlds outside ``rest``; the worlds of
    ``rest`` are then peeled by the items the fixed point licenses, in any
    order, until none splits off anything, and what remains closes the
    sequence. The order budget is shared per call: at most
    :data:`DEFAULT_ORDER_LIMIT` sequences over all fixed points together,
    and once it is spent each later fixed point still gets its first
    order, which always peels by the first ready item.
    """
    conditions, guarded, rest = compiled
    results: list[PartitionSequence] = []
    for point in filter(None, points):
        items = licensed(guarded, beliefs(conditions, point))
        orders = _orders(items, rest, (table.full ^ rest,), ("",))
        for classes, labels in islice(orders, max(DEFAULT_ORDER_LIMIT - len(results), 1)):
            results.append(PartitionSequence(table, classes, kind, labels))
    return results


# Per kind: the noun for its items, clause 1's message, and clause 3's
# message for an empty last class, which only a belief sequence must avoid.
_WORDING = {
    "default": ("rule", "first class must hold exactly the worlds falsifying the facts", None),
    "autoepistemic": (
        "premise",
        "the first class must be empty",
        "the last class is empty: no consistent belief set is characterised",
    ),
}


def check_peels(
    kind: str, table: TruthTable, compiled: Compiled, seq: PartitionSequence, strict: bool
) -> list[Violation]:
    """Every violated clause of ``seq`` peeling ``compiled`` over ``table``.

    A sequence of another kind or vocabulary, or one that is no partition
    of the table's worlds, gets only those violations (:func:`class_masks`).
    Clause 1: the first class is exactly the worlds outside ``rest``.
    Clause 2: each intermediate class is exactly the remaining worlds
    falsifying the conclusion of an item licensed by the witness pool
    whose prerequisite holds throughout those remaining worlds. The pool
    is the last class, or with ``strict=True`` the class being split off.
    Clause 3: every item the last class licenses whose prerequisite holds
    throughout it has its conclusion hold throughout it as well.
    """
    classes, problems = class_masks(seq, kind, table)
    if problems:
        return problems
    conditions, guarded, rest = compiled
    noun, first, empty = _WORDING[kind]
    last, end = classes[-1], len(classes) - 1
    if classes[0] != table.full ^ rest:
        problems.append(Violation("condition 1", first, class_index=0))
    if empty and not last:
        problems.append(Violation("condition 3", empty, class_index=end))
    by_last = licensed(guarded, beliefs(conditions, last))
    remaining = table.full ^ classes[0]
    for i in range(1, end):
        cls = classes[i]
        items = licensed(guarded, beliefs(conditions, cls)) if strict else by_last
        if not any(
            remaining & prerequisite == remaining and remaining ^ (remaining & conclusion) == cls
            for _, prerequisite, conclusion in items
        ):
            message = f"no {noun} produces this class from the remaining worlds"
            problems.append(Violation("condition 2", message, class_index=i))
        remaining ^= cls
    for label, prerequisite, conclusion in by_last:
        if last & prerequisite == last and last & conclusion != last:
            message = f"licensed {noun}'s conclusion fails somewhere in the last class"
            problems.append(Violation("condition 3", message, class_index=end, item=label))
    return problems


# ---------------------------------------------------------------------------
# Writing and reading worlds
# ---------------------------------------------------------------------------
#
# Every world set is written from its mask by one row walker, which gives
# each world as the digits of its truth values in vocabulary order and
# its weight; the rows fill a JSON template per world, or a text one.
# Weights are rendered in JSON as plain numbers whenever they have a
# finite decimal expansion (read back exactly via Fraction, no float
# detour) and as "num/den" strings otherwise. Worlds inside a set are in
# digit order, so output bytes are deterministic.


# the truth values 0 and 1 as bytes, to their digits
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class WorldRows(NamedTuple):
    """Worlds as the digits of their truth values in vocabulary order,
    and their weights; ``weights`` is None when every weight is 1.
    ``render_json`` writes them as a list of world objects."""

    vocab: Vocabulary
    digits: list[str]
    weights: list[Fraction] | None


def table_rows(table: TruthTable, mask: int) -> WorldRows:
    """The worlds of ``mask`` in ``table``, in index order. On the dense
    table bit i is the world whose digits are those of i, so index order
    is digit order."""
    found = _set_bits(mask)
    weights = table.weights_at(mask, found)
    if table.dense:
        top = 1 << len(table.vocab)
        return WorldRows(table.vocab, [bin(i | top)[3:] for i in found], weights)
    at, digits = dict(zip(table.vocab.names, range(len(table.vocab)))), []
    for i in found:  # a row of zeros, the true names' places set
        row = bytearray(b"0" * len(at))
        for k in map(at.__getitem__, table._true_names(i)):
            row[k] = 49  # "1"
        digits.append(row.decode())
    return WorldRows(table.vocab, digits, weights)


def world_rows(table: TruthTable, mask: int) -> WorldRows:
    """The worlds of ``mask`` in ``table``, in digit order; of equal
    worlds listed twice the first is kept, as a frozenset keeps it."""
    rows = table_rows(table, mask)
    if table.dense:
        return rows
    if rows.weights is None:
        return WorldRows(rows.vocab, sorted(set(rows.digits)), None)
    first = dict(zip(reversed(rows.digits), reversed(rows.weights)))
    digits = sorted(first)
    return WorldRows(rows.vocab, digits, list(map(first.__getitem__, digits)))


_SIGNS = {"0": "~", "1": ""}


def world_texts(rows: WorldRows) -> Iterator[str]:
    """Each world of ``rows`` as its literals, ``{p, ~q}``, or as ``<{p, ~q}, 1/3>``
    when its weight is not 1; made as they are read, each distinct weight rendered once."""
    lits = "{" + ", ".join(f"%s{name}" for name in rows.vocab.names) + "}"
    texts = (lits % tuple(map(_SIGNS.__getitem__, row)) for row in rows.digits)
    if rows.weights is None:
        return texts
    distinct = {id(w): w for w in rows.weights}  # a Fraction hashes slowly; ids do not
    rendered = {i: "%s" if w == 1 else f"<%s, {format_fraction(w)}>" for i, w in distinct.items()}
    return (rendered[id(w)] % text for text, w in zip(texts, rows.weights))


@lru_cache(maxsize=64)
def _world_template(names: tuple[str, ...], indent: int) -> tuple[str, str]:
    """The JSON text of a world at ``indent`` with a slot for each truth
    value and one for the weight, and the same with the weight 1 filled in."""
    item = " " * indent
    lines = ",".join(f"\n{item}    {json.dumps(name)}: %s" for name in names)
    assign = f"{{{lines}\n{item}  }}" if names else "{}"
    world = f'{item}{{\n{item}  "assign": {assign},\n{item}  "weight": %s\n{item}}}'
    return world, world % (("%s",) * len(names) + ("1",))


def _render_rows(rows: WorldRows, indent: int) -> str:
    """``rows`` as a JSON list at ``indent``, one template fill a world;
    each distinct weight is rendered once."""
    if not rows.digits:
        return "[]"
    world, unit = _world_template(rows.vocab.names, indent + 2)
    if rows.weights is None:
        texts = [unit % tuple(row) for row in rows.digits]
    else:
        rendered: dict[Fraction, str] = {}
        texts = []
        for row, weight in zip(rows.digits, rows.weights):
            text = rendered.get(weight)
            if text is None:
                text = rendered[weight] = render_json(weight)[:-1]
            texts.append(world % (*row, text))
    texts[0] = "[\n" + texts[0]  # the brackets go on the ends: one join makes the list
    texts[-1] += f"\n{' ' * indent}]"
    return ",\n".join(texts)


def _emit(value, indent: int, out: list[str], memo: dict) -> None:
    """Appends the JSON text of ``value`` at ``indent`` to ``out``, in
    pieces. ``memo`` holds, for one document, each dict key and each class
    of a sequence as text: each is rendered once, and the piece appended
    again where it repeats."""
    pad = " " * indent
    if isinstance(value, dict):
        sep = "{\n"
        for k, v in value.items():
            key = memo.get(k)
            if key is None:
                key = memo[k] = json.dumps(k)
            out.append(f"{sep}{pad}  {key}: ")
            _emit(v, indent + 2, out, memo)
            sep = ",\n"
        out.append(f"\n{pad}}}" if value else "{}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            out.append(f"{',' if i else '['}\n{pad}  ")
            _emit(v, indent + 2, out, memo)
        out.append(f"\n{pad}]" if value else "[]")
    elif isinstance(value, PartitionSequence):
        _emit({"kind": value.kind, "vocab": list(value.vocab.names)}, indent, out, memo)
        out[-1] = f',\n{pad}  "classes": '  # in place of the closing brace
        for i, mask in enumerate(value.masks):
            cls = (value.table, mask, indent + 4)
            if cls not in memo:
                memo[cls] = _render_rows(world_rows(value.table, mask), indent + 4)
            out += (f"{',' if i else '['}\n{pad}    ", memo[cls])
        out.append(f'\n{pad}  ],\n{pad}  "provenance": ')
        _emit(list(value.provenance), indent + 2, out, memo)
        out.append(f"\n{pad}}}")
    elif isinstance(value, WorldRows):
        out.append(_render_rows(value, indent))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, Fraction):
        text = format_fraction(value)  # a decimal, or a ratio written as a string
        out.append(json.dumps(text) if "/" in text else text)
    elif isinstance(value, str) or value is None:
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(value) -> str:
    """Deterministic JSON text with exact rational weights. A
    ``PartitionSequence`` inside ``value`` is written as
    ``sequence_to_obj`` of it would be, and ``WorldRows`` as a list of
    ``world_to_obj`` of each world, straight from the rows."""
    out: list[str] = []
    _emit(value, 0, out, {})
    out.append("\n")
    return "".join(out)


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
    return render_json(seq)


def _parse_weight(raw) -> Fraction:
    """The weight ``raw`` names; a string that is no rational, such as "x"
    or "1/0", is quoted clipped, and one refused by a bound names it."""
    # bool is an int too, but true is no weight
    if isinstance(raw, (Fraction, str)) or type(raw) is int:
        try:
            weight = parse_fraction(raw) if type(raw) is str else Fraction(raw)
        except LiteralBoundError:
            raise
        except (ValueError, ZeroDivisionError):
            pass
        else:
            if weight.numerator < 0:
                raise ValueError(f"negative world weight: {clipped(ratio_text(weight))}")
            return weight
    raise ValueError(f"bad weight value: {quoted(raw)}")


def _read_class(listed, vocab: Vocabulary, parsed: dict, at: int) -> tuple[list[bytes], list]:
    """The rows and weights, as written, of class ``at`` of a document,
    checked in bulk, each distinct weight (absent is 1) parsed once into
    ``parsed``; a class that fails a check is walked world by world, to
    raise the first fault met, named by the world's path, and a world
    listed twice by its second listing."""
    names, name_set = vocab.names, vocab._name_set  # type: ignore[attr-defined]
    # itemgetter of one name gives no tuple, and of none is refused
    get = itemgetter(*names) if len(names) > 1 else lambda a: tuple(a[n] for n in names)
    try:
        assigns = list(map(itemgetter("assign"), listed))
        weights = list(map(dict.get, listed, repeat("weight"), repeat(1)))
        values = list(map(get, assigns))
        rows = list(map(bytes, values))
        # each assignment holds every name, so one as long as the names has
        # no other key, but with no names only its type tells an object; bool
        # is an int too, but no truth value and no weight; a Fraction hashes
        # slowly, so weights are told apart by identity first
        if (
            set(map(type, assigns)) <= {dict}
            and set(map(len, assigns)) <= {len(names)}
            and set(map(type, chain.from_iterable(values))) <= {int}
            and not b"".join(rows).translate(None, b"\0\1")
            and set(map(type, weights)) <= {int, Fraction, str}
            and len(set(rows)) == len(rows)
        ):
            for raw in set(dict(zip(map(id, weights), weights)).values()).difference(parsed):
                parsed[raw] = _parse_weight(raw)
            return rows, weights
    except (KeyError, TypeError, ValueError):
        pass
    rows, weights = {}, []  # rows in order, each once
    for j, w in enumerate(listed):
        where = f"classes[{at}][{j}]"
        if type(w) is not dict:
            raise ValueError(f"{where} must be an object")
        if "assign" not in w:
            raise ValueError(f"{where}: missing key 'assign'")
        assign = w["assign"]
        if type(assign) is not dict:
            raise ValueError(f"{where}.assign must be an object")
        if assign.keys() != name_set:
            raise ValueError(f"{where}: world assignment does not match the vocabulary")
        values = tuple(map(assign.__getitem__, names))
        for name, value in zip(names, values):
            if type(value) is not int or value not in (0, 1):
                # an int past the interpreter's digit limit has no repr
                shown = integer_text(value) if type(value) is int else repr(value)
                message = f"assignment of {clipped(name)!r} is {clipped(shown)}, not 0 or 1"
                raise ValueError(f"{where}: {message}")
        weight = w.get("weight", 1)
        try:
            parsed[weight] = _parse_weight(weight)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        row = bytes(values)
        if row in rows:
            raise ValueError(f"{where}: a world is listed twice in one class")
        rows[row] = None
        weights.append(weight)
    return list(rows), weights


def sequence_from_obj(obj: dict) -> PartitionSequence:
    """The sequence of a JSON document, checked a class at a time in bulk
    and raising the first fault in document order (``_read_class``). A
    document over at most ``DEFAULT_WORLD_CAP`` constants that gives each
    world one weight is read onto the dense table of its vocabulary,
    reweighted unless every weight is absent or the integer 1, equal
    weights written differently joining one share; any other onto a
    table that lists its worlds."""
    if type(obj) is not dict:
        raise ValueError("the document must be an object")
    if type(obj["vocab"]) is not list or not set(map(type, obj["vocab"])) <= {str}:
        raise ValueError("vocab must be a list of strings")
    vocab = Vocabulary(obj["vocab"])
    if type(obj["classes"]) is not list:
        raise ValueError("classes must be a list")
    classes, weights, parsed = [], [], {1: _ONE}
    for i, listed in enumerate(obj["classes"]):
        if type(listed) is not list:
            raise ValueError(f"classes[{i}] must be a list")
        rows, raw = _read_class(listed, vocab, parsed, i)
        classes.append(rows)
        weights += raw
    provenance = [] if obj.get("provenance") is None else obj["provenance"]
    if type(provenance) is not list or not all(type(p) is str for p in provenance):
        raise ValueError("provenance must be null or a list of strings")
    if len(vocab) <= DEFAULT_WORLD_CAP:
        size, table = 1 << len(vocab), TruthTable(vocab)
        found = [[int(row.translate(_DIGITS) or b"0", 2) for row in rows] for rows in classes]
        if not (set(map(type, weights)) <= {int} and set(weights) <= {1}):
            # shares are grouped by integer ratio, which hashes faster than a Fraction
            by_id = dict(zip(map(id, weights), weights))
            ratio = {i: parsed[w].as_integer_ratio() for i, w in by_id.items()}
            ratios = list(map(ratio.get, map(id, weights)))
            ratio_at = dict(zip(chain.from_iterable(found), ratios))
            if list(map(ratio_at.get, chain.from_iterable(found))) == ratios:
                shares: dict[tuple[int, int], list[int]] = {}
                for i, r in ratio_at.items():
                    shares.setdefault(r, []).append(i)
                weighed = ((_from_bits(at, size), Fraction(*r)) for r, at in shares.items())
                table = table.reweighted(weighed)
            else:
                table = None  # a world of two weights: read onto a listed table below
        if table is not None:
            masks = [_from_bits(indices, size) for indices in found]
            return PartitionSequence(table, masks, obj["kind"], provenance)
    weight = iter(map(parsed.__getitem__, weights)).__next__
    names = vocab.names
    worlds = [[World(vocab, compress(names, row), weight()) for row in rows] for rows in classes]
    return PartitionSequence.of_classes(worlds, vocab, obj["kind"], provenance)


def sequence_from_json(text: str) -> PartitionSequence:
    """The sequence of a JSON document; too deep a one is refused alike on any interpreter."""
    # parse_float makes one exact Fraction per distinct decimal text; NaN is no JSON
    hooks = {"parse_float": parse_fraction, "parse_constant": _refuse_constant}
    try:
        try:
            obj = json.loads(text, **hooks)
        except json.JSONDecodeError:
            raise
        except ValueError:
            # int() refuses an integer past the interpreter's digit limit: read
            # again with each integer through the bounded reader, a call per
            # integer that other documents are spared; a refused float or
            # constant is refused again
            obj = json.loads(text, parse_int=_parse_int, **hooks)
    except RecursionError:
        raise ValueError("nested too deeply") from None
    try:
        return sequence_from_obj(obj)
    except (KeyError, TypeError, ValueError):
        level, inner = [obj], lambda c: c.values() if type(c) is dict else c
        for _ in range(5):  # the document, its class list, a class, a world, an assignment
            level = [v for c in level if type(c) in (dict, list) for v in inner(c)]
        if any(type(v) in (dict, list) for v in level):
            raise ValueError("nested too deeply") from None
        raise


def _parse_int(text: str) -> int:
    return parse_fraction(text).numerator


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a number")
