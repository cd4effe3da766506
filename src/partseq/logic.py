"""Finite propositional language: formulas, worlds, valuation, entailment.

Everything here is immutable and purely functional, so values can be
shared freely across threads. Theories are never materialised as formula
sets; a deductively closed theory is represented by the set of worlds
satisfying it, which is exact over a finite vocabulary.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import lcm
from typing import Iterable, Iterator

from .errors import ParseError, ResourceLimitError, SemanticError
from .rationals import Rational, as_fraction, clipped, ratio_text

# Exhaustive world enumeration is O(2^n); this is the practical desk-scale
# ceiling. The dense TruthTable, which every enumerating operation builds,
# checks it before allocating anything.
DEFAULT_WORLD_CAP = 20

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NAME = r"(?!(?:true|false)\b)[A-Za-z_][A-Za-z0-9_]*"  # a name, not a reserved literal
_NAMES_RE = re.compile(rf"{_NAME}(?: {_NAME})*\Z")

# the weight of a world left unweighted, and of one in no share, shared:
# a Fraction is slow to make
_ONE = Fraction(1)
_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Vocabulary and worlds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocabulary:
    """An ordered tuple of distinct propositional constant names.

    The order is fixed at creation; world enumeration and serialisation
    both depend on it.
    """

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        name_set, joined = frozenset(names), " ".join(names)
        # one match over the names joined by spaces checks them all, a name
        # with a space in it showing as one word too many; only a fault
        # walks them one at a time, to name the first
        words = joined.count(" ") + 1
        if names and not (_NAMES_RE.match(joined) and words == len(names) == len(name_set)):
            seen = set()
            for name in names:
                if not _NAME_RE.match(name):
                    raise ValueError(f"bad constant name: {name!r}")
                if name in ("true", "false"):
                    raise ValueError(f"{name!r} is a reserved literal")
                if name in seen:
                    raise ValueError(f"duplicate constant name: {name!r}")
                seen.add(name)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_name_set", name_set)
        object.__setattr__(self, "_hash", hash(names))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __contains__(self, name: str) -> bool:
        return name in self._name_set  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __repr__(self) -> str:
        return f"Vocabulary({list(self.names)!r})"


class World:
    """One interpretation of the vocabulary, with an optional weight.

    Two worlds are equal when they assign the same truth values over the
    same vocabulary; the weight is an annotation (the value a weight
    function gives this world) and does not take part in identity. The
    weight defaults to 1, the convention for purely qualitative settings.
    """

    __slots__ = ("vocab", "true_names", "weight", "_hash")

    def __init__(self, vocab: Vocabulary, true_names: Iterable[str], weight: Rational = _ONE):
        self.vocab = vocab
        self.true_names = frozenset(true_names)
        if not self.true_names <= vocab._name_set:  # type: ignore[attr-defined]
            unknown = self.true_names - vocab._name_set  # type: ignore[attr-defined]
            raise SemanticError(f"constants not in vocabulary: {sorted(unknown)}")
        self.weight = as_fraction(weight)
        if self.weight.numerator < 0:
            raise ValueError(f"negative world weight: {clipped(ratio_text(self.weight))}")
        self._hash = hash((vocab, self.true_names))

    @classmethod
    def _trusted(cls, vocab: Vocabulary, true_names: frozenset[str], weight: Fraction) -> World:
        """A world from parts already checked: names within ``vocab`` and
        a non-negative ``Fraction`` weight."""
        world = object.__new__(cls)
        world.vocab, world.true_names, world.weight = vocab, true_names, weight
        world._hash = hash((vocab, true_names))
        return world

    def truth(self, name: str) -> bool:
        if name not in self.vocab:
            raise SemanticError(f"unknown constant: {name!r}")
        return name in self.true_names

    def bits(self) -> tuple[int, ...]:
        """Truth values in vocabulary order; also the deterministic sort key."""
        return tuple(1 if n in self.true_names else 0 for n in self.vocab.names)

    def reweighted(self, weight: Rational) -> "World":
        return World(self.vocab, self.true_names, weight)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, World)
            and self.vocab == other.vocab
            and self.true_names == other.true_names
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        lits = [n if n in self.true_names else "~" + n for n in self.vocab.names]
        inner = "{" + ", ".join(lits) + "}"
        if self.weight != 1:
            return f"<{inner}, {self.weight}>"
        return inner


def enumerate_worlds(vocab: Vocabulary) -> list[World]:
    """All 2^n interpretations of ``vocab``, each with weight 1.

    These are the worlds of the vocabulary's truth table in index order:
    binary counting over the vocabulary order (first name most
    significant), so deterministic and duplicate-free.
    """
    table = TruthTable(vocab)
    return table.world_list(table.full)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class of the propositional syntax tree. Nodes are frozen."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Const(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


TRUE = Top()
FALSE = Bottom()


def atoms(phi: Formula) -> frozenset[str]:
    """Constant names mentioned in ``phi``."""
    match phi:
        case Const(name):
            return frozenset((name,))
        case Not(sub):
            return atoms(sub)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return atoms(l) | atoms(r)
        case _:
            return frozenset()


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Fold a formula collection into one conjunction (Top when empty).

    A set of facts and the single conjunction of its members are used
    interchangeably throughout. Neighbours are paired level by level, so
    the depth grows with the log of the count and long lists stay shallow.
    """
    parts = list(formulas) or [TRUE]
    while len(parts) > 1:
        pairs = [parts[i : i + 2] for i in range(0, len(parts), 2)]
        parts = [And(*pair) if len(pair) == 2 else pair[0] for pair in pairs]
    return parts[0]


def evaluate(phi: Formula, world: World) -> bool:
    """Standard truth-functional valuation of ``phi`` at ``world``."""
    match phi:
        case Top():
            return True
        case Bottom():
            return False
        case Const(name):
            return world.truth(name)
        case Not(sub):
            return not evaluate(sub, world)
        case And(l, r):
            return evaluate(l, world) and evaluate(r, world)
        case Or(l, r):
            return evaluate(l, world) or evaluate(r, world)
        case Implies(l, r):
            return (not evaluate(l, world)) or evaluate(r, world)
        case Iff(l, r):
            return evaluate(l, world) == evaluate(r, world)
        case _:
            raise SemanticError(f"not a formula: {phi!r}")


def models(phi: Formula, worlds: Iterable[World]) -> frozenset[World]:
    """The subset of ``worlds`` satisfying ``phi``."""
    return frozenset(w for w in worlds if evaluate(phi, w))


def entails(
    premises: Iterable[Formula],
    phi: Formula,
    vocab: Vocabulary,
) -> bool:
    """Semantic entailment by exhaustive model checking.

    Sound and complete over the finite vocabulary: true iff every world
    satisfying all premises satisfies ``phi``.
    """
    table = TruthTable(vocab)
    return table.mask(conjoin(premises)) & ~table.mask(phi) == 0


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------
#
# A world set is an int whose bit i stands for world i of a truth table.
# Set operations and the tests on world sets become bit operations: S & m
# are the models of phi in S, S & ~m == 0 says phi holds throughout S and
# S & m != 0 that it is satisfiable in S, where m is phi's model mask.

# digits of a world index in base 2, as the bytes 0 and 1 that compress reads
_BITS = bytes.maketrans(b"01", b"\0\1")


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending, in linear time."""
    digits = bin(mask)[:1:-1]  # least significant first, without "0b"
    found = []
    i = digits.find("1")
    while i >= 0:
        found.append(i)
        i = digits.find("1", i + 1)
    return found


def _from_bits(found: Iterable[int], size: int) -> int:
    """The mask of ``size`` bits with the bits ``found`` set."""
    bits = bytearray((size + 7) // 8)
    for i in found:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


class WorldSet(frozenset):
    """A ``frozenset`` of the worlds of ``mask`` in a dense table over
    ``vocab``, which :meth:`TruthTable.mask_of` reads back by its mask.
    Set operations, copies and pickles give a plain ``frozenset``."""

    __slots__ = ("vocab", "mask")

    def __reduce__(self):
        return frozenset, (tuple(self),)

    def __repr__(self) -> str:
        return repr(frozenset(self))


class TruthTable:
    """Formulas compiled to their model masks over one list of worlds.

    The dense form, ``TruthTable(vocab)``, lists all 2^n worlds of the
    vocabulary in the order of :func:`enumerate_worlds`, each built on
    first use; it refuses a vocabulary of more than ``DEFAULT_WORLD_CAP``
    constants. The listed form, ``TruthTable(vocab, worlds=...)``, lists
    the given worlds in the given order, and :meth:`listed` lists worlds
    that it builds only when one is read. A listed table is the mask of
    each constant over its worlds, so it has no cap: a lottery over 2000
    constants has only 2000 worlds. ``shares`` holds the weights:
    disjoint ``(mask, weight)`` pairs, one per distinct weight, a world in
    no mask weighing 0; None stands for every weight 1.

    Meant to live for one call, for which it memoises the masks it
    compiles, the worlds it builds and, on a dense table with no shares
    (every weight 1), each world set as a :class:`WorldSet`, which keeps
    its mask; there :meth:`mask_of` keeps each ``WorldSet`` handed to it,
    so an operator whose value is its argument hands back the caller's
    own set and builds no world. A knowledge base keeps masks only
    (``DefaultTheory.compiled``), never a table, so a call's worlds go
    when it returns.
    """

    def __init__(self, vocab: Vocabulary, worlds: Iterable[World] | None = None):
        self.vocab = vocab
        self.dense = worlds is None
        self.shares: tuple[tuple[int, Fraction], ...] | None = None
        if self.dense:
            if len(vocab) > DEFAULT_WORLD_CAP:
                raise ResourceLimitError(
                    f"vocabulary has {len(vocab)} constants; exhaustive world "
                    f"enumeration is capped at {DEFAULT_WORLD_CAP}"
                )
            self._worlds: dict[int, World] = {}
            self.size = 1 << len(vocab)
        else:
            self._worlds = dict(enumerate(worlds))
            self.size = len(self._worlds)
            self._read_worlds()
        self.full = (1 << self.size) - 1
        self._masks: dict[Formula, int] = {}
        self._sets: dict[int, WorldSet] = {}

    @classmethod
    def listed(cls, vocab: Vocabulary, size: int, atom, true_names, shares) -> TruthTable:
        """The listed table of ``size`` worlds where constant ``name``
        holds at the worlds of the mask ``atom(name)``, and world i makes
        the constants ``true_names(i)`` true, weighed by ``shares``."""
        table = cls(vocab, worlds=())
        table.size, table.full, table.shares = size, (1 << size) - 1, shares
        table._atom_of, table._true_names = atom, true_names
        return table

    def _read_worlds(self) -> None:
        """Each constant's worlds, each weight's and each world's true
        names, in one pass over the listed worlds; weights are grouped by
        their integer ratio, which hashes faster than a ``Fraction``."""
        atoms, by_ratio = defaultdict(list), defaultdict(list)
        for i, w in self._worlds.items():
            by_ratio[w.weight.as_integer_ratio()].append(i)
            for name in w.true_names:
                atoms[name].append(i)
        size, worlds = self.size, self._worlds
        self._atom_of = lambda name: _from_bits(atoms.get(name, ()), size)
        self._true_names = lambda i: worlds[i].true_names
        if by_ratio.keys() - {(1, 1)}:
            self.shares = tuple(
                (_from_bits(found, size), worlds[found[0]].weight) for found in by_ratio.values()
            )

    def _atom(self, name: str) -> int:
        if name not in self.vocab:
            raise SemanticError(f"unknown constant: {name!r}")
        if not self.dense:
            return self._atom_of(name)
        # the name's bit in a world index has weight 2^b; the mask repeats
        # 2^b clear bits then 2^b set ones, doubled up to the full width
        half = 1 << (len(self.vocab) - 1 - self.vocab.names.index(name))
        mask = ((1 << half) - 1) << half
        width = 2 * half
        while width < self.size:
            mask |= mask << width
            width *= 2
        return mask

    def mask(self, phi: Formula) -> int:
        """The worlds of the table satisfying ``phi``."""
        m = self._masks.get(phi)
        if m is None:
            m = self._masks[phi] = self._compile(phi)
        return m

    def _compile(self, phi: Formula) -> int:
        match phi:
            case Top():
                return self.full
            case Bottom():
                return 0
            case Const(name):
                return self._atom(name)
            case Not(sub):
                return self.full ^ self.mask(sub)
            case And(l, r):
                return self.mask(l) & self.mask(r)
            case Or(l, r):
                return self.mask(l) | self.mask(r)
            case Implies(l, r):
                return (self.full ^ self.mask(l)) | self.mask(r)
            case Iff(l, r):
                return self.full ^ self.mask(l) ^ self.mask(r)
            case _:
                raise SemanticError(f"not a formula: {phi!r}")

    @cached_property
    def _listed_at(self) -> dict[World, int]:
        return {w: i for i, w in enumerate(self.world_list(self.full))}

    def index(self, world: World) -> int | None:
        """The bit of ``world`` in the table, or None if it is not listed."""
        if not self.dense:
            return self._listed_at.get(world)
        if world.vocab is not self.vocab and world.vocab != self.vocab:
            return None
        i = 0
        for name in self.vocab.names:
            i = (i << 1) | (name in world.true_names)
        return i

    def mask_of(self, worlds: Iterable[World]) -> int:
        """The mask of ``worlds``, refusing one the table does not list.
        A dense table reads a :class:`WorldSet` of its vocabulary by its
        mask and, with no shares, keeps it, so :meth:`worlds` hands the
        caller's own set back; any other set is indexed world by world."""
        if self.dense and isinstance(worlds, WorldSet) and worlds.vocab == self.vocab:
            if self.shares is None:
                self._sets.setdefault(worlds.mask, worlds)
            return worlds.mask
        found = []
        for w in worlds:
            i = self.index(w)
            if i is None:
                raise SemanticError(f"world {w!r} is not a world of {self.vocab!r}")
            found.append(i)
        return _from_bits(found, self.size)

    def weights_at(self, mask: int, found: list[int]) -> list[Fraction] | None:
        """The weight of each world of ``found``, some set bits of
        ``mask``, read from the share that holds it; None when every
        weight is 1."""
        if self.shares is None:
            return None
        weight_of: dict[int, Fraction] = {}
        for held, q in self.shares:
            if mask & ~held == 0:  # one share holds every world of mask
                return [q] * len(found)
            weight_of.update(dict.fromkeys(_set_bits(mask & held), q))
        return list(map(weight_of.get, found, repeat(_ZERO)))

    def _built(self, found: list[int], weights) -> dict[int, World]:
        """The world at each index of ``found``, with its weight. A dense
        index's digits are its truth values, and a listed table's worlds
        name their constants; either way those lie in the vocabulary, and
        the weights were checked when they were set, so no world repeats
        the checks of ``World.__init__``."""
        vocab, names, trusted = self.vocab, self.vocab.names, World._trusted
        weights = repeat(_ONE) if weights is None else weights
        built = {}
        if self.dense:
            digits = f"0{len(vocab)}b"
            for i, q in zip(found, weights):
                true_names = frozenset(compress(names, format(i, digits).encode().translate(_BITS)))
                built[i] = trusted(vocab, true_names, q)
        else:
            for i, q in zip(found, weights):
                built[i] = trusted(vocab, frozenset(self._true_names(i)), q)
        return built

    def world_list(self, mask: int) -> list[World]:
        """The worlds of ``mask`` in index order."""
        found = _set_bits(mask)
        built = self._worlds
        missing = [i for i in found if i not in built]
        if missing:
            built.update(self._built(missing, self.weights_at(mask, missing)))
        return list(map(built.__getitem__, found))

    def worlds(self, mask: int) -> frozenset[World]:
        """The worlds of ``mask``; on a dense table with no shares, its
        :class:`WorldSet`, built once."""
        if not self.dense or self.shares is not None:
            return frozenset(self.world_list(mask))
        found = self._sets.get(mask)
        if found is None:
            found = self._sets[mask] = WorldSet(self.world_list(mask))
            found.vocab, found.mask = self.vocab, mask
        return found

    def reweighted(self, shares: Iterable[tuple[int, Rational]]) -> TruthTable:
        """This dense table with each world weighing the share of the mask
        in ``shares`` that holds it, and 0 when no mask does; masks of
        equal weight are joined, and masks that overlap are refused, since
        summed shares would count their worlds twice. The masks compiled
        so far carry over."""
        by_value: dict[Fraction, int] = {}
        union = 0
        for mask, share in shares:
            share = as_fraction(share)
            if share < 0:
                raise ValueError(f"negative world weight: {clipped(ratio_text(share))}")
            if mask & union:
                raise ValueError("reweighted masks overlap")
            union |= mask
            by_value[share] = by_value.get(share, 0) | mask
        table = TruthTable(self.vocab)
        table.shares, table._masks = tuple((m, q) for q, m in by_value.items()), dict(self._masks)
        return table

    @cached_property
    def _numerators(self) -> tuple[list[tuple[int, int]], int]:
        """Each share's mask and its weight as an integer over the shares'
        common denominator, and that denominator: 1 with no shares."""
        if self.shares is None:
            return [], 1
        den = lcm(*(q.denominator for _, q in self.shares))
        return [(held, q.numerator * (den // q.denominator)) for held, q in self.shares], den

    def weight(self, mask: int) -> int:
        """The total weight of the worlds of ``mask`` as an integer over the
        shares' common denominator: each share's numerator times the count
        of its worlds in ``mask``, and with no shares the count itself."""
        if self.shares is None:
            return mask.bit_count()
        return sum(num * (mask & held).bit_count() for held, num in self._numerators[0])

    def mass(self, mask: int) -> Fraction:
        """The total weight of the worlds of ``mask``, :meth:`weight` over
        the shares' common denominator."""
        return Fraction(self.weight(mask), self._numerators[1])


# ---------------------------------------------------------------------------
# Modal premises and kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModalFormula:
    """A belief-conditional premise  L a & ~L b1 & ... & ~L bn -> g.

    ``alpha`` absent stands for an always-believed antecedent; the
    non-modal conclusion ``gamma`` is always present. All components are
    plain propositional formulas (no nesting of the belief operator).
    """

    gamma: Formula
    alpha: Formula | None = None
    betas: tuple[Formula, ...] = ()

    def __str__(self) -> str:
        parts = []
        if self.alpha is not None:
            parts.append(f"L {_modal_operand(self.alpha)}")
        parts.extend(f"~L {_modal_operand(b)}" for b in self.betas)
        if not parts:
            return format_formula(self.gamma)
        return " & ".join(parts) + " -> " + format_formula(self.gamma)


def _modal_operand(phi: Formula) -> str:
    text = format_formula(phi)
    if isinstance(phi, (Const, Top, Bottom, Not)):
        return text
    return f"({text})"


@dataclass(frozen=True)
class Kernel:
    """A deductively closed non-modal theory, held as its model set.

    The empty model set is the inconsistent theory (it contains every
    formula); consistent kernels are non-empty.
    """

    worlds: frozenset[World]
    vocab: Vocabulary

    @property
    def is_consistent(self) -> bool:
        return bool(self.worlds)

    def __repr__(self) -> str:
        return f"Kernel({sorted(self.worlds, key=World.bits)!r})"


# ---------------------------------------------------------------------------
# Concrete formula syntax
# ---------------------------------------------------------------------------
#
#   identifiers  [a-zA-Z_][a-zA-Z0-9_]*      literals  true false
#   operators    ~  &  |  ->  <->            parentheses
#
# Precedence high to low: ~, &, |, -> (right-associative), <->.
# Whitespace is insignificant; formulas never span lines in the KB formats.

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<not>~)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<lp>\()
      | (?P<rp>\))
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str, line: int = 1, column: int = 1) -> list[Token]:
    """Split ``text`` into formula tokens, tracking 1-based positions.

    ``line``/``column`` locate the first character of ``text`` inside a
    larger document so errors point at the original source.
    """
    tokens = []
    pos = 0
    cur_line, cur_col = line, column
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", cur_line, cur_col)
        kind = m.lastgroup or ""
        lexeme = m.group()
        if kind != "ws":
            tokens.append(Token(kind, lexeme, cur_line, cur_col))
        newlines = lexeme.count("\n")
        if newlines:
            cur_line += newlines
            cur_col = len(lexeme) - lexeme.rfind("\n")
        else:
            cur_col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", cur_line, cur_col))
    return tokens


# Deepest formula the parser accepts, counting connectives and nested
# parentheses. Valuation, printing and hashing all recurse once per level,
# so the bound keeps them well inside Python's recursion limit.
MAX_FORMULA_DEPTH = 200

# binary connectives by their text: (precedence, node), tighter binds higher;
# -> chains to the right, the other connectives to the left
_BINARY = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And)}
_SYMBOLS = {make: (text, prec) for text, (prec, make) in _BINARY.items()}


class _FormulaParser:
    def __init__(self, tokens: list[Token], vocab: Vocabulary | None):
        self.tokens = tokens
        self.pos = 0
        self.vocab = vocab
        self.level = 0  # expressions open around the parser: parentheses, operands

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expected(self, what: str) -> ParseError:
        tok = self.peek()
        got = tok.text or "end of input"
        return ParseError(f"expected {what}, found {got!r}", tok.line, tok.column)

    def within_limit(self, depth: int, tok: Token) -> int:
        if depth > MAX_FORMULA_DEPTH:
            raise ParseError(
                f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", tok.line, tok.column
            )
        return depth

    def parse(self) -> Formula:
        phi, _ = self.expr(1)
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.line, tok.column)
        return phi

    def expr(self, min_prec: int) -> tuple[Formula, int]:
        """The formula ahead whose connectives bind at ``min_prec`` or
        tighter, and its depth (precedence climbing)."""
        self.level = self.within_limit(self.level + 1, self.peek())
        phi, depth = self.unary()
        while (op := _BINARY.get(self.peek().text)) and op[0] >= min_prec:
            prec, make = op
            tok = self.take()
            rhs, rhs_depth = self.expr(prec if make is Implies else prec + 1)
            phi, depth = make(phi, rhs), self.within_limit(1 + max(depth, rhs_depth), tok)
        self.level -= 1
        return phi, depth

    def unary(self) -> tuple[Formula, int]:
        negations = []
        while self.peek().kind == "not":
            negations.append(self.take())
        tok = self.peek()
        if tok.kind == "name":
            phi, depth = self.constant(tok), 0
        elif tok.kind == "lp":
            self.take()
            phi, depth = self.expr(1)
            if self.peek().kind != "rp":
                raise self.expected("')'")
        else:
            raise self.expected("a formula")
        self.take()  # the constant or the closing parenthesis
        for neg in reversed(negations):
            phi, depth = Not(phi), self.within_limit(depth + 1, neg)
        return phi, depth

    def constant(self, tok: Token) -> Formula:
        if tok.text == "true":
            return TRUE
        if tok.text == "false":
            return FALSE
        if self.vocab is not None and tok.text not in self.vocab:
            raise ParseError(f"unknown constant {tok.text!r}", tok.line, tok.column)
        return Const(tok.text)


def parse_formula(
    text: str,
    vocab: Vocabulary | None = None,
    line: int = 1,
    column: int = 1,
) -> Formula:
    """Parse concrete syntax into a Formula.

    With ``vocab`` given, constants outside it are rejected at the parse
    stage (with a location); without it any identifier is accepted.
    """
    return parse_tokens(tokenize(text, line, column), vocab)


def parse_tokens(tokens: list[Token], vocab: Vocabulary | None = None) -> Formula:
    return _FormulaParser(tokens, vocab).parse()


def format_formula(phi: Formula) -> str:
    """Concrete syntax for ``phi``, parenthesised only where required.

    ``parse_formula(format_formula(phi))`` reproduces ``phi`` exactly.
    """
    return _fmt(phi, 0)


# min_prec is the lowest operator precedence printable without parens in
# the current position; the operand on the side a connective does not
# chain to needs one level tighter.
def _fmt(node: Formula, min_prec: int) -> str:
    match node:
        case Top():
            return "true"
        case Bottom():
            return "false"
        case Const(name):
            return name
        case Not(sub):
            text, prec = "~" + _fmt(sub, 5), 5
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            symbol, prec = _SYMBOLS[type(node)]
            left, right = (prec + 1, prec) if type(node) is Implies else (prec, prec + 1)
            text = f"{_fmt(l, left)} {symbol} {_fmt(r, right)}"
        case _:
            raise SemanticError(f"not a formula: {node!r}")
    return f"({text})" if prec < min_prec else text
