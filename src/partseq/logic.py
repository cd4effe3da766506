"""Finite propositional language: formulas, worlds, valuation, entailment.

Everything here is immutable and purely functional, so values can be
shared freely across threads. Theories are never materialised as formula
sets; a deductively closed theory is represented by the set of worlds
satisfying it, which is exact over a finite vocabulary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from typing import Iterable, Iterator

from .errors import ParseError, ResourceLimitError, SemanticError
from .rationals import Rational, as_fraction

# Exhaustive world enumeration is O(2^n); this is the practical desk-scale
# ceiling. Every enumerating operation takes it as an overridable argument.
DEFAULT_WORLD_CAP = 20

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# the weight of a world left unweighted, shared: Fraction(1) is slow to make
_ONE = Fraction(1)


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
        object.__setattr__(self, "names", tuple(names))
        seen = set()
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad constant name: {name!r}")
            if name in ("true", "false"):
                raise ValueError(f"{name!r} is a reserved literal")
            if name in seen:
                raise ValueError(f"duplicate constant name: {name!r}")
            seen.add(name)
        object.__setattr__(self, "_name_set", frozenset(self.names))
        object.__setattr__(self, "_hash", hash(self.names))

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
            raise ValueError(f"negative world weight: {self.weight}")
        self._hash = hash((vocab, self.true_names))

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


def _check_cap(vocab: Vocabulary, max_names: int) -> None:
    if len(vocab) > max_names:
        raise ResourceLimitError(
            f"vocabulary has {len(vocab)} constants; exhaustive world "
            f"enumeration is capped at {max_names}"
        )


def enumerate_worlds(vocab: Vocabulary, max_names: int = DEFAULT_WORLD_CAP) -> list[World]:
    """All 2^n interpretations of ``vocab``, each with weight 1.

    These are the worlds of the vocabulary's truth table in index order:
    binary counting over the vocabulary order (first name most
    significant), so deterministic and duplicate-free.
    """
    table = TruthTable(vocab, max_names)
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
    max_names: int = DEFAULT_WORLD_CAP,
) -> bool:
    """Semantic entailment by exhaustive model checking.

    Sound and complete over the finite vocabulary: true iff every world
    satisfying all premises satisfies ``phi``.
    """
    table = TruthTable(vocab, max_names)
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


class TruthTable:
    """Formulas compiled to their model masks over one list of worlds.

    The dense form, ``TruthTable(vocab)``, lists all 2^n worlds of the
    vocabulary in the order of :func:`enumerate_worlds`, each of weight 1
    and built on first use. The listed form, ``TruthTable(vocab,
    worlds=...)``, lists the given worlds in the given order, weights
    included. Its atom masks are read off those worlds, so it has no cap:
    a lottery over 2000 constants has only 2000 worlds.

    Meant to live for one call: masks and worlds are memoised per table,
    so a search compiles each formula once and builds each world once.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        max_names: int = DEFAULT_WORLD_CAP,
        worlds: Iterable[World] | None = None,
    ):
        self.vocab = vocab
        self.dense = worlds is None
        if self.dense:
            _check_cap(vocab, max_names)
            self._worlds: dict[int, World] = {}
            self.size = 1 << len(vocab)
        else:
            self._worlds = dict(enumerate(worlds))
            self.size = len(self._worlds)
        self.full = (1 << self.size) - 1
        self._masks: dict[Formula, int] = {}

    def _atom(self, name: str) -> int:
        if name not in self.vocab:
            raise SemanticError(f"unknown constant: {name!r}")
        if not self.dense:
            listed = reversed(self._worlds.values())
            return int("0" + "".join("01"[name in w.true_names] for w in listed), 2)
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
        return {w: i for i, w in self._worlds.items()}

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
        return _from_bits(map(self.index, worlds), self.size)

    def world_list(self, mask: int) -> list[World]:
        """The worlds of ``mask`` in index order."""
        found = _set_bits(mask)
        built = self._worlds
        if self.dense:
            names, digits = self.vocab.names, f"0{len(self.vocab)}b"
            for i in found:
                if i not in built:
                    trues = compress(names, format(i, digits).encode().translate(_BITS))
                    built[i] = World(self.vocab, trues)
        return list(map(built.__getitem__, found))

    def worlds(self, mask: int) -> frozenset[World]:
        return frozenset(self.world_list(mask))

    def reweighted(self, shares: Iterable[tuple[int, Rational]]) -> TruthTable:
        """This dense table's worlds as a listed table in the same order,
        each built once with the weight of its mask in ``shares``. The masks
        must cover every world; the atoms and the masks compiled so far
        carry over, since bit i is world i in both."""
        for name in self.vocab.names:
            self.mask(Const(name))
        names, digits = self.vocab.names, f"0{len(self.vocab)}b"
        placed = {}
        for mask, share in shares:
            for i in _set_bits(mask):
                trues = compress(names, format(i, digits).encode().translate(_BITS))
                placed[i] = World(self.vocab, trues, share)
        table = TruthTable(self.vocab, worlds=map(placed.__getitem__, range(self.size)))
        table._masks.update(self._masks)
        return table

    @cached_property
    def _numerators(self) -> tuple[list[int], int]:
        """The listed weights as integers over their common denominator."""
        weights = [w.weight for w in self._worlds.values()]
        den = lcm(*(q.denominator for q in weights))
        return [q.numerator * (den // q.denominator) for q in weights], den

    def mass(self, mask: int) -> Fraction:
        """The total weight of the worlds of ``mask``, summed as integers."""
        if self.dense:
            return Fraction(mask.bit_count())  # every weight is 1
        nums, den = self._numerators
        return Fraction(sum(compress(nums, bin(mask)[:1:-1].encode().translate(_BITS))), den)

    def sort_key(self, mask: int) -> tuple[int, list[int]]:
        """Orders world sets by size, then by their worlds' truth values."""
        return mask.bit_count(), _set_bits(mask)


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

# binary connectives by token kind: (precedence, node), tighter binds higher
_BINARY = {"iff": (1, Iff), "imp": (2, Implies), "or": (3, Or), "and": (4, And)}


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
        while (op := _BINARY.get(self.peek().kind)) and op[0] >= min_prec:
            prec, make = op
            tok = self.take()
            # -> chains to the right, the other connectives to the left
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
# the current position; it encodes associativity (-> chains to the right,
# & | <-> to the left).
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
        case And(l, r):
            text, prec = f"{_fmt(l, 4)} & {_fmt(r, 5)}", 4
        case Or(l, r):
            text, prec = f"{_fmt(l, 3)} | {_fmt(r, 4)}", 3
        case Implies(l, r):
            text, prec = f"{_fmt(l, 3)} -> {_fmt(r, 2)}", 2
        case Iff(l, r):
            text, prec = f"{_fmt(l, 1)} <-> {_fmt(r, 2)}", 1
        case _:
            raise SemanticError(f"not a formula: {node!r}")
    return f"({text})" if prec < min_prec else text
