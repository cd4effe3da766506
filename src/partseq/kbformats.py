"""Text formats for the four knowledge-base kinds, and their one reader.

Every format is line based: ``#`` starts a comment, blank lines are
ignored, at most one ``vocab:`` header fixes the constants and their order
(without it they are inferred in order of first appearance), and a line's
keyword ends at ``:`` or at a character that cannot continue a name. The
reader rejects the first fault with :class:`~partseq.errors.ParseError` at
its line and column: faults of line shape first, then faults in formulas,
then the kind's own checks, each in file order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .autoepistemic import AelPremises
from .defaults import DefaultRule, DefaultTheory
from .errors import ParseError
from .logic import (
    Formula,
    ModalFormula,
    Token,
    Vocabulary,
    World,
    format_formula,
    parse_tokens,
    tokenize,
)
from .possibility import PossibilisticKB
from .probability import SampleSpace
from .rationals import LiteralBoundError, clipped, format_fraction, parse_fraction

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NAME_CHAR = re.compile(r"[A-Za-z0-9_]")
_HEADER_NAME = re.compile(r"[^,\s]+")
_TRUE_NAME = re.compile(r",([^~,]+)")
_LITERALS = ("true", "false")


@dataclass(frozen=True)
class KbDocument:
    """A parsed knowledge base: its kind, vocabulary and typed body."""

    kind: str
    vocab: Vocabulary
    body: DefaultTheory | AelPremises | SampleSpace | PossibilisticKB


def parse_kb(text: str, kind: str) -> KbDocument:
    """Parse KB text of the given kind ("default", "ael", "prob", "poss")."""
    if kind not in KB_KINDS:
        raise ValueError(f"unknown KB kind {kind!r}")
    fmt = _FORMATS[kind]

    # pass 1: the header, and each line's shape and formula tokens
    header: Vocabulary | None = None
    lines: list[tuple[int, object, list[list[Token]]]] = []
    last = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.lstrip()
        if not stripped:
            continue
        indent = len(line) - len(stripped)
        last = lineno
        keyword = _keyword(stripped, fmt.keywords)
        if keyword == "vocab:":
            if header is not None:
                raise ParseError("more than one vocab: header", lineno, indent + 1)
            header = _parse_vocab_header(line, lineno)
            if kind == "ael" and "L" in header:
                raise ParseError("'L' is reserved in belief premises", lineno, 1)
        elif keyword is None and len(fmt.keywords) > 1:
            *most, final = fmt.keywords
            listed = ", ".join(most) + ("," if len(most) > 1 else "")
            raise ParseError(f"expected a {listed} or {final} line", lineno, indent + 1)
        else:
            lines.append((lineno, *fmt.shape(line, lineno, indent, keyword, header)))

    # pass 2: every formula, against the header or the constants the
    # tokens name in order of first appearance
    vocab = header if header is not None else Vocabulary(
        dict.fromkeys(
            tok.text
            for _, _, formulas in lines
            for tokens in formulas
            for tok in tokens
            if tok.kind == "name" and tok.text not in _LITERALS
        )
    )
    parsed = [
        (lineno, shape, [parse_tokens(tokens, vocab) for tokens in formulas])
        for lineno, shape, formulas in lines
    ]

    # pass 3: the kind's own checks, and its body
    return KbDocument(kind, vocab, fmt.build(vocab, parsed, last))


def serialize_kb(doc: KbDocument) -> str:
    """Render ``doc`` back to text; parsing the result reproduces it. An
    empty vocabulary gets no header, which inference gives back."""
    header = ["vocab: " + " ".join(doc.vocab.names)] if doc.vocab.names else []
    return "\n".join([*header, *_FORMATS[doc.kind].write(doc.body)]) + "\n"


# ---------------------------------------------------------------------------
# Shared line machinery
# ---------------------------------------------------------------------------


def _keyword(stripped: str, keywords: tuple[str, ...]) -> str | None:
    """The keyword that starts a line; one ends at ':' or at a character
    that cannot continue a name."""
    for kw in keywords:
        if stripped.startswith(kw) and (
            kw.endswith(":") or not _NAME_CHAR.match(stripped, len(kw))
        ):
            return kw
    return None


def _parse_vocab_header(line: str, lineno: int) -> Vocabulary:
    colon = line.find(":")
    found = list(_HEADER_NAME.finditer(line, colon + 1))
    if not found:
        raise ParseError("vocab header lists no constants", lineno, colon + 2)
    try:
        return Vocabulary(m.group() for m in found)
    except ValueError as exc:
        # Vocabulary refuses the first name that is malformed, reserved or
        # repeated; point at that name
        seen: set[str] = set()
        for m in found:
            if m.group() in seen or not _ID_RE.match(m.group()) or m.group() in _LITERALS:
                break
            seen.add(m.group())
        raise ParseError(str(exc), lineno, m.start() + 1) from None


def _tokens(line: str, lineno: int, start: int, end: int | None = None) -> list[Token]:
    """The formula tokens of ``line[start:end]`` (0-based offsets)."""
    return tokenize(line[start:end], lineno, start + 1)


def _split_required(line: str, sep: str, start: int, lineno: int, what: str) -> int:
    pos = line.find(sep, start)
    if pos < 0:
        raise ParseError(f"expected {what!r} in {clipped(line.strip())!r}", lineno, len(line) + 1)
    return pos


def _bad_literal(what: str, text: str, exc: Exception, lineno: int, column: int) -> ParseError:
    """The error of a ``what`` literal ``text`` that the reader refused
    with ``exc``, naming the bound that refused it, if one did."""
    reason = f": {exc}" if isinstance(exc, LiteralBoundError) else ""
    return ParseError(f"bad {what} {clipped(text)!r}{reason}", lineno, column)


# ---------------------------------------------------------------------------
# Default theories (.dl)
# ---------------------------------------------------------------------------
#
#   fact: <formula>
#   rule <id>: <formula> : M <formula> [, M <formula>]* / <formula>
#
# An absent prerequisite is written "true".


def _default_shape(line: str, lineno: int, indent: int, keyword: str, header):
    """None and a fact's tokens, or a rule's id and the tokens of its
    prerequisite, justifications and conclusion.

    Formula syntax contains no ':', ',', or '/', so plain scanning splits
    a rule line unambiguously.
    """
    if keyword == "fact:":
        return None, [_tokens(line, lineno, indent + 5)]
    head_end = _split_required(line, ":", indent + 4, lineno, ":")
    head = line[indent + 4 : head_end]
    rule_id = head.strip()
    if not _ID_RE.match(rule_id):
        column = head_end - len(head.lstrip()) + 1
        raise ParseError(f"bad rule id {clipped(rule_id)!r}", lineno, column)
    alpha_end = _split_required(line, ":", head_end + 1, lineno, ":")
    slash = _split_required(line, "/", alpha_end + 1, lineno, "/")
    formulas = [_tokens(line, lineno, head_end + 1, alpha_end)]
    start = alpha_end + 1
    for piece in line[start:slash].split(","):
        body = piece.lstrip()
        marker = start + len(piece) - len(body)
        if body[:1] != "M" or body[1:2] not in ("", " ", "\t", "("):
            raise ParseError("justification must start with 'M'", lineno, marker + 1)
        formulas.append(_tokens(line, lineno, marker + 1, start + len(piece)))
        start += len(piece) + 1
    formulas.append(_tokens(line, lineno, slash + 1))
    return rule_id, formulas


def _build_default(vocab: Vocabulary, lines, last: int) -> DefaultTheory:
    facts: list[Formula] = []
    rules: dict[str, DefaultRule] = {}
    for lineno, rule_id, formulas in lines:
        if rule_id is None:
            facts.extend(formulas)
        elif rule_id in rules:
            raise ParseError(f"duplicate rule id {clipped(rule_id)!r}", lineno, 1)
        else:
            alpha, *betas, gamma = formulas
            rules[rule_id] = DefaultRule(rule_id, alpha, tuple(betas), gamma)
    return DefaultTheory(rules=tuple(rules.values()), facts=tuple(facts), vocab=vocab)


def _write_default(theory: DefaultTheory) -> list[str]:
    facts = [f"fact: {phi}" for phi in theory.facts]
    return facts + [f"rule {rule.rule_id}: {rule}" for rule in theory.rules]


# ---------------------------------------------------------------------------
# Belief premises (.ael)
# ---------------------------------------------------------------------------
#
#   [L <formula>] [& ~L <formula>]* -> <formula>     belief-conditional
#   <formula>                                        plain premise
#   L <formula>  /  ~L <formula>                     bare belief assertions
#
# The formulas under L extend to the next top-level & or ->; parenthesise
# them when they contain those operators. "L" is reserved here.


def _terminate(tokens: list[Token], after: Token) -> list[Token]:
    """``tokens`` closed by an end of input just past the last of them, or
    just past ``after`` when there are none."""
    last = tokens[-1] if tokens else after
    return [*tokens, Token("eof", "", last.line, last.column + len(last.text))]


def _split_premise(line: str, lineno: int, *_):
    """Whether a premise line has a positive belief condition, and the
    tokens of its formulas: that condition, the negative ones, the
    conclusion. One scan finds the first top-level '->' and the top-level
    '&'s before it; the line is a belief conditional when each piece
    between them is ``L`` or ``~ L`` followed by a formula."""
    tokens = tokenize(line, line=lineno, column=1)[:-1]
    arrow = len(tokens)
    cuts = [-1]
    depth = 0
    for i, tok in enumerate(tokens):
        depth += (tok.kind == "lp") - (tok.kind == "rp")
        if depth == 0 and tok.kind == "imp":
            arrow = i
            break
        if depth == 0 and tok.kind == "and":
            cuts.append(i)
    conditions = []  # (negative, L marker, formula tokens)
    for start, end in zip(cuts, [*cuts[1:], arrow]):
        negative = start + 1 < end and tokens[start + 1].kind == "not"
        at = start + 1 + negative
        if at + 1 >= end or (tokens[at].kind, tokens[at].text) != ("name", "L"):
            conditions = []
            break
        conditions.append((negative, tokens[at], _terminate(tokens[at + 1 : end], tokens[at])))
    # every L but the markers of a belief conditional is a misplaced one
    markers = {marker for _, marker, _ in conditions}
    for tok in tokens:
        if (tok.kind, tok.text) == ("name", "L") and tok not in markers:
            raise ParseError(
                "'L' is reserved in belief premises; parenthesise or fix the belief conditions",
                tok.line,
                tok.column,
            )
    if not conditions:
        return False, [_terminate(tokens, tokens[0])]
    conditions.sort(key=lambda c: c[0])  # the positive ones first, each kept in line order
    if len(conditions) > 1 and not conditions[1][0]:
        _, marker, _ = conditions[1]
        raise ParseError(
            "at most one positive belief condition per premise", marker.line, marker.column
        )
    if arrow == len(tokens):
        if len(conditions) > 1:
            raise ParseError("belief conditions need a '->' conclusion", lineno, len(line) + 1)
        # bare L f  /  ~L f: the belief assertion itself, rewritten to
        # conditional form (believing f is refusing to not-believe it)
        false = _terminate([Token("name", "false", lineno, 1)], tokens[0])
        return conditions[0][0], [conditions[0][2], false]
    conclusion = _terminate(tokens[arrow + 1 :], tokens[arrow])
    return not conditions[0][0], [*(toks for _, _, toks in conditions), conclusion]


def _build_ael(vocab: Vocabulary, lines, last: int) -> AelPremises:
    premises = tuple(
        ModalFormula(fs[-1], fs[0] if has_alpha else None, tuple(fs[has_alpha:-1]))
        for _, has_alpha, fs in lines
    )
    return AelPremises(premises, vocab)


def _write_ael(premises: AelPremises) -> list[str]:
    return [str(pm) for pm in premises.formulas]


# ---------------------------------------------------------------------------
# Sample spaces (.prob)
# ---------------------------------------------------------------------------
#
#   vocab: p q          (required, before the world lines)
#   world p,~q : 0.3    (weights are decimals or a/b ratios)


def _world_shape(line: str, lineno: int, indent: int, keyword: str, header):
    if header is None:
        raise ParseError(
            "sample spaces need a vocab: header before world lines", lineno, indent + 1
        )
    return _parse_world_line(line, lineno, indent, header), []


def _parse_world_line(line: str, lineno: int, indent: int, vocab: Vocabulary) -> World:
    """The world of a world line. The writer's line, the names in
    vocabulary order between single commas and each after at most one
    ``~``, is one comparison with the vocabulary's names; any other has its
    blanks folded away in one step, and its names may then come in any
    order. A line that still fails has its literals read one at a time,
    which words the first fault with its column."""
    colon = _split_required(line, ":", indent + 5, lineno, ":")
    body = line[indent + 5 : colon]
    marked = "," + body.strip()
    if marked.replace(",~", ",") != vocab._commas:  # type: ignore[attr-defined]
        # blank runs fold to one blank, which goes beside a comma or after
        # a "~": one left is inside a literal, and no name holds it
        marked = " ".join(("," + body).split())
        marked = marked.replace(" ,", ",").replace(", ", ",").replace("~ ", "~")
        plain = marked.replace(",~", ",")
        if plain != vocab._commas and (  # type: ignore[attr-defined]
            plain.count(",") != len(vocab) or vocab._name_set != set(plain[1:].split(","))
        ):
            marked = "," + ",".join(_literals(body, lineno, indent + 5, vocab))
    # a "~" opens each false literal, so the names after a bare comma are the true ones
    true_names = frozenset(_TRUE_NAME.findall(marked))
    weight_text = line[colon + 1 :].strip()
    try:
        weight = parse_fraction(weight_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _bad_literal("weight", weight_text, exc, lineno, colon + 2) from None
    if weight < 0:
        raise ParseError(f"negative weight {clipped(weight_text)}", lineno, colon + 2)
    return World._trusted(vocab, true_names, weight)


def _literals(body: str, lineno: int, start: int, vocab: Vocabulary) -> list[str]:
    """The literals of a world line's ``body``, written from column
    ``start`` + 1 on, read one at a time: the first that is empty,
    malformed, unknown or repeated is refused at its column, and then a
    line that leaves some constant out."""
    pieces = body.split(",")
    seen: set[str] = set()
    for k, piece in enumerate(pieces):
        literal = piece.strip()
        name = literal[1:].lstrip() if literal[:1] == "~" else literal
        if name in vocab and name not in seen:
            seen.add(name)
            continue
        col = start + sum(map(len, pieces[:k])) + k + len(piece) - len(piece.lstrip()) + 1
        if not literal:
            raise ParseError("empty literal", lineno, col)
        if not _ID_RE.match(name):
            raise ParseError(f"bad literal {clipped(literal)!r}", lineno, col)
        if name not in vocab:
            raise ParseError(f"unknown constant {clipped(name)!r}", lineno, col)
        raise ParseError(f"constant {clipped(name)!r} assigned twice", lineno, col)
    if len(seen) != len(vocab):
        missing = ", ".join(n for n in vocab.names if n not in seen)
        message = f"world line must assign every constant; missing {missing}"
        raise ParseError(message, lineno, start + 1)
    return [piece.strip() for piece in pieces]


def _build_prob(vocab: Vocabulary, lines, last: int) -> SampleSpace:
    # a header lists some constant, and world lines have no formulas to
    # infer one from
    if not vocab.names:
        raise ParseError("sample space has no vocab: header", last, 1)
    try:
        return SampleSpace(worlds=tuple(world for _, world, _ in lines), vocab=vocab)
    except ValueError as exc:
        raise ParseError(str(exc), last, 1) from None


def _write_prob(space: SampleSpace) -> list[str]:
    names = space.vocab.names
    return [
        f"world {','.join(n if n in w.true_names else '~' + n for n in names)} : "
        f"{format_fraction(w.weight)}"
        for w in space.worlds
    ]


# ---------------------------------------------------------------------------
# Possibilistic bases (.poss)
# ---------------------------------------------------------------------------
#
#   poss <r> : <formula>
#
# Lines sharing a value form one level; levels are sorted on load.


def _poss_shape(line: str, lineno: int, indent: int, keyword: str, header):
    colon = _split_required(line, ":", indent + 4, lineno, ":")
    value_text = line[indent + 4 : colon].strip()
    try:
        value = parse_fraction(value_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _bad_literal("possibility value", value_text, exc, lineno, indent + 6) from None
    if not 0 <= value <= 1:
        message = f"possibility value {clipped(value_text)} outside [0, 1]"
        raise ParseError(message, lineno, indent + 6)
    return value, [_tokens(line, lineno, colon + 1)]


def _build_poss(vocab: Vocabulary, lines, last: int) -> PossibilisticKB:
    if not lines:
        raise ParseError("possibilistic base has no poss lines", 1, 1)
    by_value: dict[Fraction, set[Formula]] = {}
    for _, value, (phi,) in lines:
        by_value.setdefault(value, set()).add(phi)
    levels = tuple((frozenset(by_value[value]), value) for value in sorted(by_value))
    return PossibilisticKB(levels=levels, vocab=vocab)


def _write_poss(kb: PossibilisticKB) -> list[str]:
    return [
        f"poss {format_fraction(value)} : {phi}"
        for formulas, value in kb.levels
        for phi in sorted(formulas, key=format_formula)
    ]


class _Format(NamedTuple):
    """A KB kind's suffix, its line keywords (``vocab:`` first, alone when
    lines have none), and its line shape, body builder and line writer."""

    suffix: str
    keywords: tuple[str, ...]
    shape: Callable
    build: Callable
    write: Callable


_FORMATS = {
    "default": _Format(
        ".dl", ("vocab:", "fact:", "rule"), _default_shape, _build_default, _write_default
    ),
    "ael": _Format(".ael", ("vocab:",), _split_premise, _build_ael, _write_ael),
    "prob": _Format(".prob", ("vocab:", "world"), _world_shape, _build_prob, _write_prob),
    "poss": _Format(".poss", ("vocab:", "poss"), _poss_shape, _build_poss, _write_poss),
}

KB_KINDS = tuple(_FORMATS)
