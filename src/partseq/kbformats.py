"""Text formats for the four knowledge-base kinds, and their parsers.

All four formats are line based. ``#`` starts a comment, blank lines are
ignored, and an optional ``vocab:`` header fixes the constant names and
their order (required for sample spaces, whose world lines must assign
every constant). Without a header the vocabulary is inferred from the
formulas in order of first appearance. Parsers never throw anything but
:class:`~partseq.errors.ParseError`, and every rejection carries the
offending line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .autoepistemic import AelPremises
from .defaults import DefaultRule, DefaultTheory
from .errors import ParseError
from .logic import (
    And,
    Const,
    Formula,
    Iff,
    Implies,
    ModalFormula,
    Not,
    Or,
    Token,
    Vocabulary,
    World,
    format_formula,
    parse_formula,
    parse_tokens,
    tokenize,
)
from .possibility import PossibilisticKB
from .probability import SampleSpace
from .rationals import format_fraction

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


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
    return _FORMATS[kind][1](text)


def serialize_kb(doc: KbDocument) -> str:
    """Render ``doc`` back to text; parsing the result reproduces it."""
    lines = ["vocab: " + " ".join(doc.vocab.names), *_FORMATS[doc.kind][2](doc.body)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Shared line machinery
# ---------------------------------------------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def _parse_vocab_header(line: str, lineno: int) -> Vocabulary:
    body = line.split(":", 1)[1]
    names = [n for n in re.split(r"[,\s]+", body.strip()) if n]
    if not names:
        raise ParseError("vocab header lists no constants", lineno, line.find(":") + 2)
    try:
        return Vocabulary(names)
    except ValueError as exc:
        raise ParseError(str(exc), lineno, line.find(":") + 2) from None


def _ordered_atoms(phi: Formula, out: list[str]):
    match phi:
        case Const(name):
            if name not in out:
                out.append(name)
        case Not(sub):
            _ordered_atoms(sub, out)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            _ordered_atoms(l, out)
            _ordered_atoms(r, out)


def _infer_vocab(formulas, lineno_of_first: int) -> Vocabulary:
    names: list[str] = []
    for phi in formulas:
        _ordered_atoms(phi, names)
    try:
        return Vocabulary(names)
    except ValueError as exc:
        raise ParseError(str(exc), lineno_of_first, 1) from None


def _formula_at(
    line: str,
    lineno: int,
    start: int,
    vocab: Vocabulary | None,
    end: int | None = None,
) -> Formula:
    """Parse the formula in ``line[start:end]`` (0-based offsets)."""
    segment = line[start:end] if end is not None else line[start:]
    return parse_formula(segment, vocab, line=lineno, column=start + 1)


def _split_required(line: str, sep: str, start: int, lineno: int, what: str) -> int:
    pos = line.find(sep, start)
    if pos < 0:
        raise ParseError(f"expected {what!r} in {line.strip()!r}", lineno, len(line) + 1)
    return pos


# ---------------------------------------------------------------------------
# Default theories (.dl)
# ---------------------------------------------------------------------------
#
#   fact: <formula>
#   rule <id>: <formula> : M <formula> [, M <formula>]* / <formula>
#
# An absent prerequisite is written "true".


def _parse_default(text: str) -> KbDocument:
    vocab: Vocabulary | None = None
    fact_lines: list[tuple[int, str, int]] = []
    rule_lines: list[tuple[int, str]] = []
    first_line: int | None = None

    for lineno, line in _content_lines(text):
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        if first_line is None:
            first_line = lineno
        if stripped.startswith("vocab:"):
            vocab = _parse_vocab_header(line, lineno)
        elif stripped.startswith("fact:"):
            fact_lines.append((lineno, line, indent + len("fact:")))
        elif stripped.startswith("rule"):
            rule_lines.append((lineno, line))
        else:
            raise ParseError(
                "expected a vocab:, fact:, or rule line", lineno, indent + 1
            )

    rule_spans = [(lineno, line, *_split_rule(line, lineno)) for lineno, line in rule_lines]

    # without a header the formulas are parsed free and the vocabulary is
    # inferred from the constants they carry
    fact_formulas = [
        _formula_at(line, lineno, start, vocab) for lineno, line, start in fact_lines
    ]
    rule_parts = []
    for lineno, line, rule_id, alpha_span, just_spans, gamma_start in rule_spans:
        alpha = _formula_at(line, lineno, alpha_span[0], vocab, alpha_span[1])
        betas = tuple(_justification(line, lineno, span, vocab) for span in just_spans)
        gamma = _formula_at(line, lineno, gamma_start, vocab)
        rule_parts.append((rule_id, alpha, betas, gamma, lineno))

    if vocab is None:
        # constants are taken in order of first appearance in the file
        by_line = [
            (lineno, (phi,))
            for (lineno, _, _), phi in zip(fact_lines, fact_formulas)
        ] + [
            (lineno, (alpha, *betas, gamma))
            for _, alpha, betas, gamma, lineno in rule_parts
        ]
        everything = [
            phi for _, group in sorted(by_line, key=lambda t: t[0]) for phi in group
        ]
        vocab = _infer_vocab(everything, first_line or 1)

    rules = []
    seen_ids = set()
    for rule_id, alpha, betas, gamma, lineno in rule_parts:
        if rule_id in seen_ids:
            raise ParseError(f"duplicate rule id {rule_id!r}", lineno, 1)
        seen_ids.add(rule_id)
        rules.append(DefaultRule(rule_id, alpha, betas, gamma))

    theory = DefaultTheory(rules=tuple(rules), facts=tuple(fact_formulas), vocab=vocab)
    return KbDocument("default", vocab, theory)


def _split_rule(line: str, lineno: int):
    """Spans of the rule id, prerequisite, justifications, and conclusion.

    Formula syntax contains no ':', ',', or '/', so plain scanning splits
    the line unambiguously.
    """
    stripped = line.lstrip()
    indent = len(line) - len(stripped)
    head_end = _split_required(line, ":", indent + 4, lineno, ":")
    head = line[indent + 4 : head_end]
    rule_id = head.strip()
    if not _ID_RE.match(rule_id):
        raise ParseError(f"bad rule id {rule_id!r}", lineno, head_end - len(head.lstrip()) + 1)
    alpha_end = _split_required(line, ":", head_end + 1, lineno, ":")
    slash = _split_required(line, "/", alpha_end + 1, lineno, "/")
    just_spans = []
    piece_start = alpha_end + 1
    for m in re.finditer(",", line[alpha_end + 1 : slash]):
        just_spans.append((piece_start, alpha_end + 1 + m.start()))
        piece_start = alpha_end + 1 + m.end()
    just_spans.append((piece_start, slash))
    return rule_id, (head_end + 1, alpha_end), tuple(just_spans), slash + 1


def _justification(line: str, lineno: int, span, vocab) -> Formula:
    start, end = span
    piece = line[start:end]
    lead = len(piece) - len(piece.lstrip())
    body = piece.lstrip()
    if not body.startswith("M") or (len(body) > 1 and body[1] not in " \t("):
        raise ParseError("justification must start with 'M'", lineno, start + lead + 1)
    inner_start = start + lead + 1
    return parse_formula(
        line[inner_start:end], vocab, line=lineno, column=inner_start + 1
    )


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


def _parse_ael(text: str) -> KbDocument:
    vocab: Vocabulary | None = None
    raw: list[tuple[int, str]] = []
    for lineno, line in _content_lines(text):
        if line.lstrip().startswith("vocab:"):
            vocab = _parse_vocab_header(line, lineno)
            if "L" in vocab:
                raise ParseError("'L' is reserved in belief premises", lineno, 1)
        else:
            raw.append((lineno, line))

    shapes = [_split_premise(line, lineno) for lineno, line in raw]
    # without a header the formulas are parsed free and the vocabulary is
    # inferred from the constants they carry
    premises = []
    for alpha_toks, beta_toks, gamma_toks in shapes:
        alpha = parse_tokens(alpha_toks, vocab) if alpha_toks is not None else None
        betas = tuple(parse_tokens(ts, vocab) for ts in beta_toks)
        gamma = parse_tokens(gamma_toks, vocab)
        premises.append(ModalFormula(gamma=gamma, alpha=alpha, betas=betas))

    if vocab is None:
        everything = []
        for pm in premises:
            if pm.alpha is not None:
                everything.append(pm.alpha)
            everything.extend(pm.betas)
            everything.append(pm.gamma)
        vocab = _infer_vocab(everything, raw[0][0] if raw else 1)
    return KbDocument("ael", vocab, AelPremises(tuple(premises), vocab))


def _terminate(tokens: list[Token], after: Token) -> list[Token]:
    """``tokens`` closed by an end of input just past the last of them, or
    just past ``after`` when there are none."""
    last = tokens[-1] if tokens else after
    return [*tokens, Token("eof", "", last.line, last.column + len(last.text))]


def _modal_piece(tokens: list[Token]):
    """Match [~] L <formula tokens>: the sign, the L marker and the formula
    tokens; None when the piece is not modal."""
    if tokens and tokens[0].kind == "name" and tokens[0].text == "L":
        return ("pos", tokens[0], tokens[1:])
    if (
        len(tokens) >= 2
        and tokens[0].kind == "not"
        and tokens[1].kind == "name"
        and tokens[1].text == "L"
    ):
        return ("neg", tokens[1], tokens[2:])
    return None


def _split_premise(line: str, lineno: int):
    """Token spans (alpha, betas, gamma) of one premise line."""
    tokens = tokenize(line, line=lineno, column=1)[:-1]
    depth = 0
    arrow = None
    for i, tok in enumerate(tokens):
        if tok.kind == "lp":
            depth += 1
        elif tok.kind == "rp":
            depth -= 1
        elif tok.kind == "imp" and depth == 0 and arrow is None:
            arrow = i
    head = tokens[:arrow] if arrow is not None else tokens
    tail = tokens[arrow + 1 :] if arrow is not None else None

    pieces = []
    depth = 0
    current: list[Token] = []
    for tok in head:
        if tok.kind == "lp":
            depth += 1
        elif tok.kind == "rp":
            depth -= 1
        if tok.kind == "and" and depth == 0:
            pieces.append(current)
            current = []
        else:
            current.append(tok)
    pieces.append(current)

    matches = [_modal_piece(p) for p in pieces]
    modal = all(m is not None and m[2] for m in matches)
    # every L but the markers of a belief conditional is a misplaced one
    markers = {marker for _, marker, _ in matches} if modal else ()
    for tok in tokens:
        if tok.kind == "name" and tok.text == "L" and tok not in markers:
            raise ParseError(
                "'L' is reserved in belief premises; parenthesise or fix the "
                "belief conditions",
                tok.line,
                tok.column,
            )
    if modal:
        alpha_toks = None
        beta_toks = []
        for sign, marker, inner in matches:
            if sign == "pos":
                if alpha_toks is not None:
                    raise ParseError(
                        "at most one positive belief condition per premise",
                        marker.line,
                        marker.column,
                    )
                alpha_toks = _terminate(inner, marker)
            else:
                beta_toks.append(_terminate(inner, marker))
        if tail is None:
            # bare L f  /  ~L f: the belief assertion itself, rewritten to
            # conditional form (believing f is refusing to not-believe it)
            false = _terminate([Token("name", "false", lineno, 1)], tokens[0])
            if alpha_toks is not None and not beta_toks:
                return (None, (alpha_toks,), false)
            if alpha_toks is None and len(beta_toks) == 1:
                return (beta_toks[0], (), false)
            raise ParseError(
                "belief conditions need a '->' conclusion", lineno, len(line) + 1
            )
        return (alpha_toks, tuple(beta_toks), _terminate(tail, tokens[arrow]))
    return (None, (), _terminate(tokens, tokens[0]))


def _write_ael(premises: AelPremises) -> list[str]:
    return [str(pm) for pm in premises.formulas]


# ---------------------------------------------------------------------------
# Sample spaces (.prob)
# ---------------------------------------------------------------------------
#
#   vocab: p q          (required: world lines must assign every constant)
#   world p,~q : 0.3    (weights are decimals or a/b ratios)


def _parse_prob(text: str) -> KbDocument:
    vocab: Vocabulary | None = None
    worlds: list[World] = []
    last_line = 1

    for lineno, line in _content_lines(text):
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        last_line = lineno
        if stripped.startswith("vocab:"):
            vocab = _parse_vocab_header(line, lineno)
        elif stripped.startswith("world"):
            if vocab is None:
                raise ParseError(
                    "sample spaces need a vocab: header before world lines",
                    lineno,
                    indent + 1,
                )
            worlds.append(_parse_world_line(line, lineno, indent, vocab))
        else:
            raise ParseError("expected a vocab: or world line", lineno, indent + 1)

    if vocab is None:
        raise ParseError("sample space has no vocab: header", last_line, 1)
    try:
        space = SampleSpace(worlds=tuple(worlds), vocab=vocab)
    except ValueError as exc:
        raise ParseError(str(exc), last_line, 1) from None
    return KbDocument("prob", vocab, space)


def _parse_world_line(line: str, lineno: int, indent: int, vocab: Vocabulary) -> World:
    colon = _split_required(line, ":", indent + 5, lineno, ":")
    pieces = line[indent + 5 : colon].split(",")
    literals = [piece.strip() for piece in pieces]
    names = [lit[1:].lstrip() if lit[:1] == "~" else lit for lit in literals]
    assigned = set(names)
    if len(assigned) != len(names) or not assigned <= vocab._name_set:  # type: ignore[attr-defined]
        raise _literal_error(pieces, literals, names, lineno, indent + 5, vocab)
    if len(assigned) != len(vocab):
        missing = [n for n in vocab.names if n not in assigned]
        raise ParseError(
            f"world line must assign every constant; missing {', '.join(missing)}",
            lineno,
            indent + 6,
        )
    weight_text = line[colon + 1 :].strip()
    try:
        weight = Fraction(weight_text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad weight {weight_text!r}", lineno, colon + 2) from None
    if weight < 0:
        raise ParseError(f"negative weight {weight_text}", lineno, colon + 2)
    # a negated literal is no name, so the names among the literals are the true ones
    return World(vocab, assigned.intersection(literals), weight)


def _literal_error(pieces, literals, names, lineno, start, vocab) -> ParseError:
    """The error of the first literal that is empty, malformed, unknown or
    repeated; ``pieces`` are the literals as written, from column
    ``start`` + 1 on."""
    seen: set[str] = set()
    for k, name in enumerate(names):
        if name not in vocab or name in seen:
            break
        seen.add(name)
    piece, literal = pieces[k], literals[k]
    col = start + sum(map(len, pieces[:k])) + k + len(piece) - len(piece.lstrip()) + 1
    if not literal:
        return ParseError("empty literal", lineno, col)
    if not _ID_RE.match(name):
        return ParseError(f"bad literal {literal!r}", lineno, col)
    if name not in vocab:
        return ParseError(f"unknown constant {name!r}", lineno, col)
    return ParseError(f"constant {name!r} assigned twice", lineno, col)


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


def _parse_poss(text: str) -> KbDocument:
    vocab: Vocabulary | None = None
    entries: list[tuple[Fraction, int, str, int]] = []
    first_line = 1

    for lineno, line in _content_lines(text):
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        if stripped.startswith("vocab:"):
            vocab = _parse_vocab_header(line, lineno)
            continue
        if not stripped.startswith("poss"):
            raise ParseError("expected a vocab: or poss line", lineno, indent + 1)
        colon = _split_required(line, ":", indent + 4, lineno, ":")
        value_text = line[indent + 4 : colon].strip()
        try:
            value = Fraction(value_text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"bad possibility value {value_text!r}", lineno, indent + 6
            ) from None
        if not 0 <= value <= 1:
            raise ParseError(
                f"possibility value {value_text} outside [0, 1]", lineno, indent + 6
            )
        entries.append((value, lineno, line, colon + 1))
        if len(entries) == 1:
            first_line = lineno

    if not entries:
        raise ParseError("possibilistic base has no poss lines", first_line, 1)

    # without a header the formulas are parsed free and the vocabulary is
    # inferred from the constants they carry
    formulas = [
        _formula_at(line, lineno, start, vocab) for _, lineno, line, start in entries
    ]
    if vocab is None:
        vocab = _infer_vocab(formulas, first_line)
    by_value: dict[Fraction, set[Formula]] = {}
    for (value, *_), phi in zip(entries, formulas):
        by_value.setdefault(value, set()).add(phi)
    levels = tuple((frozenset(by_value[value]), value) for value in sorted(by_value))
    try:
        kb = PossibilisticKB(levels=levels, vocab=vocab)
    except ValueError as exc:
        raise ParseError(str(exc), first_line, 1) from None
    return KbDocument("poss", vocab, kb)


def _write_poss(kb: PossibilisticKB) -> list[str]:
    return [
        f"poss {format_fraction(value)} : {phi}"
        for formulas, value in kb.levels
        for phi in sorted(formulas, key=format_formula)
    ]


# Each KB kind's file suffix, parser and writer; a writer gives the lines
# after the vocab: header.
_FORMATS = {
    "default": (".dl", _parse_default, _write_default),
    "ael": (".ael", _parse_ael, _write_ael),
    "prob": (".prob", _parse_prob, _write_prob),
    "poss": (".poss", _parse_poss, _write_poss),
}

KB_KINDS = tuple(_FORMATS)
