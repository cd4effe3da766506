"""The four text formats: grammar, locations, round trips, totality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partseq import (
    FALSE,
    TRUE,
    AelPremises,
    And,
    Const,
    DefaultRule,
    DefaultTheory,
    Iff,
    Implies,
    ModalFormula,
    Not,
    Or,
    ParseError,
    PartitionSequence,
    PossibilisticKB,
    build_poss_sequence,
    format_formula,
    parse_formula,
    parse_kb,
    serialize_kb,
)
from partseq import Vocabulary, World, kbformats
from partseq.kbformats import KB_KINDS, KbDocument
from partseq.logic import MAX_FORMULA_DEPTH, parse_tokens
from partseq.rationals import format_fraction
from partseq.sequences import render_json

from genkit import per_literal_world_line

P, Q = Const("p"), Const("q")

RIVALS_DL = """# two rules fight over p, a third follows up on q
vocab: p q
rule r1: true : M p / p
rule r2: true : M ~p / ~p
rule r3: p : M q / q
"""

INTROSPECTIVE_AEL = """vocab: p q
L p -> p
~L p -> q
"""

WEATHER_PROB = """vocab: p q
world p,q : 0.2
world p,~q : 0.3
world ~p,q : 0.1
world ~p,~q : 0.4
"""

NESTED_POSS = """vocab: p q
poss 0.7 : p
poss 0.3 : p & q
"""


class TestDefaultFormat:
    def test_rule_line(self):
        doc = parse_kb("rule r1: true : M p / p", "default")
        (rule,) = doc.body.rules
        assert rule.alpha == TRUE
        assert rule.betas == (P,)
        assert rule.gamma == P
        assert rule.rule_id == "r1"

    def test_facts_and_rules(self):
        doc = parse_kb(RIVALS_DL, "default")
        assert len(doc.body.rules) == 3
        assert doc.vocab.names == ("p", "q")

    def test_multiple_justifications(self):
        doc = parse_kb("rule r: p : M q, M ~q / p & q", "default")
        assert doc.body.rules[0].betas == (Q, Not(Q))

    def test_vocabulary_inferred_in_order(self):
        doc = parse_kb("fact: q | p\nrule r: p : M r0 / p", "default")
        assert doc.vocab.names == ("q", "p", "r0")

    def test_inference_follows_file_order(self):
        doc = parse_kb("rule r: s : M s / s\nfact: q | p", "default")
        assert doc.vocab.names == ("s", "q", "p")

    def test_unknown_constant_located(self):
        with pytest.raises(ParseError) as info:
            parse_kb("vocab: p\nfact: p & zz", "default")
        assert info.value.line == 2

    def test_missing_slash(self):
        with pytest.raises(ParseError):
            parse_kb("rule r1: true : M p", "default")

    def test_duplicate_rule_id(self):
        text = "rule r1: true : M p / p\nrule r1: true : M p / p"
        with pytest.raises(ParseError, match="duplicate"):
            parse_kb(text, "default")

    @pytest.mark.parametrize("header", ["", "vocab: p\n"])
    def test_formula_error_reported_before_duplicate_id(self, header):
        text = header + "rule r1: true : M p / p\nrule r1: true : M p / p\nrule r2: p : M (p / p\n"
        with pytest.raises(ParseError) as info:
            parse_kb(text, "default")
        assert "duplicate" not in str(info.value)
        assert info.value.line == text.count("\n")

    def test_faults_reported_in_file_order(self):
        # formulas are parsed in file order, facts and rules alike, so the
        # rule's fault on line 1 is reported before the fact's on line 2
        with pytest.raises(ParseError) as info:
            parse_kb("rule r1: p : M (q / q\nfact: (p", "default")
        assert (info.value.line, info.value.column) == (1, 19)

    def test_round_trip(self):
        doc = parse_kb(RIVALS_DL, "default")
        again = parse_kb(serialize_kb(doc), "default")
        assert again.body == doc.body


class TestAelFormat:
    def test_belief_conditional(self):
        doc = parse_kb("L p -> p", "ael")
        (pm,) = doc.body.formulas
        assert pm == ModalFormula(gamma=P, alpha=P)

    def test_negative_condition(self):
        doc = parse_kb("~L p -> q", "ael")
        (pm,) = doc.body.formulas
        assert pm == ModalFormula(gamma=Q, betas=(P,))

    def test_mixed_conditions(self):
        doc = parse_kb("L p & ~L q & ~L r -> p & ~q", "ael")
        (pm,) = doc.body.formulas
        assert pm.alpha == P
        assert pm.betas == (Q, Const("r"))
        assert pm.gamma == parse_formula("p & ~q")

    def test_plain_premise(self):
        doc = parse_kb("~q", "ael")
        assert doc.body.formulas[0] == ModalFormula(gamma=Not(Q))

    def test_plain_implication_stays_plain(self):
        doc = parse_kb("p -> q", "ael")
        assert doc.body.formulas[0] == ModalFormula(gamma=parse_formula("p -> q"))

    @pytest.mark.parametrize("header", ["", "vocab: p q r\n"])
    def test_premise_shape_error_reported_before_formula_error(self, header):
        text = header + "L (p -> q\nL p & L q -> r\n"
        with pytest.raises(ParseError, match="at most one positive") as info:
            parse_kb(text, "ael")
        assert info.value.line == text.count("\n")

    def test_bare_belief_assertion(self):
        doc = parse_kb("L p", "ael")
        assert doc.body.formulas[0] == ModalFormula(gamma=FALSE, betas=(P,))

    def test_bare_disbelief_assertion(self):
        doc = parse_kb("~L p", "ael")
        assert doc.body.formulas[0] == ModalFormula(gamma=FALSE, alpha=P)

    def test_conclusion_keeps_arrows(self):
        doc = parse_kb("L p -> q -> r", "ael")
        (pm,) = doc.body.formulas
        assert pm.alpha == P
        assert pm.gamma == parse_formula("q -> r")

    def test_parenthesised_condition(self):
        doc = parse_kb("L (p -> q) -> r", "ael")
        (pm,) = doc.body.formulas
        assert pm.alpha == parse_formula("p -> q")

    def test_two_positive_conditions_rejected(self):
        with pytest.raises(ParseError, match="positive"):
            parse_kb("L p & L q -> r", "ael")

    def test_stray_belief_marker_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_kb("p & L q", "ael")

    @pytest.mark.parametrize("header", ["", "vocab: p q\n"])
    @pytest.mark.parametrize(
        "premise, column, message",
        [
            ("L p ->", 7, "expected a formula, found 'end of input'"),
            ("~L p ->", 8, "expected a formula, found 'end of input'"),
            ("L (L) -> p", 4, "'L' is reserved"),
            ("L p -> L", 8, "'L' is reserved"),
            ("~L p -> q & L", 13, "'L' is reserved"),
            ("L p & ~L q", 11, "belief conditions need a '->' conclusion"),
            ("~L p & ~L q", 12, "belief conditions need a '->' conclusion"),
            ("~~L p -> q", 3, "'L' is reserved"),
            ("(L p) -> q", 2, "'L' is reserved"),
            ("L -> p", 1, "'L' is reserved"),
            ("~L p -> ~L q", 10, "'L' is reserved"),
        ],
    )
    def test_error_located_on_its_own_line(self, header, premise, column, message):
        line = 3 + header.count("\n")
        with pytest.raises(ParseError) as got:
            parse_kb(f"{header}p\nL q -> p\n{premise}\n", "ael")
        assert (got.value.line, got.value.column) == (line, column)
        assert got.value.message.startswith(message)

    @pytest.mark.parametrize(
        "premise, expected",
        [
            # the positive condition comes first wherever it is written
            ("~L p & L q -> r", ModalFormula(gamma=Const("r"), alpha=Q, betas=(P,))),
            # a condition extends to the next top-level & or ->
            ("L p | q -> r", ModalFormula(gamma=Const("r"), alpha=parse_formula("p | q"))),
            ("L p <-> q", ModalFormula(gamma=FALSE, betas=(parse_formula("p <-> q"),))),
        ],
        ids=["positive-second", "disjunction", "equivalence"],
    )
    def test_condition_extent(self, premise, expected):
        assert parse_kb(premise, "ael").body.formulas == (expected,)

    def test_round_trip(self):
        doc = parse_kb(INTROSPECTIVE_AEL, "ael")
        again = parse_kb(serialize_kb(doc), "ael")
        assert again.body == doc.body

    def test_bare_assertion_round_trip(self):
        doc = parse_kb("L p", "ael")
        again = parse_kb(serialize_kb(doc), "ael")
        assert again.body == doc.body


class TestProbFormat:
    def test_world_line(self):
        doc = parse_kb("vocab: p q\nworld p,~q : 0.3\nworld ~p,q : 0.7", "prob")
        w = doc.body.worlds[0]
        assert w.true_names == frozenset({"p"})
        assert w.weight == Fraction(3, 10)

    def test_ratio_weights(self):
        doc = parse_kb("vocab: p\nworld p : 1/3\nworld ~p : 2/3", "prob")
        assert doc.body.worlds[0].weight == Fraction(1, 3)

    def test_equal_weight_texts_share_one_fraction(self):
        text = "vocab: p q\nworld p,q : 1/4\nworld p,~q : 1/4\nworld ~p,q : 0.5\nworld ~p,~q : 0"
        space = parse_kb(text, "prob").body
        first, second = space.worlds[0].weight, space.worlds[1].weight
        assert first is second and first == Fraction(1, 4)
        assert space.table.shares == ((0b0011, Fraction(1, 4)), (0b0100, Fraction(1, 2)), (0b1000, 0))

    def test_header_required(self):
        with pytest.raises(ParseError, match="vocab"):
            parse_kb("world p : 1", "prob")

    def test_assignment_must_be_total(self):
        with pytest.raises(ParseError, match="missing q"):
            parse_kb("vocab: p q\nworld p : 1", "prob")

    def test_unknown_constant(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_kb("vocab: p\nworld p,zz : 1", "prob")

    def test_weights_must_total_one(self):
        with pytest.raises(ParseError, match="total"):
            parse_kb("vocab: p\nworld p : 0.5", "prob")

    def test_duplicate_worlds_rejected(self):
        with pytest.raises(ParseError, match="distinct"):
            parse_kb("vocab: p\nworld p : 0.5\nworld p : 0.5", "prob")

    def test_round_trip(self, weather_space):
        doc = parse_kb(WEATHER_PROB, "prob")
        assert doc.body == weather_space
        again = parse_kb(serialize_kb(doc), "prob")
        assert again.body == doc.body

    def test_round_trip_generated_lottery(self):
        from partseq import lottery_space
        from partseq.kbformats import KbDocument

        space = lottery_space(3)
        doc = KbDocument("prob", space.vocab, space)
        again = parse_kb(serialize_kb(doc), "prob")
        assert again.body == space
        assert again.vocab.names == ("p1", "p2", "p3")


class TestWorldLines:
    """World lines are checked in one pass over the line's literals; the
    per-literal reader in genkit is the oracle for worlds and errors."""

    NAMES = ("p", "q", "r", "s_1", "Tt")
    BAD = ("", " ", "~", "~~p", "p q", "1p", "p-", "~ ~q", "zz", "~zz", "P")
    WEIGHTS = ("0.3", "1/3", " 2 ", "0", "x", "1/0", "", "0.3.4", "-1/2", "-0", "1e-3")

    def line(self, rng, vocab):
        literals = [rng.choice(["", "~", "~ ", "~\t"]) + n for n in vocab.names]
        rng.shuffle(literals)
        fault = rng.randrange(8)
        if fault == 1 and literals:
            literals.pop(rng.randrange(len(literals)))  # missing
        elif fault == 2:
            literals.insert(rng.randrange(len(literals) + 1), rng.choice(self.BAD))
        elif fault == 3 and literals:  # repeated, same sign or the other
            again = rng.choice(["~", ""]) + literals[0].lstrip("~ \t")
            literals.insert(rng.randrange(len(literals) + 1), again)
        elif fault == 4 and literals:
            literals[rng.randrange(len(literals))] = rng.choice(self.BAD)
        elif fault == 7 and len(literals) > 1:  # two in one piece, an empty piece elsewhere
            k = rng.randrange(len(literals) - 1)
            literals[k : k + 2] = [literals[k] + rng.choice([" ", "\t"]) + literals[k + 1]]
            literals.insert(rng.randrange(len(literals) + 1), "")
        pad = lambda: rng.choice(["", " ", "  ", "\t"])
        body = ",".join(pad() + lit + pad() for lit in literals)
        weight = rng.choice(self.WEIGHTS) if fault >= 5 else rng.choice(self.WEIGHTS[:4])
        indent = rng.choice(["", "  "])
        head = indent + "world" + rng.choice([" ", "  "])
        return head + body + rng.choice([":", " : "]) + weight, len(indent)

    def test_matches_per_literal_oracle(self):
        rng = random.Random(1010)
        outcomes = set()
        for _ in range(4000):
            vocab = Vocabulary(rng.sample(self.NAMES, rng.randint(1, len(self.NAMES))))
            line, indent = self.line(rng, vocab)
            lineno = rng.randint(1, 9)
            try:
                expected = per_literal_world_line(line, lineno, indent, vocab)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    kbformats._parse_world_line(line, lineno, indent, vocab)
                assert (got.value.message, got.value.line, got.value.column) == (
                    exc.message, exc.line, exc.column
                ), line
                outcomes.add(exc.message.split()[0])
            else:
                w = kbformats._parse_world_line(line, lineno, indent, vocab)
                assert w == expected
                assert (w.true_names, w.weight) == (expected.true_names, expected.weight)
                outcomes.add("ok")
        assert {"ok", "empty", "bad", "unknown", "constant", "world", "negative"} <= outcomes

    def test_negation_may_be_spaced(self):
        doc = parse_kb("vocab: p q\nworld ~ p , q : 1", "prob")
        assert doc.body.worlds[0].true_names == frozenset({"q"})

    @pytest.mark.parametrize(
        "line, message, column",
        [
            ("world p,,q : 1", "empty literal", 9),
            ("world p, ~~q : 1", "bad literal '~~q'", 10),
            ("world q,  zz : 1", "unknown constant 'zz'", 11),
            ("world p,q,~p : 1", "constant 'p' assigned twice", 11),
            ("world zz, p, p : 1", "unknown constant 'zz'", 7),
        ],
    )
    def test_first_failing_literal_located(self, line, message, column):
        with pytest.raises(ParseError) as got:
            parse_kb("vocab: p q\n" + line, "prob")
        assert (got.value.message, got.value.line, got.value.column) == (message, 2, column)


    @pytest.mark.parametrize(
        "body",
        [
            "p,~q",  # the common line, read whole
            " p , ~q ",
            "~ p,q",
            "~\tp,\tq\t",
            "\tp,~q",
            "~~p,q",
            "p~q,q",
            "p,~q,",
            "p,,~q",
            ",p,q",
            "p,~p",
            "p,~q,p",
            "p,zz",
            "~zz,p,q",
            "p",
            "p q",
            "~,p,q",
            "p,~q~",
            "p q,",  # a piece of two words makes up for an empty one
            ",p q",
            "~p q,",
            "p q,,",
        ],
    )
    @pytest.mark.parametrize("weight", ["1/2", "x"])
    def test_odd_lines_match_per_literal_oracle(self, body, weight):
        vocab = Vocabulary(["p", "q"])
        line = f"  world {body} : {weight}"
        try:
            expected = per_literal_world_line(line, 3, 2, vocab)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                kbformats._parse_world_line(line, 3, 2, vocab)
            assert (got.value.message, got.value.column) == (exc.message, exc.column)
        else:
            w = kbformats._parse_world_line(line, 3, 2, vocab)
            assert (w, w.true_names, w.weight) == (expected, expected.true_names, expected.weight)


_READ_WORLD_LINE = kbformats._parse_world_line


def _by_literals(line: str, lineno: int, indent: int, vocab: Vocabulary):
    """A world line whose literals all go through ``_literals``, the
    per-literal reader. Its weight is read by the reader itself, from the
    line with the literals rewritten in the writer's form, padded to their
    width so that every column stays."""
    start, colon = indent + 5, line.find(":", indent + 5)
    if colon < 0:
        return _READ_WORLD_LINE(line, lineno, indent, vocab)
    literals = kbformats._literals(line[start:colon], lineno, start, vocab)
    true_names = frozenset(lit for lit in literals if lit in vocab)
    body = ",".join(n if n in true_names else "~" + n for n in vocab.names)
    padded = line[:start] + body.ljust(colon - start) + line[colon:]
    weight = _READ_WORLD_LINE(padded, lineno, indent, vocab).weight
    return World(vocab, true_names, weight)


def _read(text: str):
    """The vocabulary and the worlds with their weights, or the fault's
    line, column and message."""
    try:
        doc = parse_kb(text, "prob")
    except ParseError as exc:
        return exc.line, exc.column, exc.message
    return doc.vocab, [(w.true_names, w.weight) for w in doc.body.worlds]


# names that start one another, so a literal may run into its neighbour
WORLD_NAMES = st.from_regex(r"[ab_][ab0-9]{0,2}", fullmatch=True)
DEFECTS = ("~~p", "p~", "empty", "p q", "missing", "repeated", "unknown")


@st.composite
def world_files(draw):
    """A ``.prob`` file over 1 to 12 constants whose world lines are each
    in vocabulary order, shuffled, or padded with blanks around commas
    and after ``~``; one line may carry one defect."""
    names = draw(st.lists(WORLD_NAMES, min_size=1, max_size=12, unique=True))
    n = len(names)
    indices = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8, unique=True))
    masses = draw(st.lists(st.integers(1, 9), min_size=len(indices), max_size=len(indices)))
    faulty = draw(st.none() | st.integers(0, len(indices) - 1))
    pad = st.sampled_from(["", " ", "  ", "\t", " \t"])
    lines = ["vocab: " + " ".join(names)]
    for k, (i, mass) in enumerate(zip(indices, masses)):
        lits = [c if i >> (n - 1 - j) & 1 else "~" + c for j, c in enumerate(names)]
        layout = draw(st.sampled_from(["ordered", "shuffled", "padded"]))
        if layout != "ordered":
            lits = list(draw(st.permutations(lits)))
        if k == faulty:
            defect, at = draw(st.sampled_from(DEFECTS)), draw(st.integers(0, n - 1))
            name = lits[at].lstrip("~")
            if defect == "~~p":
                lits[at] = "~~" + name
            elif defect == "p~":
                lits[at] = name + "~"
            elif defect == "empty":
                lits.insert(at, "")
            elif defect == "p q" and n > 1:
                lits[at : at + 2] = [" ".join(lits[at : at + 2])]
            elif defect == "missing":
                del lits[at]
            elif defect == "repeated":
                lits.insert(draw(st.integers(0, n)), draw(st.sampled_from(["", "~"])) + name)
            elif defect == "unknown":
                lits.insert(at, draw(st.sampled_from(["zz", "~zz"])))
        if layout == "padded":
            lits = ["~" + draw(pad) + lit[1:] if lit[:1] == "~" else lit for lit in lits]
            body = ",".join(draw(pad) + lit + draw(pad) for lit in lits)
        else:
            body = ",".join(lits)
        weight = format_fraction(Fraction(mass, sum(masses)))
        lines.append(f"world {body}{draw(pad)}:{draw(pad)}{weight}")
    return "\n".join(lines) + "\n"


class TestWorldLineRoutes:
    """The writer's line is read by one comparison and any other line by
    whole-line steps; every line must read as it does through
    ``_literals``, the reader of one literal at a time."""

    @settings(max_examples=300, deadline=None)
    @given(world_files())
    def test_same_space_or_fault_as_per_literal_reader(self, text):
        fast = _read(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kbformats, "_parse_world_line", _by_literals)
            slow = _read(text)
        assert fast == slow

    @settings(max_examples=100, deadline=None)
    @given(world_files().filter(lambda text: isinstance(_read(text)[0], Vocabulary)))
    def test_writer_lines_never_read_per_literal(self, text):
        doc = parse_kb(text, "prob")
        written = serialize_kb(doc)

        def refuse(*args):
            raise AssertionError("a written world line was read one literal at a time")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kbformats, "_literals", refuse)
            again = parse_kb(written, "prob")
        assert (again.vocab, again.body) == (doc.vocab, doc.body)
        assert [w.weight for w in again.body.worlds] == [w.weight for w in doc.body.worlds]


class TestBoundedLiterals:
    """A literal refused by a bound is named with the bound, quoted only
    up to a short prefix, at the column of a literal refused otherwise."""

    LONG = "0." + "1" * 100001

    @pytest.mark.parametrize(
        "text, kind, where, message",
        [
            (f"vocab: p\nworld p : {LONG}\nworld ~p : 1\n", "prob", (2, 10),
             f"bad weight '{LONG[:40]}...': literal longer than 100000 characters"),
            (f"vocab: p\nposs {LONG} : p\n", "poss", (2, 6),
             f"bad possibility value '{LONG[:40]}...': literal longer than 100000 characters"),
            ("vocab: p\nworld p : 1e-10000000\nworld ~p : 1\n", "prob", (2, 10),
             "bad weight '1e-10000000': decimal exponent beyond 10000"),
            ("vocab: p\nposs 1e-10000000 : p\n", "poss", (2, 6),
             "bad possibility value '1e-10000000': decimal exponent beyond 10000"),
            ("vocab: p\nworld p : 1/0\nworld ~p : 1\n", "prob", (2, 10), "bad weight '1/0'"),
            ("vocab: p\nposs x : p\n", "poss", (2, 6), "bad possibility value 'x'"),
            (f"vocab: p\nworld p : -{LONG[:1000]}\nworld ~p : 1\n", "prob", (2, 10),
             f"negative weight -{LONG[:39]}..."),
            (f"vocab: p\nposs 1{LONG[1:1000]} : p\n", "poss", (2, 6),
             f"possibility value 1{LONG[1:40]}... outside [0, 1]"),
            ("vocab: p\nworld p : 1e4000\nworld ~p : 0\n", "prob", (3, 1),
             f"sample space weights total 1{'0' * 39}..., not 1"),
        ],
        ids=["prob length", "poss length", "prob exponent", "poss exponent", "prob zero",
             "poss word", "prob negative", "poss above one", "prob long total"],
    )
    def test_message_names_the_bound(self, text, kind, where, message):
        with pytest.raises(ParseError) as got:
            parse_kb(text, kind)
        assert (got.value.line, got.value.column, got.value.message) == (*where, message)


class TestPossFormat:
    def test_levels_sorted_on_load(self, nested_kb):
        doc = parse_kb(NESTED_POSS, "poss")
        assert doc.body == nested_kb
        assert [value for _, value in doc.body.levels] == [
            Fraction(3, 10),
            Fraction(7, 10),
        ]

    def test_equal_values_merge(self):
        doc = parse_kb("poss 0.5 : p\nposs 0.5 : q\nposs 0.9 : p | q", "poss")
        assert len(doc.body.levels) == 2
        assert doc.body.levels[0][0] == frozenset({P, Q})

    def test_value_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_kb("poss 1.5 : p", "poss")

    def test_round_trip(self):
        doc = parse_kb(NESTED_POSS, "poss")
        again = parse_kb(serialize_kb(doc), "poss")
        assert again.body == doc.body

    def test_round_trip_merges_duplicates(self):
        doc = parse_kb("poss 0.5 : p\nposs 0.5 : q", "poss")
        again = parse_kb(serialize_kb(doc), "poss")
        assert again.body == doc.body

    @pytest.mark.parametrize("header", ["", "vocab: p q\n"])
    def test_each_formula_parsed_once(self, monkeypatch, header):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return parse_tokens(*args, **kwargs)

        monkeypatch.setattr(kbformats, "parse_tokens", counting)
        doc = parse_kb(header + NESTED_POSS.split("\n", 1)[1], "poss")
        assert len(calls) == 2
        assert doc.vocab.names == ("p", "q")

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("vocab: p\nposs 0.5 : p & r\n", 2, 16),
            ("vocab: p q\nposs 0.2 : q\nposs 0.5 : p & (q\n", 3, 18),
            ("poss 0.2 : q\nposs 0.5 : p & (q\n", 2, 18),
        ],
    )
    def test_formula_error_location(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse_kb(text, "poss")
        assert (info.value.line, info.value.column) == (line, column)


class TestUnreachedErrors:
    """Rejections that no other test reaches, each at its line and column."""

    @pytest.mark.parametrize(
        "kind, text, line, column, message",
        [
            ("default", "vocab:\nfact: p", 1, 7, "vocab header lists no constants"),
            ("poss", "vocab: p 1q\nposs 1 : p", 1, 10, "bad constant name: '1q'"),
            ("default", "vocab: p, p\nfact: p", 1, 11, "duplicate constant name: 'p'"),
            ("default", "fact: p\nrule 1x: true : M p / p", 2, 6, "bad rule id '1x'"),
            ("default", "fact: p\nrule r1: true : p / p", 2, 17, "justification must start with 'M'"),
            ("ael", "p\nvocab: L p", 2, 1, "'L' is reserved in belief premises"),
            ("default", "fact: p q", 1, 9, "unexpected 'q' after formula"),
            ("ael", "p\np q", 2, 3, "unexpected 'q' after formula"),
        ],
    )
    def test_located(self, kind, text, line, column, message):
        with pytest.raises(ParseError) as got:
            parse_kb(text, kind)
        assert (got.value.message, got.value.line, got.value.column) == (message, line, column)

    def test_unknown_kind(self):
        # a kind is named by its word, not by its file suffix
        with pytest.raises(ValueError) as got:
            parse_kb("vocab: p\nfact: p", "dl")
        assert str(got.value) == "unknown KB kind 'dl'"


# a valid first line of each kind, and the tokens that lines of that kind
# are made of, for the line-locality property below
FIRST_LINES = {"default": "fact: p", "ael": "L p -> q", "prob": "vocab: p q", "poss": "poss 1/2 : p"}
LINE_TOKENS = {
    "default": ["fact:", "rule", "r1", ":", "M", "/", ",", "p", "L", "~", "&", "(", ")", "true"],
    "ael": ["L", "~", "p", "q", "&", "|", "->", "(", ")", "M"],
    "prob": ["world", "p", "~p", "q", "~q", "r", ",", ":", "1/2", "1", "x"],
    "poss": ["poss", "1/2", "1", "2", ":", "p", "q", "&", "(", "L"],
}
# rejections of the file as a whole, reported where the file ends or starts
WHOLE_FILE = ("sample space weights total", "sample space worlds must", "possibilistic base has no")


class TestTotality:
    @settings(max_examples=500, deadline=None)
    @given(
        st.sampled_from(KB_KINDS).flatmap(
            lambda kind: st.tuples(
                st.just(kind), st.lists(st.sampled_from(LINE_TOKENS[kind]), max_size=8)
            )
        ),
        st.sampled_from([" ", ""]),
    )
    def test_fault_in_second_line_is_reported_there(self, kind_tokens, sep):
        # a vocab: header applies to the whole file, so none is drawn
        kind, tokens = kind_tokens
        try:
            parse_kb(f"{FIRST_LINES[kind]}\n{sep.join(tokens)}", kind)
        except ParseError as exc:
            assert exc.line == 2 or exc.message.startswith(WHOLE_FILE), str(exc)

    @given(st.sampled_from(KB_KINDS), st.text(max_size=120))
    def test_never_crashes(self, kind, text):
        try:
            parse_kb(text, kind)
        except ParseError as exc:
            assert exc.line >= 1 and exc.column >= 1

    @given(st.sampled_from(KB_KINDS), st.text(alphabet="pqr&|~->()<: \n/,Mw.0123456789", max_size=120))
    def test_never_crashes_on_format_like_text(self, kind, text):
        try:
            parse_kb(text, kind)
        except ParseError as exc:
            assert exc.line >= 1 and exc.column >= 1


class TestLineGrammar:
    """The rules every format shares: keywords and the one header."""

    @pytest.mark.parametrize(
        "kind, text, line, column, message",
        [
            ("default", "rulex: true : M p / p", 1, 1, "expected a vocab:, fact:, or rule line"),
            ("default", "  factx: p", 1, 3, "expected a vocab:, fact:, or rule line"),
            ("prob", "vocab: p\nworldp : 1", 2, 1, "expected a vocab: or world line"),
            ("poss", "possx 1 : p", 1, 1, "expected a vocab: or poss line"),
            ("poss", " poss1 : p", 1, 2, "expected a vocab: or poss line"),
            ("default", "rule: true : M p / p", 1, 5, "bad rule id ''"),
            ("prob", "vocab: p\n world: 1", 2, 7, "empty literal"),
        ],
    )
    def test_keyword_must_end(self, kind, text, line, column, message):
        with pytest.raises(ParseError) as got:
            parse_kb(text, kind)
        assert (got.value.message, got.value.line, got.value.column) == (message, line, column)

    @pytest.mark.parametrize(
        "kind, body",
        [("default", "fact: p"), ("ael", "p"), ("prob", "world p : 1"), ("poss", "poss 1 : p")],
    )
    def test_second_header_refused(self, kind, body):
        with pytest.raises(ParseError) as got:
            parse_kb(f"vocab: p\n{body}\n  vocab: q\n", kind)
        assert (got.value.message, got.value.line, got.value.column) == (
            "more than one vocab: header", 3, 3
        )


# lines each kind accepts, mixed with lines of its tokens for the round trip
ACCEPTED_LINES = {
    "default": ["fact: p", "fact: true", "rule r1: true : M p / p", "rule r2: p : M q, M ~q / q"],
    "ael": ["L p -> q", "~L q & L r -> p", "L p", "~L q", "true", "p | q"],
    "prob": ["world p,q : 1/2", "world ~p,q : 1/2", "world p,~q : 1", "world ~p,~q : 0"],
    "poss": ["poss 1/2 : p", "poss 1 : q | p", "poss 1 : true", "poss 0 : r & ~p"],
}


@st.composite
def prob_files(draw):
    """A sample space file of 1 to 40 distinct worlds over 1 to 12
    constants, with its literals shuffled, now and then padded with
    spaces or tabs or with a spaced negation, and the text that
    ``serialize_kb`` writes for it."""
    n = draw(st.integers(1, 12))
    names = [f"c{i}" for i in range(n)]
    indices = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True))
    masses = draw(st.lists(st.integers(1, 9), min_size=len(indices), max_size=len(indices)))
    pad = st.sampled_from(["", "", "", " ", "\t", "  "])
    written, canonical = ["vocab: " + " ".join(names)], ["vocab: " + " ".join(names)]
    for i, mass in zip(indices, masses):
        lits = [c if i >> (n - 1 - k) & 1 else "~" + c for k, c in enumerate(names)]
        weight = format_fraction(Fraction(mass, sum(masses)))
        canonical.append(f"world {','.join(lits)} : {weight}")
        shuffled = draw(st.permutations(lits))
        spaced = [draw(st.sampled_from(["~", "~ "])) + lit[1:] if lit[0] == "~" else lit for lit in shuffled]
        body = ",".join(draw(pad) + lit + draw(pad) for lit in spaced)
        written.append(f"world {body}{draw(pad)}:{draw(pad)}{weight}")
    return "\n".join(written) + "\n", "\n".join(canonical) + "\n"


def formula_texts(names, depth: int):
    """The text of a formula over ``names`` of depth at most ``depth``."""
    leaf = st.sampled_from([*map(Const, names), TRUE, FALSE])

    def deeper(sub):
        binary = st.tuples(st.sampled_from([And, Or, Implies, Iff]), sub, sub)
        return st.builds(Not, sub) | binary.map(lambda t: t[0](t[1], t[2]))

    formulas = leaf
    for _ in range(depth):
        formulas = leaf | deeper(formulas)
    return formulas.map(format_formula)


@st.composite
def base_files(draw, kind: str):
    """A valid ``.dl``, ``.ael`` or ``.poss`` file of 1 to 30 lines over 1
    to 8 constants, formulas of depth up to 3, and ``.poss`` values as
    ratios in [0, 1]."""
    names = [f"c{i}" for i in range(draw(st.integers(1, 8)))]
    f = formula_texts(names, 3)
    if kind == "default":
        fact = f.map("fact: {}".format)
        justs = st.lists(f, min_size=1, max_size=3).map(lambda bs: ", ".join(f"M {b}" for b in bs))
        rule = st.tuples(f, justs, f).map(lambda t: "{} : {} / {}".format(*t))
        lines = draw(st.lists(fact | rule, min_size=1, max_size=30))
        lines = [ln if ln.startswith("fact") else f"rule r{i}: {ln}" for i, ln in enumerate(lines)]
    elif kind == "ael":
        # at most one positive condition; a bare one, with no conclusion
        believed = st.lists(f.map("L ({})".format), max_size=1)
        doubted = st.lists(f.map("~L ({})".format), max_size=2)
        conditions = st.tuples(believed, doubted).map(lambda t: t[0] + t[1]).filter(bool)
        modal = st.tuples(conditions, st.none() | f).filter(lambda t: t[1] or len(t[0]) == 1)
        premise = modal.map(lambda t: " & ".join(t[0]) + (f" -> {t[1]}" if t[1] else ""))
        lines = draw(st.lists(f | premise, min_size=1, max_size=30))
    else:
        value = st.integers(1, 40).flatmap(lambda den: st.integers(0, den).map(lambda n: f"{n}/{den}"))
        line = st.tuples(value, f).map(lambda t: "poss {} : {}".format(*t))
        lines = draw(st.lists(line, min_size=1, max_size=30))
    return "vocab: " + " ".join(names) + "\n" + "\n".join(lines) + "\n"


class TestRoundTrip:
    @settings(max_examples=500, deadline=None)
    @given(
        st.sampled_from(KB_KINDS).flatmap(
            lambda kind: st.tuples(
                st.just(kind),
                st.sampled_from(["", "vocab: p q\n", "vocab: q p r L M r1 x\n"]),
                st.lists(
                    st.sampled_from(ACCEPTED_LINES[kind])
                    | st.lists(st.sampled_from(LINE_TOKENS[kind]), max_size=8).map(" ".join),
                    max_size=4,
                ),
            )
        )
    )
    def test_accepted_text_round_trips(self, drawn):
        # World equality ignores weights, so the bytes are compared too
        kind, header, lines = drawn
        try:
            doc = parse_kb(header + "\n".join(lines), kind)
        except ParseError:
            return
        text = serialize_kb(doc)
        again = parse_kb(text, kind)
        assert (again.vocab, again.body) == (doc.vocab, doc.body)
        assert serialize_kb(again) == text

    @settings(max_examples=80, deadline=None)
    @given(prob_files())
    def test_prob_files_round_trip_at_larger_sizes(self, drawn):
        """Up to 40 world lines over up to 12 constants, their literals
        shuffled and padded, read back to the text the writer gives."""
        written, canonical = drawn
        doc = parse_kb(written, "prob")
        assert serialize_kb(doc) == canonical
        again = parse_kb(canonical, "prob")
        assert again.body == doc.body
        assert [w.weight for w in again.body.worlds] == [w.weight for w in doc.body.worlds]

    @pytest.mark.parametrize("kind", ["default", "ael", "poss"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bases_round_trip_at_larger_sizes(self, kind, data):
        """Up to 30 lines over up to 8 constants read back to the same
        base; a possibility base also builds the same sequence bytes."""
        doc = parse_kb(data.draw(base_files(kind)), kind)
        again = parse_kb(serialize_kb(doc), kind)
        assert again == doc
        if kind == "poss":
            built, rebuilt = build_poss_sequence(doc.body), build_poss_sequence(again.body)
            assert type(built) is type(rebuilt)
            if isinstance(built, PartitionSequence):
                assert render_json(rebuilt) == render_json(built)
            else:
                assert rebuilt == built

    @pytest.mark.parametrize("make", [And, Or, Implies, Iff])
    @pytest.mark.parametrize("kind", ["default", "ael", "poss"])
    def test_formulas_at_the_depth_bound_round_trip(self, kind, make):
        # right-nested, so every operand but the innermost is parenthesised
        # where the connective chains to the left
        phi = P
        for _ in range(MAX_FORMULA_DEPTH):
            phi = make(Q, phi)
        vocab = Vocabulary(["p", "q"])
        body = {
            "default": DefaultTheory((DefaultRule("r1", phi, (phi,), phi),), (phi,), vocab),
            "ael": AelPremises((ModalFormula(gamma=phi, alpha=phi, betas=(phi,)),), vocab),
            "poss": PossibilisticKB(((frozenset({phi}), Fraction(1, 2)),), vocab),
        }[kind]
        doc = KbDocument(kind, vocab, body)
        assert parse_kb(serialize_kb(doc), kind) == doc

    @pytest.mark.parametrize(
        "kind, text", [("default", "fact: true"), ("ael", ""), ("poss", "poss 1 : true")]
    )
    def test_empty_vocabulary_round_trips(self, kind, text):
        doc = parse_kb(text, kind)
        assert doc.vocab.names == ()
        assert parse_kb(serialize_kb(doc), kind) == doc
