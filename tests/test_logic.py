"""Core language: world enumeration, valuation, entailment, syntax."""

import copy
import pickle
import random
import re
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partseq import (
    FALSE,
    TRUE,
    And,
    Const,
    Iff,
    Implies,
    Kernel,
    Not,
    Or,
    ParseError,
    ResourceLimitError,
    SemanticError,
    Vocabulary,
    World,
    as_fraction,
    atoms,
    entails,
    enumerate_worlds,
    evaluate,
    format_formula,
    lottery_space,
    models,
    parse_formula,
)
from partseq.logic import MAX_FORMULA_DEPTH, TruthTable, WorldSet
from partseq.rationals import (
    MAX_DECIMAL_EXPONENT,
    MAX_LITERAL_LENGTH,
    decimal_digits,
    format_fraction,
    parse_fraction,
    ratio_text,
)
from partseq.sequences import table_rows
from genkit import random_formula, truth_table_entails

P, Q = Const("p"), Const("q")


class TestVocabulary:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary(["p", "p"])

    def test_rejects_reserved_literals(self):
        with pytest.raises(ValueError):
            Vocabulary(["true"])

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError):
            Vocabulary(["p-q"])

    def test_order_preserved(self):
        assert Vocabulary(["b", "a"]).names == ("b", "a")
        assert list(Vocabulary(["b", "a"])) == ["b", "a"]

    @given(st.lists(st.sampled_from(["p", "q", "_r2", "true", "false", "2p", "p q", "", "p-q", "p\n"])))
    def test_first_fault_named_as_one_name_at_a_time(self, names):
        expected, seen = None, set()
        for name in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                expected = f"bad constant name: {name!r}"
            elif name in ("true", "false"):
                expected = f"{name!r} is a reserved literal"
            elif name in seen:
                expected = f"duplicate constant name: {name!r}"
            if expected:
                break
            seen.add(name)
        if expected is None:
            assert Vocabulary(names).names == tuple(names)
        else:
            with pytest.raises(ValueError) as info:
                Vocabulary(names)
            assert str(info.value) == expected


class TestWorlds:
    def test_single_constant(self):
        vocab = Vocabulary(["p"])
        ws = enumerate_worlds(vocab)
        assert [w.true_names for w in ws] == [frozenset(), frozenset({"p"})]

    def test_two_constants_counting_order(self, pq):
        ws = enumerate_worlds(pq)
        assert [w.bits() for w in ws] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(set(ws)) == 4

    def test_cardinality_and_uniqueness(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        ws = enumerate_worlds(vocab)
        assert len(ws) == 16
        assert len(set(ws)) == 16

    def test_cap_boundary(self):
        vocab = Vocabulary([f"x{i}" for i in range(21)])
        with pytest.raises(ResourceLimitError, match="20"):
            enumerate_worlds(vocab)

    def test_weight_not_part_of_identity(self, pq):
        assert World(pq, ["p"], 1) == World(pq, ["p"], "0.5")
        assert hash(World(pq, ["p"], 1)) == hash(World(pq, ["p"], "0.5"))

    def test_negative_weight_rejected(self, pq):
        with pytest.raises(ValueError):
            World(pq, ["p"], -1)

    @pytest.mark.parametrize(
        "weight, shown",
        [(Fraction(-1, 2), "-1/2"), (-(10**5000), "-1" + "0" * 38 + "...")],
        ids=["ratio", "5000 digits"],
    )
    def test_negative_weight_named_clipped(self, pq, weight, shown):
        # a 5000-digit weight is quoted to 40 characters, past the
        # interpreter's limit on int-to-str conversion
        table = TruthTable(pq)
        for refuse in (lambda: World(pq, ["p"], weight), lambda: table.reweighted([(1, weight)])):
            with pytest.raises(ValueError) as got:
                refuse()
            assert str(got.value) == f"negative world weight: {shown}"

    def test_unknown_constant_rejected(self, pq):
        with pytest.raises(SemanticError):
            World(pq, ["r"])


class TestEvaluate:
    def test_conjunction_with_negation(self, pq):
        w = World(pq, ["p"])
        assert evaluate(And(P, Not(Q)), w) is True

    def test_failed_implication(self, pq):
        w = World(pq, ["p"])
        assert evaluate(Implies(P, Q), w) is False

    def test_constants(self, pq):
        for w in enumerate_worlds(pq):
            assert evaluate(TRUE, w) is True
            assert evaluate(FALSE, w) is False

    def test_unknown_constant_is_semantic_error(self, pq):
        with pytest.raises(SemanticError):
            evaluate(Const("zz"), World(pq, []))


class TestModels:
    def test_single_atom(self, pq):
        ws = enumerate_worlds(pq)
        assert models(P, ws) == {w for w in ws if "p" in w.true_names}

    def test_contradiction_empty(self, pq):
        assert models(FALSE, enumerate_worlds(pq)) == frozenset()

    def test_disjunction(self, pq):
        assert len(models(Or(P, Q), enumerate_worlds(pq))) == 3


class TestEntails:
    def test_modus_ponens(self, pq):
        assert entails([P, Implies(P, Q)], Q, pq)

    def test_unrelated_fails(self, pq):
        assert not entails([P], Q, pq)

    def test_tautology_from_nothing(self):
        vocab = Vocabulary(["p"])
        assert entails([], Or(P, Not(P)), vocab)

    def test_matches_truth_tables(self):
        rng = random.Random(20260809)
        vocab = Vocabulary(["p", "q", "r"])
        for _ in range(150):
            premises = [
                random_formula(rng, vocab.names, rng.randint(0, 3))
                for _ in range(rng.randint(0, 2))
            ]
            phi = random_formula(rng, vocab.names, rng.randint(0, 3))
            assert entails(premises, phi, vocab) == truth_table_entails(
                premises, phi, vocab
            )


def truth_tables(rng):
    """(vocabulary, worlds in index order, table) triples: the dense table
    over up to five constants, listed tables over random weighted subsets
    of its worlds in random order, and one listed table over 300 constants."""
    names = ("a", "b", "c", "d", "e")
    for size in range(6):
        vocab = Vocabulary(names[:size])
        worlds = enumerate_worlds(vocab)
        yield vocab, worlds, TruthTable(vocab)
        for _ in range(3):
            listed = [
                World(vocab, w.true_names, Fraction(rng.randint(0, 9), 7))
                for w in worlds
                if rng.random() < 0.6
            ]
            rng.shuffle(listed)
            yield vocab, listed, TruthTable(vocab, worlds=listed)
    wide = Vocabulary(f"x{i}" for i in range(300))
    listed = list(
        dict.fromkeys(
            World(wide, rng.sample(wide.names, rng.randint(0, 300)), Fraction(1, rng.randint(1, 9)))
            for _ in range(60)
        )
    )
    yield wide, listed, TruthTable(wide, worlds=listed)


class TestTruthTable:
    # formulas without constants, for the empty vocabulary
    GROUND = [
        TRUE,
        FALSE,
        Not(TRUE),
        And(TRUE, FALSE),
        Or(FALSE, Not(FALSE)),
        Implies(TRUE, FALSE),
        Iff(FALSE, FALSE),
    ]

    def test_masks_match_evaluate_bit_by_bit(self):
        rng = random.Random(20261018)
        for vocab, worlds, table in truth_tables(rng):
            assert table.full == (1 << len(worlds)) - 1
            for _ in range(80):
                if vocab.names:
                    phi = random_formula(rng, vocab.names, rng.randint(0, 4))
                else:
                    phi = rng.choice(self.GROUND)
                m = table.mask(phi)
                assert m >> len(worlds) == 0
                for i, w in enumerate(worlds):
                    assert bool(m >> i & 1) == evaluate(phi, w), (phi, w)

    def test_world_sets_round_trip(self):
        rng = random.Random(7)
        for _, worlds, table in truth_tables(rng):
            assert [table.index(w) for w in worlds] == list(range(len(worlds)))
            assert table.world_list(table.full) == worlds
            for _ in range(40):
                subset = frozenset(w for w in worlds if rng.random() < 0.5)
                m = table.mask_of(subset)
                assert table.worlds(m) == subset
                assert table.mask_of(table.worlds(m)) == m
                assert table.mass(m) == sum(w.weight for w in subset)

    def test_mask_of_reads_weights_and_refuses_a_foreign_world(self, pq):
        worlds = enumerate_worlds(pq)  # built by another table
        heavy = [w.reweighted(2) for w in worlds]
        plain = TruthTable(pq)
        got = plain.world_list(plain.mask_of(heavy))
        assert got == heavy and {w.weight for w in got} == {1}
        shared = TruthTable(pq).reweighted([(0b0011, "1/4"), (0b1100, "1/4")])
        got = shared.world_list(shared.mask_of(worlds))
        assert got == worlds and {w.weight for w in got} == {Fraction(1, 4)}
        listed = TruthTable(pq, worlds=heavy)
        with pytest.raises(SemanticError, match=r"world \{~p, ~r\} is not a world of"):
            listed.mask_of([World(Vocabulary(["p", "r"]), [])])

    def test_cap_checked_before_allocating(self):
        vocab = Vocabulary([f"x{i}" for i in range(21)])
        with pytest.raises(ResourceLimitError) as info:
            TruthTable(vocab)
        with pytest.raises(ResourceLimitError) as enumerated:
            enumerate_worlds(vocab)
        assert str(info.value) == str(enumerated.value)

    def test_unknown_constant_is_semantic_error(self, pq):
        with pytest.raises(SemanticError):
            TruthTable(pq).mask(Const("zz"))

    @pytest.mark.parametrize("weight", [1, "1/3", Fraction(0), 2])
    def test_dense_worlds_match_checked_worlds(self, weight):
        # built from their indices without World.__init__'s checks
        vocab = Vocabulary(["a", "b", "c"])
        table = TruthTable(vocab).reweighted([(0xFF, weight)])
        for i, w in enumerate(table.world_list(table.full)):
            names = [n for n, bit in zip(vocab.names, format(i, "03b")) if bit == "1"]
            checked = World(vocab, names, weight)
            assert w == checked and hash(w) == hash(checked)
            assert w.true_names == checked.true_names and w.vocab is vocab
            assert type(w.weight) is Fraction and w.weight == checked.weight
            assert repr(w) == repr(checked)

    def test_reweighted_refuses_a_negative_share(self, pq):
        table = TruthTable(pq)
        with pytest.raises(ValueError, match="negative world weight: -1/2"):
            table.reweighted([(0b0011, Fraction(1, 2)), (0b1100, Fraction(-1, 2))])

    def test_reweighted_refuses_overlapping_masks(self, pq):
        # summed shares would count world 1 twice
        table = TruthTable(pq)
        with pytest.raises(ValueError, match="overlap"):
            table.reweighted([(0b0011, Fraction(1, 2)), (0b0110, Fraction(1, 4))])
        # disjoint masks of one share are joined
        joined = table.reweighted([(0b0001, Fraction(1, 2)), (0b0100, Fraction(1, 2))])
        assert joined.shares == ((0b0101, Fraction(1, 2)),)

    def test_entails_refuses_twenty_one_constants(self):
        vocab = Vocabulary([f"x{i}" for i in range(21)])
        with pytest.raises(ResourceLimitError, match="capped at 20"):
            entails([], Const("x0"), vocab)


class TestWorldSet:
    """A weight-1 dense table gives world sets that keep their mask, and
    reads them back by it."""

    def test_built_once_per_table_and_mask(self, pq):
        table = TruthTable(pq)
        got = table.worlds(0b0110)
        assert isinstance(got, WorldSet) and got.vocab is pq and got.mask == 0b0110
        assert table.worlds(0b0110) is got and TruthTable(pq).worlds(0b0110) is not got
        assert got == frozenset(table.world_list(0b0110))

    def test_read_by_its_mask_over_an_equal_vocabulary(self, pq, monkeypatch):
        got = TruthTable(pq).worlds(0b1001)
        other = TruthTable(Vocabulary(["p", "q"]))
        assert other.vocab is not pq
        monkeypatch.setattr(TruthTable, "index", lambda self, world: pytest.fail("indexed"))
        assert other.mask_of(got) == 0b1001
        assert other.worlds(0b1001) is got
        shared = TruthTable(pq).reweighted([(0b1111, 3)])
        assert shared.mask_of(got) == 0b1001
        assert shared.worlds(0b1001) is not got and {w.weight for w in shared.worlds(0b1001)} == {3}

    def test_another_vocabulary_is_refused(self, pq):
        foreign = TruthTable(Vocabulary(["p", "r"])).worlds(0b0010)
        with pytest.raises(SemanticError, match=r"world \{~p, r\} is not a world of"):
            TruthTable(pq).mask_of(foreign)
        listed = TruthTable(pq, worlds=enumerate_worlds(pq)[::-1])
        assert listed.mask_of(TruthTable(pq).worlds(0b0001)) == 0b1000

    def test_weighted_and_listed_tables_give_plain_sets(self, pq):
        shared = TruthTable(pq).reweighted([(0b0011, "1/4"), (0b1100, "1/2")])
        got = shared.worlds(0b0110)
        assert type(got) is frozenset and {w.weight for w in got} == {Fraction(1, 4), Fraction(1, 2)}
        heavy = [w.reweighted(2) for w in enumerate_worlds(pq)]
        got = TruthTable(pq, worlds=heavy).worlds(0b0011)
        assert type(got) is frozenset and got == frozenset(heavy[:2])
        assert {w.weight for w in got} == {2}

    def test_copies_pickles_and_set_operations_are_plain(self, pq):
        got = TruthTable(pq).worlds(0b0111)
        rest = TruthTable(pq).worlds(0b1000)
        for made in (
            copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got)), got.copy(),
            got | frozenset(), got & got, got - rest, got ^ rest, got.union(),
        ):
            assert type(made) is frozenset
        assert copy.copy(got) == got == pickle.loads(pickle.dumps(got)) == copy.deepcopy(got)
        assert got | rest == frozenset(enumerate_worlds(pq)) and hash(got) == hash(frozenset(got))

    def test_repr_is_the_frozensets(self, pq):
        table = TruthTable(pq)
        for mask in (0, 0b0001, 0b1010, table.full):
            got = table.worlds(mask)
            assert repr(got) == repr(frozenset(got))
        assert repr(table.worlds(0)) == "frozenset()"


def per_world_mass(worlds, mask) -> Fraction:
    """The oracle: the weights of the worlds of ``mask`` added one by one."""
    return sum((w.weight for i, w in enumerate(worlds) if mask >> i & 1), Fraction(0))


def first_primes(count: int) -> list[int]:
    primes: list[int] = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


class TestMass:
    """``mass`` sums integer numerators over one common denominator."""

    def masks(self, rng, size):
        yield 0
        yield (1 << size) - 1
        for _ in range(20):
            yield rng.getrandbits(size) if size else 0

    def test_listed_matches_per_world_sum(self):
        rng = random.Random(52)
        dens = (1, 2, 3, 7, 10, 12, 99, 1024)
        names = [f"x{i}" for i in range(300)]
        for size in (0, 1, 2, 5, 40, 300):
            vocab = Vocabulary(names[:size])
            for _ in range(5):
                listed = [
                    World(vocab, [n], Fraction(rng.choice((0, rng.randint(0, 50))), rng.choice(dens)))
                    for n in vocab.names
                ]
                table = TruthTable(vocab, worlds=listed)
                for m in self.masks(rng, size):
                    got = table.mass(m)
                    assert type(got) is Fraction
                    assert got == per_world_mass(listed, m)

    def test_all_weights_zero(self, pq):
        listed = [World(pq, w.true_names, 0) for w in enumerate_worlds(pq)]
        table = TruthTable(pq, worlds=listed)
        assert table.mass(table.full) == 0 == table.mass(0)

    def test_dense_mass_is_popcount(self):
        rng = random.Random(53)
        for size in range(8):
            vocab = Vocabulary(f"c{i}" for i in range(size))
            table = TruthTable(vocab)
            worlds = enumerate_worlds(vocab)
            for m in self.masks(rng, table.size):
                assert table.mass(m) == m.bit_count() == per_world_mass(worlds, m)

    def test_coprime_denominators_exact_and_no_slower(self):
        # 300 worlds weighted 1/p for the first 300 primes: the common
        # denominator is their product, about 2900 bits
        rng = random.Random(54)
        primes = first_primes(300)
        vocab = Vocabulary(f"x{i}" for i in range(300))
        listed = [World(vocab, [n], Fraction(1, p)) for n, p in zip(vocab.names, primes)]
        table = TruthTable(vocab, worlds=listed)
        masks = [table.full] + [rng.getrandbits(300) for _ in range(9)]
        assert [table.mass(m) for m in masks] == [per_world_mass(listed, m) for m in masks]

        def best(fn) -> float:
            times = []
            for _ in range(5):
                start = time.perf_counter()
                for m in masks:
                    fn(m)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(table.mass) <= best(lambda m: per_world_mass(listed, m))


@st.composite
def weighted_tables(draw):
    """A weighted table and the oracle: its worlds in index order, each
    carrying the weight the table should give it. The table is one of a
    dense table with no shares (every weight 1), one reweighted by disjoint
    shares (a world in none weighs 0), a listed table whose worlds share
    one weight object, one whose equal weights are distinct objects, or a
    lottery."""
    kind = draw(st.sampled_from(["plain", "dense", "one object", "distinct objects", "lottery"]))
    weights = st.fractions(0, 3, max_denominator=12)
    if kind == "lottery":
        space = lottery_space(draw(st.integers(1, 40)))
        n = len(space.vocab)
        oracle = [World(space.vocab, [f"p{i}"], Fraction(1, n)) for i in range(1, n + 1)]
        return space.table, oracle
    vocab = Vocabulary(["a", "b", "c", "d", "e"][: draw(st.integers(0, 5))])
    worlds = enumerate_worlds(vocab)
    if kind == "plain":
        return TruthTable(vocab), worlds
    if kind == "dense":
        values = draw(st.lists(weights, min_size=1, max_size=4))
        held = draw(st.lists(st.integers(-1, len(values) - 1), min_size=len(worlds), max_size=len(worlds)))
        shares = [
            (sum(1 << i for i, k in enumerate(held) if k == j), q) for j, q in enumerate(values)
        ]
        oracle = [World(vocab, w.true_names, 0 if k < 0 else values[k]) for w, k in zip(worlds, held)]
        return TruthTable(vocab).reweighted(draw(st.permutations(shares))), oracle
    chosen = draw(st.lists(st.sampled_from(worlds), unique=True)) if worlds else []
    if kind == "one object":
        q = draw(weights)
        oracle = [World(vocab, w.true_names, q) for w in chosen]
        assert all(w.weight is q for w in oracle)
    else:
        values = draw(st.lists(weights, min_size=1, max_size=3))
        picks = draw(st.lists(st.sampled_from(values), min_size=len(chosen), max_size=len(chosen)))
        oracle = [
            World(vocab, w.true_names, Fraction(q.numerator, q.denominator))
            for w, q in zip(chosen, picks)
        ]
    return TruthTable(vocab, worlds=oracle), oracle


class TestShares:
    """Masses and world weights read off shares, against the worlds of the
    oracle weighed one at a time."""

    @settings(max_examples=300, deadline=None)
    @given(weighted_tables(), st.randoms(use_true_random=False))
    def test_against_per_world_weights(self, drawn, rng):
        table, oracle = drawn
        assert table.size == len(oracle)
        for m in (0, table.full, *(rng.getrandbits(table.size) for _ in range(6))):
            assert table.mass(m) == per_world_mass(oracle, m)
            wanted = [w.weight for i, w in enumerate(oracle) if m >> i & 1]
            rows = table_rows(table, m).weights
            assert (rows if rows is not None else [1] * len(wanted)) == wanted
            assert [w.weight for w in table.world_list(m)] == wanted
            assert table.world_list(m) == [w for i, w in enumerate(oracle) if m >> i & 1]

    @settings(max_examples=300, deadline=None)
    @given(weighted_tables(), st.randoms(use_true_random=False))
    def test_weight_is_the_mass_over_the_common_denominator(self, drawn, rng):
        table, oracle = drawn
        shares = table.shares or ()
        den = lcm(*(q.denominator for _, q in shares))
        for m in (0, table.full, *(rng.getrandbits(table.size) for _ in range(6))):
            weight = table.weight(m)
            assert type(weight) is int
            assert Fraction(weight, den) == table.mass(m) == per_world_mass(oracle, m)


# hypothesis strategy for formulas over at most 4 constants, depth <= 6
_names = ("p", "q", "r", "s")
_leaves = st.one_of(
    st.sampled_from([TRUE, FALSE]), st.sampled_from([Const(n) for n in _names])
)
_formulas = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
        st.tuples(sub, sub).map(lambda t: Iff(*t)),
    ),
    max_leaves=20,
)


class TestAlgebraicLaws:
    @given(_formulas, _formulas, st.integers(0, 15))
    def test_de_morgan(self, a, b, bits):
        vocab = Vocabulary(_names)
        w = World(vocab, [n for i, n in enumerate(_names) if bits >> i & 1])
        assert evaluate(Not(And(a, b)), w) == evaluate(Or(Not(a), Not(b)), w)
        assert evaluate(Not(Or(a, b)), w) == evaluate(And(Not(a), Not(b)), w)

    @given(_formulas, st.integers(0, 15))
    def test_double_negation(self, a, bits):
        vocab = Vocabulary(_names)
        w = World(vocab, [n for i, n in enumerate(_names) if bits >> i & 1])
        assert evaluate(Not(Not(a)), w) == evaluate(a, w)


class TestSyntax:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p", P),
            ("~p", Not(P)),
            ("p & q | r", Or(And(P, Q), Const("r"))),
            ("p -> q -> r", Implies(P, Implies(Q, Const("r")))),
            ("(p -> q) -> r", Implies(Implies(P, Q), Const("r"))),
            ("p <-> q <-> r", Iff(Iff(P, Q), Const("r"))),
            ("~p | q", Or(Not(P), Q)),
            ("~(p | q)", Not(Or(P, Q))),
            ("true -> false", Implies(TRUE, FALSE)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_formula(text) == expected

    def test_parse_checks_vocabulary(self, pq):
        with pytest.raises(ParseError) as info:
            parse_formula("p & zz", pq)
        assert info.value.column == 5

    def test_error_positions(self):
        with pytest.raises(ParseError) as info:
            parse_formula("p & (q |)")
        assert (info.value.line, info.value.column) == (1, 9)

    def test_rejects_stray_characters(self):
        with pytest.raises(ParseError):
            parse_formula("p ? q")

    @given(_formulas)
    def test_format_round_trip(self, phi):
        assert parse_formula(format_formula(phi)) == phi

    @pytest.mark.parametrize("make", [And, Or, Implies, Iff])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_format_round_trip_at_the_depth_bound(self, make, side):
        # a parenthesised operand is one level, like the connective it holds
        phi = P
        for _ in range(MAX_FORMULA_DEPTH):
            phi = make(Q, phi) if side == "right" else make(phi, Q)
        assert parse_formula(format_formula(phi)) == phi
        deeper = make(Q, phi) if side == "right" else make(phi, Q)
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_FORMULA_DEPTH} levels"):
            parse_formula(format_formula(deeper))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([Not, And, Or, Implies, Iff]), st.booleans()),
            min_size=MAX_FORMULA_DEPTH,
            max_size=MAX_FORMULA_DEPTH,
        )
    )
    def test_format_round_trip_of_any_spine_at_the_bound(self, spine):
        # each step wraps the formula so far as a negation or as either
        # operand of a connective, so the depth is exactly the bound
        phi = P
        for make, right in spine:
            phi = make(phi) if make is Not else make(Q, phi) if right else make(phi, Q)
        assert parse_formula(format_formula(phi)) == phi

    @given(st.text(max_size=40))
    def test_parser_total_on_arbitrary_text(self, text):
        try:
            parse_formula(text)
        except ParseError as exc:
            assert exc.line >= 1 and exc.column >= 1

    def test_atoms(self):
        assert atoms(parse_formula("p & (q -> ~p)")) == {"p", "q"}
        assert atoms(TRUE) == frozenset()

    def test_operators_build_formulas(self):
        assert P | Q == Or(P, Q) and ~P == Not(P)
        assert format_formula(~(P | Q)) == "~(p | q)"

    @pytest.mark.parametrize(
        "text,position",
        [("p &\n& q", (2, 1)), ("p\n  q", (2, 3)), ("(p |\nq", (2, 2))],
    )
    def test_error_position_after_a_newline(self, pq, text, position):
        with pytest.raises(ParseError) as info:
            parse_formula(text, pq)
        assert (info.value.line, info.value.column) == position


class TestPublicValues:
    def test_kernel_repr(self, pq):
        kernel = Kernel(frozenset([World(pq, ["p"]), World(pq, ["p", "q"], 3)]), pq)
        assert repr(kernel) == "Kernel([{p, ~q}, <{p, q}, 3>])"
        assert repr(Kernel(frozenset(), pq)) == "Kernel([])"

    def test_as_fraction_refuses_what_is_no_rational(self):
        with pytest.raises(ValueError, match="not a rational literal: 'x'"):
            as_fraction("x")
        with pytest.raises(TypeError, match="cannot interpret NoneType as a rational"):
            as_fraction(None)


class TestRationalSizes:
    """Literals are bounded before they are read; rationals of any size
    are written, and what is written reads back."""

    @pytest.mark.parametrize(
        "text", ["1e-10001", "1e10001", "1E-10000000", "2.5e+0000099999999999", "1e-1_0001"]
    )
    def test_exponent_beyond_the_bound_is_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="decimal exponent beyond 10000"):
            parse_fraction(text)
        with pytest.raises(ValueError, match="not a rational literal"):
            as_fraction(text)
        assert time.perf_counter() - start < 1

    def test_exponent_at_the_bound_is_read(self):
        assert MAX_DECIMAL_EXPONENT == 10_000
        assert parse_fraction("1e-10000") == Fraction(1, 10**10000)
        assert parse_fraction("-3e+0010000") == -3 * 10**10000

    def test_literal_beyond_the_length_bound_is_refused(self):
        with pytest.raises(ValueError, match="longer than 100000"):
            parse_fraction("1" * (MAX_LITERAL_LENGTH + 1))

    def test_refused_long_literal_is_clipped_and_names_its_bound(self):
        long = "0." + "1" * MAX_LITERAL_LENGTH
        with pytest.raises(ValueError) as info:
            as_fraction(long)
        assert str(info.value) == (
            f"not a rational literal: '{long[:40]}...': literal longer than 100000 characters"
        )
        with pytest.raises(ValueError) as info:
            as_fraction("x" * 41)
        assert str(info.value) == f"not a rational literal: '{'x' * 40}...'"
        # a short literal is quoted whole, as before
        with pytest.raises(ValueError) as info:
            as_fraction("1e-10000000")
        assert str(info.value) == "not a rational literal: '1e-10000000'"

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(1, 10**5000),
            Fraction(-(10**4000 + 1), 10**4300),
            Fraction(1, 10**4000 + 1) - Fraction(1, 10**4000 + 3),
            Fraction(-(7**9000)),
        ],
        ids=["decimal", "negative decimal", "gap of two primes", "integer"],
    )
    def test_any_size_is_written_and_read_back(self, value):
        assert parse_fraction(format_fraction(value)) == value
        assert parse_fraction(ratio_text(value)) == value
        assert as_fraction(f"  {ratio_text(value)} ") == value

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(10**30), 10**30),
        st.integers(0, 80),
        st.integers(0, 80),
        st.sampled_from([1, 3, 7, 21]),
    )
    def test_written_forms_agree_with_the_interpreter(self, num, twos, fives, odd):
        value = Fraction(num, 2**twos * 5**fives * odd)
        assert ratio_text(value) == str(value)
        decimal = decimal_digits(value)
        assert (decimal is None) == (value.denominator % 3 == 0 or value.denominator % 7 == 0)
        if decimal is not None:
            assert Fraction(decimal) == value
            assert "." not in decimal or decimal[-1] != "0"
            assert decimal == format_fraction(value)
