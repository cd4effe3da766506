"""Default-rule engine: fixed-point operator, extensions, sequences."""

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partseq import (
    FALSE,
    TRUE,
    Const,
    DefaultRule,
    DefaultTheory,
    Not,
    PartitionSequence,
    ResourceLimitError,
    SemanticError,
    Vocabulary,
    World,
    build_default_sequences,
    check_default_sequence,
    enumerate_worlds,
    extensions,
    gamma_operator,
    models,
    parse_kb,
    sequences,
    validate_structure,
)
from partseq.logic import TruthTable
from genkit import (
    _default_sequence_ok,
    _subsets,
    _TruthSets,
    brute_force_default_last_classes,
    cached,
    default_candidates,
    default_operator,
    plain,
    random_default_theory,
    random_nonempty_subset,
    random_premises,
    reference_default_sequences,
)

P, Q = Const("p"), Const("q")


def by_bits(vocab):
    return {w.bits(): w for w in enumerate_worlds(vocab)}


def test_rule_needs_a_justification():
    with pytest.raises(ValueError) as got:
        DefaultRule("r1", TRUE, (), P)
    assert str(got.value) == "rule r1: at least one justification required"


class TestGammaOperator:
    def test_rival_fixed_points(self, rival_theory, pq):
        worlds = enumerate_worlds(pq)
        e_pq = models(P & Q, worlds)
        assert gamma_operator(rival_theory, e_pq) == e_pq
        e_not_p = models(Not(P), worlds)
        assert gamma_operator(rival_theory, e_not_p) == e_not_p

    def test_no_rules_returns_fact_models(self, pq):
        theory = DefaultTheory(rules=(), facts=(P,), vocab=pq)
        worlds = enumerate_worlds(pq)
        for candidate in (frozenset(), models(Q, worlds), frozenset(worlds)):
            assert gamma_operator(theory, candidate) == models(P, worlds)

    def test_non_fixed_point(self, rival_theory, pq):
        worlds = enumerate_worlds(pq)
        everything = frozenset(worlds)
        assert gamma_operator(rival_theory, everything) != everything

    def test_output_always_satisfies_facts(self):
        rng = random.Random(4242)
        for _ in range(60):
            theory = random_default_theory(rng)
            worlds = enumerate_worlds(theory.vocab)
            fact_worlds = models(theory.fact_formula, worlds)
            candidate = frozenset(w for w in worlds if rng.random() < 0.5)
            assert gamma_operator(theory, candidate) <= fact_worlds

    def test_agrees_with_definition_off_fixed_points(self):
        rng = random.Random(5151)
        moved = 0
        for _ in range(300):
            theory = random_default_theory(rng)
            ts = _TruthSets(enumerate_worlds(theory.vocab))
            for _ in range(8):
                candidate = random_nonempty_subset(rng, ts.worlds)
                got = gamma_operator(theory, candidate)
                assert got == default_operator(theory, candidate, ts), (theory, candidate)
                moved += got != candidate
        assert moved > 0

    def test_shared_compiled_form(self):
        # one theory object serves the search and then the operator; the
        # forms it keeps are masks only, the facts' models left by the
        # first class last in the whole and in each part, and an equal
        # fresh theory agrees
        rng = random.Random(6161)
        for _ in range(200):
            theory = random_default_theory(rng)
            extensions(theory)
            compiled, parts = theory.compiled, theory.parts
            assert plain(compiled) and plain(parts) and cached(theory) == {"compiled", "parts"}
            _, _, rest = compiled
            table = TruthTable(theory.vocab)
            assert rest == table.mask(theory.fact_formula)
            assert all(part_rest == rest for _, _, part_rest in parts)
            assert all(s.masks[0] == table.full & ~rest for s in build_default_sequences(theory))
            fresh = dataclasses.replace(theory)
            ts = _TruthSets(enumerate_worlds(theory.vocab))
            for _ in range(4):
                candidate = random_nonempty_subset(rng, ts.worlds)
                got = gamma_operator(theory, candidate)
                assert got == default_operator(theory, candidate, ts), (theory, candidate)
                assert got == gamma_operator(fresh, candidate)
            assert theory.compiled is compiled and fresh.compiled == compiled
            assert theory.parts is parts and fresh.parts == parts


class TestOperatorReuse:
    """At a fixed point the operator hands back the caller's own worlds,
    and the search closes each belief vector once."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_extension_is_its_own_value(self, seed):
        theory = random_default_theory(random.Random(seed))
        kernels = extensions(theory)
        worlds = enumerate_worlds(theory.vocab)
        assert {k.worlds for k in kernels} == brute_force_default_last_classes(theory, worlds)
        for k in kernels:
            value = gamma_operator(theory, k.worlds)
            assert value == k.worlds
            assert set(map(id, value)) == set(map(id, k.worlds))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_extension_is_handed_back_as_the_same_set(self, seed):
        theory = random_default_theory(random.Random(seed))
        for k in extensions(theory):
            assert gamma_operator(theory, k.worlds) is k.worlds

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32))
    def test_plain_set_at_a_fixed_point_gives_an_equal_set(self, seed):
        theory = random_default_theory(random.Random(seed))
        worlds = enumerate_worlds(theory.vocab)
        for last in brute_force_default_last_classes(theory, worlds):
            value = gamma_operator(theory, frozenset(last))
            assert value == last and {w.weight for w in value} <= {1}

    def test_weighted_candidate_gives_weight_one_worlds(self, rival_theory, pq):
        worlds = enumerate_worlds(pq)
        fixed = models(P & Q, worlds)
        for weight in (0, 3, "1/2"):
            candidate = frozenset(w.reweighted(weight) for w in fixed)
            value = gamma_operator(rival_theory, candidate)
            assert value == fixed and {w.weight for w in value} == {1}
            assert not set(map(id, value)) & set(map(id, candidate))
        # of two worlds, one of weight 1 and one of weight 2
        light, heavy = sorted(models(Not(P), worlds), key=World.bits)
        mixed = frozenset({light, heavy.reweighted(2)})
        value = gamma_operator(rival_theory, mixed)
        assert value == mixed and {w.weight for w in value} == {1}

    def test_more_candidates_than_belief_vectors(self, monkeypatch):
        # a five-rule chain beside a rule that defeats itself. Apart, they
        # are six parts: each chain rule closes its one vector and s closes
        # two, no extension. Tied by a conclusion that mentions a, one part
        # of 2^6 pools, each refuting no justification or only the one of s
        closes = []
        real_close = sequences.close
        monkeypatch.setattr(
            sequences, "close", lambda *args: closes.append(args) or real_close(*args)
        )
        for link, parts, count in (("", 6, 7), (" & (a | ~a)", 1, 2)):
            theory = parse_kb(
                "vocab: a b c d e s\n"
                + "".join(f"rule r{c}: true : M {c} / {c}{link}\n" for c in "abcde")
                + f"rule s: true : M s / ~s{link}\n",
                "default",
            ).body
            closes.clear()
            worlds = enumerate_worlds(theory.vocab)
            assert extensions(theory) == []
            assert not brute_force_default_last_classes(theory, worlds)
            assert len(theory.parts) == parts and len(closes) == count
            # with the self-defeating rule blocked by a fact, the chain's one extension
            blocked = dataclasses.replace(theory, facts=(Not(Const("s")),))
            got = {k.worlds for k in extensions(blocked)}
            assert got == brute_force_default_last_classes(blocked, worlds) and len(got) == 1

    def test_foreign_world_is_refused(self, rival_theory):
        foreign = World(Vocabulary(["p", "r"]), ["p"])
        with pytest.raises(SemanticError, match=r"world \{p, ~r\} is not a world of"):
            gamma_operator(rival_theory, frozenset({foreign}))


class TestExtensions:
    def test_rival_theory_has_two(self, rival_theory, pq):
        worlds = enumerate_worlds(pq)
        got = {k.worlds for k in extensions(rival_theory)}
        assert got == {models(Not(P), worlds), models(P & Q, worlds)}

    def test_self_defeating_has_none(self, self_defeating_theory):
        assert extensions(self_defeating_theory) == []

    def test_facts_only(self, pq):
        theory = DefaultTheory(rules=(), facts=(P,), vocab=pq)
        kernels = extensions(theory)
        assert len(kernels) == 1
        assert kernels[0].worlds == models(P, enumerate_worlds(pq))

    def test_inconsistent_facts_flagged_by_empty_model_set(self, pq):
        theory = DefaultTheory(
            rules=(DefaultRule("r1", TRUE, (P,), P),), facts=(FALSE,), vocab=pq
        )
        kernels = extensions(theory)
        assert len(kernels) == 1
        assert not kernels[0].is_consistent

    def test_rule_cap(self, pq):
        rules = tuple(DefaultRule(f"r{i}", TRUE, (P,), P) for i in range(17))
        with pytest.raises(ResourceLimitError):
            extensions(DefaultTheory(rules=rules, facts=(), vocab=pq))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32))
    @example(8)  # the rules have fewer conditions than conclusions, the premises not
    @example(43)  # the premises have fewer conditions than conclusions, the rules not
    def test_walk_guesses_find_what_every_guess_finds(self, seed):
        # search walks the cuts of rest by the conclusions, or guesses every
        # vector when there are fewer conditions. The walk skips the empty
        # pool: it believes every condition, which licenses no rule, so that
        # vector's closure is the facts; for premises it may close to the
        # inconsistent belief set, which the expansion search drops
        theory = random_default_theory(random.Random(seed))
        premises = random_premises(random.Random(seed))
        for compiled, drop in ((theory.compiled, ()), (premises.compiled, (0,))):
            every = sequences.fixed_points(compiled, range(1 << len(compiled[0])))
            found = sequences.search(compiled)
            assert [m for m in found if m not in drop] == [m for m in every if m not in drop]


class TestWorldCap:
    NAMES = [f"c{i}" for i in range(20)]

    def chain(self, names, k=6, connected=False):
        """Facts pin all but the last ``k`` constants; ``k`` rules
        ``true : M c / c`` set the rest, so all constants end up true.
        ``connected`` writes each conclusion ``c & (z | ~z)`` for the last
        constant ``z``, which ties the rules into one part."""
        vocab = Vocabulary(names)
        z = Const(names[-1])
        link = (lambda c: c & (z | ~z)) if connected else (lambda c: c)
        return DefaultTheory(
            rules=tuple(
                DefaultRule(f"r{i}", TRUE, (Const(n),), link(Const(n)))
                for i, n in enumerate(names[-k:])
            ),
            facts=tuple(Const(n) for n in names[:-k]),
            vocab=vocab,
        )

    def test_twenty_constants_run(self):
        theory = self.chain(self.NAMES)
        (kernel,) = extensions(theory)
        assert kernel.worlds == {World(theory.vocab, self.NAMES)}
        assert gamma_operator(theory, kernel.worlds) == kernel.worlds

    def test_twenty_one_constants_refused(self):
        theory = self.chain(self.NAMES + ["c20"])
        seq = PartitionSequence.of_classes((frozenset(), frozenset()), theory.vocab, "default")
        for run in (
            lambda: extensions(theory),
            lambda: gamma_operator(theory, frozenset()),
            lambda: build_default_sequences(theory),
            lambda: check_default_sequence(theory, seq),
        ):
            with pytest.raises(ResourceLimitError, match="capped at 20"):
                run()

    def test_caps_checked_rules_then_constants(self):
        # each refused before anything is compiled
        for names, k, message in (
            (self.NAMES + ["c20"], 17, "capped at 16"),
            (self.NAMES + ["c20"], 16, "capped at 20"),
        ):
            theory = self.chain(names, k)
            for run in (lambda: extensions(theory), lambda: build_default_sequences(theory)):
                with pytest.raises(ResourceLimitError, match=message):
                    run()
            assert not cached(theory)

    def test_thirteen_rules_over_twenty_constants_in_flat_memory(self):
        # one part: 2^13 pools of 2^20 bits, walked one per rule at a time
        theory = self.chain(self.NAMES, k=13, connected=True)
        tracemalloc.start()
        try:
            (kernel,) = extensions(theory)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kernel.worlds == {World(theory.vocab, self.NAMES)}
        assert len(theory.parts) == 1 and peak < 16 << 20

    def test_sixteen_rules_over_twenty_constants_split(self, monkeypatch):
        # sixteen parts of one rule each: one pool and one close per part
        closes = []
        real_close = sequences.close
        monkeypatch.setattr(
            sequences, "close", lambda *args: closes.append(args) or real_close(*args)
        )
        theory = self.chain(self.NAMES, k=16)
        (kernel,) = extensions(theory)
        assert kernel.worlds == {World(theory.vocab, self.NAMES)}
        assert len(theory.parts) == 16 and len(closes) == 16

    def test_twenty_constants_sequences_stay_masks(self, monkeypatch):
        monkeypatch.setattr(sequences, "DEFAULT_ORDER_LIMIT", 5)
        # no World is built: a first class of 2^20 - 64 worlds is never listed
        theory = self.chain(self.NAMES)
        seqs = build_default_sequences(theory)
        assert len(seqs) == 5
        extension = 1 << seqs[0].table.index(World(theory.vocab, self.NAMES))
        for seq in seqs:
            assert "classes" not in seq.__dict__ and not seq.table._worlds
            assert seq.masks[-1] == extension

    def test_twenty_constants_sequences_check_clean_as_masks(self, monkeypatch):
        monkeypatch.setattr(sequences, "DEFAULT_ORDER_LIMIT", 5)
        # the checker reads the masks of a sequence over its own dense table
        theory = self.chain(self.NAMES)
        seqs = build_default_sequences(theory)
        assert len(seqs) == 5
        for seq in seqs:
            assert check_default_sequence(theory, seq) == []
            assert "classes" not in seq.__dict__ and not seq.table._worlds


class TestBuildSequences:
    def test_rival_theory_published_classes(self, rival_theory, pq):
        bb = by_bits(pq)
        seqs = build_default_sequences(rival_theory)
        as_tuples = {tuple(s.classes) for s in seqs}
        first = (
            frozenset(),
            frozenset({bb[(1, 1)], bb[(1, 0)]}),
            frozenset({bb[(0, 1)], bb[(0, 0)]}),
        )
        second = (
            frozenset(),
            frozenset({bb[(0, 1)], bb[(0, 0)]}),
            frozenset({bb[(1, 0)]}),
            frozenset({bb[(1, 1)]}),
        )
        assert as_tuples == {first, second}

    def test_self_defeating_builds_nothing(self, self_defeating_theory):
        assert build_default_sequences(self_defeating_theory) == []

    def test_facts_only_single_split(self):
        vocab = Vocabulary(["p"])
        theory = DefaultTheory(rules=(), facts=(P,), vocab=vocab)
        (seq,) = build_default_sequences(theory)
        w_false, w_true = enumerate_worlds(vocab)
        assert seq.classes == (frozenset({w_false}), frozenset({w_true}))

    def test_inconsistent_facts_build_nothing(self, pq):
        theory = DefaultTheory(rules=(), facts=(FALSE,), vocab=pq)
        assert build_default_sequences(theory) == []

    def test_builder_output_passes_checker_and_structure(self, monkeypatch):
        monkeypatch.setattr(sequences, "DEFAULT_ORDER_LIMIT", 20)
        rng = random.Random(515151)
        for _ in range(60):
            theory = random_default_theory(rng)
            worlds = enumerate_worlds(theory.vocab)
            for seq in build_default_sequences(theory):
                assert validate_structure(seq, worlds) == []
                assert check_default_sequence(theory, seq) == []

    def test_provenance_names_rules(self, rival_theory):
        seqs = build_default_sequences(rival_theory)
        losing_first = next(s for s in seqs if len(s.classes) == 4)
        assert losing_first.provenance == ("", "r1", "r3", "")

    def test_exhausted_order_budget_still_covers_every_extension(
        self, rival_theory, monkeypatch
    ):
        monkeypatch.setattr(sequences, "DEFAULT_ORDER_LIMIT", 1)
        seqs = build_default_sequences(rival_theory)
        last_classes = {s.last_class for s in seqs}
        assert last_classes == {k.worlds for k in extensions(rival_theory)}


class TestPeelOrders:
    @pytest.mark.parametrize("limit", [1, 2, 1000])
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_sequences_are_the_plain_walks_distinct_orders(self, limit, seed):
        # classes, provenance and order, under a patched order limit
        theory = random_default_theory(random.Random(seed))
        kernels = [k.worlds for k in extensions(theory)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sequences, "DEFAULT_ORDER_LIMIT", limit)
            built = build_default_sequences(theory)
        got = [(list(s.classes), list(s.provenance)) for s in built]
        assert got == reference_default_sequences(theory, kernels, limit)

    def test_rules_written_thrice_peel_as_one(self):
        # each rule's copies peel alike, so the 5! orders of the five
        # rules are each found once, by the first copy, within the budget
        names = [f"c{i}" for i in range(5)]
        rules = tuple(
            DefaultRule(f"r{i}_{j}", TRUE, (Const(n),), Const(n))
            for i, n in enumerate(names)
            for j in range(3)
        )
        seqs = build_default_sequences(DefaultTheory(rules, (), Vocabulary(names)))
        assert len(seqs) == len({s.masks for s in seqs}) == 120
        firsts = {f"r{i}_0" for i in range(5)}
        assert {label for s in seqs for label in s.provenance} == {"", *firsts}


class TestCheckSequence:
    def test_published_sequences_pass(self, rival_theory, pq):
        for seq in build_default_sequences(rival_theory):
            assert check_default_sequence(rival_theory, seq) == []

    def test_self_defeating_candidate_breaks_closure(self, self_defeating_theory):
        vocab = self_defeating_theory.vocab
        w_false, w_true = enumerate_worlds(vocab)
        seq = PartitionSequence.of_classes(
            (frozenset(), frozenset({w_false}), frozenset({w_true})), vocab, "default"
        )
        problems = check_default_sequence(self_defeating_theory, seq)
        assert any(p.clause == "condition 3" for p in problems)

    def test_self_defeating_other_order_breaks_condition_two(
        self, self_defeating_theory
    ):
        vocab = self_defeating_theory.vocab
        w_false, w_true = enumerate_worlds(vocab)
        seq = PartitionSequence.of_classes(
            (frozenset(), frozenset({w_true}), frozenset({w_false})), vocab, "default"
        )
        problems = check_default_sequence(self_defeating_theory, seq)
        assert any(p.clause == "condition 2" for p in problems)

    def test_swapped_classes_break_condition_one(self):
        vocab = Vocabulary(["p"])
        theory = DefaultTheory(rules=(), facts=(P,), vocab=vocab)
        w_false, w_true = enumerate_worlds(vocab)
        seq = PartitionSequence.of_classes(
            (frozenset({w_true}), frozenset({w_false})), vocab, "default"
        )
        problems = check_default_sequence(theory, seq)
        assert any(p.clause == "condition 1" for p in problems)

    def test_strict_mode_requires_witnesses_in_own_class(self, rival_theory):
        # every split removes the conclusion's falsifiers, so a rule whose
        # justification equals its conclusion can never witness one inside
        # its own class
        for seq in build_default_sequences(rival_theory):
            assert check_default_sequence(rival_theory, seq, strict=True) != []

    def test_structural_violations_reported_first(self, rival_theory, pq):
        worlds = enumerate_worlds(pq)
        seq = PartitionSequence.of_classes(
            (frozenset(), frozenset(list(worlds)[:2])), pq, "default"
        )
        problems = check_default_sequence(rival_theory, seq)
        assert any(p.clause == "coverage" for p in problems)


class TestAgainstBruteForce:
    def test_last_classes_equal_extensions_on_random_theories(self):
        rng = random.Random(909090)
        for _ in range(60):
            theory = random_default_theory(rng)
            worlds = enumerate_worlds(theory.vocab)
            expected = brute_force_default_last_classes(theory, worlds)
            got = {k.worlds for k in extensions(theory)}
            assert got == expected

    def test_justification_named_twice(self):
        # r names one belief condition twice: its bit must be set once, by
        # |, where + would carry into the next condition's bit
        theory = parse_kb(
            "vocab: p q\nrule r: true : M p, M p / p\nrule s: true : M ~p / ~p\n"
            "rule t: true : M q, M ~p, M q / q\n",
            "default",
        ).body
        worlds = enumerate_worlds(theory.vocab)
        got = {k.worlds for k in extensions(theory)}
        assert got == brute_force_default_last_classes(theory, worlds) != set()
        ts, candidates = default_candidates(theory, worlds)
        for candidate in _subsets(worlds):
            assert gamma_operator(theory, candidate) == default_operator(theory, candidate, ts)
        for classes in candidates:
            seq = PartitionSequence.of_classes(tuple(classes), theory.vocab, "default")
            ok = _default_sequence_ok(theory, classes, ts)
            assert (check_default_sequence(theory, seq) == []) == ok, seq
        for seq in build_default_sequences(theory):
            assert _default_sequence_ok(theory, list(seq.classes), ts)

    def test_checker_agrees_with_oracle_on_every_candidate(self):
        rng = random.Random(4242)
        rejected = 0
        for _ in range(150):
            theory = random_default_theory(rng)
            ts, candidates = default_candidates(theory, enumerate_worlds(theory.vocab))
            for classes in candidates:
                seq = PartitionSequence.of_classes(tuple(classes), theory.vocab, "default")
                ok = _default_sequence_ok(theory, classes, ts)
                assert (check_default_sequence(theory, seq) == []) == ok, seq
                rejected += not ok
        assert rejected > 0
